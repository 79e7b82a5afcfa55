"""Exit codes, file outputs, and text contracts of the command line tool."""

import argparse
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dicesim import cli, kernels, stats
from dicesim.cli import main
from reference_board import face_lines

BOOT = "0 RESET 1\n1000 RESET 0\n1000 TILT 1\n"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
#  rolls
# ----------------------------------------------------------------------

def test_rolls_stdout(capsys):
    code, out, err = _run(capsys, "rolls", "--sides", "20", "--count", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "roll"
    values = [int(v) for v in lines[1:]]
    assert len(values) == 5
    assert all(1 <= v <= 20 for v in values)


def test_rolls_deterministic(capsys):
    a = _run(capsys, "rolls", "--sides", "6", "--count", "50")
    b = _run(capsys, "rolls", "--sides", "6", "--count", "50")
    assert a == b


def test_rolls_seed_changes_output(capsys):
    a = _run(capsys, "rolls", "--sides", "6", "--count", "50", "--seed", "1")
    b = _run(capsys, "rolls", "--sides", "6", "--count", "50", "--seed", "2")
    assert a[1] != b[1]


def test_rolls_to_file(tmp_path, capsys):
    out_file = tmp_path / "rolls.csv"
    code, out, err = _run(capsys, "rolls", "--sides", "6", "--count", "10", "--out", str(out_file))
    assert code == 0
    assert out == ""
    lines = out_file.read_text().splitlines()
    assert lines[0] == "roll"
    assert len(lines) == 11


def test_rolls_across_chunks_matches_faces(tmp_path, capsys):
    # each chunk continues the sequence: at and around the chunk boundaries, in
    # both modes, to a file and to stdout, the text is that of one whole call
    chunk = cli.ROLLS_PER_CHUNK
    for mode, sequence in (("feedback", kernels.feedback_sequence), ("stateless", kernels.stateless_sequence)):
        for count in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            faces = sequence(0xC0FFEE, count) % 12 + 1
            want = "roll\n" + "".join(f"{v}\n" for v in faces.tolist())
            argv = ("rolls", "--sides", "12", "--count", str(count), "--mode", mode, "--seed", str(0xC0FFEE))
            out_file = tmp_path / f"{mode}_{count}.csv"
            assert _run(capsys, *argv, "--out", str(out_file))[0] == 0
            assert out_file.read_text(encoding="utf-8") == want, (mode, count)
            assert _run(capsys, *argv)[1] == want, (mode, count)


@pytest.mark.parametrize("mode", ["feedback", "stateless"])
def test_rolls_memory_does_not_grow_with_count(tmp_path, mode):
    # generated and written a chunk at a time, so the traced peak is about one
    # chunk's words and text whatever the count; 1 MB of slack covers allocator noise
    def peak(count):
        tracemalloc.start()
        try:
            assert main(["rolls", "--sides", "20", "--count", str(count), "--mode", mode,
                         "--seed", "7", "--out", str(tmp_path / "rolls.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200_000)  # builds the cached jump tables
    small, large = peak(200_000), peak(800_000)
    assert large <= small + 1_000_000, (small, large)


def _dicesim(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return [sys.executable, "-m", "dicesim", *argv], env


def test_rolls_into_a_closed_pipe_ends_quietly():
    # `dicesim rolls ... | head -1`: the reader leaves long before the last
    # chunk, and the writer ends with EXIT_IO and nothing on stderr
    argv, env = _dicesim("rolls", "--sides", "6", "--count", "300000")
    rolls = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = subprocess.run(["head", "-1"], stdin=rolls.stdout, capture_output=True, timeout=60)
    rolls.stdout.close()
    with rolls.stderr:
        err = rolls.stderr.read()
    assert rolls.wait(timeout=60) == cli.EXIT_IO
    assert (head.stdout, err) == (b"roll\n", b"")


def test_short_output_into_a_closed_pipe_ends_quietly():
    # output that fits the stdout buffer meets the closed pipe at main's
    # flush, not at interpreter exit
    argv, env = _dicesim("rolls", "--sides", "6", "--count", "3")
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        rolls = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (rolls.returncode, rolls.stderr) == (cli.EXIT_IO, b"")


def test_rolls_stateless_mode(capsys):
    code, out, err = _run(capsys, "rolls", "--sides", "100", "--count", "8", "--mode", "stateless")
    assert code == 0
    values = [int(v) for v in out.splitlines()[1:]]
    assert all(1 <= v <= 100 for v in values)


def test_rolls_rejects_feedback_zero_seed(capsys):
    code, out, err = _run(capsys, "rolls", "--sides", "6", "--count", "1", "--seed", "0")
    assert code == 2
    assert "nonzero" in err


def test_rolls_rejects_unsupported_die(capsys):
    code, out, err = _run(capsys, "rolls", "--sides", "7", "--count", "3")
    assert (code, out) == (2, "")
    assert err == "error: unsupported die d7 (supported: 2, 4, 6, 8, 10, 12, 20, 100)\n"


def test_rolls_rejects_bad_count(capsys):
    code, out, err = _run(capsys, "rolls", "--sides", "6", "--count", "0")
    assert (code, out) == (2, "")
    assert err == "error: count must be positive: 0\n"


# ----------------------------------------------------------------------
#  stats
# ----------------------------------------------------------------------

def _write_rolls(path, values):
    path.write_text("roll\n" + "\n".join(str(v) for v in values) + "\n")


def test_stats_pass_verdict(tmp_path, capsys):
    rolls = tmp_path / "rolls.csv"
    code, out, _ = _run(capsys, "rolls", "--sides", "6", "--count", "600", "--out", str(rolls))
    assert code == 0
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "6")
    assert code == 0
    assert "PASS" in out
    assert "face   1 |" in out


def test_stats_fail_verdict(tmp_path, capsys):
    rolls = tmp_path / "loaded.csv"
    _write_rolls(rolls, [1] * 500 + [2, 3, 4, 5, 6] * 20)
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "6")
    assert code == 3
    assert "FAIL" in out


def test_stats_histogram_file(tmp_path, capsys):
    rolls = tmp_path / "rolls.csv"
    _write_rolls(rolls, [1, 2] * 60)
    hist = tmp_path / "hist.csv"
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "2", "--out", str(hist))
    assert code == 0
    assert hist.read_text().splitlines()[0] == "face,count,expected"


def test_stats_too_few_samples(tmp_path, capsys):
    rolls = tmp_path / "rolls.csv"
    _write_rolls(rolls, [1, 2, 3, 4, 5, 6])
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "6")
    assert code == 2
    assert "need at least" in err


def test_stats_out_of_range_roll(tmp_path, capsys):
    rolls = tmp_path / "rolls.csv"
    _write_rolls(rolls, [1, 2, 9])
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "6")
    assert code == 2


# only blanks, tabs and CR are stripped: the last five are blanks to str.strip()
@pytest.mark.parametrize("text", ["1_0", "+3", "\u0663", "3\xa0", "5\x0c", "1\x0b", "1\x85", "\u20282"])
def test_stats_rolls_are_ascii_decimal_only(tmp_path, capsys, text):
    rolls = tmp_path / "rolls.csv"
    _write_rolls(rolls, [1, 2] * 60 + [text])
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "20")
    assert code == 2
    assert f"line 122: bad roll value {text!r}" in err


TOO_LONG = "error: line 120: bad roll value ({} digits after the leading zeros, more than 4300)\n"


# a roll is read by its digits after the leading zeros: more than 4 300 of
# them is a bad line, named like any other, and fewer are a roll
@pytest.mark.parametrize("text, code, message", [
    pytest.param("9" * 5_000, 2, TOO_LONG.format(5000), id="too-long"),
    pytest.param("9" * 4_301, 2, TOO_LONG.format(4301), id="one-too-long"),
    pytest.param("0" * 4_400 + "5", 0, "", id="leading-zeros"),
])
def test_stats_rolls_count_significant_digits(tmp_path, capsys, text, code, message):
    rolls = tmp_path / "rolls.csv"
    _write_rolls(rolls, [1, 2, 3, 4, 5, 6] * 19 + [1, 2, 3, 4, text, 6])
    result = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "6")
    assert result[0] == code
    assert result[2] == message
    if code == 0:
        assert "chi-square 0.0000" in result[1]  # read as a 5


def test_stats_rolls_strip_blanks_tabs_and_cr(tmp_path, capsys):
    rolls = tmp_path / "rolls.csv"
    rolls.write_bytes(b"roll\r\n" + b" 1\t\r\n\t2 \r\n" * 60)
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "2")
    assert code == 0
    assert "chi-square 0.0000" in out


# a gap of ROLL_BYTES_PER_READ two-byte lines puts the errors reads apart
@pytest.mark.parametrize("gap", [0, cli.ROLL_BYTES_PER_READ])
@pytest.mark.parametrize("bad_first", [True, False])
def test_stats_rolls_report_the_earlier_error(tmp_path, capsys, bad_first, gap):
    # rolls are tallied as they are read, so whichever error comes first in the file is reported
    rolls = tmp_path / "rolls.csv"
    first, second = ("x", 9) if bad_first else (9, "x")
    _write_rolls(rolls, [1, 2] * 60 + [first] + [1] * gap + [second])
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "6")
    assert code == 2
    assert ("line 122: bad roll value 'x'" if bad_first else "line 122: roll out of range 1..6: 9") in err


# a line that is not UTF-8 is a bad line that shows its bytes, or on line 1 a
# header; an out-of-range roll above it is still the earlier error
@pytest.mark.parametrize("data, code, message", [
    pytest.param(b"roll\n1\n\xe9\n2\n", 2, r"line 3: bad roll value '\\xe9'", id="bad-line"),
    pytest.param(b"1\n2\n\xff\xfe3\n", 2, r"line 3: bad roll value '\\xff\\xfe3'", id="bad-bytes"),
    pytest.param(b"\xe9\n" + b"1\n2\n3\n4\n5\n6\n" * 20, 0, "chi-square 0.0000", id="header"),
    pytest.param(b"1\n2\n7\n\xe9\n", 2, "line 3: roll out of range 1..6: 7", id="earlier-range-error"),
])
def test_stats_rolls_line_that_is_not_utf8(tmp_path, capsys, data, code, message):
    rolls = tmp_path / "rolls.csv"
    rolls.write_bytes(data)
    result = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "6")
    assert result[0] == code
    assert message in result[1 + (code != 0)]


def test_stats_rolls_name_the_line_of_an_out_of_range_roll(tmp_path, capsys):
    # the line in the file, counting the header and blank lines, not the roll's index
    rolls = tmp_path / "rolls.csv"
    rolls.write_bytes(b"roll\n\n\n1\n9\n")
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "6")
    assert code == 2
    assert err == "error: line 5: roll out of range 1..6: 9\n"


PAIRS = cli.ROLL_BYTES_PER_READ  # "1\n2\n" pairs: four reads of the file


def test_stats_rolls_count_lines_across_reads(tmp_path, capsys):
    rolls = tmp_path / "rolls.csv"
    _write_rolls(rolls, [1, 2] * PAIRS + ["x"])
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "2")
    assert code == 2
    assert f"line {2 * PAIRS + 2}: bad roll value 'x'" in err


def test_stats_rolls_later_reads_keep_the_per_line_rules(tmp_path, capsys):
    # reads of bare digits are counted whole; one that is not goes line by line
    rolls = tmp_path / "rolls.csv"
    _write_rolls(rolls, [1, 2] * PAIRS + [9])
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "2")
    assert code == 2
    assert f"line {2 * PAIRS + 2}: roll out of range 1..2: 9" in err
    # a blank line, padding and leading zeros in a later read count as in the first
    rolls.write_bytes(b"roll\n" + b"1\n2\n" * PAIRS + b"\n 1\r\n2\t\n001\n002")
    hist = tmp_path / "hist.csv"
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", "2", "--out", str(hist))
    assert code == 0
    assert [line.split(",")[:2] for line in hist.read_text().splitlines()[1:]] == \
        [["1", str(PAIRS + 2)], ["2", str(PAIRS + 2)]]


@st.composite
def rolls_files(draw):
    """A d(sides) rolls file: bare rolls with up to three odd lines among them,
    an optional header, LF, CRLF or mixed ends, with or without a final line end."""
    sides = draw(st.sampled_from((2, 6, 20, 100)))
    lines = draw(st.lists(st.integers(1, sides).map(str), max_size=300))
    odd = ["", "0", "007", "0100", "1000", "12345", str(sides + 1), " 3", "4\t", "x", "-1"]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(odd)))
    if draw(st.booleans()):
        lines.insert(0, "roll")
    ends = draw(st.sampled_from((["\n"], ["\r\n"], ["\n", "\r\n"])))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")  # no final line end
    return sides, text.encode()


def _stats_result(path, sides):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["stats", "--rolls", str(path), "--sides", str(sides)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rolls_files(), st.integers(1, 64))
def test_stats_rolls_fast_path_equals_per_line_path(tmp_path, file, read_bytes):
    # whole-file reads and reads of a few bytes, so lines straddle read
    # boundaries, give what every read checked line by line gives
    sides, text = file
    path = tmp_path / "rolls.csv"
    path.write_bytes(text)
    with mock.patch.object(kernels, "count_rolls", lambda block, sides: None):
        want = _stats_result(path, sides)
    assert _stats_result(path, sides) == want
    with mock.patch.object(cli, "ROLL_BYTES_PER_READ", read_bytes):
        assert _stats_result(path, sides) == want


def test_stats_rolls_memory_does_not_grow_with_the_file(tmp_path):
    # read a bounded block at a time, so the traced peak is about one read's
    # worth whatever the file's length; 1 MB of slack covers allocator noise
    def peak(count):
        rolls = tmp_path / f"rolls_{count}.csv"
        assert main(["rolls", "--sides", "20", "--count", str(count), "--out", str(rolls)]) == 0
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["stats", "--rolls", str(rolls), "--sides", "20"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)
    small, large = peak(200_000), peak(800_000)
    assert large <= small + 1_000_000, (small, large)


def test_stats_missing_file(capsys):
    code, out, err = _run(capsys, "stats", "--rolls", "/nonexistent/rolls.csv", "--sides", "6")
    assert code == 1


@pytest.mark.parametrize("sides", ["0", "1", "101", "1000000"])
def test_stats_rejects_sides_without_a_verdict(tmp_path, capsys, sides):
    # 2..100 is df 1..99, the critical-value table; any other die is refused
    # before a line is read (the bad line is never named) or a count allocated
    rolls = tmp_path / "rolls.csv"
    _write_rolls(rolls, [1, "x"] * 1_000)
    code, out, err = _run(capsys, "stats", "--rolls", str(rolls), "--sides", sides)
    assert code == 2
    assert out == ""
    assert "--sides must be in 2..100" in err
    assert _run(capsys, "stats", "--rolls", "/nonexistent/rolls.csv", "--sides", sides)[0] == 1


def test_stats_requires_inputs(capsys):
    code, out, err = _run(capsys, "stats")
    assert code == 2


def test_stats_bias_report(capsys):
    code, out, err = _run(capsys, "stats", "--bias", "20")
    assert code == 0
    assert "face 1,214748365" in out
    assert "face 20,214748364" in out
    assert "remainder 16" in out


def test_stats_bias_die_wider_than_domain(capsys):
    code, out, err = _run(capsys, "stats", "--bias", "300", "--bits", "8")
    assert code == 0
    assert "quotient 0, remainder 256, worst-case ratio inf" in out
    assert "face 256,1" in out
    assert out.endswith("face 300,0\n")


def test_stats_bias_lines_across_writes(capsys):
    # face lines go out BIAS_FACES_PER_WRITE at a time, split where the count changes
    sides = 3 * cli.BIAS_FACES_PER_WRITE + 5
    code, out, _ = _run(capsys, "stats", "--bias", str(sides), "--bits", "14")
    assert code == 0
    report = stats.modulo_bias(sides, 14)
    assert out.split("\n", 2)[2] == face_lines((face, report.count(face)) for face in range(1, sides + 1))


def test_stats_bias_count_split_and_write_inside_one_width(capsys):
    # faces 1 000..8 000 are one width, and inside it the count changes
    # after face 1 216 (2**24 mod 8 000) and a write ends at face 3 999
    sides = 8_000
    code, out, _ = _run(capsys, "stats", "--bias", str(sides), "--bits", "24")
    assert code == 0
    report = stats.modulo_bias(sides, 24)
    assert 1_000 <= report.remainder < cli.BIAS_FACES_PER_WRITE < sides
    assert out.split("\n", 2)[2] == face_lines((face, report.count(face)) for face in range(1, sides + 1))


def test_stats_bias_validates_bits(capsys):
    code, out, err = _run(capsys, "stats", "--bias", "6", "--bits", "0")
    assert code == 2


# ----------------------------------------------------------------------
#  uart
# ----------------------------------------------------------------------

def test_uart_encode_decode_round_trip(capsys):
    code, bits, _ = _run(capsys, "uart", "encode", "16", "a5")
    assert code == 0
    assert bits.strip() == "0011010001" + "0101001011"
    code, out, err = _run(capsys, "uart", "decode", bits.strip())
    assert code == 0
    assert out.split() == ["16", "a5"]


def test_uart_encode_long_hex_string(capsys):
    code, out, _ = _run(capsys, "uart", "encode", "16a5")
    assert code == 0
    assert out.strip() == "0011010001" + "0101001011"


def test_uart_encode_rejects_odd_hex(capsys):
    code, _, err = _run(capsys, "uart", "encode", "16a")
    assert code == 2
    assert "odd-length" in err


def test_uart_encode_rejects_garbage(capsys):
    code, _, err = _run(capsys, "uart", "encode", "zz")
    assert code == 2


def test_uart_encode_needs_a_byte(capsys):
    # nargs="+": argparse itself refuses a line with no bytes, before cmd_uart
    code, out, err = _run(capsys, "uart", "encode")
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: data\n")


def test_uart_decode_framing_error(capsys):
    bad = "0011010000"  # stop bit low
    code, out, err = _run(capsys, "uart", "decode", bad)
    assert code == 3
    assert "framing error" in err


def test_uart_decode_rejects_non_bits(capsys):
    code, _, err = _run(capsys, "uart", "decode", "0012")
    assert code == 2


# ----------------------------------------------------------------------
#  simulate
# ----------------------------------------------------------------------

def test_simulate_writes_all_outputs(tmp_path, capsys):
    trace = tmp_path / "boot.trace"
    trace.write_text(BOOT)
    out_dir = tmp_path / "run"
    code, out, err = _run(capsys, "simulate", "--trace", str(trace), "--out", str(out_dir),
                          "--duration-us", "2000000", "--uart-bits")
    assert code == 0
    assert (out_dir / "log.csv").read_text().startswith("record,t_us,")
    assert (out_dir / "uart.csv").read_text().startswith("t_us,byte_hex")
    assert (out_dir / "uart_bits.csv").read_text().startswith("t_us,level")
    state = json.loads((out_dir / "state.json").read_text())
    assert state["t_us"] == 2_000_000
    assert "1 settled rolls" in out


def test_simulate_jsonl_format(tmp_path, capsys):
    trace = tmp_path / "boot.trace"
    trace.write_text(BOOT)
    out_dir = tmp_path / "run"
    code, _, _ = _run(capsys, "simulate", "--trace", str(trace), "--out", str(out_dir),
                      "--duration-us", "300000", "--format", "jsonl")
    assert code == 0
    lines = (out_dir / "log.jsonl").read_text().splitlines()
    assert all(json.loads(line)["record"] in ("ROLL", "UART", "DISPLAY", "ONPIN") for line in lines)


def test_simulate_missing_trace(tmp_path, capsys):
    code, out, err = _run(capsys, "simulate", "--trace", str(tmp_path / "nope.trace"),
                        "--out", str(tmp_path / "run"))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read trace: [Errno 2] No such file or directory: '{tmp_path / 'nope.trace'}'\n"
    assert not (tmp_path / "run").exists()


def test_simulate_malformed_trace(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("5 TILT maybe\n")
    code, _, err = _run(capsys, "simulate", "--trace", str(trace), "--out", str(tmp_path / "run"))
    assert code == 2
    assert "malformed trace" in err


def test_simulate_trace_that_is_not_utf8(tmp_path):
    # a byte that is not UTF-8 is a malformed line, reported by its number
    trace = tmp_path / "bytes.trace"
    trace.write_bytes(b"0 RESET 1\n\xff\xfe 5\n")
    argv, env = _dicesim("simulate", "--trace", str(trace), "--out", str(tmp_path / "run"))
    run = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert run.returncode == cli.EXIT_USAGE
    assert run.stderr == b"error: malformed trace: line 2: byte 0xff is not UTF-8 text\n"
    assert b"Traceback" not in run.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line, field", [
    pytest.param("9" * 5_000 + " TILT 1", "timestamp", id="timestamp"),
    pytest.param("0 ADC " + "9" * 5_000, "value", id="value"),
])
def test_simulate_names_a_decimal_field_too_long(tmp_path, capsys, line, field):
    trace = tmp_path / "long.trace"
    trace.write_text("0 RESET 1\n" + line + "\n")
    code, _, err = _run(capsys, "simulate", "--trace", str(trace), "--out", str(tmp_path / "run"))
    assert code == 2
    assert err == f"error: malformed trace: line 2: bad {field} (5000 digits after the leading zeros, more than 4300)\n"
    assert not (tmp_path / "run").exists()


def test_simulate_duration_before_last_event(tmp_path, capsys):
    trace = tmp_path / "late.trace"
    trace.write_text("500000 TILT 1\n")
    code, _, err = _run(capsys, "simulate", "--trace", str(trace), "--out", str(tmp_path / "run"),
                        "--duration-us", "1000")
    assert code == 2


# ----------------------------------------------------------------------
#  entry point
# ----------------------------------------------------------------------

def test_usage_errors_return_two(capsys):
    assert main([]) == 2
    assert main(["rolls"]) == 2
    assert main(["simulate", "--trace", "x"]) == 2  # --out missing
    capsys.readouterr()


def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_later_calls_build_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.__wrapped__()
    assert len(built) == 5  # the counter sees the top parser and its four subcommands
    assert main(["uart", "encode", "16"]) == 0  # builds the parser if no earlier call did
    built.clear()
    for argv in (["uart", "encode", "16"], ["stats", "--bias", "6"], ["rolls"], ["--help"]):
        main(argv)
    capsys.readouterr()
    assert built == []


def _parse_args(argv):
    """parse_args's namespace for argv as a dict, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


_VALUES = st.one_of(st.integers(-3, 300).map(str), st.sampled_from([
    "-0", "0x10", "1_000", " 7", "+3", "", "x", "boot.trace", "feedback", "stateless", "csv", "jsonl",
    "0.05", "0.01", "0.001", "0.2", "--", "a=b", "encode", "16"]))


def _mostly(usual, *others):
    """usual, eight times in ten when there are two others."""
    return st.sampled_from([usual] * 8 + list(others)).flatmap(lambda strategy: strategy)


def _own_pieces(options):
    """An option of the command, followed by a value its type and choices take, any value, or none."""
    def pieces(option):
        action, flag = options[option]
        fitting = (st.sampled_from(sorted(action.choices)) if action.choices
                   else st.integers(0, 300).map(str) if action.type is int else st.just("p"))
        given = st.just((option,)) if flag else fitting.map(lambda value: (option, value))
        return _mostly(given, _VALUES.map(lambda value: (option, value)), st.just((option,)))
    return st.sampled_from(sorted(options)).flatmap(pieces)


_OWN_PIECES = {command: _own_pieces(options) for command, (options, _) in cli._plain_options()[1].items()}
_OPTIONS = sorted({"-h", "--help"}.union(*(options for options, _ in cli._plain_options()[1].values())))
_TOKENS = st.one_of(
    st.sampled_from(_OPTIONS),
    st.sampled_from(_OPTIONS).map(lambda option: option[:-2]),  # abbreviations, and - or -- alone
    st.builds("{}={}".format, st.sampled_from(_OPTIONS), _VALUES),
    _VALUES,
).map(lambda token: (token,))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([("simulate", ("--trace", "t"), ("--out", "o")), ("rolls", ("--sides", "20"), ("--count", "5")),
                        ("stats",), ("simulate",), ("rolls",), ("uart", ("encode",)), ("-h",), ("x",)]),
       st.data())
def test_plain_line_reads_as_parse_args_does(head, data):
    """Lines of a command's own options, mostly with values they take, in
    any order, and now and then any other token."""
    own = _OWN_PIECES.get(head[0], _TOKENS)
    pieces = list(head[1:]) + data.draw(st.lists(_mostly(own, _TOKENS), max_size=5))
    argv = [head[0], *(token for piece in data.draw(st.permutations(pieces)) for token in piece)]
    got = cli._plain_args(argv)
    if got is not None:
        assert vars(got) == _parse_args(argv), argv


@pytest.mark.parametrize("argv", [
    ["simulate", "--trace", "t", "--out", "o", "--duration-us", "3000000", "--prng-mode", "feedback",
     "--intuitive-tilt", "--adc-seed", "0", "--format", "jsonl", "--uart-bits", "--out", "o2"],
    ["rolls", "--seed", " 7", "--sides", "6", "--count", "1_000", "--mode", "stateless", "--out", ""],
    ["stats", "--rolls", "r.csv", "--sides", "+20", "--alpha", "0.001"],
    ["stats"],
])
def test_plain_line_is_read_without_argparse(argv):
    got = cli._plain_args(argv)
    assert got is not None and vars(got) == _parse_args(argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["rolls", "--help"], ["stats", "-h"],  # help
    ["uart", "encode", "16"],  # a command with positionals
    ["rolls", "--sides=6", "--count", "5"],  # --opt=value
    ["rolls", "--sid", "6", "--count", "5"], ["simulate", "--trace", "t", "--out", "o", "--dur", "5"],  # abbreviations
    ["simulate", "--trace", "t", "--out", "o", "--adc-seed", "-5"],  # a negative value
    ["rolls", "--sides", "x", "--count", "5"], ["stats", "--bias", "0x10"],  # bad types
    ["simulate", "--trace", "t", "--out", "o", "--format", "xml"], ["stats", "--alpha", "0.2"],  # bad choices
    ["rolls", "--sides", "6"], ["simulate", "--out", "o"],  # a required option missing
    ["rolls", "--sides", "6", "--count"],  # no value
    ["stats", "--uart-bits"], ["stats", "--bias", "6", "extra"],  # another command's option, a positional
    ["simulate", "--trace", "t", "--out", "o", "--uart-bits", "x"],  # a value after a flag
    ["simulate", "--trace", "t", "--out", "o", "--"], ["roll", "--sides", "6", "--count", "5"],
])
def test_other_lines_are_left_to_argparse(argv):
    assert cli._plain_args(argv) is None


def test_command_patched_after_the_first_call_is_the_one_that_runs(capsys, monkeypatch):
    assert main(["uart", "encode", "16"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_uart", lambda args: seen.append(args.data) or 0)
    assert main(["uart", "encode", "a5"]) == 0
    assert seen == [["a5"]]
    assert capsys.readouterr().out == "0011010001\n"


def test_no_option_carries_to_the_next_call(tmp_path, capsys):
    _, wide, _ = _run(capsys, "stats", "--bias", "6", "--bits", "8")
    assert "over the 2^8 domain" in wide
    _, out, _ = _run(capsys, "stats", "--bias", "6")
    assert "over the 2^32 domain" in out and "face 1,715827883" in out

    trace = tmp_path / "boot.trace"
    trace.write_text(BOOT)
    for name, flags in (("bits", ["--uart-bits"]), ("plain", [])):
        argv = ["simulate", "--trace", str(trace), "--out", str(tmp_path / name), "--duration-us", "2000000"]
        assert _run(capsys, *argv, *flags)[0] == 0
    assert (tmp_path / "bits" / "uart_bits.csv").exists()
    assert sorted(p.name for p in (tmp_path / "plain").iterdir()) == ["log.csv", "state.json", "uart.csv"]


@pytest.mark.parametrize("error", [["stats", "--bias", "6", "--bits", "8", "--alpha", "0.2"],
                                   ["stats", "--bias", "6", "--bits"],
                                   ["rolls", "--sides", "6", "--count", "5", "--seed", "x"]])
def test_usage_error_leaves_nothing_for_the_next_call(capsys, error):
    valid = ["stats", "--bias", "6"]
    argv, env = _dicesim(*valid)
    alone = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert alone.returncode == 0
    code, _, err = _run(capsys, *error)
    assert code == 2 and err.startswith("usage: dicesim")
    assert _run(capsys, *valid) == (0, alone.stdout, "")


# ----------------------------------------------------------------------
#  atomic writes
# ----------------------------------------------------------------------

def test_write_atomic_keeps_plain_file_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x\n", encoding="utf-8")
    target = tmp_path / "out.txt"
    cli._write_atomic(str(tmp_path), {"out.txt": lambda: "hello\n"})
    assert target.read_text(encoding="utf-8") == "hello\n"
    assert os.stat(target).st_mode == os.stat(plain).st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]


def test_outputs_are_written_without_setting_the_umask(tmp_path, monkeypatch, capsys):
    # the umask is process-wide: setting it, even to read it, would race other threads' new files
    def umask(mask):
        raise AssertionError("os.umask was called")

    monkeypatch.setattr(os, "umask", umask)
    trace = tmp_path / "boot.trace"
    trace.write_text(BOOT)
    assert _run(capsys, "simulate", "--trace", str(trace), "--out", str(tmp_path / "run"), "--uart-bits")[0] == 0
    assert _run(capsys, "rolls", "--sides", "6", "--count", "5", "--out", str(tmp_path / "rolls.csv"))[0] == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["log.csv", "state.json", "uart.csv", "uart_bits.csv"]


def test_write_atomic_tries_another_temp_name_when_one_exists(tmp_path, monkeypatch):
    # a temp name already taken is never written through; after TEMP_NAME_TRIES taken
    # names the write fails naming the user's path
    target, taken = tmp_path / "out.txt", bytes(6)
    (tmp_path / f".out.txt.{taken.hex()}.tmp").write_text("someone else's\n", encoding="utf-8")
    draws = iter([taken, taken, b"\x01" * 6])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    cli._write_atomic(str(tmp_path), {"out.txt": lambda: "hello\n"})
    assert target.read_text(encoding="utf-8") == "hello\n"
    assert (tmp_path / f".out.txt.{taken.hex()}.tmp").read_text(encoding="utf-8") == "someone else's\n"
    monkeypatch.setattr(os, "urandom", lambda n: taken)
    with pytest.raises(FileExistsError) as info:
        cli._write_atomic(str(tmp_path), {"out.txt": lambda: "again\n"})
    assert info.value.filename == str(target)
    assert target.read_text(encoding="utf-8") == "hello\n"
    assert len(list(tmp_path.iterdir())) == 2


def test_write_error_names_the_users_path(tmp_path, monkeypatch, capsys):
    # the temp file's random name never reaches stderr, so two runs print the same
    monkeypatch.chdir(tmp_path)
    argv = ("rolls", "--sides", "6", "--count", "1", "--out", "nodir/x.csv")
    first, second = _run(capsys, *argv), _run(capsys, *argv)
    assert first == second and first[0] == 1
    assert "'nodir/x.csv'" in first[2] and ".tmp" not in first[2]


REPLAYED_BOOT = "replayed 3 events: 1 settled rolls, 99 uart bytes, 4 display words, 0 onpin edges -> "


@pytest.mark.parametrize("argv, code, out, err", [
    pytest.param(("simulate", "--trace", "nope.trace", "--out", "run"), 1, "",
                 "error: cannot read trace: [Errno 2] No such file or directory: 'nope.trace'\n", id="trace-missing"),
    pytest.param(("simulate", "--trace", "tdir", "--out", "run"), 1, "",
                 "error: cannot read trace: [Errno 21] Is a directory: 'tdir'\n", id="trace-is-a-directory"),
    pytest.param(("simulate", "--trace", "boot.trace", "--out", "afile"), 1, "",
                 "error: cannot write outputs: [Errno 17] File exists: 'afile'\n", id="out-is-a-file"),
    pytest.param(("simulate", "--trace", "boot.trace", "--out", "./afile/"), 1, "",
                 "error: cannot write outputs: [Errno 17] File exists: 'afile'\n", id="out-is-a-file-dot-slash"),
    pytest.param(("simulate", "--trace", "boot.trace", "--out", "afile/sub"), 1, "",
                 "error: cannot write outputs: [Errno 20] Not a directory: 'afile/sub'\n", id="out-under-a-file"),
    pytest.param(("simulate", "--trace", "boot.trace", "--out", "a/b/c"), 0, REPLAYED_BOOT + "a/b/c\n", "",
                 id="out-parents-made"),
    pytest.param(("simulate", "--trace", "boot.trace", "--out", "./out"), 0, REPLAYED_BOOT + "out\n", "",
                 id="out-dot-slash"),
    pytest.param(("simulate", "--trace", "boot.trace", "--out", "out/"), 0, REPLAYED_BOOT + "out\n", "",
                 id="out-trailing-slash"),
    pytest.param(("simulate", "--trace", "boot.trace", "--out", ""), 0, REPLAYED_BOOT + ".\n", "", id="out-empty"),
    pytest.param(("rolls", "--sides", "6", "--count", "3", "--out", "nodir/x.csv"), 1, "",
                 "error: cannot write rolls: [Errno 2] No such file or directory: 'nodir/x.csv'\n", id="rolls-nodir"),
    pytest.param(("rolls", "--sides", "6", "--count", "3", "--out", "afile/x.csv"), 1, "",
                 "error: cannot write rolls: [Errno 20] Not a directory: 'afile/x.csv'\n", id="rolls-under-a-file"),
    pytest.param(("rolls", "--sides", "6", "--count", "3", "--out", "tdir/"), 1, "",
                 "error: cannot write rolls: [Errno 21] Is a directory: 'tdir'\n", id="rolls-over-a-directory"),
    pytest.param(("rolls", "--sides", "6", "--count", "3", "--out", "."), 1, "",
                 "error: cannot write rolls: [Errno 21] Is a directory: '.'\n", id="rolls-over-the-cwd"),
    pytest.param(("stats", "--rolls", "r.csv", "--sides", "6", "--out", "nodir/h.csv"), 1, "",
                 "error: cannot write histogram: [Errno 2] No such file or directory: 'nodir/h.csv'\n",
                 id="stats-nodir"),
    pytest.param(("stats", "--rolls", "r.csv", "--sides", "6", "--out", "tdir"), 1, "",
                 "error: cannot write histogram: [Errno 21] Is a directory: 'tdir'\n", id="stats-over-a-directory"),
])
def test_read_and_write_errors_print_one_whole_line(tmp_path, monkeypatch, capsys, argv, code, out, err):
    # every line in full, relative to a directory holding a trace, a
    # directory, a regular file and 600 rolls; no case leaves a temp file
    monkeypatch.chdir(tmp_path)
    Path("boot.trace").write_text(BOOT)
    Path("tdir").mkdir()
    Path("afile").write_bytes(b"a file\n")
    Path("r.csv").write_text("roll\n" + "1\n2\n3\n4\n5\n6\n" * 100)
    before = sorted(str(p) for p in Path().rglob("*"))
    assert _run(capsys, *argv) == (code, out, err)
    after = sorted(str(p) for p in Path().rglob("*"))
    assert not [p for p in after if p.endswith(".tmp")]
    assert Path("afile").read_bytes() == b"a file\n" and not any(Path("tdir").iterdir())
    if code:
        assert after == before
    elif argv[0] == "simulate":  # the set, and the directories it needed, are all that is new
        new_files = [p for p in set(after) - set(before) if Path(p).is_file()]
        assert sorted(new_files) == [str(Path(argv[4], name)) for name in ("log.csv", "state.json", "uart.csv")]


def _fail_rename(src, dst, **dir_fds):
    raise OSError("rename refused")


def _chunks_failing_partway():
    yield "roll\n"
    yield "3\n" * 10_000
    raise OSError("chunk source failed")


@pytest.mark.parametrize("text, patch", [("bad \ud800 surrogate\n", None), ("fine\n", _fail_rename),
                                         pytest.param(None, None, id="chunks-fail-partway")])
def test_write_atomic_failure_leaves_no_temp_file(tmp_path, monkeypatch, text, patch):
    target = tmp_path / "out.txt"
    if text is None:
        # chunks that raise after some were written, with no target yet
        text, before = _chunks_failing_partway(), []
    else:
        target.write_text("old\n", encoding="utf-8")
        before = ["out.txt"]
    if patch is not None:
        monkeypatch.setattr(cli.os, "replace", patch)
    with pytest.raises((OSError, UnicodeEncodeError)):
        cli._write_atomic(str(tmp_path), {"out.txt": lambda: text})
    assert [p.name for p in tmp_path.iterdir()] == before
    if before:
        assert target.read_text(encoding="utf-8") == "old\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc/self/fd")
def test_write_atomic_chunk_failure_closes_and_removes_every_temp_file(tmp_path, monkeypatch):
    # a set of two files written, and failing at each stage after the first
    # file is whole: its second temp file's creation (every name taken), its
    # chunk source (after one chunk), the check for a directory target and
    # the rename. The directory's descriptor and every temp file's are
    # closed, no temp file is left, and a failed set leaves the old one
    def chunks():
        yield "roll\n"
        raise OSError("chunk source failed")

    taken = bytes(6)
    stages = [  # (stage, b.csv's text, patches of os, error, files after)
        ("written", lambda: "new b\n", {}, None, {"a.csv": b"new a\n", "b.csv": b"new b\n"}),
        ("temp-names-taken", lambda: "new b\n",
         {"urandom": lambda n, draws=iter([b"\x01" * 6]): next(draws, taken)}, "no unused temp file name",
         {"a.csv": b"old a\n", "b.csv": b"old b\n", f".b.csv.{taken.hex()}.tmp": b"someone else's\n"}),
        ("chunk-source", chunks, {}, "chunk source failed", {"a.csv": b"old a\n", "b.csv": b"old b\n"}),
        ("directory-check", lambda: "new b\n", {}, "Is a directory", {"a.csv": b"old a\n"}),
        ("rename", lambda: "new b\n", {"replace": _fail_rename}, "rename refused",
         {"a.csv": b"old a\n", "b.csv": b"old b\n"}),
    ]
    for stage, text_b, patches, error, after in stages:
        out = tmp_path / stage
        out.mkdir()
        (out / "a.csv").write_bytes(b"old a\n")
        if stage == "directory-check":
            (out / "b.csv").mkdir()
        else:
            (out / "b.csv").write_bytes(b"old b\n")
        if stage == "temp-names-taken":
            (out / f".b.csv.{taken.hex()}.tmp").write_bytes(b"someone else's\n")
        descriptors = len(os.listdir("/proc/self/fd"))
        with monkeypatch.context() as patched:
            for name, patch in patches.items():
                patched.setattr(cli.os, name, patch)
            with pytest.raises(OSError, match=error) if error else contextlib.nullcontext():
                cli._write_atomic(str(out), {"a.csv": lambda: "new a\n", "b.csv": text_b})
        assert len(os.listdir("/proc/self/fd")) == descriptors, stage
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == after, stage


@pytest.mark.parametrize("failing", ["emit_state_json", "emit_uart_bits_csv"])
def test_simulate_failure_leaves_the_previous_set_whole(tmp_path, capsys, monkeypatch, failing):
    # the third or fourth file fails after the ones before it were written
    # in full: no file of the set is replaced and no temp file is left
    trace = tmp_path / "boot.trace"
    trace.write_text(BOOT)
    out_dir = tmp_path / "run"
    argv = ["simulate", "--trace", str(trace), "--out", str(out_dir), "--uart-bits"]
    assert _run(capsys, *argv, "--duration-us", "2000000")[0] == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

    def fail(log):
        raise OSError("disk full")

    monkeypatch.setattr(cli, failing, fail)
    code, _, err = _run(capsys, *argv, "--duration-us", "3000000")
    assert code == 1 and "cannot write outputs: disk full" in err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize("first, second, written", [
    (["--uart-bits"], ["--format", "jsonl"], ["log.jsonl", "state.json", "uart.csv"]),
    (["--format", "jsonl", "--uart-bits"], [], ["log.csv", "state.json", "uart.csv"]),
])
def test_simulate_removes_the_outputs_an_earlier_run_left(tmp_path, capsys, first, second, written):
    # the second run's set replaces the first: its log in the other format and
    # the uart_bits.csv it does not write are gone; other files stay
    trace = tmp_path / "boot.trace"
    trace.write_text(BOOT)
    out_dir = tmp_path / "st"
    argv = ["simulate", "--trace", str(trace), "--out", str(out_dir), "--duration-us", "2000000"]
    assert _run(capsys, *argv, *first)[0] == 0
    (out_dir / "notes.txt").write_text("mine\n")
    assert _run(capsys, *argv, *second)[0] == 0
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(written + ["notes.txt"])
    solo = tmp_path / "solo"
    assert _run(capsys, *argv[:4], str(solo), *argv[5:], *second)[0] == 0
    assert {name: (out_dir / name).read_bytes() for name in written} == {
        name: (solo / name).read_bytes() for name in written}


def test_simulate_leaves_a_stale_name_that_is_a_directory(tmp_path, capsys):
    # a directory under a name the run does not write is not a stale output
    trace = tmp_path / "boot.trace"
    trace.write_text(BOOT)
    out_dir = tmp_path / "st"
    (out_dir / "uart_bits.csv").mkdir(parents=True)
    (out_dir / "uart_bits.csv" / "kept").write_text("kept\n")
    code, _, err = _run(capsys, "simulate", "--trace", str(trace), "--out", str(out_dir), "--duration-us", "2000000")
    assert (code, err) == (0, "")
    assert sorted(p.name for p in out_dir.iterdir()) == ["log.csv", "state.json", "uart.csv", "uart_bits.csv"]
    assert (out_dir / "uart_bits.csv" / "kept").read_text() == "kept\n"


def test_simulate_over_a_directory_renames_nothing(tmp_path, capsys):
    # a target that is a directory fails the write before the first rename,
    # so the files before it in the set are not replaced either
    trace = tmp_path / "boot.trace"
    trace.write_text(BOOT)
    out_dir = tmp_path / "run"
    argv = ["simulate", "--trace", str(trace), "--out", str(out_dir)]
    assert _run(capsys, *argv, "--duration-us", "2000000")[0] == 0
    (out_dir / "uart.csv").unlink()
    (out_dir / "uart.csv").mkdir()
    before = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
    assert sorted(before) == ["log.csv", "state.json"]

    code, out, err = _run(capsys, *argv, "--duration-us", "3000000")
    assert (code, out) == (1, "")
    assert err == f"error: cannot write outputs: [Errno {errno.EISDIR}] Is a directory: '{out_dir / 'uart.csv'}'\n"
    assert {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()} == before
    assert sorted(p.name for p in out_dir.iterdir()) == ["log.csv", "state.json", "uart.csv"]
