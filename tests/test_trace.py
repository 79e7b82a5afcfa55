"""Trace parsing, replay semantics, and log serialization."""

import csv
import json
import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from io import StringIO
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dicesim
import reference_board
import simulate_corpus
from reference_board import gf2_apply, gf2_power, shift_stage, uart_bytes, uart_waveform
from dicesim.device import SyntheticAdc
from dicesim.timing import HALF_PERIODS, HZ10
from dicesim.trace import (
    _frame_text,
    _times_below,
    BLOCK_MIN_FRAMES,
    LOG_COLUMNS,
    SIGNALS,
    STOP_US,
    US_PER_BIT,
    US_PER_FRAME,
    RunLog,
    TraceEvent,
    TraceParseError,
    emit_log,
    emit_state_json,
    emit_uart_bits_csv,
    emit_uart_csv,
    load_trace,
    parse_decimal,
    parse_trace,
    replay,
)
from dicesim.uart import FRAME_BITS

BOOT = """\
# assert reset, release, set the unit face up
0 RESET 1
1000 RESET 0
1000 TILT 1
"""


def test_parse_basic_trace():
    events = parse_trace(BOOT)
    assert events == [
        TraceEvent(0, "RESET", 1),
        TraceEvent(1000, "RESET", 0),
        TraceEvent(1000, "TILT", 1),
    ]


def test_parse_skips_comments_and_blanks():
    events = parse_trace("\n# only a comment\n\n5 TILT 1  # trailing note\n")
    assert events == [TraceEvent(5, "TILT", 1)]


def test_parse_rejects_malformed_lines():
    with pytest.raises(TraceParseError, match="line 1.*3 fields"):
        parse_trace("5 TILT")
    with pytest.raises(TraceParseError, match="bad timestamp"):
        parse_trace("abc TILT 1")
    with pytest.raises(TraceParseError, match="negative"):
        parse_trace("-5 TILT 1")
    with pytest.raises(TraceParseError, match="unknown signal"):
        parse_trace("5 TLIT 1")
    with pytest.raises(TraceParseError, match="goes backwards"):
        parse_trace("10 TILT 1\n5 TILT 0")
    with pytest.raises(TraceParseError, match="must be 0 or 1"):
        parse_trace("5 BTNU 2")
    with pytest.raises(TraceParseError, match="must be 0..65535"):
        parse_trace("5 ADC 65536")
    with pytest.raises(TraceParseError, match="bad value"):
        parse_trace("5 ADC xyz")


@pytest.mark.parametrize("data, line_no", [
    (b"\xff 0 TILT 1\n", 1),
    (b"0 RESET 1\r\n\n# caf\xc3\xa9 \xc3\n", 3),  # a comment may hold UTF-8, not a cut sequence
])
def test_load_trace_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, line_no):
    path = tmp_path / "bytes.trace"
    path.write_bytes(data)
    with pytest.raises(TraceParseError, match=f"^line {line_no}: byte 0x.. is not UTF-8 text$") as info:
        load_trace(path)
    assert info.value.line_no == line_no


def _short_reads(monkeypatch) -> list[int]:
    """Patch os.read to give at most 7 bytes a call; the sizes it gave."""
    read, sizes = os.read, []

    def short_read(fd, n):
        data = read(fd, min(n, 7))
        sizes.append(len(data))
        return data

    monkeypatch.setattr(os, "read", short_read)
    return sizes


def test_load_trace_joins_reads_of_seven_bytes(tmp_path, monkeypatch):
    # a read may give fewer bytes than asked, and only an empty one ends the file
    text = "0 RESET 1\r\n1000 RESET 0\n# café été\n1000 TILT 1\n2000 ADC 513 # end"
    path = tmp_path / "short.trace"
    path.write_bytes(text.encode("utf-8"))
    sizes = _short_reads(monkeypatch)
    assert load_trace(path) == parse_trace(text)
    assert sum(sizes) == len(text.encode("utf-8")) and sizes[-1] == 0 and len(sizes) > 8


@pytest.mark.parametrize("data, line_no", [
    (b"0 RESET 1\n1000 RESET 0\n\xff 0 TILT 1\n", 3),
    (b"0 RESET 1\n# caf\xc3\xa9\n\n# \xc3", 4),  # a sequence cut by the end of the file
    (b"0 RESET 1\n# ca\xc3\xa9\xc3\n", 2),  # a sequence cut by the LF, in the second read
])
def test_load_trace_names_the_line_of_a_bad_byte_across_reads(tmp_path, monkeypatch, data, line_no):
    path = tmp_path / "bytes.trace"
    path.write_bytes(data)
    _short_reads(monkeypatch)
    with pytest.raises(TraceParseError, match=f"^line {line_no}: byte 0x.. is not UTF-8 text$") as info:
        load_trace(path)
    assert info.value.line_no == line_no


# the last seven are line ends or blanks to str.splitlines()/str.split(), not
# to the trace grammar
@pytest.mark.parametrize("text", ["1_000", "+2000", "\u0663\u0660\u0660\u0660", "1\x0c", "1\x0b", "1\x1c",
                                  "1\x85", "1\u2028", "1\xa0", "1\r"])
@pytest.mark.parametrize("field", ["timestamp", "value"])
def test_parse_accepts_ascii_decimal_only(text, field):
    line = f"{text} TILT 1" if field == "timestamp" else f"5 ADC {text}"
    with pytest.raises(TraceParseError, match=f"line 2: bad {field} "):
        parse_trace("0 RESET 0\n" + line)


# a field is refused only with more than MAX_DIGITS digits after its leading
# zeros, whatever bound int() is set to (0 is none)
@pytest.mark.parametrize("bound", [None, 0, 640])
@pytest.mark.parametrize("text, value", [
    pytest.param("0" * 4_400 + "5", 5, id="zeros-5"),
    pytest.param("-" + "0" * 5_000 + "7", -7, id="minus-zeros-7"),
    pytest.param("9" * 4_300, 10**4_300 - 1, id="4300-nines"),
    pytest.param("1" + "0" * 4_299, 10**4_299, id="10**4299"),
    pytest.param("9" * 4_301, None, id="4301-nines"),
    pytest.param("-" + "9" * 5_000, None, id="minus-5000-nines"),
])
def test_parse_decimal_counts_significant_digits(bound, text, value):
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if bound is not None:
        if old is None:
            pytest.skip("this Python has no bound on int() conversion to set")
        sys.set_int_max_str_digits(bound)
    try:
        if value is None:
            digits = len(text.lstrip("-"))
            with pytest.raises(ValueError, match=f"^{digits} digits after the leading zeros, more than 4300$"):
                parse_decimal(text)
        else:
            assert parse_decimal(text) == value
    finally:
        if bound is not None:
            sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("digits", [4_301, 5_000])
@pytest.mark.parametrize("field", ["timestamp", "value"])
def test_parse_names_the_line_and_field_of_a_decimal_too_long(field, digits):
    line = f"{'9' * digits} TILT 1" if field == "timestamp" else f"5 ADC {'9' * digits}"
    message = f"^line 2: bad {field} \\({digits} digits after the leading zeros, more than 4300\\)$"
    with pytest.raises(TraceParseError, match=message):
        parse_trace("0 RESET 0\n" + line)
    # leading zeros do not count
    zeros = "0" * digits
    events = [TraceEvent(5, "TILT", 1), TraceEvent(5, "ADC", 65535)]
    assert parse_trace(f"{zeros}5 TILT 1\n5 ADC {zeros}65535") == events


def test_parse_ends_lines_at_newline_only():
    assert parse_trace("0 RESET 1\r\n1000 RESET 0\r\n\t1000\tTILT  1 \r\n") == parse_trace(BOOT)
    with pytest.raises(TraceParseError, match="line 1: expected 3 fields"):
        parse_trace("0 RESET 1\x0c1000 RESET 0")
    with pytest.raises(TraceParseError, match="line 1: bad value"):
        parse_trace("0 RESET 1\r\r\n")  # one CR is dropped, not two
    # comments may hold any character but LF, and do not shift later line numbers
    with pytest.raises(TraceParseError, match="line 3: bad TILT value"):
        parse_trace("# a\x85b\u2028c\x0cd\r\n0 RESET 0 # \u2029\n5 TILT 2")


def test_load_trace_reads_the_file_as_its_text(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_bytes(b"0 RESET 1\r\n1000 RESET 0\r1000 TILT 1\n")
    with pytest.raises(TraceParseError, match="line 2: expected 3 fields"):
        load_trace(path)


# fields the pattern of a well-formed line does not take: the per-line reader
# accepts the long ones (19 digits, or leading zeros past 4 300) and names the rest
ODD_FIELDS = ("+1", "-0", "1_0", "\u0663", "1\xa0", "", "9" * 18, "9" * 19, "0" * 4_400 + "5", "1" + "0" * 4_300)
FLAWS = ("backwards", "out of range", "odd field", "odd blank", "unknown signal", "lone CR", "split line")
BLANKS = st.sampled_from((" ", "\t", " \t "))
COMMENTS = st.text(st.sampled_from("a #\t\r\x85\u2028\xa0"), max_size=5).map(lambda text: "#" + text)


@st.composite
def trace_texts(draw):
    """Trace text of well-formed lines, events, blank lines and comments with
    LF or CRLF ends, one of them at times with a flaw, and any end to the
    last line: none, LF, CRLF or a lone CR. Fields may have up to five
    leading zeros, one more than a well-formed level or ADC value keeps; a
    split line breaks an event's line between its fields, so the text holds
    three fields for each event but not on each line."""
    count = draw(st.integers(0, 8))
    flaw, at = draw(st.sampled_from((None,) * 3 + FLAWS)), draw(st.integers(0, max(count - 1, 0)))
    lines, t_us = [], 0
    for i in range(count):
        flawed = flaw if i == at else None
        line = draw(st.sampled_from(("", " ", "\t")))
        if flawed or draw(st.integers(0, 3)):  # an event
            t_us += -1 if flawed == "backwards" else draw(st.integers(0, 10**6))
            signal = "TLIT" if flawed == "unknown signal" else draw(st.sampled_from(SIGNALS))
            top = 0xFFFF if signal == "ADC" else 1
            value = top + draw(st.integers(1, 99)) if flawed == "out of range" else draw(st.integers(0, top))
            fields = [draw(st.sampled_from(("", "0", "000", "0000", "00000"))) + str(n) for n in (t_us, value)]
            if flawed == "odd field":
                fields[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_FIELDS))
            blanks = [draw(BLANKS), draw(BLANKS)]
            if flawed == "odd blank":
                blanks[draw(st.integers(0, 1))] = draw(st.sampled_from(("\xa0", "\x0c", "\x0b")))
            if flawed == "split line":
                blanks[draw(st.integers(0, 1))] = draw(st.sampled_from(("\n", "\r\n", " \n\t")))
            line += fields[0] + blanks[0] + signal + blanks[1] + fields[1] + draw(st.sampled_from(("", " ", "\t")))
        if draw(st.booleans()):
            line += draw(COMMENTS)
        lines.append(line + ("\r" if flawed == "lone CR" else draw(st.sampled_from(("\n", "\r\n")))))
    if lines:
        lines[-1] = lines[-1].removesuffix("\n").removesuffix("\r") + draw(st.sampled_from(("", "\n", "\r\n", "\r")))
    return "".join(lines)


def _parsed(parse, text):
    """The events parse reads in text, or the type and message of the error
    it raises."""
    try:
        events = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    assert all(type(ev) is TraceEvent for ev in events)
    return events


@settings(max_examples=300, deadline=None)
@given(trace_texts())
@example("")
@example("5 TILT 1\r")  # a final lone CR is no line end: the value is "1\r"
@example("0 RESET 0\n5 TILT 1\r")
@example("5 TILT 1 # a\rb\r\n6 ADC 65535")
@example("5 TILT 1\r\r\n")
@example("10 TILT 1\n5 TILT 0\n")
@example("1 ADC\n5 2 ADC 3\n")  # six fields over the text, two and four on its lines
@example("5 TILT 2\n")
@example("5 TILT 00001\n6 BTNU\t00000 # zeros\r\n")
@example("5 TILT 000001\n")  # more zeros than the pattern takes: the line reader reads it
@example("5 ADC 65536\n")
@example("5 ADC 065535\n")
@example("5\xa0TILT 1\n")
@example("5 TILT\x0b1\n")
@example("# a\r\n#\r\n5 TILT 1 #\x0b\xa0\r\n")
def test_pattern_reads_what_the_line_reader_reads(text):
    # parse_trace gives the events of the per-line reader, or its error text
    assert _parsed(parse_trace, text) == _parsed(dicesim.trace._parse_lines, text)


def test_busy_trace_and_its_crlf_copy_take_the_pattern_path(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import replay_busy

    (_, text), = replay_busy(0).inputs
    events = dicesim.trace._parse_lines(text)

    def unused(text):
        raise AssertionError("the per-line reader was called")

    monkeypatch.setattr(dicesim.trace, "_parse_lines", unused)
    crlf = "# the busy session\r\n" + text.replace("\n", "\r\n")
    for copy in (text, crlf, crlf.removesuffix("\r\n")):
        assert parse_trace(copy) == events


def test_parse_allows_equal_timestamps():
    events = parse_trace("5 TILT 1\n5 BTNU 1")
    assert len(events) == 2


def test_replay_empty_trace_runs_one_second():
    log = replay([])
    assert log.final_state["t_us"] == 1_000_000
    assert log.settled_rolls == []
    # ten rolls happened face-down (9.9996 Hz), digits kept moving
    assert log.final_state["roll"]["out"] in (1, 2)
    assert len(uart_bytes(log)) > 90


def _final_states(text, times, **config):
    """final_state of a replay of text that ends at each of times: the events
    up to that time, replayed up to it."""
    events = parse_trace(text)
    return [replay([ev for ev in events if ev.t_us <= t], duration_us=t, **config).final_state
            for t in times]


def _seeds(text, times):
    return [state["seed"] for state in _final_states(text, times)]


def _draws(n):
    """The first n samples of the default synthetic ADC source."""
    adc = SyntheticAdc()
    return [adc.next() for _ in range(n)]


def test_replay_first_tick_time():
    # origin moves to the reset release at 1000 us; ticks every 100 004 us,
    # each shifting one synthetic sample into the seed
    first, second = _draws(2)
    assert first == 1337
    assert _seeds(BOOT, [51_001, 51_002, 151_005, 151_006]) == [0, 1337, 1337, (1337 << 16) | second]


def test_replay_steps_the_device_on_hz10_and_s5_edges_only():
    # only the edges that step the device: UART frames are expanded from
    # runs when the log is written, and HZ500 is not scheduled at all; in 8 s
    # the 80 HZ10 steps draw 80 samples and the 2 S5 steps toggle the pin
    log = replay([], duration_us=8_000_000)
    draws = _draws(80)
    assert log.final_state["seed"] == (draws[-2] << 16) | draws[-1]
    assert log.onpin_edges == [(2_500_100, 1), (7_500_300, 0)]


def test_replay_adc_event_is_one_shot():
    # first tick consumes the supplied sample, second falls back to the source
    assert _seeds("0 ADC 4660", [50_002, 150_006]) == [0x1234, (0x1234 << 16) | 1337]


def test_replay_adc_last_wins_between_ticks():
    assert _seeds("0 ADC 1\n10 ADC 2\n20 ADC 3", [60_000]) == [3]


def test_replay_settled_roll_invariant():
    log = replay(parse_trace(BOOT), duration_us=2_000_000)
    assert len(log.settled_rolls) == 1
    t_us, sides, value = log.settled_rolls[0]
    assert t_us == 751_030  # eighth tick after release
    assert sides == 2
    assert 1 <= value <= sides


def test_replay_reset_restarts_counting():
    text = BOOT + "300000 RESET 1\n400000 RESET 0\n400000 TILT 1\n"
    # three ticks before the second reset, which clears the seed, then the
    # grid restarts from 400 ms: the seed changes at each tick and only there
    d = _draws(5)
    times = [51_001, 51_002, 151_005, 151_006, 251_009, 251_010, 299_999, 300_000,
             450_001, 450_002, 550_005, 550_006, 600_000]
    seeds = [0, d[0], d[0], d[0] << 16 | d[1], d[0] << 16 | d[1], d[1] << 16 | d[2], d[1] << 16 | d[2], 0,
             0, d[3], d[3], d[3] << 16 | d[4], d[3] << 16 | d[4]]
    assert _seeds(text, times) == seeds


def test_replay_edge_at_event_time_acts_first():
    # the roll tick on the cycle where reset is asserted still happens: it
    # writes its word and the held digits, then reset blanks the live ones
    log = replay(parse_trace(BOOT + "51002 RESET 1\n"), duration_us=200_000)
    roll = log.final_state["roll"]
    assert roll["out"] in (1, 2)
    assert log.display_words == [(0, 0xFFFF), (51_002, 0xFF0F | roll["out"] << 4), (51_002, 0xFFFF)]
    assert roll["held"] == [0, 0, roll["out"], 0xF]
    assert log.final_state["seed"] == 0  # no tick while reset holds


def test_replay_reset_preserves_held_digits():
    text = BOOT + "2000000 RESET 1\n2100000 RESET 0\n"
    log = replay(parse_trace(text), duration_us=2_100_000)
    held = log.final_state["roll"]["held"]
    assert held[2] in (1, 2)  # tens digit still carries the settled d2 roll
    assert log.final_state["roll"]["live"] == [0, 0, 0, 0]
    assert log.final_state["seed"] == 0


def test_state_digit_codes_are_the_last_latched_word():
    display = replay(parse_trace(BOOT), duration_us=2_000_000).final_state["display"]
    assert display["digit_codes"] == [(display["word"] >> shift) & 0xF for shift in (12, 8, 4, 0)]
    text = BOOT + "2000000 RESET 1\n2100000 RESET 0\n"
    log = replay(parse_trace(text), duration_us=2_100_500)
    assert log.final_state["display"]["digit_codes"] == [0xD] * 4  # no HZ500 edge since the release


def test_replay_uart_bytes_track_live_digits():
    log = replay(parse_trace(BOOT), duration_us=400_000)
    times = [t for t, _ in uart_bytes(log)]
    assert times[0] == 11_500
    assert all(b - a == 10_000 for a, b in zip(times, times[1:]))
    # before the first roll tick every byte is zero
    assert uart_bytes(log)[0][1] == 0
    # final state roll digits match the last byte
    huns, tens = log.final_state["roll"]["live"][1:3]
    assert uart_bytes(log)[-1][1] == (huns << 4) | tens


def test_replay_onpin_edges():
    log = replay(parse_trace(BOOT), duration_us=8_000_000)
    assert log.onpin_edges == [(2_501_100, 1), (7_501_300, 0)]


def test_replay_waveform_starts_idle_high():
    log = replay(parse_trace(BOOT), duration_us=100_000)
    assert uart_waveform(log)[0] == (0, 1)
    levels = [lv for _, lv in uart_waveform(log)]
    assert all(a != b for a, b in zip(levels, levels[1:]))


def test_uart_log_holds_runs_not_frames():
    # face up and idle, the board sends one byte for good: a run ten times
    # longer sends ten times the frames from the same number of UART runs
    short, long = (replay(parse_trace(BOOT), duration_us=s * 1_000_000) for s in (60, 600))
    assert len(short.uart_runs) == len(long.uart_runs)
    assert len(uart_bytes(long)) // len(uart_bytes(short)) == 10


def test_replay_is_deterministic():
    a = replay(parse_trace(BOOT), duration_us=3_000_000)
    b = replay(parse_trace(BOOT), duration_us=3_000_000)
    assert a.settled_rolls == b.settled_rolls
    assert uart_bytes(a) == uart_bytes(b)
    assert a.display_words == b.display_words
    assert a.final_state == b.final_state


def test_replay_adc_seed_changes_rolls():
    a = replay(parse_trace(BOOT), duration_us=2_000_000, adc_seed=1)
    b = replay(parse_trace(BOOT), duration_us=2_000_000, adc_seed=2)
    assert a.final_state["seed"] != b.final_state["seed"]


def test_replay_feedback_mode_runs():
    log = replay(parse_trace(BOOT), prng_mode="feedback", duration_us=500_000)
    reg = log.final_state["prng"]["rand_reg"]
    assert reg != 0  # a nonzero register can never reach the zero orbit
    assert log.final_state["prng"]["mode"] == "feedback"


# HZ10 ticks in order: ADC 0 before each of the first three, a latch at the
# fourth, free-running ticks, a reset, one more zero-sample tick, a re-latch
FEEDBACK_TRACE = """\
0 RESET 1
1000 RESET 0
1000 ADC 0
60000 ADC 0
160000 ADC 0
260000 ADC 4660
700000 RESET 1
710000 RESET 0
710000 ADC 0
800000 ADC 48879
"""


def test_feedback_register_matches_bit_matrix_oracle():
    # T as the product of its three shift stages, built from nothing in prng
    step = shift_stage(13) @ shift_stage(-9) @ shift_stage(7) % 2
    tick = gf2_power(step, 2 * HALF_PERIODS[HZ10])
    assert gf2_apply(step, 1) == 0x201
    # the HZ10 ticks of each release: (ticks since the release, t_us)
    ticks = [(k, release + (2 * k + 1) * HALF_PERIODS[HZ10] // 12)
             for release, count in ((1_000, 7), (710_000, 6)) for k in range(count)]
    states = _final_states(FEEDBACK_TRACE, [t_us for _, t_us in ticks], prng_mode="feedback")
    expected, reg = [], 0
    for (k, _), state in zip(ticks, states):
        if k == 0:  # the first tick after a release
            reg = 0
        reg = gf2_apply(tick, reg) if reg else gf2_apply(step, state["seed"])
        expected.append(reg)
    assert [state["rand"] for state in states] == expected
    assert [reg == 0 for reg in expected] == [True] * 3 + [False] * 4 + [True] + [False] * 5
    log = replay(parse_trace(FEEDBACK_TRACE), prng_mode="feedback", duration_us=1_300_000)
    assert log.final_state["prng"] == {"mode": "feedback", "rand_reg": expected[-1]}


def test_replay_is_numpy_free(tmp_path):
    # the library calls, then the commands that replay or frame bytes, in one process
    code = (
        "import sys\n"
        "from dicesim.trace import emit_log, emit_uart_bits_csv, emit_uart_csv, parse_trace, replay\n"
        f"events = parse_trace({BOOT!r})\n"
        "for mode in ('stateless', 'feedback'):\n"
        "    log = replay(events, prng_mode=mode, duration_us=3_000_000)\n"
        "    assert all((emit_log(log, 'csv'), emit_log(log, 'jsonl'), emit_uart_csv(log), emit_uart_bits_csv(log)))\n"
        "assert log.final_state['prng']['rand_reg'] != 0\n"
        "from dicesim import cli\n"
        f"open('boot.trace', 'w').write({BOOT!r})\n"
        "for mode in ('stateless', 'feedback'):\n"
        "    argv = ['simulate', '--trace', 'boot.trace', '--out', mode, '--duration-us', '3000000',\n"
        "            '--prng-mode', mode, '--uart-bits']\n"
        "    assert cli.main(argv) == 0\n"
        "assert cli.main(['uart', 'encode', '16']) == 0 and cli.main(['uart', 'decode', '0011010001']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dicesim.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, cwd=tmp_path, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.decode().endswith("0011010001\n16\n")
    assert (tmp_path / "feedback" / "uart_bits.csv").exists()


def test_json_loads_with_the_first_state_json(tmp_path):
    # uart and a replay's other files never need it; the state.json of a
    # simulate call loads it, and its text is still json.dumps's
    code = (
        "import sys\n"
        "from dicesim import cli, trace\n"
        f"open('boot.trace', 'w').write({BOOT!r})\n"
        "assert cli.main(['uart', 'encode', '16']) == 0 and cli.main(['uart', 'decode', '0011010001']) == 0\n"
        "log = trace.replay(trace.load_trace('boot.trace'), duration_us=3_000_000)\n"
        "assert all((trace.emit_log(log, 'csv'), trace.emit_uart_csv(log), trace.emit_uart_bits_csv(log)))\n"
        "print('json' in sys.modules)\n"
        "assert cli.main(['simulate', '--trace', 'boot.trace', '--out', 'run']) == 0\n"
        "import json\n"
        "state = open('run/state.json').read()\n"
        "print(state == json.dumps(json.loads(state), indent=2, sort_keys=True) + '\\n')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dicesim.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env, cwd=tmp_path, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    lines = run.stdout.decode().splitlines()
    assert (lines[2], lines[4]) == ("False", "True")


def test_replay_validates():
    with pytest.raises(ValueError, match="unknown PRNG mode"):
        replay([], prng_mode="turbo")
    with pytest.raises(ValueError, match="ends before"):
        replay(parse_trace("5000 TILT 1"), duration_us=1_000)
    with pytest.raises(ValueError, match="backwards"):
        replay([TraceEvent(900, "TILT", 1), TraceEvent(800, "TILT", 0)])


def test_emit_log_csv_and_jsonl_agree():
    log = replay(parse_trace(BOOT), duration_us=900_000)
    csv_text = emit_log(log, "csv")
    lines = csv_text.splitlines()
    assert lines[0] == "record,t_us,dice_sides,roll,byte,word,level"
    json_rows = [json.loads(line) for line in emit_log(log, "jsonl").splitlines()]
    assert len(json_rows) == len(lines) - 1
    for row, line in zip(json_rows, lines[1:]):
        cells = line.split(",")
        assert cells[0] == row["record"]
        assert cells[1] == str(row["t_us"])
    with pytest.raises(ValueError):
        emit_log(log, "xml")


def test_emit_uart_csv_format():
    log = replay(parse_trace(BOOT), duration_us=100_000)
    lines = emit_uart_csv(log).splitlines()
    assert lines[0] == "t_us,byte_hex"
    assert lines[1] == "11500,00"


def test_emit_uart_bits_csv_format():
    log = replay(parse_trace(BOOT), duration_us=100_000)
    lines = emit_uart_bits_csv(log).splitlines()
    assert lines[0] == "t_us,level"
    assert lines[1] == "0,1"


def test_emit_state_json_is_stable():
    log = replay(parse_trace(BOOT), duration_us=200_000)
    text = emit_state_json(log)
    state = json.loads(text)
    assert state["t_us"] == 200_000
    assert state["selection"]["diceval"] == 2
    assert emit_state_json(log) == text
    assert list(state) == sorted(state)


NOOP_DURATION_US = 3_000_000
# arbitrary times, edge times of HZ1000 and HZ500, and roll ticks of the
# power-on grid, so that events land on edges as well as between them
TIMES = st.one_of(
    st.integers(0, NOOP_DURATION_US),
    st.integers(0, NOOP_DURATION_US // 500).map(lambda k: 500 * k),
    st.integers(0, 29).map(lambda k: 50_002 * (2 * k + 1)),
)
RAW_EVENTS = st.lists(st.tuples(TIMES, st.sampled_from(SIGNALS), st.integers(0, 0xFFFF)), max_size=12)


def _events(raw):
    """Trace events, in time order, from (t_us, signal, value) tuples."""
    return [TraceEvent(t, sig, v if sig == "ADC" else v & 1) for t, sig, v in sorted(raw, key=lambda e: e[0])]


def _outputs(events, mode):
    log = replay(events, prng_mode=mode, duration_us=NOOP_DURATION_US)
    return emit_log(log), emit_uart_csv(log), emit_uart_bits_csv(log), emit_state_json(log)


@settings(max_examples=40, deadline=None)
@given(RAW_EVENTS, TIMES, st.sampled_from(("TILT", "BTNU", "BTND", "RESET")),
       st.sampled_from(("stateless", "feedback")), st.data())
def test_noop_event_leaves_outputs_unchanged(raw, t_us, signal, mode, data):
    events = _events(raw)
    times = [ev.t_us for ev in events]
    at = data.draw(st.integers(bisect_left(times, t_us), bisect_right(times, t_us)))
    # the value the signal holds at that point: RESET 0 while released, RESET 1
    # while held in reset, or a switch level repeated
    held = ([0] + [ev.value for ev in events[:at] if ev.signal == signal])[-1]
    split = events[:at] + [TraceEvent(t_us, signal, held)] + events[at:]
    assert _outputs(split, mode) == _outputs(events, mode)


DIFF_SPAN_US = 1_200_000


@st.composite
def _reset_traces(draw):
    """Events at arbitrary us with RESET 1/0 among them, so frames are cut
    anywhere, and a duration either arbitrary or just past a roll tick of the
    last release, where the word shown and the word latched differ, or past
    one of its first two keep-awake steps."""
    raw = draw(st.lists(st.tuples(st.integers(0, DIFF_SPAN_US), st.sampled_from(SIGNALS + ("RESET",)),
                                  st.integers(0, 0xFFFF)), max_size=10))
    events = _events(raw)
    origin = held = 0
    for ev in events:
        if ev.signal == "RESET" and ev.value != held:
            held, origin = ev.value, ev.t_us
    last = events[-1].t_us if events else 0
    tick = draw(st.one_of(st.integers(0, 11).map(lambda k: 50_002 * (2 * k + 1)),   # HZ10 rising edges
                          st.integers(0, 1).map(lambda k: 2_500_100 * (2 * k + 1))))  # S5 rising edges
    after_tick = origin + tick + draw(st.integers(0, 2_500))
    return events, draw(st.sampled_from((max(last, after_tick), last + draw(st.integers(0, 400_000)))))


def _tick(n, origin=1_000):
    """The time of HZ10 step n after a reset release at origin us."""
    return origin + 50_002 * (2 * n + 1)


# boot upright: the window fills at steps 0..9 and sumtilt reaches 10 at step
# 10 (step 9 with --intuitive-tilt), so step 11 (10) is the first that leaves
# tilt, selection and roll as they were, and replay jumps from step 12 (11) on
UPRIGHT = [TraceEvent(0, "RESET", 1), TraceEvent(1_000, "RESET", 0), TraceEvent(1_000, "TILT", 1)]


def _upright(*events):
    """The events of an upright boot and then events, (t_us, signal, value)."""
    return UPRIGHT + [TraceEvent(*ev) for ev in events]


@st.composite
def _upright_traces(draw):
    """A boot set upright, then a span of 3 to 6 s in which buttons may be held,
    one or both, from any time, and TILT may drop, an ADC sample arrive or a
    RESET pulse come at any time or just after a given step; the run ends at
    an arbitrary time or at, or one us past, a roll tick."""
    events = [(draw(st.integers(1_000, 200_000)), "TILT", 1)]
    for button in draw(st.sampled_from(((), ("BTNU",), ("BTND",), ("BTNU", "BTND")))):
        events.append((draw(st.integers(1_000, 3_000_000)), button, 1))
    at = st.one_of(st.integers(1_000, 4_000_000), st.integers(8, 40).map(lambda n: _tick(n) + 1))
    for _ in range(draw(st.integers(0, 3))):
        signal = draw(st.sampled_from(("TILT", "ADC", "RESET")))
        value = draw(st.integers(0, 0xFFFF)) if signal == "ADC" else draw(st.integers(0, 1))
        events.append((draw(at), signal, value))
    events.sort(key=itemgetter(0))
    last = events[-1][0]
    end = draw(st.one_of(st.integers(last + 3_000_000, last + 6_000_000),
                         st.integers(10, 60).map(_tick), st.integers(10, 60).map(lambda n: _tick(n) + 1)))
    return UPRIGHT[:2] + [TraceEvent(*ev) for ev in events], max(end, last)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_reset_traces(), _upright_traces()), st.sampled_from(("stateless", "feedback")),
       st.sampled_from(("csv", "jsonl")), st.booleans(), st.booleans())
# RESET 1 on the START edge of the first frame: that frame drives its START bit
@example(([TraceEvent(1_500, "RESET", 1), TraceEvent(2_000, "RESET", 0)], 200_000), "stateless", "csv", True, False)
# the run ends while reset is held: no frame is written after RESET 1
@example(([TraceEvent(250_000, "RESET", 1)], 400_000), "stateless", "jsonl", True, False)
# the HZ10 step at 50 002 us changes the byte; the frame from 41 500 us, still
# in flight, is cut at 50 200 us, before the next frame starts at 51 500 us,
# and the line goes high there
@example(([TraceEvent(50_200, "RESET", 1)], 100_000), "stateless", "csv", True, False)
@example(([TraceEvent(50_200, "RESET", 1)], 100_000), "feedback", "jsonl", True, False)
# and the run that ends there leaves that frame in STOP
@example(([], 50_200), "stateless", "csv", True, False)
@example(([], 50_200), "feedback", "jsonl", True, False)
# long upright spans: no button held, in both modes and with intuitive tilt
@example((_upright(), 5_000_000), "stateless", "csv", True, False)
@example((_upright(), 6_000_000), "feedback", "jsonl", True, True)
# both buttons held: keepon true through the first span, false through the next
@example((_upright((2_000_000, "BTNU", 1), (2_000_000, "BTND", 1)), 6_000_000), "feedback", "csv", False, False)
@example((_upright((3_100_000, "BTND", 1), (3_100_000, "BTNU", 1)), 6_000_000), "stateless", "csv", False, True)
# one button held steps the selector every step: never steady
@example((_upright((1_500_000, "BTNU", 1)), 4_500_000), "feedback", "csv", False, False)
# TILT drops after 9 and after 10 saturated steps, then the unit is set upright again
@example((_upright((_tick(18) - 1, "TILT", 0), (2_500_000, "TILT", 1)), 6_000_000), "stateless", "jsonl", True, False)
@example((_upright((_tick(19) - 1, "TILT", 0), (2_500_000, "TILT", 1)), 6_000_000), "feedback", "csv", True, False)
@example((_upright((_tick(19) - 1, "TILT", 0), (2_500_000, "TILT", 1)), 6_000_000), "stateless", "csv", False, True)
# an ADC sample and a RESET pulse inside a span
@example((_upright((2_345_678, "ADC", 0), (_tick(30), "ADC", 4660)), 5_000_000), "feedback", "csv", False, False)
@example((_upright((2_500_000, "RESET", 1), (3_000_000, "RESET", 0)), 6_000_000), "feedback", "csv", True, False)
@example((_upright((2_500_000, "RESET", 1), (3_000_000, "RESET", 0)), 6_000_000), "stateless", "jsonl", True, True)
# feedback: zero samples up to the first steady step keep the register unlatched there
@example((_upright(*((_tick(n) - 1, "ADC", 0) for n in range(12))), 4_000_000), "feedback", "csv", False, False)
# the run ends one us before, on and one us past step 21 (20): the first end that leaves
# STEADY_MIN_STEPS steps after the first steady one, the shortest jump
@example((_upright(), _tick(21) - 1), "stateless", "csv", False, False)
@example((_upright(), _tick(21)), "stateless", "csv", False, False)
@example((_upright(), _tick(21) + 1), "feedback", "csv", False, False)
@example((_upright(), _tick(20)), "feedback", "csv", False, True)
@example((_upright(), _tick(20) + 1), "stateless", "csv", False, True)
def test_simulate_equals_reference_board(trace, mode, fmt, uart_bits, intuitive):
    # every file simulate writes is the one the edge-by-edge reference board makes
    events, duration_us = trace
    text = "".join(f"{ev.t_us} {ev.signal} {ev.value}\n" for ev in events).encode("ascii")
    options = ("--prng-mode", mode, "--format", fmt, "--duration-us", str(duration_us)) + \
        ("--uart-bits",) * uart_bits + ("--intuitive-tilt",) * intuitive
    got = simulate_corpus.run_case(simulate_corpus.Case(0, options, text))
    assert got["exit"] == 0
    assert got["files"] == reference_board.file_digests(reference_board.reference_files(text, options))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_reset_traces(), _upright_traces()), st.sampled_from(("stateless", "feedback")), st.booleans())
def test_state_json_is_the_layout_of_json_dumps(trace, mode, intuitive):
    events, duration_us = trace
    log = replay(events, prng_mode=mode, intuitive_tilt=intuitive, duration_us=duration_us)
    assert emit_state_json(log) == json.dumps(log.final_state, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("mode", ["stateless", "feedback"])
def test_hour_upright_equals_a_loop_of_steps(mode):
    # an hour upright is one jump after the first steady step; its seed,
    # rand, register and ONPIN count are those of one LCG, seed-register and
    # xorshift step per roll tick
    duration_us = 3_600_000_000
    events = parse_trace(reference_board.UPRIGHT_TRACE.decode("ascii"))
    log = replay(events, prng_mode=mode, duration_us=duration_us)
    state = log.final_state
    assert (state["seed"], state["rand"], state["prng"]["rand_reg"], len(log.onpin_edges)) == \
        reference_board.upright_loop(mode, duration_us)
    assert state["tilt"] == {"window": 1023, "sumtilt": 10, "upright": True}


FREE_TEXT = st.text(st.characters(blacklist_characters="\n"), max_size=12)
EVENT_LISTS = st.lists(st.tuples(st.integers(0, 10**12), st.sampled_from(SIGNALS), st.integers(0, 0xFFFF)),
                       max_size=20).map(_events)


@settings(max_examples=60, deadline=None)
@given(EVENT_LISTS, st.data())
def test_trace_text_round_trips(events, data):
    # comment lines, blank lines, trailing notes and any run of blanks or tabs
    gap = st.sampled_from((" ", "\t", "  \t "))
    lines = []
    for ev in events:
        lines += data.draw(st.lists(st.one_of(st.just(""), gap, FREE_TEXT.map(lambda t: "#" + t)), max_size=2))
        note = data.draw(st.one_of(st.just(""), FREE_TEXT.map(lambda t: " #" + t)))
        lines.append(data.draw(gap).join((str(ev.t_us), ev.signal, str(ev.value))) + note)
    assert parse_trace("\n".join(lines)) == events


@settings(max_examples=25, deadline=None)
@given(RAW_EVENTS, st.sampled_from(("stateless", "feedback")))
def test_emitted_log_parses_back_to_its_rows(raw, mode):
    log = replay(_events(raw), prng_mode=mode, duration_us=NOOP_DURATION_US)
    from_csv = list(csv.DictReader(StringIO(emit_log(log, "csv"))))
    rows = [json.loads(line) for line in emit_log(log, "jsonl").splitlines()]
    # csv and jsonl carry the same fields in column order; jsonl leaves out the empty cells
    assert [list(row) for row in rows] == [[col for col in LOG_COLUMNS if row[col]] for row in from_csv]
    assert from_csv == [{col: str(row.get(col, "")) for col in LOG_COLUMNS} for row in rows]
    # and they are the rows of its RunLog lists, merged a record at a time
    reference = reference_board.log_files(log, "jsonl")["log.jsonl"]
    assert rows == [json.loads(line) for line in reference.splitlines()]


def test_emit_log_orders_simultaneous_records_by_kind():
    # a run of one whole frame, its byte complete at 9 000 us, then a run of
    # three whole frames, complete at 19 000, 29 000 and 39 000 us; the ROLL
    # and the DISPLAY at 29 000 us split the second run on both sides of its tie
    log = RunLog(settled_rolls=[(9_000, 6, 3), (29_000, 20, 17)], uart_runs=[(0, 0x2A), (10_000, 0x05)],
                 end_us=39_000, display_words=[(0, 0x1234), (9_000, 0xABCD), (9_000, 0x00EF), (29_000, 0x0BAD)],
                 onpin_edges=[(9_000, 1)])
    assert emit_log(log, "csv") == (
        "record,t_us,dice_sides,roll,byte,word,level\n"
        "DISPLAY,0,,,,1234,\n"
        "ROLL,9000,6,3,,,\n"
        "UART,9000,,,2a,,\n"
        "DISPLAY,9000,,,,abcd,\n"
        "DISPLAY,9000,,,,00ef,\n"
        "ONPIN,9000,,,,,1\n"
        "UART,19000,,,05,,\n"
        "ROLL,29000,20,17,,,\n"
        "UART,29000,,,05,,\n"
        "DISPLAY,29000,,,,0bad,\n"
        "UART,39000,,,05,,\n"
    )
    assert emit_log(log, "jsonl") == (
        '{"record":"DISPLAY","t_us":0,"word":"1234"}\n'
        '{"record":"ROLL","t_us":9000,"dice_sides":6,"roll":3}\n'
        '{"record":"UART","t_us":9000,"byte":"2a"}\n'
        '{"record":"DISPLAY","t_us":9000,"word":"abcd"}\n'
        '{"record":"DISPLAY","t_us":9000,"word":"00ef"}\n'
        '{"record":"ONPIN","t_us":9000,"level":1}\n'
        '{"record":"UART","t_us":19000,"byte":"05"}\n'
        '{"record":"ROLL","t_us":29000,"dice_sides":20,"roll":17}\n'
        '{"record":"UART","t_us":29000,"byte":"05"}\n'
        '{"record":"DISPLAY","t_us":29000,"word":"0bad"}\n'
        '{"record":"UART","t_us":39000,"byte":"05"}\n'
    )
    with pytest.raises(ValueError, match="unknown log format"):
        emit_log(log, "xml")


@pytest.mark.parametrize("power", [10**5, 10**6, 10**7])
@pytest.mark.parametrize("frames", [2, BLOCK_MIN_FRAMES - 1, 3 * BLOCK_MIN_FRAMES])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_emit_log_cuts_uart_runs_at_records_across_a_decade(power, frames, fmt):
    # the UART run's lines gain a digit at `power`, the STOP of frame `middle`;
    # records of each kind fall on the STOPs of its first, middle and last
    # frames, on either side of the middle one and after the last, where the
    # next run's first frame is in flight. At a STOP, a ROLL sorts before the
    # UART line and a DISPLAY or an ONPIN after it.
    middle = min(frames // 2, (power - STOP_US) // US_PER_FRAME)  # no frame before 0 us
    first = power - STOP_US - middle * US_PER_FRAME  # START of the run's first frame
    stops = [first + STOP_US + US_PER_FRAME * j for j in (0, middle, frames - 1)]
    times = sorted(stops + [power - 1, power + 1, stops[-1] + 1, first, first + US_PER_FRAME * frames])
    end = first + US_PER_FRAME * (frames + 2)
    log = RunLog(uart_runs=[(first, 0x3C), (first + US_PER_FRAME * frames, 0xA5), (end + 4_321, None)],
                 end_us=end + 5_000, settled_rolls=[(t, 6, 4) for t in times],
                 display_words=[(t, t & 0xFFFF) for t in times], onpin_edges=[(t, t & 1) for t in times])
    assert stops[1] == power
    assert emit_log(log, fmt) == reference_board.log_files(log, fmt)[f"log.{fmt}"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_emit_log_places_records_at_run_edges(fmt):
    # three runs back to back, the middle one a single frame, a cut inside the
    # third; a release whose only frame RESET 1 cuts before its STOP, so its
    # run has no byte; a last release whose run passes 10**6 us and which the
    # end cuts. A record of each kind falls on each run's START, on the STOP
    # of its first and last frames, one us either side of both, and at 0 us
    # and the end.
    runs = [(1_500, 0x11), (1_500 + 3 * US_PER_FRAME, 0x22), (1_500 + 4 * US_PER_FRAME, 0x33),
            (1_500 + 7 * US_PER_FRAME + 123, None), (80_000, 0x44), (84_000, None),
            (10**6 - STOP_US - US_PER_FRAME, 0x55)]
    log = RunLog(uart_runs=runs, end_us=10**6 + US_PER_FRAME + 9_500)
    byte_runs = list(log.uart_byte_runs())
    assert [len(times) for _, times in byte_runs] == [3, 1, 3, 0, 3]
    edges = [t for t, _ in runs] + [t for _, times in byte_runs for t in (*times[:1], *times[-1:])]
    times = sorted({0, log.end_us} | {t + d for t in edges for d in (-1, 0, 1)})
    log.settled_rolls = [(t, 20, t % 20 + 1) for t in times]
    log.display_words = [(t, t & 0xFFFF) for t in times]
    log.onpin_edges = [(t, t & 1) for t in times]
    assert emit_log(log, fmt) == reference_board.log_files(log, fmt)[f"log.{fmt}"]


@pytest.mark.parametrize("mode", ["stateless", "feedback"])
def test_record_fields_are_ints_not_bools(monkeypatch, mode):
    # the log's % templates write a bool as 1, where str.format wrote True; the
    # busy session's rolls, button walks, disarm and resets make every kind of
    # record many times
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import BUSY_DURATION_US, replay_busy

    (_, text), = replay_busy(0).inputs
    log = replay(parse_trace(text), prng_mode=mode, duration_us=BUSY_DURATION_US)
    kinds = (log.settled_rolls, log.display_words, log.onpin_edges)
    assert all(len(records) > 4 for records in kinds)
    for records in kinds:
        assert all(type(field) is int for record in records for field in record)


# where RESET 1 or the end falls after the START of a release's last frame:
# on that START edge, on its STOP edge or next to it, or anywhere in the frame
CUT_OFFSETS = st.one_of(st.sampled_from((0, 1, STOP_US - 1, STOP_US, STOP_US + 1, US_PER_FRAME - 1)),
                        st.integers(0, US_PER_FRAME - 1))


# where a run may start: at 0 or 1 500 us as after boot, anywhere below
# 10**5 us, up to 400 frames before 10**6 or 10**7 us (so the digit count of
# its times changes inside it), or anywhere up to 2 * 10**9 us
RUN_STARTS = st.one_of(st.sampled_from((0, 1_500)), st.integers(0, 10**5 - 1),
                       st.sampled_from((10**6, 10**7)).flatmap(
                           lambda p: st.integers(max(0, p - 400 * US_PER_FRAME), p - 1)),
                       st.integers(0, 2 * 10**9))
RUN_FRAMES = st.one_of(st.integers(1, 4), st.integers(1, 400))


@st.composite
def _run_logs(draw):
    """A RunLog drawn directly. Each release holds runs on its own frame
    grid, of 1 to 400 frames each; RESET 1 cuts its last frame at a
    CUT_OFFSETS point, or the end does for the last release, and a release
    may hold only that one cut frame. The first run may start at 0 us or
    anywhere in RUN_STARTS. Records of the three other kinds fall before, on
    and just after the STOP times of the frames, or anywhere."""
    runs = [(0, None)] if draw(st.booleans()) else []  # held in reset from 0 us
    start = draw(RUN_STARTS)
    releases = draw(st.integers(1, 3))
    for release in range(releases):
        frames = 0
        for _ in range(draw(st.integers(1, 3))):
            runs.append((start + US_PER_FRAME * frames, draw(st.integers(0, 0xFF))))
            frames += draw(RUN_FRAMES)
        cut = runs[-1][0] + US_PER_FRAME * draw(st.integers(0, 2)) + draw(CUT_OFFSETS)
        ended = release == releases - 1 and draw(st.booleans())  # the end, not RESET 1, cuts it
        if not ended:
            runs.append((cut, None))
        start = cut + draw(st.integers(1, 3_000))
    log = RunLog(uart_runs=runs, end_us=cut if ended else cut + draw(st.sampled_from((0, 1, 20_000))))
    stops = [t for t, _ in uart_bytes(log)] or [0]
    times = st.lists(st.one_of(st.tuples(st.sampled_from(stops), st.sampled_from((-1, 0, 1))).map(sum),
                               st.integers(0, log.end_us), st.integers(stops[0], log.end_us)),
                     max_size=6).map(sorted)
    log.settled_rolls = [(t, draw(st.integers(2, 100)), draw(st.integers(0, 99))) for t in draw(times)]
    log.display_words = [(t, draw(st.integers(0, 0xFFFF))) for t in draw(times)]
    log.onpin_edges = [(t, draw(st.integers(0, 1))) for t in draw(times)]
    return log


def _cut_run(t0, frames):
    """One run from t0 whose RESET 1 falls on the START of frame `frames`:
    `frames` whole frames, in uart.csv, the log and uart_bits.csv alike."""
    cut = t0 + US_PER_FRAME * frames
    return RunLog(uart_runs=[(t0, 0x5A), (cut, None)], end_us=cut + 20_000)


@settings(max_examples=200, deadline=None)
@given(_run_logs())
# a first run at 0 us whose only frame RESET 1 cuts on its START edge, with a
# record of each kind at that instant
@example(RunLog(uart_runs=[(0, 0x3C), (0, None)], end_us=0, settled_rolls=[(0, 6, 1)],
                display_words=[(0, 0x1234)], onpin_edges=[(0, 1)]))
# a record of each kind on, before and after the STOP time of the middle frame
@example(RunLog(uart_runs=[(1_500, 0x16)], end_us=31_500, settled_rolls=[(20_500, 6, 1)],
                display_words=[(20_499, 1), (20_500, 2), (20_501, 3)], onpin_edges=[(20_500, 1)]))
# runs one frame shorter than, as long as and one longer than BLOCK_MIN_FRAMES,
# through 10**6 us
@example(_cut_run(10**6 - 20 * US_PER_FRAME + 1_500, BLOCK_MIN_FRAMES - 1))
@example(_cut_run(10**6 - 20 * US_PER_FRAME + 1_500, BLOCK_MIN_FRAMES))
@example(_cut_run(10**6 - 20 * US_PER_FRAME + 1_500, BLOCK_MIN_FRAMES + 1))
# RESET 1 inside the whole block of rows 150 to 159, 4 321 us into frame 55,
# and a DISPLAY record after 50 frames
@example(RunLog(uart_runs=[(1_001_500, 0x16), (1_001_500 + 55 * US_PER_FRAME + 4_321, None)],
                end_us=2_000_000, display_words=[(1_501_500, 7)]))
def test_uart_writers_equal_per_record_joins(log):
    # the writers format a run at a time; the reference board a record at a time
    for fmt in ("csv", "jsonl"):
        files = reference_board.log_files(log, fmt)
        assert emit_log(log, fmt) == files[f"log.{fmt}"]
        assert emit_uart_csv(log) == files["uart.csv"]
        assert emit_uart_bits_csv(log) == files["uart_bits.csv"]


# a frame's line offsets: 1 to 5 of them, less than a frame apart, either bit
# edges (multiples of US_PER_BIT) or any us
FRAME_OFFSETS = st.one_of(
    st.lists(st.integers(0, FRAME_BITS - 1), min_size=1, max_size=5, unique=True).map(
        lambda bits: [US_PER_BIT * k for k in sorted(bits)]),
    st.lists(st.integers(0, US_PER_FRAME - 1), min_size=1, max_size=5, unique=True).map(sorted))
# the first frame anywhere, or up to 400 frames before a power of ten
FIRST_STARTS = st.one_of(st.integers(0, 2 * 10**9),
                         st.integers(5, 9).flatmap(
                             lambda k: st.integers(max(0, 10**k - 400 * US_PER_FRAME), 10**k)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("", "UART,", '{"record":"UART","t_us":')), FRAME_OFFSETS,
       st.lists(st.sampled_from((",0\n", ",1\n", ",,,2a,,\n", ',"byte":"2a"}\n')), min_size=5, max_size=5),
       FIRST_STARTS, st.one_of(st.integers(0, 400), st.integers(BLOCK_MIN_FRAMES - 1, BLOCK_MIN_FRAMES + 1)))
# at the cutoff; starting at 0 us; a run ending on a block edge; bit offsets
# that pass 10**4 us from a start 9 999 us into a frame
@example("UART,", [0], [",,,2a,,\n"] * 5, 1_234_567, BLOCK_MIN_FRAMES - 1)
@example("UART,", [0], [",,,2a,,\n"] * 5, 1_234_567, BLOCK_MIN_FRAMES)
@example('{"record":"UART","t_us":', [0, 1], [",0\n", ",1\n"] * 3, 0, BLOCK_MIN_FRAMES)
@example("UART,", [0], [",,,2a,,\n"] * 5, 10**6 - 50 * US_PER_FRAME, 50)
@example("", [0, 1_000, 5_000, 8_000, 9_000], [",0\n", ",1\n"] * 3, 10**7 - 250 * US_PER_FRAME + 9_999, 400)
def test_frame_text_equals_per_line_join(before, offsets, afters, first, frames):
    assert US_PER_FRAME == 10**4  # so ten frames span 10**5 us, the block _frame_text joins
    lines = list(zip(offsets, afters))
    starts = range(first, first + frames * US_PER_FRAME, US_PER_FRAME)
    assert _frame_text(before, lines, starts) == "".join(f"{before}{s + dt}{after}" for s in starts
                                                         for dt, after in lines)


@settings(max_examples=300, deadline=None)
@given(FIRST_STARTS, st.integers(0, 400 * US_PER_FRAME), st.data())
@example(STOP_US, 0, None)  # an empty run: nothing is below any bound
@example(10**6 - 3 * US_PER_FRAME, 7 * US_PER_FRAME - 1, None)
def test_times_below_is_bisect_left(start, span, data):
    # the runs of log.uart_byte_runs: a step of US_PER_FRAME and any stop
    times = range(start, start + span, US_PER_FRAME)
    near = [start, start + span, *(10**k for k in range(5, 11)), *times[:2], *times[-2:]]
    bounds = [-1, 0, 10**30, *(t + d for t in near for d in (-1, 0, 1))]  # before, at and past each edge
    if data is not None:
        bounds.append(data.draw(st.integers(start - 2 * US_PER_FRAME, start + span + 2 * US_PER_FRAME)))
    for bound in bounds:  # the count is unclipped: 0 or less before the run, len or more past it
        assert min(max(0, _times_below(times, bound)), len(times)) == bisect_left(times, bound), bound


@settings(max_examples=40, deadline=None)
@given(_reset_traces(), st.sampled_from(("stateless", "feedback")))
def test_uart_views_are_the_written_rows(trace, mode):
    events, duration_us = trace
    log = replay(events, prng_mode=mode, duration_us=duration_us)
    rows = list(csv.DictReader(StringIO(emit_uart_csv(log))))
    assert uart_bytes(log) == [(int(row["t_us"]), int(row["byte_hex"], 16)) for row in rows]
    rows = list(csv.DictReader(StringIO(emit_uart_bits_csv(log))))
    assert uart_waveform(log) == [(int(row["t_us"]), int(row["level"])) for row in rows]
