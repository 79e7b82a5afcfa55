"""Acceptance suite: ten device-level criteria with pinned budgets.

Each criterion is one test named test_criterion_NN_*, so a verbose run
prints exactly one PASS/FAIL line per criterion. Time budgets are wall
clock via perf_counter around the work they bound; nothing is compiled or
warmed up beforehand.
"""

import filecmp
import io
import json
import random
import time

import numpy as np

from dicesim import kernels, stats
from dicesim.cli import _bias_lines, _tally_rolls, main
from dicesim.device import (
    SUPPORTED_DICE,
    SelectionState,
    TiltState,
    UPRIGHT_THRESHOLD,
    WINDOW_MASK,
    selection_update,
    tilt_update,
)
from dicesim.prng import FEEDBACK, xorshift_inverse, xorshift_step
from dicesim.timing import FALLING, HZ10, HZ1000, HZ500, RISING, S5, Scheduler
from dicesim.trace import parse_trace, replay
from dicesim.uart import UartChannel, decode_stream, payload_pack
from reference_board import face_lines, shift_stage, stepper_oracle, uart_bytes


# ----------------------------------------------------------------------
#  1. word transform against an independent linear-algebra oracle
# ----------------------------------------------------------------------

def test_criterion_01_transform_matches_bit_matrix_oracle():
    """The shift-xor implementation equals the GF(2) matrix of the transform
    on 100 000 random words plus every structural edge case, in under 1 s."""
    matrix = shift_stage(13) @ shift_stage(-9) @ shift_stage(7) % 2
    rng = np.random.default_rng(2024)
    words = rng.integers(0, 1 << 32, size=100_000, dtype=np.uint32)
    edges = np.array([0, 1, 0x80000000, 0xFFFFFFFF, 0xAAAAAAAA, 0x55555555]
                     + [1 << k for k in range(32)], dtype=np.uint32)
    words = np.concatenate([edges, words])

    start = time.perf_counter()
    bits = ((words[:, None] >> np.arange(32, dtype=np.uint32)) & 1).astype(np.uint8)
    oracle_bits = (bits @ matrix.T) % 2
    oracle = (oracle_bits.astype(np.uint64) << np.arange(32, dtype=np.uint64)).sum(axis=1)
    got = xorshift_step(words.copy())
    elapsed = time.perf_counter() - start

    assert np.array_equal(got.astype(np.uint64), oracle)
    assert got[0] == 0          # zero is the fixed point
    assert got[1] == 0x00000201
    assert got[2] == 0x81040800
    assert elapsed < 1.0


# ----------------------------------------------------------------------
#  2. exact invertibility at scale
# ----------------------------------------------------------------------

def test_criterion_02_inverse_round_trips_one_million_words():
    """The inverse transform undoes the forward one on 10^6 random words and
    the map is GF(2)-linear on 10^4 pairs, all within 5 s."""
    rng = np.random.default_rng(7)
    words = rng.integers(0, 1 << 32, size=1_000_000, dtype=np.uint32)

    start = time.perf_counter()
    forward = xorshift_step(words.copy())
    back = xorshift_inverse(forward)
    a = rng.integers(0, 1 << 32, size=10_000, dtype=np.uint32)
    b = rng.integers(0, 1 << 32, size=10_000, dtype=np.uint32)
    linear = np.array_equal(xorshift_step(a ^ b),
                            xorshift_step(a.copy()) ^ xorshift_step(b.copy()))
    elapsed = time.perf_counter() - start

    assert np.array_equal(back, words)
    assert linear
    assert elapsed < 5.0


# ----------------------------------------------------------------------
#  3. free-running generator is uniform enough to pass chi-square
# ----------------------------------------------------------------------

def _tally_as_stats_rolls(words, sides):
    # the rolls file `rolls` writes, counted as `stats --rolls` counts it
    return _tally_rolls(io.BytesIO(b"roll\n" + kernels.format_rolls(words, sides)), sides)


def test_criterion_03_feedback_stream_passes_uniformity():
    """200 000 rolls from seed 1 pass the alpha 0.001 uniformity verdict on
    the twenty-sided and six-sided dice without repeating a word, in 5 s."""
    start = time.perf_counter()
    words = kernels.feedback_sequence(kernels.Cursor(FEEDBACK, 1), 200_000)
    d20 = _tally_as_stats_rolls(words, 20)
    d6 = _tally_as_stats_rolls(words, 6)
    rep20 = stats.uniformity_report(d20, alpha=0.001)
    rep6 = stats.uniformity_report(d6, alpha=0.001)
    distinct = len(np.unique(words))
    elapsed = time.perf_counter() - start

    assert rep20.passed and rep20.statistic < 43.82
    assert rep6.passed and rep6.statistic < 20.52
    assert distinct == 200_000  # the orbit never closed during the run
    assert elapsed < 5.0


# ----------------------------------------------------------------------
#  4. modulo bias is exact, verified by exhaustive enumeration
# ----------------------------------------------------------------------

def test_criterion_04_bias_counts_match_exhaustive_enumeration():
    """The face lines `stats --bias` prints equal brute-force enumeration of
    the full 16-bit domain for every supported die, and the 32-bit d20/d6
    figures match their frozen values, within 5 s."""
    start = time.perf_counter()
    domain = np.arange(1 << 16, dtype=np.uint32)
    for sides in SUPPORTED_DICE:
        brute = np.bincount(domain % np.uint32(sides), minlength=sides)
        assert "".join(_bias_lines(stats.modulo_bias(sides, 16))) == face_lines(enumerate(brute.tolist(), 1))
    elapsed = time.perf_counter() - start

    d20 = stats.modulo_bias(20, 32)
    d20_counts = [d20.count(face) for face in range(1, 21)]
    assert d20_counts == [214_748_365] * 16 + [214_748_364] * 4
    d6 = stats.modulo_bias(6, 32)
    d6_counts = [d6.count(face) for face in range(1, 7)]
    assert d6_counts == [715_827_883] * 4 + [715_827_882] * 2
    assert sum(d20_counts) == sum(d6_counts) == 1 << 32
    assert elapsed < 5.0


# ----------------------------------------------------------------------
#  5. tilt debounce, exhaustively
# ----------------------------------------------------------------------

def test_criterion_05_tilt_vote_exhaustive():
    """Every window value times both sample values reproduces the popcount
    vote with its one-tick lag, in under 1 s."""
    start = time.perf_counter()
    for window in range(WINDOW_MASK + 1):
        pre_count = bin(window).count("1")
        for sample in (0, 1):
            got = tilt_update(TiltState(window=window), sample)
            assert got.window == ((window << 1) | sample) & WINDOW_MASK
            assert got.sumtilt == pre_count
            assert got.upright == (pre_count >= UPRIGHT_THRESHOLD)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


# ----------------------------------------------------------------------
#  6. selection walk reaches every die
# ----------------------------------------------------------------------

def test_criterion_06_selection_walk_covers_all_dice():
    """Stepping up from power-on yields 4, 6, 8, 10, 12, 20, 100 then wraps
    to 2; stepping down from the first entry wraps to the d100; pressing
    both buttons disarms keep-awake without moving the selector."""
    state = SelectionState()
    seen = []
    for _ in range(8):
        state = selection_update(state, upright=True, btn_up=1, btn_down=0)
        seen.append(state.diceval)
    assert seen == [4, 6, 8, 10, 12, 20, 100, 2]
    assert sorted(set(seen)) == sorted(SUPPORTED_DICE)

    down = selection_update(SelectionState(), upright=True, btn_up=0, btn_down=1)
    assert down.diceval == 100 and down.dselect == 7

    both = selection_update(SelectionState(dselect=6), upright=True, btn_up=1, btn_down=1)
    assert not both.keepon
    assert both.dselect == 6 and both.diceval == 20

    flat = selection_update(SelectionState(setmode=True, dselect=6), upright=False, btn_up=1, btn_down=0)
    assert not flat.setmode and flat.dselect == 6 and flat.diceval == 20


# ----------------------------------------------------------------------
#  7. serial link round trip
# ----------------------------------------------------------------------

def test_criterion_07_uart_round_trips_every_byte():
    """All 256 byte values transmitted back to back decode exactly, each
    frame spans exactly ten bit periods, and a corrupted stop bit produces
    exactly one framing error with clean resynchronization, in under 1 s."""
    start = time.perf_counter()
    values = list(range(256))
    chan = UartChannel()
    waveform = []
    sent = 0
    while sent < len(values):
        state = chan.edge(values[sent])
        waveform.append(state.tx_level)
        if state.ap_valid:
            sent += 1
    frames, errors = decode_stream("".join(map(str, waveform)))
    elapsed = time.perf_counter() - start

    assert errors == []
    assert [f.byte for f in frames] == values
    offsets = [f.offset for f in frames]
    assert all(b - a == 10 for a, b in zip(offsets, offsets[1:]))
    assert len(waveform) == 1 + 256 * 10  # one priming idle period, then solid frames

    # resync check on a stream with idle separation: one stomped stop bit
    # loses exactly its own frame
    from dicesim.uart import encode_frame
    gapped = []
    for v in values:
        gapped.extend(encode_frame(v))
        gapped.append(1)
    gapped[40 * 11 + 9] = 0  # stomp the stop bit of frame 40
    frames2, errors2 = decode_stream("".join(map(str, gapped)))
    assert len(errors2) == 1 and errors2[0].kind == "bad_stop"
    assert errors2[0].offset == 40 * 11
    assert [f.byte for f in frames2] == values[:40] + values[41:]
    assert elapsed < 1.0


# ----------------------------------------------------------------------
#  8. clock divider bank
# ----------------------------------------------------------------------

def test_criterion_08_divider_bank_counts_and_oracle():
    """One simulated second produces exactly 1000 HZ1000 periods, 500 HZ500
    periods and nine full HZ10 periods; the event-driven scheduler matches a
    cycle-stepping reference over 10^6 cycles; all within 10 s."""
    start = time.perf_counter()
    events = Scheduler().advance(12_000_000)
    by_domain = {}
    for e in events:
        by_domain.setdefault(e.domain, []).append(e)
    assert sum(1 for e in by_domain[HZ1000] if e.edge == RISING) == 1000
    assert sum(1 for e in by_domain[HZ500] if e.edge == RISING) == 500
    hz10 = by_domain[HZ10]
    assert len(hz10) == 19  # ten rising and nine falling: nine full periods
    assert sum(1 for e in hz10 if e.edge == FALLING) == 9
    assert S5 not in by_domain  # first toggle sits beyond one second

    got = [(e.sysclk_index, e.domain, e.edge) for e in Scheduler().advance(1_000_000)]
    assert got == stepper_oracle(1_000_000)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


# ----------------------------------------------------------------------
#  9. full session end to end
# ----------------------------------------------------------------------

def _tick_t(n):
    # nth HZ10 rising edge after a reset release at 1000 us
    return 1000 + (2 * n - 1) * 50_002


def _session_trace():
    lines = ["0 RESET 1", "1000 RESET 0", "1000 TILT 1"]
    for n in range(9, 15):  # six up presses, one tick each: d2 -> d20
        lines.append(f"{_tick_t(n) - 30_000} BTNU 1")
        lines.append(f"{_tick_t(n) + 30_000} BTNU 0")
    lines.append("1400000 TILT 0")    # pick the die up and roll it
    lines.append("2400000 TILT 1")    # set it back down
    press = _tick_t(200)              # both buttons: disarm keep-awake
    lines.append(f"{press - 30_000} BTNU 1")
    lines.append(f"{press - 30_000} BTND 1")
    lines.append(f"{press + 30_000} BTNU 0")
    lines.append(f"{press + 30_000} BTND 0")
    return "\n".join(lines) + "\n"


def test_criterion_09_full_session_replay():
    """Boot, settle, select the twenty-sided die, roll it, settle again,
    then disarm keep-awake: the log shows the boot settle plus exactly one
    d20 roll, four power-pin edges 5 000 200 us apart and none after the
    disarm, and the final wire byte and display text encode the held roll."""
    log = replay(parse_trace(_session_trace()), duration_us=26_000_000)

    assert len(log.settled_rolls) == 2
    boot_t, boot_sides, boot_value = log.settled_rolls[0]
    assert (boot_t, boot_sides) == (751_030, 2)
    assert 1 <= boot_value <= 2
    roll_t, roll_sides, roll_value = log.settled_rolls[1]
    assert (roll_t, roll_sides) == (3_151_126, 20)
    assert 1 <= roll_value <= 20
    assert sum(1 for _, sides, _ in log.settled_rolls if sides == 20) == 1

    assert log.onpin_edges == [
        (2_501_100, 1), (7_501_300, 0), (12_501_500, 1), (17_501_700, 0),
    ]

    final = log.final_state
    assert final["selection"]["keepon"] is False
    assert final["selection"]["dselect"] == 6
    assert final["selection"]["diceval"] == 20
    assert final["power"]["onsig"] == 0

    held = final["roll"]["held"]
    assert held[0] * 100 + held[1] * 10 + held[2] == roll_value
    times = [t for t, _ in uart_bytes(log)]
    assert times[0] == 11_500
    assert all(b - a == 10_000 for a, b in zip(times, times[1:]))
    assert len(times) == 2_599
    assert uart_bytes(log)[-1][1] == payload_pack(held[1], held[2])

    from dicesim.display import render_word
    rendered = [render_word(word) for _, word in log.display_words]
    assert "d20 " in rendered                      # selection legend reached the glass
    assert final["display"]["render"] == f"{roll_value:3d} "


# ----------------------------------------------------------------------
#  10. byte-identical reruns
# ----------------------------------------------------------------------

def test_criterion_10_reruns_are_byte_identical(tmp_path, capsys):
    """Two CLI simulations of the same trace write byte-identical logs,
    waveforms and state snapshots, and roll generation repeats exactly."""
    trace = tmp_path / "session.trace"
    trace.write_text("0 RESET 1\n1000 RESET 0\n1000 TILT 1\n")
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    for out_dir in (run_a, run_b):
        code = main(["simulate", "--trace", str(trace), "--out", str(out_dir),
                     "--duration-us", "5000000", "--uart-bits"])
        assert code == 0
    capsys.readouterr()
    for name in ("log.csv", "uart.csv", "uart_bits.csv", "state.json"):
        assert filecmp.cmp(run_a / name, run_b / name, shallow=False), name
        assert (run_a / name).stat().st_size > 0

    rolls_a = tmp_path / "ra.csv"
    rolls_b = tmp_path / "rb.csv"
    for path in (rolls_a, rolls_b):
        assert main(["rolls", "--sides", "20", "--count", "1000", "--out", str(path)]) == 0
    capsys.readouterr()
    assert rolls_a.read_bytes() == rolls_b.read_bytes()

    state = json.loads((run_a / "state.json").read_text())
    assert state["t_us"] == 5_000_000
