"""Clock divider bank: exact frequencies and event-driven scheduling."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicesim.device import Device, SyntheticAdc
from dicesim.timing import (
    DOMAIN_ORDER,
    FALLING,
    HALF_PERIODS,
    HZ10,
    HZ1000,
    HZ1500,
    HZ500,
    RISING,
    S5,
    Scheduler,
)
from dicesim.trace import FIRST_FRAME_CYCLES, FRAME_CYCLES, TraceEvent, replay
from reference_board import stepper_oracle, uart_waveform

# spans reaching past the first S5 toggle, so every domain takes part
SPANS = st.integers(0, HALF_PERIODS[S5] + 2_000_000)


def test_exact_frequencies():
    # the 12 MHz system clock over one whole period of each domain
    frequency = {d: Fraction(12_000_000, 2 * HALF_PERIODS[d]) for d in DOMAIN_ORDER}
    assert frequency[HZ1000] == 1000
    assert frequency[HZ1500] == 1500
    assert frequency[HZ500] == 500
    assert frequency[HZ10] == Fraction(250_000, 25_001)  # 9.9996 Hz, not 10
    assert frequency[S5] == Fraction(5_000, 25_001)
    assert float(frequency[HZ10]) == pytest.approx(9.9996, abs=5e-5)


def test_first_toggle_lands_on_half_period():
    sched = Scheduler()
    events = sched.advance(HALF_PERIODS[HZ10])
    hz10 = [e for e in events if e.domain == HZ10]
    assert len(hz10) == 1
    assert hz10[0].sysclk_index == HALF_PERIODS[HZ10]
    assert hz10[0].edge == RISING


def test_rising_edges_at_odd_multiples_of_half():
    sched = Scheduler()
    events = sched.advance(HALF_PERIODS[HZ10] * 8)
    hz10 = [e for e in events if e.domain == HZ10]
    assert [e.sysclk_index for e in hz10] == [HALF_PERIODS[HZ10] * k for k in range(1, 9)]
    assert [e.edge for e in hz10] == [RISING, FALLING] * 4


def test_matches_cycle_stepping_oracle():
    n = 30_000
    got = [(e.sysclk_index, e.domain, e.edge) for e in Scheduler().advance(n)]
    assert got == stepper_oracle(n)


def test_split_advances_match_single_advance():
    rng = random.Random(41)
    whole = Scheduler()
    ref = [(e.sysclk_index, e.domain, e.edge) for e in whole.advance(100_000)]
    split = Scheduler()
    got = []
    remaining = 100_000
    while remaining:
        chunk = min(remaining, rng.randrange(1, 9_000))
        got.extend((e.sysclk_index, e.domain, e.edge) for e in split.advance(chunk))
        remaining -= chunk
    assert got == ref


def test_simultaneous_toggles_keep_domain_order():
    # cycle 12000 toggles HZ1000 (2nd), HZ1500 (3rd) and HZ500 (1st) together
    events = Scheduler().advance(12_000)
    at_12k = [e.domain for e in events if e.sysclk_index == 12_000]
    assert at_12k == [HZ1000, HZ1500, HZ500]


def test_advance_validates():
    sched = Scheduler()
    assert sched.advance(0) == []
    with pytest.raises(ValueError):
        sched.advance(-1)


@settings(max_examples=25, deadline=None)
@given(SPANS, SPANS)
def test_advance_is_split_invariant(a, b):
    split, whole = Scheduler(), Scheduler()
    assert split.advance(a) + split.advance(b) == whole.advance(a + b)
    assert split.cycle == whole.cycle


# the same spans in us, so that replay can end or be split anywhere in them
SPANS_US = st.integers(0, (HALF_PERIODS[S5] + 2_000_000) // 12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), SPANS_US, SPANS_US)
@example(7, 1_000_000, 6_600_000)  # past S5 rising edges 0 and 1, split between them
def test_rising_edges_equal_scheduler_rising_events(release, skip, span):
    # replay steps the device on exactly the HZ10 and S5 rising edges of the
    # divider bank, counted from the release, and a no-op event splitting the
    # span changes none of them: each S5 step toggles the power pin, each
    # HZ10 step shifts one synthetic sample into the seed, and a display word
    # changes only at an HZ10 step
    events = [TraceEvent(0, "RESET", 1), TraceEvent(release, "RESET", 0), TraceEvent(release + skip, "TILT", 0)]
    log = replay(events, duration_us=release + skip + span)
    rising = [e for e in Scheduler().advance((skip + span) * 12) if e.edge == RISING]
    hz10 = [release + e.sysclk_index // 12 for e in rising if e.domain == HZ10]
    s5 = [release + e.sysclk_index // 12 for e in rising if e.domain == S5]
    assert log.onpin_edges == [(t_us, 1 - k % 2) for k, t_us in enumerate(s5)]
    adc = SyntheticAdc()
    draws = [0, 0] + [adc.next() for _ in hz10]
    assert log.final_state["seed"] == draws[-2] << 16 | draws[-1]
    assert {t_us for t_us, _ in log.display_words[1:]} <= set(hz10)


def test_rising_edges_tie_keeps_domain_order():
    # the START edge of frame 3 750 (18 000 + 120 000 * 3 750 cycles after the
    # release) and S5 rising edge 7 (30 001 200 * 15) fall on one cycle; a run
    # cut there takes both: the frame drives its START bit, then S5 steps
    tie = 450_018_000
    log = replay([TraceEvent(0, "RESET", 1), TraceEvent(7, "RESET", 0)], duration_us=7 + tie // 12)
    assert uart_waveform(log)[-1] == (7 + tie // 12, 0)
    assert log.final_state["uart"]["fsm"] == "START"
    assert log.onpin_edges[-1] == (37_501_507, 0)  # the eighth toggle


def roll_and_selection(dev):
    """Every field of the roll and selection registers, read one by one."""
    roll, sel = dev.roll, dev.selection
    return ((roll.out, roll.held_diceval, roll.live, roll.held),
            (sel.setmode, sel.dselect, sel.diceval, sel.set_digits, sel.keepon))


def test_device_grid_moduli():
    h = HALF_PERIODS[HZ10]
    # 1. S5 rising edge i sits at S5 * (2i + 1) = h * (100i + 50): an even
    #    multiple of h, so never an HZ10 rising edge (odd multiples), and as a
    #    polynomial in i it is h past HZ10 edge 50i + 24 and h before 50i + 25
    assert HALF_PERIODS[S5] == 50 * h
    assert HALF_PERIODS[S5] % (2 * h) == 0
    assert (2 * HALF_PERIODS[S5], HALF_PERIODS[S5] - h) == (h * 100, h * (2 * 24 + 1))
    assert (2 * HALF_PERIODS[S5], HALF_PERIODS[S5] + h) == (h * 100, h * (2 * 25 + 1))
    # 2. frame m starts at 18 000 + 120 000 m, and every HZ1000 edge is a
    #    multiple of 6 000: all 0 mod 16; an HZ10 rising edge (2k + 1) h is
    #    8 (2k + 1) = 8 mod 16, so no UART edge ever falls on a device step
    assert FIRST_FRAME_CYCLES == 3 * HALF_PERIODS[HZ1000]
    assert FRAME_CYCLES == 20 * HALF_PERIODS[HZ1000]
    assert HALF_PERIODS[HZ1000] % 16 == 0
    assert h % 16 == 8
    # 3. the digits change only at an HZ10 step or at reset: an S5 step writes
    #    the keep-awake outputs alone
    rng = random.Random(5)
    dev = Device()
    for _ in range(200):
        dev.hz10_tick(rng.randrange(2), rng.randrange(2), rng.randrange(2), rng.randrange(1 << 16))
        before = roll_and_selection(dev)
        dev.s5_tick()
        assert roll_and_selection(dev) == before
