"""Clock divider bank: exact frequencies and event-driven scheduling."""

import random
from fractions import Fraction
from itertools import dropwhile, islice, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    frequency_of,
    rising_edges,
)

# spans reaching past the first S5 toggle, so every domain takes part
SPANS = st.integers(0, HALF_PERIODS[S5] + 2_000_000)


def _stepper_oracle(n):
    """Count every cycle the slow way; toggle when a counter hits half-1."""
    counters = {name: 0 for name in DOMAIN_ORDER}
    levels = {name: 0 for name in DOMAIN_ORDER}
    events = []
    for cyc in range(1, n + 1):
        for name in DOMAIN_ORDER:
            if counters[name] == HALF_PERIODS[name] - 1:
                counters[name] = 0
                levels[name] ^= 1
                events.append((cyc, name, RISING if levels[name] else FALLING))
            else:
                counters[name] += 1
    return events


def test_exact_frequencies():
    assert frequency_of(HZ1000) == 1000
    assert frequency_of(HZ1500) == 1500
    assert frequency_of(HZ500) == 500
    assert frequency_of(HZ10) == Fraction(250_000, 25_001)  # 9.9996 Hz, not 10
    assert frequency_of(S5) == Fraction(5_000, 25_001)
    assert float(frequency_of(HZ10)) == pytest.approx(9.9996, abs=5e-5)
    with pytest.raises(ValueError):
        frequency_of("HZ60")


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
    assert got == _stepper_oracle(n)


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
    assert split.levels() == whole.levels()


def test_simultaneous_toggles_keep_domain_order():
    # cycle 12000 toggles HZ1000 (2nd), HZ1500 (3rd) and HZ500 (1st) together
    events = Scheduler().advance(12_000)
    at_12k = [e.domain for e in events if e.sysclk_index == 12_000]
    assert at_12k == [HZ1000, HZ1500, HZ500]


def test_levels_track_toggles():
    sched = Scheduler()
    sched.advance(6_000)
    assert sched.levels()[HZ1000] == 1
    sched.advance(6_000)
    assert sched.levels()[HZ1000] == 0
    assert sched.levels()[HZ500] == 1


def test_reset_rewinds_everything():
    sched = Scheduler()
    sched.advance(123_456)
    sched.reset()
    assert sched.cycle == 0
    assert all(level == 0 for level in sched.levels().values())
    events = sched.advance(6_000)
    assert [e for e in events if e.domain == HZ1000][0].sysclk_index == 6_000


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
    assert split.levels() == whole.levels()
    assert split.cycle == whole.cycle


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**12), SPANS, SPANS)
def test_rising_edges_equal_scheduler_rising_events(origin, skip, span):
    # the HZ10 and S5 rising edges, and every tenth HZ1000 rising edge from
    # the second: the START edges of back-to-back UART frames
    sched = Scheduler()
    hz1000 = sum(e.domain == HZ1000 and e.edge == RISING for e in sched.advance(skip))
    want = []
    for e in sched.advance(span):
        if e.edge != RISING or e.domain not in (HZ1000, HZ10, S5):
            continue
        if e.domain == HZ1000:
            hz1000 += 1
            if hz1000 < 2 or (hz1000 - 2) % 10:
                continue
        want.append((origin + e.sysclk_index, e.domain))
    lo, hi = origin + skip, origin + skip + span
    edges = dropwhile(lambda edge: edge[0] <= lo, rising_edges(origin))
    assert list(takewhile(lambda edge: edge[0] <= hi, edges)) == want


def test_rising_edges_tie_keeps_domain_order():
    # the START edge of frame 3 750 (HZ1000 rising edge 2 + 10 * 3 750) and S5
    # rise together at 18 000 + 120 000 * 3 750 = 30 001 200 * 15 cycles
    tie = 450_018_000
    edges = dropwhile(lambda edge: edge[0] < tie + 7, rising_edges(7))
    assert list(islice(edges, 2)) == [(tie + 7, HZ1000), (tie + 7, S5)]
