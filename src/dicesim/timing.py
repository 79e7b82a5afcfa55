"""Clock divider bank: five derived domains from the 12 MHz system clock.

Domains and half periods in sysclk cycles: HZ1000 (6000), HZ1500 (4000),
HZ500 (12000), HZ10 (600024), S5 (30001200). The HZ10 constant makes that
domain 9.9996 Hz, not 10 Hz; frequency_of returns exact rationals so nothing
downstream rounds it. HZ1500 is generated but nothing in the device consumes
it.

Each divider toggles on the edge where its counter reaches half_period - 1
and clears, so its first toggle after reset lands on edge number half_period
and its rising edges sit at odd multiples of it. Replay (trace.Board) relies
on that alone: it places the HZ10 and S5 edges that step the device, and the
UART frame starts, arithmetically. The Scheduler is the oracle: advance(n)
returns every toggle of n sysclk rising edges in one arithmetic step per
domain, bit-exact against counting every cycle, and is the only place that
emits HZ500, HZ1500 and falling edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SYSCLK_HZ = 12_000_000

HZ1000 = "HZ1000"
HZ1500 = "HZ1500"
HZ500 = "HZ500"
HZ10 = "HZ10"
S5 = "S5"

HALF_PERIODS = {
    HZ1000: 6000,
    HZ1500: 4000,
    HZ500: 12000,
    HZ10: 600024,
    S5: 30001200,
}

# Simultaneous toggles are emitted in this fixed order.
DOMAIN_ORDER = (HZ1000, HZ1500, HZ500, HZ10, S5)

RISING = "rising"
FALLING = "falling"


@dataclass
class ClockDomain:
    name: str
    half_period: int
    level: int = 0
    counter: int = 0


@dataclass(frozen=True)
class TickEvent:
    """One toggle of one domain at an absolute sysclk rising-edge index."""

    sysclk_index: int
    domain: str
    edge: str


def frequency_of(name: str) -> Fraction:
    """Exact output frequency of a domain in Hz."""
    if name not in HALF_PERIODS:
        raise ValueError(f"unknown clock domain: {name!r}")
    return Fraction(SYSCLK_HZ, 2 * HALF_PERIODS[name])


class Scheduler:
    """Event-driven divider bank over the five domains."""

    def __init__(self) -> None:
        self.domains = {name: ClockDomain(name, HALF_PERIODS[name]) for name in DOMAIN_ORDER}
        self.cycle = 0

    def reset(self) -> None:
        """Clear all counters and output levels and rewind the cycle index."""
        for dom in self.domains.values():
            dom.level = 0
            dom.counter = 0
        self.cycle = 0

    def levels(self) -> dict[str, int]:
        """Current output level of every domain."""
        return {name: self.domains[name].level for name in DOMAIN_ORDER}

    def advance(self, n: int) -> list[TickEvent]:
        """Step n sysclk rising edges; return every toggle in order.

        Events are ordered by sysclk_index with ties broken in DOMAIN_ORDER.
        advance(a) followed by advance(b) emits the same events as a single
        advance(a + b).
        """
        if n < 0:
            raise ValueError(f"cannot advance a negative cycle count: {n}")
        start = self.cycle
        end = start + n
        keyed: list[tuple[int, int, TickEvent]] = []
        for rank, name in enumerate(DOMAIN_ORDER):
            dom = self.domains[name]
            level = dom.level
            first = start + (dom.half_period - dom.counter)
            for idx in range(first, end + 1, dom.half_period):
                level ^= 1
                keyed.append((idx, rank, TickEvent(idx, name, RISING if level else FALLING)))
            dom.level = level
            dom.counter = (dom.counter + n) % dom.half_period
        self.cycle = end
        keyed.sort(key=lambda item: (item[0], item[1]))
        return [event for _, _, event in keyed]
