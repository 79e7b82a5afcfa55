"""Clock divider bank: five derived domains from the 12 MHz system clock.

Domains and half periods in sysclk cycles: HZ1000 (6000), HZ1500 (4000),
HZ500 (12000), HZ10 (600024), S5 (30001200). The HZ10 constant makes that
domain 9.9996 Hz, not 10 Hz. HZ1500 is generated but nothing in the device
consumes it.

Each divider toggles on the edge where its counter reaches half_period - 1
and clears, so after reset a domain toggles on every multiple of its half
period, rising at the odd multiples. Replay (trace.Board) relies on that
alone: it places the HZ10 and S5 edges that step the device, and the UART
frame starts, arithmetically. The Scheduler is the reference: its only state
is the cycle count since reset, and advance(n) derives every toggle of the
next n sysclk rising edges from it. It is the only place that emits HZ500,
HZ1500 and falling edges.
"""

from __future__ import annotations

from operator import attrgetter

from .record import Record

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


class TickEvent(Record):
    """One toggle of one domain at an absolute sysclk rising-edge index."""

    __slots__ = ("sysclk_index", "domain", "edge")

    def __init__(self, sysclk_index: int, domain: str, edge: str) -> None:
        self.sysclk_index = sysclk_index
        self.domain = domain
        self.edge = edge


class Scheduler:
    """The divider bank; its only state is the cycle count since reset."""

    def __init__(self) -> None:
        self.cycle = 0

    def advance(self, n: int) -> list[TickEvent]:
        """Step n sysclk rising edges; return every toggle in order.

        Events are ordered by sysclk_index with ties broken in DOMAIN_ORDER.
        advance(a) followed by advance(b) emits the same events as a single
        advance(a + b).
        """
        if n < 0:
            raise ValueError(f"cannot advance a negative cycle count: {n}")
        start, end = self.cycle, self.cycle + n
        events: list[TickEvent] = []
        for name in DOMAIN_ORDER:
            half = HALF_PERIODS[name]
            events += (TickEvent(idx, name, RISING if idx // half % 2 else FALLING)
                       for idx in range(start - start % half + half, end + 1, half))
        self.cycle = end
        events.sort(key=attrgetter("sysclk_index"))  # stable: ties keep DOMAIN_ORDER
        return events
