"""Seed-generated inputs and the CLI calls of each benchmark workload.

A workload is a pure function of its seed: the same seed writes
byte-identical trace files and the same argument lists. The seed varies
event times and values, never the amount of work, so runs made with
different seeds stay comparable with each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Tick grid of the modelled board: HZ10 half period is 600 024 sysclk cycles
# and one microsecond is 12 cycles, so after a reset release at r us the
# n-th roll tick lands at r + 50 002 + 100 004 n us.
HZ10_HALF_CYCLES = 600_024
CYCLES_PER_US = 12
FIRST_TICK_US = HZ10_HALF_CYCLES // CYCLES_PER_US
TICK_US = 2 * FIRST_TICK_US
RELEASE_US = 1000

IDLE_DURATION_US = 42_000_000
BUSY_CYCLES = 10
BUSY_CYCLE_TICKS = 32
BUSY_DURATION_US = 32_500_000
FEEDBACK_DURATION_US = 450_000
ROLL_COUNT = 250_000
BIAS_FACES = 100_000


@dataclass(frozen=True)
class Call:
    """One closed-loop `cli.main(argv)` call and the files it writes."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    device_s: float = 0.0  # seconds of device operation the call reproduces
    words: int = 0         # generator words the call produces or analyses


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    inputs: tuple[tuple[str, str], ...]  # (file name, text) written before timing
    calls: tuple[Call, ...]


def tick_us(origin_us: int, n: int) -> int:
    """Time of the n-th roll tick after a reset release at origin_us."""
    return origin_us + FIRST_TICK_US + TICK_US * n


def hz10_ticks(events: list[tuple[int, str, int]], duration_us: int) -> int:
    """Roll ticks in a replay: rising HZ10 edges while reset is released.

    The replayer starts released at cycle 0; RESET 1 stops the dividers
    (an edge on the assertion cycle still counts) and RESET 0 restarts the
    grid from that instant. Each tick latches one rand word.
    """
    def edges(start_us: int, end_us: int) -> int:
        span = (end_us - start_us) * CYCLES_PER_US
        return (span + HZ10_HALF_CYCLES) // (2 * HZ10_HALF_CYCLES)

    total, origin, running = 0, 0, True
    for t_us, signal, value in events:
        if signal != "RESET":
            continue
        if value == 1 and running:
            total += edges(origin, t_us)
            running = False
        elif value == 0 and not running:
            origin, running = t_us, True
    if running:
        total += edges(origin, duration_us)
    return total


def trace_text(events: list[tuple[int, str, int]]) -> str:
    return "".join(f"{t} {signal} {value}\n" for t, signal, value in events)


def _sorted(events: list[tuple[int, str, int]]) -> list[tuple[int, str, int]]:
    # stable sort: simultaneous events keep the order they were added in
    return sorted(events, key=lambda ev: ev[0])


def _simulate(name: str, seed: int, events, duration_us: int, flags: tuple[str, ...],
              log_name: str) -> Workload:
    outputs = [f"out/{log_name}", "out/uart.csv", "out/state.json"]
    if "--uart-bits" in flags:
        outputs.append("out/uart_bits.csv")
    call = Call(
        argv=("simulate", "--trace", f"{name}.trace", "--out", "out",
              "--duration-us", str(duration_us)) + flags,
        outputs=tuple(outputs),
        device_s=duration_us / 1e6,
        words=hz10_ticks(events, duration_us),
    )
    return Workload(name, seed, ((f"{name}.trace", trace_text(events)),), (call,))


def replay_idle(seed: int) -> Workload:
    """Boot, settle, pick a die, then one long idle span with the tx waveform."""
    rng = random.Random(f"replay_idle:{seed}")
    events = [(0, "RESET", 1), (RELEASE_US, "RESET", 0), (RELEASE_US, "TILT", 1)]
    for n in range(8):
        events.append((tick_us(RELEASE_US, n) - rng.randrange(1_000, 49_000), "ADC",
                       rng.randrange(1, 0x10000)))
    steps = rng.randrange(8)
    if steps:
        btn = rng.choice(("BTNU", "BTND"))
        events.append((tick_us(RELEASE_US, 10) + 10_000, btn, 1))
        events.append((tick_us(RELEASE_US, 10 + steps) + 10_000, btn, 0))
    flags = ("--uart-bits", "--adc-seed", str(rng.randrange(1 << 32)))
    return _simulate("replay_idle", seed, _sorted(events), IDLE_DURATION_US, flags, "log.csv")


def replay_busy(seed: int) -> Workload:
    """Event-dense session: ADC samples on most ticks, tilt roll/settle
    cycles with a button walk through all eight dice in each, one
    both-button disarm and two reset pulses."""
    rng = random.Random(f"replay_busy:{seed}")
    events = [(0, "RESET", 1), (RELEASE_US, "RESET", 0)]
    origin = RELEASE_US
    for cycle in range(BUSY_CYCLES):
        def t(n: int) -> int:
            return tick_us(origin, n)
        for n in range(BUSY_CYCLE_TICKS):
            if rng.random() < 0.85:
                lead = rng.randrange(1_000, 49_000 if n == 0 else 99_000)
                events.append((t(n) - lead, "ADC", rng.randrange(0x10000)))
        rolling = rng.randint(2, 5)
        events.append((t(0) - rng.randrange(5_000, 45_000), "TILT", 0))
        events.append((t(rolling) - rng.randrange(5_000, 45_000), "TILT", 1))
        # upright from about tick rolling + 9; a held button steps every tick
        walk_start, walk_len = rolling + 10, 8 + rng.randrange(8)
        btn = rng.choice(("BTNU", "BTND"))
        events.append((t(walk_start) - 30_000, btn, 1))
        events.append((t(walk_start + walk_len - 1) + 30_000, btn, 0))
        if cycle == 6:
            events += [(t(30) - 30_000, "BTNU", 1), (t(30) - 30_000, "BTND", 1),
                       (t(30) + 30_000, "BTNU", 0), (t(30) + 30_000, "BTND", 0)]
        if cycle in (3, 8):
            assert_t = t(31) + rng.randrange(5_000, 40_000)
            origin = assert_t + rng.randrange(10_000, 40_000)
            events += [(assert_t, "RESET", 1), (origin, "RESET", 0)]
        else:
            origin = t(BUSY_CYCLE_TICKS) - FIRST_TICK_US
    events = _sorted(events)
    assert events[-1][0] < BUSY_DURATION_US
    return _simulate("replay_busy", seed, events, BUSY_DURATION_US, ("--format", "jsonl"), "log.jsonl")


def replay_feedback(seed: int) -> Workload:
    """Boot-and-roll in feedback mode: four roll ticks while the tilt window fills."""
    rng = random.Random(f"replay_feedback:{seed}")
    events = [(0, "RESET", 1), (RELEASE_US, "RESET", 0), (RELEASE_US, "TILT", 1)]
    # a nonzero first sample latches the generator on the first tick, so
    # every seed steps the same number of cycles
    for n in range(4):
        events.append((tick_us(RELEASE_US, n) - rng.randrange(1_000, 49_000), "ADC",
                       rng.randrange(1, 0x10000)))
    flags = ("--prng-mode", "feedback", "--adc-seed", str(rng.randrange(1 << 32)))
    return _simulate("replay_feedback", seed, _sorted(events), FEEDBACK_DURATION_US, flags, "log.csv")


def rolls_stats(seed: int) -> Workload:
    """Rolls in both modes for the same count, stats on each, one wide bias report."""
    rng = random.Random(f"rolls_stats:{seed}")
    calls = []
    for mode, first_seed in (("feedback", 1), ("stateless", 0)):
        sides = str(rng.choice((12, 20)))
        gen_seed = str(rng.randrange(first_seed, 1 << 32))
        rolls_file, hist_file = f"{mode}.csv", f"{mode}_hist.csv"
        # the as-built device shows one roll per HZ10 tick
        calls.append(Call(("rolls", "--sides", sides, "--count", str(ROLL_COUNT), "--mode", mode,
                           "--seed", gen_seed, "--out", rolls_file),
                          (rolls_file,), device_s=ROLL_COUNT * TICK_US / 1e6, words=ROLL_COUNT))
        calls.append(Call(("stats", "--rolls", rolls_file, "--sides", sides, "--alpha", "0.01",
                           "--out", hist_file),
                          (hist_file,), words=ROLL_COUNT))
    calls.append(Call(("stats", "--bias", str(BIAS_FACES + rng.randrange(1000))), ()))
    return Workload("rolls_stats", seed, (), tuple(calls))


WORKLOADS = {
    "replay_idle": replay_idle,
    "replay_busy": replay_busy,
    "replay_feedback": replay_feedback,
    "rolls_stats": rolls_stats,
}


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")
    return WORKLOADS[name](seed)
