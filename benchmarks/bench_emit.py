"""Time the UART writers of `simulate` and check them against per-record joins.

    python benchmarks/bench_emit.py [REPEAT]

Three replays are made once, untimed: IDLE_S and LONG_IDLE_S seconds of an
idle board after boot, as `simulate --uart-bits` runs it (the long one's UART
run passes 10**9 us, where its times gain a digit inside the ten-frame blocks
the writers join), and a BUSY_S-second event-dense session with ADC samples
on most roll ticks, tilt roll/settle cycles, held-button walks and two RESET
pulses, as `simulate --format jsonl` runs it.
On each, `emit_log`, `emit_uart_csv` and `emit_uart_bits_csv` are compared
with a join of one line per record: one f-string per `uart_bytes` or
`uart_waveform` tuple, and `emit_log`'s records merged one by one with
`heapq.merge`. Then each writer and its join are timed, best of REPEAT calls.
"""

import heapq
import random
import sys
import time
from itertools import starmap
from operator import itemgetter

from dicesim.trace import (
    _RECORD_KINDS,
    LOG_COLUMNS,
    ReplayConfig,
    TraceEvent,
    emit_log,
    emit_uart_bits_csv,
    emit_uart_csv,
    replay,
)

REPEAT = int(sys.argv[1]) if len(sys.argv) > 1 else 5
IDLE_S = 600
LONG_IDLE_S = 1_100
BUSY_S = 33
TICK_US = 100_004  # one roll tick; the first after a release at r us is at r + 50 002


def idle_replay(seconds=IDLE_S):
    events = [TraceEvent(0, "RESET", 1), TraceEvent(1_000, "RESET", 0), TraceEvent(1_000, "TILT", 1)]
    return replay(events, ReplayConfig(duration_us=seconds * 1_000_000))


def busy_replay(seed=1):
    rng, events, origin = random.Random(seed), [(0, "RESET", 1), (1_000, "RESET", 0)], 1_000
    for cycle in range(10):
        def tick(n):
            return origin + 50_002 + TICK_US * n
        events += [(tick(n) - rng.randrange(1_000, 49_000), "ADC", rng.randrange(0x10000))
                   for n in range(32) if rng.random() < 0.85]
        rolling = rng.randint(2, 5)
        events += [(tick(0) - 20_000, "TILT", 0), (tick(rolling) - 20_000, "TILT", 1)]
        btn = rng.choice(("BTNU", "BTND"))
        events += [(tick(rolling + 10) - 30_000, btn, 1), (tick(rolling + 20) + 30_000, btn, 0)]
        if cycle in (3, 8):
            cut = tick(31) + rng.randrange(5_000, 40_000)
            origin = cut + rng.randrange(10_000, 40_000)
            events += [(cut, "RESET", 1), (origin, "RESET", 0)]
        else:
            origin = tick(32) - 50_002
    events = [TraceEvent(*ev) for ev in sorted(events, key=itemgetter(0))]
    return replay(events, ReplayConfig(duration_us=BUSY_S * 1_000_000))


def log_by_record(log, fmt):
    column = 1 if fmt == "csv" else 2
    streams = []
    for kind in _RECORD_KINDS:
        records = getattr(log, kind[0])
        streams.append(zip(map(itemgetter(0), records), starmap(kind[column].format, records)))
    header = ",".join(LOG_COLUMNS) + "\n" if fmt == "csv" else ""
    return header + "".join(map(itemgetter(1), heapq.merge(*streams, key=itemgetter(0))))


def uart_csv_by_record(log):
    return "t_us,byte_hex\n" + "".join(f"{t_us},{byte:02x}\n" for t_us, byte in log.uart_bytes)


def uart_bits_by_record(log):
    return "t_us,level\n" + "".join(f"{t_us},{level}\n" for t_us, level in log.uart_waveform)


def best_of(fn, *args):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    cases = [(f"idle {IDLE_S} s", idle_replay(), "csv"), (f"idle {LONG_IDLE_S} s", idle_replay(LONG_IDLE_S), "csv"),
             (f"busy {BUSY_S} s", busy_replay(), "jsonl")]
    rows = []
    for name, log, fmt in cases:
        writers = [(f"emit_log {fmt}", lambda log: emit_log(log, fmt), lambda log: log_by_record(log, fmt)),
                   ("emit_uart_csv", emit_uart_csv, uart_csv_by_record),
                   ("emit_uart_bits_csv", emit_uart_bits_csv, uart_bits_by_record)]
        for writer, fn, reference in writers:
            text = fn(log)
            assert text == reference(log), (name, writer)
            rows.append((name, writer, text.count("\n"), best_of(fn, log), best_of(reference, log)))
    print("every writer matches its per-record join")
    print(f"{'replay':<12}  {'writer':<18}  {'lines':>8}  {'best (ms)':>9}  {'join (ms)':>9}")
    for name, writer, lines, seconds, join in rows:
        print(f"{name:<12}  {writer:<18}  {lines:>8}  {seconds * 1e3:>9.2f}  {join * 1e3:>9.2f}")


if __name__ == "__main__":
    main()
