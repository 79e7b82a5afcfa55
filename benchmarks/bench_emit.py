"""Time the log writers of `simulate` and check them against the reference board.

    python benchmarks/bench_emit.py [REPEAT]

Three replays are made once, untimed: IDLE_S and LONG_IDLE_S seconds of an
idle board after boot, as `simulate --uart-bits` runs it (the long one's UART
run passes 10**9 us, where its times gain a digit inside the ten-frame blocks
the writers join), and the event-dense session of the benchmark's
`replay_busy` workload (perfbench/workloads.py, seed BUSY_SEED), with the
trace, duration and log format of its `simulate` call: ADC samples on most
roll ticks, tilt roll/settle cycles, button walks, a disarm and two RESET
pulses. On each, `emit_log`, `emit_uart_csv` and `emit_uart_bits_csv` are
compared with `log_files` of tests/reference_board.py, which formats one
line per record. Then each writer, and `log_files` for all three files, is
timed, best of REPEAT calls.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT)]

from dicesim.trace import (  # noqa: E402
    TraceEvent,
    emit_log,
    emit_uart_bits_csv,
    emit_uart_csv,
    parse_trace,
    replay,
)
from perfbench.workloads import replay_busy  # noqa: E402
from reference_board import log_files  # noqa: E402

REPEAT = int(sys.argv[1]) if len(sys.argv) > 1 else 5
IDLE_S = 600
LONG_IDLE_S = 1_100
BUSY_SEED = 1
BUSY = replay_busy(BUSY_SEED)
(_, BUSY_TRACE), = BUSY.inputs
BUSY_OPTIONS = BUSY.calls[0].argv[5:]  # the simulate flags after --trace T --out O
BUSY_US = int(BUSY_OPTIONS[BUSY_OPTIONS.index("--duration-us") + 1])
BUSY_FORMAT = BUSY_OPTIONS[BUSY_OPTIONS.index("--format") + 1]


def idle_replay(seconds):
    events = [TraceEvent(0, "RESET", 1), TraceEvent(1_000, "RESET", 0), TraceEvent(1_000, "TILT", 1)]
    return replay(events, duration_us=seconds * 1_000_000)


def best_of(fn, *args):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    busy = replay(parse_trace(BUSY_TRACE), duration_us=BUSY_US)
    cases = [(f"idle {IDLE_S} s", idle_replay(IDLE_S), "csv"), (f"idle {LONG_IDLE_S} s", idle_replay(LONG_IDLE_S), "csv"),
             (f"busy {BUSY_US / 1e6:g} s", busy, BUSY_FORMAT)]
    rows = []
    for name, log, fmt in cases:
        reference = log_files(log, fmt)
        writers = [(f"log.{fmt}", f"emit_log {fmt}", lambda log: emit_log(log, fmt)),
                   ("uart.csv", "emit_uart_csv", emit_uart_csv),
                   ("uart_bits.csv", "emit_uart_bits_csv", emit_uart_bits_csv)]
        for file, writer, fn in writers:
            text = fn(log)
            assert text == reference[file], (name, writer)
            rows.append((name, writer, text.count("\n"), best_of(fn, log)))
        lines = sum(text.count("\n") for text in reference.values())
        rows.append((name, "log_files (all three)", lines, best_of(log_files, log, fmt)))
    print("every writer matches the reference board's file")
    print(f"{'replay':<12}  {'writer':<21}  {'lines':>8}  {'best (ms)':>9}")
    for name, writer, lines, seconds in rows:
        print(f"{name:<12}  {writer:<21}  {lines:>8}  {seconds * 1e3:>9.2f}")


if __name__ == "__main__":
    main()
