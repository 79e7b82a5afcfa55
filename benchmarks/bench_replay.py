"""Time `replay` of long upright spans and of one event-dense session, and the
parse of that session, and check each against a reference.

    python benchmarks/bench_replay.py [REPEAT]

Each upright trace is a boot set upright (`RESET 1` at 0, `RESET 0` and
`TILT 1` at 1 000 us), replayed for 60 s, 600 s and 3 600 s in both PRNG
modes. After the first steady step the rest of such a run is one jump, so
its time should barely grow with the duration. Before timing, the final
seed, rand and rand register of each run, and its ONPIN count, are compared
with `upright_loop` of tests/reference_board.py, which steps one roll tick
at a time.

The busy trace is the event-dense session of the benchmark's `replay_busy`
workload (perfbench/workloads.py), with the options of its `simulate` call,
as bench_emit.py reads it: its gaps are too short to jump, so replay steps
the device on every tick, and its time is the per-tick device cost. It is
replayed as that call runs it (stateless) and with `--prng-mode feedback`
added, where each tick also jumps the generator register one HZ10 period.
Before timing, the files of each are compared, file for file, with those of
`reference_files` of tests/reference_board.py, which steps every edge.

The busy trace and its CRLF copy are also parsed by `parse_trace`, which
reads well-formed text with one pattern, and by `_parse_lines`, the per-line
reader it leaves any other text to; both must give the same events.

Then `replay`, and both parsers on the busy trace, are timed, best of REPEAT
calls (`best_of` of bench_emit.py).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from bench_emit import BUSY_FORMAT, BUSY_OPTIONS, BUSY_TRACE, BUSY_US, best_of  # noqa: E402
from dicesim.trace import (  # noqa: E402
    _parse_lines,
    emit_log,
    emit_state_json,
    emit_uart_csv,
    parse_trace,
    replay,
)
from reference_board import UPRIGHT_TRACE, reference_files, upright_loop  # noqa: E402

DURATIONS_S = (60, 600, 3_600)
MODES = ("stateless", "feedback")
EVENTS = parse_trace(UPRIGHT_TRACE.decode("ascii"))


def main():
    rows = []
    for mode in MODES:
        for seconds in DURATIONS_S:
            duration_us = seconds * 1_000_000
            log = replay(EVENTS, prng_mode=mode, duration_us=duration_us)
            state = log.final_state
            got = state["seed"], state["rand"], state["prng"]["rand_reg"], len(log.onpin_edges)
            assert got == upright_loop(mode, duration_us), (mode, seconds)
            rows.append((mode, f"upright {seconds} s", "replay",
                         best_of(lambda: replay(EVENTS, prng_mode=mode, duration_us=duration_us))))
    print("every final state matches the loop of steps")
    events = parse_trace(BUSY_TRACE)
    for text in (BUSY_TRACE, BUSY_TRACE.replace("\n", "\r\n")):
        assert parse_trace(text) == _parse_lines(text) == events, "busy parse"
    print("the pattern and the per-line reader read the same busy events, LF and CRLF")
    busy = f"busy {BUSY_US / 1e6:g} s"
    for mode in MODES:
        log = replay(events, prng_mode=mode, duration_us=BUSY_US)
        files = {f"log.{BUSY_FORMAT}": emit_log(log, BUSY_FORMAT), "uart.csv": emit_uart_csv(log),
                 "state.json": emit_state_json(log)}
        reference = reference_files(BUSY_TRACE.encode("ascii"), BUSY_OPTIONS + ("--prng-mode", mode))
        assert {name: text.encode("utf-8") for name, text in files.items()} == reference, ("busy", mode)
        rows.append((mode, busy, "replay", best_of(lambda: replay(events, prng_mode=mode, duration_us=BUSY_US))))
    rows += [("", busy, parse.__name__, best_of(parse, BUSY_TRACE)) for parse in (parse_trace, _parse_lines)]
    print("the busy session's files match the reference board in both modes")
    print(f"{'mode':<10}  {'trace':<16}  {'call':<12}  {'best (ms)':>9}")
    for mode, trace, call, best in rows:
        print(f"{mode:<10}  {trace:<16}  {call:<12}  {best * 1e3:>9.3f}")


if __name__ == "__main__":
    main()
