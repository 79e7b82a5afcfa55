"""Time `replay` of long upright spans and check each against a loop of steps.

    python benchmarks/bench_replay.py [REPEAT]

Each trace is a boot set upright (`RESET 1` at 0, `RESET 0` and `TILT 1` at
1 000 us), replayed for 60 s, 600 s and 3 600 s in both PRNG modes. After
the first steady step the rest of such a run is one jump, so its time
should barely grow with the duration. Before timing, the final seed, rand
and rand register of each run, and its ONPIN count, are compared with
`upright_loop` of tests/reference_board.py, which steps one roll tick at a
time. Then `replay` is timed, best of REPEAT calls.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from dicesim.trace import ReplayConfig, parse_trace, replay  # noqa: E402
from reference_board import UPRIGHT_TRACE, upright_loop  # noqa: E402

REPEAT = int(sys.argv[1]) if len(sys.argv) > 1 else 5
DURATIONS_S = (60, 600, 3_600)
MODES = ("stateless", "feedback")
EVENTS = parse_trace(UPRIGHT_TRACE.decode("ascii"))


def best_of(fn):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    rows = []
    for mode in MODES:
        for seconds in DURATIONS_S:
            config = ReplayConfig(prng_mode=mode, duration_us=seconds * 1_000_000)
            log = replay(EVENTS, config)
            state = log.final_state
            got = state["seed"], state["rand"], state["prng"]["rand_reg"], len(log.onpin_edges)
            assert got == upright_loop(mode, config.duration_us), (mode, seconds)
            rows.append((mode, seconds, best_of(lambda: replay(EVENTS, config))))
    print("every final state matches the loop of steps")
    print(f"{'mode':<10}  {'upright (s)':>11}  {'replay (ms)':>11}")
    for mode, seconds, best in rows:
        print(f"{mode:<10}  {seconds:>11}  {best * 1e3:>11.3f}")


if __name__ == "__main__":
    main()
