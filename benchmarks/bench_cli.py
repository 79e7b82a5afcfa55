"""Time the fixed per-call cost of `dicesim.cli.main` and check a warm call.

    python benchmarks/bench_cli.py [REPEAT]

Each step is timed, best of REPEAT calls, in one process: a build of the
whole parser without its cache (`build_parser.__wrapped__()`, what every
`main` call cost before the parser was reused), one `parse_args` of a
`simulate` argv and of a `rolls` argv on the reused parser, and a warm
`main(["uart", "encode", "16"])` with its stdout caught. The output of the
last warm call must be the frame of 0x16, `0011010001`.
"""

import contextlib
import io
import sys
import time

from dicesim import cli

REPEAT = int(sys.argv[1]) if len(sys.argv) > 1 else 5
SIMULATE_ARGV = ["simulate", "--trace", "boot.trace", "--out", "run", "--duration-us", "3000000",
                 "--prng-mode", "feedback", "--format", "jsonl", "--uart-bits"]
ROLLS_ARGV = ["rolls", "--sides", "20", "--count", "250000", "--mode", "stateless", "--seed", "7"]
UART_ARGV = ["uart", "encode", "16"]
UART_WANT = "0011010001\n"


def best_of(fn, *args):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def warm_main(argv, out):
    out.seek(0)
    out.truncate()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK, argv


def main():
    parser = cli.build_parser()
    out = io.StringIO()
    rows = [("build_parser (uncached)", best_of(cli.build_parser.__wrapped__)),
            ("parse_args simulate", best_of(parser.parse_args, SIMULATE_ARGV)),
            ("parse_args rolls", best_of(parser.parse_args, ROLLS_ARGV)),
            ("main uart encode 16", best_of(warm_main, UART_ARGV, out))]
    assert out.getvalue() == UART_WANT, out.getvalue()
    print(f"a warm main call prints {UART_WANT.strip()}")
    print(f"{'step':<24}  {'best (ms)':>9}")
    for step, seconds in rows:
        print(f"{step:<24}  {seconds * 1e3:>9.3f}")


if __name__ == "__main__":
    main()
