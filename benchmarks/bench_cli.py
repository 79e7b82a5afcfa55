"""Time the fixed per-call cost of `dicesim.cli.main` and check a warm call.

    python benchmarks/bench_cli.py [REPEAT]

Each step is timed, best of REPEAT calls, in one process: a build of the
whole parser from `cli.COMMANDS` without its cache
(`build_parser.__wrapped__()`, what the first line that argparse reads
costs, such as `--help` or `uart`), one `parse_args` of a `simulate` argv
and of a `rolls` argv on the reused parser, the same two argvs read from
`cli.COMMANDS` without argparse (`cli._plain_args`, the path `main` takes
for them), and a warm `main(["uart", "encode", "16"])` with its stdout
caught. Both reads of each argv must give the same values, and the output
of the last warm call must be the frame of 0x16, `0011010001`.

Then `trace.parse_trace` of the event-dense session of the benchmark's
`replay_busy` workload (the trace bench_emit.py reads), which must give the
events of the per-line reader `trace._parse_lines`.

Then the two file phases of a `simulate` call, in a temporary directory:
`trace.load_trace` of the 3 s boot trace, which must give the events of
`trace.parse_trace` of its text, and `cli._write_atomic` of one set of
three files of the sizes a `replay_feedback` call writes (perfbench, seed
1), once into targets removed before each call (untimed) and once over the
targets the call before left, as a rerun into the same `--out` does. After
each write every file must hold the bytes of its text.
"""

import contextlib
import io
import os
import sys
import tempfile
import time

from bench_emit import BUSY_TRACE
from dicesim import cli, trace

REPEAT = int(sys.argv[1]) if len(sys.argv) > 1 else 5
SIMULATE_ARGV = ["simulate", "--trace", "boot.trace", "--out", "run", "--duration-us", "3000000",
                 "--prng-mode", "feedback", "--format", "jsonl", "--uart-bits"]
ROLLS_ARGV = ["rolls", "--sides", "20", "--count", "250000", "--mode", "stateless", "--seed", "7"]
UART_ARGV = ["uart", "encode", "16"]
UART_WANT = "0011010001\n"
BOOT = "0 RESET 1\n1000 RESET 0\n1000 TILT 1\n"
SET_SIZES = {"log.csv": 961, "uart.csv": 445, "state.json": 860}  # bytes of replay_feedback(1)'s outputs


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


def text_of(size):
    """size bytes of 16-byte lines."""
    return ("0123456789,abcd\n" * (size // 16 + 1))[:size]


def best_write(out, texts, fresh):
    """Best of REPEAT `_write_atomic` calls of texts into out, each file's
    bytes checked after each call; with fresh, the targets are removed first."""
    files = {name: (lambda text=text: text) for name, text in texts.items()}
    best = float("inf")
    for _ in range(REPEAT):
        for name in texts if fresh else ():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(out, name))
        t0 = time.perf_counter()
        cli._write_atomic(out, files)
        best = min(best, time.perf_counter() - t0)
        for name, text in texts.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert fh.read() == text.encode("utf-8"), name
    assert sorted(os.listdir(out)) == sorted(texts), os.listdir(out)  # no temp file left
    return best


def file_rows():
    with tempfile.TemporaryDirectory() as tmp:
        boot = os.path.join(tmp, "boot.trace")
        with open(boot, "w", encoding="utf-8") as fh:
            fh.write(BOOT)
        assert trace.load_trace(boot) == trace.parse_trace(BOOT)
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        texts = {name: text_of(size) for name, size in SET_SIZES.items()}
        return [("load_trace boot", best_of(trace.load_trace, boot)),
                ("write 3 files, fresh", best_write(out, texts, fresh=True)),
                ("write 3 files, over", best_write(out, texts, fresh=False))]


def main():
    parser = cli.build_parser()
    out = io.StringIO()
    for argv in (SIMULATE_ARGV, ROLLS_ARGV):
        plain = cli._plain_args(argv)
        assert plain is not None and vars(plain) == vars(parser.parse_args(argv)), argv
    rows = [("build_parser (uncached)", best_of(cli.build_parser.__wrapped__)),
            ("parse_args simulate", best_of(parser.parse_args, SIMULATE_ARGV)),
            ("plain simulate", best_of(cli._plain_args, SIMULATE_ARGV)),
            ("parse_args rolls", best_of(parser.parse_args, ROLLS_ARGV)),
            ("plain rolls", best_of(cli._plain_args, ROLLS_ARGV)),
            ("main uart encode 16", best_of(warm_main, UART_ARGV, out))]
    assert out.getvalue() == UART_WANT, out.getvalue()
    assert trace.parse_trace(BUSY_TRACE) == trace._parse_lines(BUSY_TRACE)
    rows.append(("parse_trace busy", best_of(trace.parse_trace, BUSY_TRACE)))
    rows += file_rows()
    print("the plain reader reads each argv as parse_args does")
    print(f"a warm main call prints {UART_WANT.strip()}")
    print("parse_trace reads the busy trace's events as the per-line reader does")
    print(f"load_trace reads the boot trace's events; every write leaves {sum(SET_SIZES.values())} bytes in 3 files")
    print(f"{'step':<24}  {'best (ms)':>9}")
    for step, seconds in rows:
        print(f"{step:<24}  {seconds * 1e3:>9.3f}")


if __name__ == "__main__":
    main()
