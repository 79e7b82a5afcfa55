"""Time one-shot `python -m dicesim` commands against a bare interpreter.

    python benchmarks/bench_start.py [RUNS] [SRC ...]

A user runs one command per process, so each command here is a new
interpreter: `python -c pass` (the floor), `uart encode 16`, `simulate` of a
3 s boot trace (`RESET 1` at 0, `RESET 0` and `TILT 1` at 1 000 us) in both
PRNG modes, `simulate --prng-mode feedback` of the same trace for 60 s,
which is one steady upright span, `rolls --sides 6 --count 1`, and
`stats --bias 6`, which loads no numpy. Each
SRC is a `src` directory to import the package from (default: this
checkout's); with two or more, their runs alternate, so they can be
compared on one host at one time. One untimed round writes the bytecode
caches first, and the children run with bytecode cached, as users run the
command (`PYTHONDONTWRITEBYTECODE` is dropped). Every round runs every
command once for every SRC, RUNS rounds (default and minimum 11). Each
command must exit 0, and `uart encode 16` must print the frame of 0x16,
`0011010001`. Printed per command: the median wall time with its min-max,
and the median less the bare interpreter's.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_RUNS = 11
BOOT = "0 RESET 1\n1000 RESET 0\n1000 TILT 1\n"
UART_WANT = b"0011010001\n"
COMMANDS = (  # (label, arguments after `python`, with {trace} and {out} filled in)
    ("python -c pass", ["-c", "pass"]),
    ("uart encode 16", ["-m", "dicesim", "uart", "encode", "16"]),
    ("simulate 3 s stateless", ["-m", "dicesim", "simulate", "--trace", "{trace}", "--out", "{out}",
                                "--duration-us", "3000000"]),
    ("simulate 3 s feedback", ["-m", "dicesim", "simulate", "--trace", "{trace}", "--out", "{out}",
                               "--duration-us", "3000000", "--prng-mode", "feedback"]),
    ("simulate 60 s feedback", ["-m", "dicesim", "simulate", "--trace", "{trace}", "--out", "{out}",
                                "--duration-us", "60000000", "--prng-mode", "feedback"]),
    ("rolls --sides 6 --count 1", ["-m", "dicesim", "rolls", "--sides", "6", "--count", "1"]),
    ("stats --bias 6", ["-m", "dicesim", "stats", "--bias", "6"]),
)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # timed with compiled bytecode cached
    return env


def run_once(argv: list[str], env: dict[str, str], label: str) -> float:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.PIPE)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{label}: exit {done.returncode}")
    if label == "uart encode 16" and done.stdout != UART_WANT:
        raise SystemExit(f"{label}: printed {done.stdout!r}, not {UART_WANT!r}")
    return seconds


def main() -> None:
    runs = max(MIN_RUNS, int(sys.argv[1]) if len(sys.argv) > 1 else MIN_RUNS)
    srcs = [Path(arg).resolve() for arg in sys.argv[2:]] or [ROOT / "src"]
    envs = [child_env(src) for src in srcs]
    times = {(src, label): [] for src in srcs for label, _ in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp, "boot.txt")
        trace.write_text(BOOT, encoding="ascii")
        fill = {"trace": str(trace), "out": str(Path(tmp, "out"))}
        commands = [(label, [arg.format(**fill) for arg in argv]) for label, argv in COMMANDS]
        for round_no in range(runs + 1):  # round 0 writes the bytecode caches
            for label, argv in commands:
                for src, env in zip(srcs, envs):
                    seconds = run_once(argv, env, label)
                    if round_no:
                        times[src, label].append(seconds)
    print(f"{runs} alternated one-shot runs per command, bytecode cached, Python {sys.version.split()[0]}")
    for src in srcs:
        print(f"\n{src}")
        print(f"{'command':<26}  {'median (ms)':>11}  {'min-max (ms)':>13}  {'over bare (ms)':>14}")
        bare = statistics.median(times[src, COMMANDS[0][0]])
        for label, _ in COMMANDS:
            samples = times[src, label]
            median = statistics.median(samples)
            spread = f"{min(samples) * 1e3:.1f}-{max(samples) * 1e3:.1f}"
            print(f"{label:<26}  {median * 1e3:>11.1f}  {spread:>13}  {(median - bare) * 1e3:>14.1f}")


if __name__ == "__main__":
    main()
