"""The numpy-free checks under each Python interpreter given.

    python tests/interpreters.py PYTHON...

runs, under each interpreter, the checks that need neither numpy, pytest
nor hypothesis: the simulate corpus (`tests/simulate_corpus.py`), the help
and usage texts (`tests/help_texts.py`) and the `uart` cases of the
stats/uart corpus. Each check runs as its own process of that interpreter,
on this checkout's src/, and nothing is installed. It prints each check's
last line under the interpreter's version, and exits 1 if any check failed
or an interpreter could not be started.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# the uart cases alone: the stats cases read rolls with numpy
UART_CASES = f"""
import sys
sys.path[:0] = [{str(TESTS)!r}, {str(SRC)!r}]
import corpus_runner
import stats_uart_corpus as corpus
digests = corpus_runner.load_digests(corpus)
cases = [corpus.make_case(index) for index in range(corpus.UART_START, corpus.CASES)]
sys.exit(corpus_runner.check(cases, lambda case: corpus.run_case(case) == digests[case.index], corpus.describe,
                             "uart cases match their digests"))
"""
CHECKS = (
    ("simulate corpus", [str(TESTS / "simulate_corpus.py")]),
    ("help texts", [str(TESTS / "help_texts.py")]),
    ("uart cases", ["-c", UART_CASES]),
)


def run_checks(python: str) -> bool:
    """Print the version of `python` and the last line of each check under
    it; whether every check passed."""
    try:
        version = subprocess.run([python, "--version"], capture_output=True, text=True, timeout=60)
    except OSError as err:
        print(f"{python}: cannot start: {err}")
        return False
    print(f"{python}: {(version.stdout or version.stderr).strip()}")
    passed = True
    for name, args in CHECKS:
        run = subprocess.run([python, *args], capture_output=True, text=True, timeout=1800)
        lines = (run.stdout + run.stderr).strip().splitlines()
        print(f"  {name}: exit {run.returncode}: {lines[-1] if lines else '(no output)'}")
        passed = passed and run.returncode == 0
    return passed


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/interpreters.py PYTHON...")
    results = [run_checks(python) for python in sys.argv[1:]]
    sys.exit(0 if all(results) else 1)
