"""The `rolls` byte contract as a committed corpus of cases.

Case i is one `rolls` command. Its die, mode, count, seed kind and sink
follow from i: every die in SUPPORTED_DICE, both modes, the counts 1, C - 1,
C, C + 1 and 2C + 1 where C is ROLLS_PER_CHUNK, the default seed or a seed
drawn from `random.Random(i)`, and stdout or `--out`. Drawn seeds include 0,
which feedback mode refuses with exit 2 and stateless mode takes, and seeds
outside 0..2**32 - 1, which are masked to 32 bits. `rolls_corpus.json`
holds, per case, the sha256 of the file `rolls` writes, of its stdout and of
its stderr, and its exit code.

    python tests/rolls_corpus.py    # check every case

checks every case against the digests and, for each one that differs,
prints its argv. tests/test_rolls_corpus.py checks a fixed slice. Each case
runs through `corpus_runner.run_main`, and the digest file and this check
are those of tests/corpus_runner.py.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":  # run as a script: use this checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from corpus_runner import check_every_case, run_main  # noqa: E402
from dicesim.cli import ROLLS_PER_CHUNK  # noqa: E402
from dicesim.device import SUPPORTED_DICE  # noqa: E402

DIGESTS = Path(__file__).with_name("rolls_corpus.json")

MODES = ("feedback", "stateless")
COUNTS = (1, ROLLS_PER_CHUNK - 1, ROLLS_PER_CHUNK, ROLLS_PER_CHUNK + 1, 2 * ROLLS_PER_CHUNK + 1)
SEEDS = ("default", "drawn")
SINKS = ("stdout", "out")
CASES = len(SUPPORTED_DICE) * len(MODES) * len(COUNTS) * len(SEEDS) * len(SINKS)

# drawn now and then in place of a random word: zero, the extreme words,
# and seeds that the 32-bit mask folds onto them
_EDGE_SEEDS = (0, 0, 1, 0xFFFFFFFF, 1 << 32, -7, -(1 << 32))


@dataclass(frozen=True)
class Case:
    index: int
    argv: tuple[str, ...]   # rolls flags before --out, if the case writes a file
    to_file: bool


def make_case(index: int) -> Case:
    rest, sink = divmod(index, len(SINKS))
    rest, seed = divmod(rest, len(SEEDS))
    rest, count = divmod(rest, len(COUNTS))
    sides, mode = divmod(rest, len(MODES))
    argv = ["rolls", "--sides", str(SUPPORTED_DICE[sides]), "--count", str(COUNTS[count]),
            "--mode", MODES[mode]]
    if SEEDS[seed] == "drawn":
        rng = random.Random(index)
        value = rng.choice(_EDGE_SEEDS) if rng.random() < 0.3 else rng.randrange(1 << 32)
        argv += ["--seed", str(value)]
    return Case(index, tuple(argv), SINKS[sink] == "out")


def run_case(case: Case) -> dict:
    """Run `rolls` on the case: the digests of its exit code, stdout, stderr
    and the file it writes."""
    return run_main([*case.argv, *(("--out", "TMP/rolls.csv") if case.to_file else ())])


def describe(case: Case) -> str:
    """The case's argv, enough to replay it by hand."""
    return f"case {case.index}: dicesim {' '.join(case.argv)}" + (" --out rolls.csv" if case.to_file else "")


if __name__ == "__main__":
    sys.exit(check_every_case(sys.modules[__name__], "rolls"))
