"""What the three digest corpora share: running `dicesim` on a case in a
directory of its own, the sha256 digests of what it wrote, the digest file
of a corpus module, and the check of every case.

A corpus module (simulate_corpus.py, rolls_corpus.py, stats_uart_corpus.py)
defines CASES, DIGESTS (its json file), make_case(index), run_case(case)
and describe(case). `check_every_case(module, name)` is its `__main__`,
and `write_digests(module)` writes its digest file from the src/ that
`dicesim` is imported from.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from collections.abc import Callable, Sequence
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from dicesim.cli import main


def sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def run_main(argv: Sequence[str], inputs: dict[str, bytes] | None = None) -> dict:
    """Run `dicesim` on argv in a directory of its own, where the inputs
    ({name: bytes}) are written first and an argument "TMP/name" names a
    file: the digests of its exit code, of its stdout and stderr, in which
    the directory reads TMP, and of every other file in the directory."""
    inputs = inputs or {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in inputs.items():
            Path(tmp, name).write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([tmp + arg[3:] if arg.startswith("TMP/") else arg for arg in argv])
        files = {path.name: sha(path.read_bytes()) for path in sorted(Path(tmp).iterdir()) if path.name not in inputs}
        return {"exit": code, "stdout": sha(stdout.getvalue().replace(tmp, "TMP")),
                "stderr": sha(stderr.getvalue().replace(tmp, "TMP")), "files": files}


def load_digests(corpus) -> list[dict]:
    return json.loads(corpus.DIGESTS.read_text(encoding="utf-8"))


def write_digests(corpus) -> None:
    digests = [corpus.run_case(corpus.make_case(index)) for index in range(corpus.CASES)]
    corpus.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def check(cases: list, passes: Callable, describe: Callable, what: str) -> int:
    """Print describe(case) for each case that does not pass, then how many
    did; the exit code, 1 if any failed."""
    failed = [case for case in cases if not passes(case)]
    for case in failed:
        print(describe(case), end="\n\n")
    print(f"{len(cases) - len(failed)} of {len(cases)} {what}")
    return 1 if failed else 0


def check_every_case(corpus, name: str) -> int:
    """Every case of a corpus module against its digest."""
    digests = load_digests(corpus)
    if len(digests) != corpus.CASES:
        sys.exit(f"{corpus.DIGESTS.name} holds {len(digests)} digests, not {corpus.CASES}")
    cases = [corpus.make_case(index) for index in range(corpus.CASES)]
    return check(cases, lambda case: corpus.run_case(case) == digests[case.index], corpus.describe,
                 f"{name} cases match their digests")
