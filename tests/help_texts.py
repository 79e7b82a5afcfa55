"""The help, usage and usage-error texts of the command line, and their
goldens per Python version.

Each case is one `cli.main` line that argparse alone reads: `--help`, each
command's `--help`, and usage errors (no command, an unknown command, a
missing required option, a bad type, a bad choice, and `uart encode` with
no bytes). `read_texts` runs every case in process, with `COLUMNS=80`, the
width argparse wraps its texts to, and gives its exit code, stdout and
stderr. argparse's wording and wrapping change between Python versions, so
`help_texts.json` holds one golden per `major.minor` version.

    python tests/help_texts.py    # check this interpreter's texts against its golden

`write_golden()` records the golden of the running interpreter from the
src/ that `dicesim` is imported from. `cli` imports no numpy, so any
supported interpreter can run this.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

if __name__ == "__main__":  # run as a script: use this checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dicesim.cli import main  # noqa: E402

GOLDENS = Path(__file__).with_name("help_texts.json")
VERSION = "%d.%d" % sys.version_info[:2]
CASES = (
    ["--help"],
    ["simulate", "--help"],
    ["rolls", "--help"],
    ["stats", "--help"],
    ["uart", "--help"],
    [],  # no command
    ["roll", "--sides", "6"],  # an unknown command
    ["simulate", "--out", "o"],  # a required option missing
    ["rolls", "--sides", "x", "--count", "5"],  # a bad type
    ["stats", "--alpha", "0.2"],  # a bad choice
    ["uart", "encode"],  # no bytes
)


def read_texts() -> list[dict]:
    """Each case's argv, exit code, stdout and stderr, read with COLUMNS=80."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        texts = []
        for argv in CASES:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            texts.append({"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
        return texts
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def load_goldens() -> dict[str, list[dict]]:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def write_golden() -> None:
    goldens = load_goldens() if GOLDENS.exists() else {}
    goldens[VERSION] = read_texts()
    GOLDENS.write_text(json.dumps(dict(sorted(goldens.items())), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    goldens = load_goldens()
    if VERSION not in goldens:
        sys.exit(f"no golden for Python {VERSION} in {GOLDENS.name}")
    wrong = [got["argv"] for got, want in zip(read_texts(), goldens[VERSION], strict=True) if got != want]
    for argv in wrong:
        print("differs:", " ".join(["dicesim", *argv]))
    print(f"{len(CASES) - len(wrong)}/{len(CASES)} help and usage texts match the Python {VERSION} golden")
    sys.exit(1 if wrong else 0)
