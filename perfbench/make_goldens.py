"""Write goldens.json: the reference digests and simulated statistics.

    python3 perfbench/make_goldens.py "COMMIT DESCRIPTION"

Run this only at a commit whose outputs are the reference, because every
later run is judged against what it writes. It runs one operation of every
workload for each golden seed, requires the oracle checks to pass, and
stores the exit codes, the sha256 of every output file and stdout, and for
replays the exact records per kind, settled rolls and UART byte count.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import workloads
from run import CHILD, OUT, BenchError, wait_child

DEFAULT_SEED = 1
# seed 1 is the default one the workloads were built against; the others are held out
GOLDEN_SEEDS = range(16)


def golden(name: str, seed: int) -> dict:
    workload = workloads.build(name, seed)
    workdir = OUT / f"golden-{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        code, _, _ = wait_child([str(CHILD), "run", str(workdir), name, str(seed), "0", "0",
                                 str(OUT / "spans-golden.jsonl")], 300)
        if code != 0:
            raise BenchError(f"{name} seed {seed}: child exited with {code}")
        op = json.loads((workdir / "result.json").read_text(encoding="utf-8"))["ops"][0]
        codes, problems = checks.verify(workload, workdir / "ref")
        if problems or codes != op["codes"]:
            raise BenchError(f"{name} seed {seed}: oracle checks fail: {problems}, codes {op['codes']}")
        return {"codes": codes, "digests": op["digests"], "stats": checks.sim_stats(workload, workdir / "ref")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    table = {name: {str(seed): golden(name, seed) for seed in GOLDEN_SEEDS} for name in workloads.WORKLOADS}
    doc = {
        "source": argv[1],
        "note": "Digests of this repository's own outputs. There are no hardware captures, "
                "so these pin the model's behaviour but do not validate it against hardware.",
        "default_seed": DEFAULT_SEED,
        "workloads": table,
    }
    checks.GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
