"""The benchmark's replays against the edge-by-edge reference board.

perfbench/goldens.json holds digests of dicesim's own outputs, so it shows
a change in the replays, not a fault that was there when the goldens were
taken. This check builds every `replay_idle`, `replay_busy` and
`replay_feedback` workload of seeds 0-15 with perfbench/workloads.py, which
it imports and never changes, runs the workload's `simulate` call through
`cli.main` in a directory of its own, and compares every file the call
writes with `reference_files` of tests/reference_board.py, which steps
every edge and shares no stepping code with `trace.Board`.

    python tests/benchmark_replays.py

prints the workload and seed of each replay whose files differ, and exits 1
if any does.
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leaves perfbench/ as it was checked out
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from dicesim.cli import main  # noqa: E402
from reference_board import reference_files  # noqa: E402

REPLAYS = ("replay_idle", "replay_busy", "replay_feedback")
SEEDS = range(16)


def matches_reference(name: str, seed: int) -> bool:
    """Whether the files of the workload's call equal the reference board's."""
    workload = workloads.build(name, seed)
    ((trace_name, text),) = workload.inputs
    (call,) = workload.calls
    command, trace_flag, trace_arg, out_flag, out_arg, *options = call.argv
    if (command, trace_flag, trace_arg, out_flag) != ("simulate", "--trace", trace_name, "--out"):
        raise ValueError(f"not a simulate call of its trace: {call.argv}")
    with tempfile.TemporaryDirectory() as tmp:
        trace, out = Path(tmp, trace_name), Path(tmp, out_arg)
        trace.write_bytes(text.encode("utf-8"))
        with redirect_stdout(io.StringIO()):
            code = main(["simulate", "--trace", str(trace), "--out", str(out), *options])
        files = {path.name: path.read_bytes() for path in out.iterdir()}
    return code == 0 and files == reference_files(text.encode("utf-8"), options)


if __name__ == "__main__":
    wrong = [(name, seed) for name in REPLAYS for seed in SEEDS if not matches_reference(name, seed)]
    for name, seed in wrong:
        print(f"differs: {name} seed {seed}")
    total = len(REPLAYS) * len(SEEDS)
    print(f"{total - len(wrong)}/{total} benchmark replays match the reference board")
    sys.exit(1 if wrong else 0)
