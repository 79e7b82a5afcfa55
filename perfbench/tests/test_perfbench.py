"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import child  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def dicesim():
    return child.set_up()[0]


def run_ops(dicesim, workload, ref: Path, tamper=None) -> list[dict]:
    """Run two operations in the current directory; `tamper(n)` may edit
    operation n's outputs before they are hashed."""
    for name, text in workload.inputs:
        Path(name).write_text(text, encoding="utf-8")
    ref.mkdir()
    ops = []
    for n in range(2):
        secs, codes, stdouts = child.run_calls(dicesim.cli, workload)
        if tamper is not None:
            tamper(n)
        digests = child.digest_op(workload, stdouts, ref if n == 0 else None)
        ops.append({"seconds": secs, "codes": codes, "digests": digests, "traced": False})
    return ops


def flip_last_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))


def test_same_seed_same_inputs_and_another_seed_other_inputs():
    for name in workloads.WORKLOADS:
        first, again, other = (workloads.build(name, seed) for seed in (7, 7, 8))
        assert (first.inputs, first.calls) == (again.inputs, again.calls)
        assert (first.inputs, first.calls) != (other.inputs, other.calls)


def test_seed_changes_values_not_the_amount_of_work():
    for name in workloads.WORKLOADS:
        work = {tuple((c.device_s, c.words) for c in workloads.build(name, seed).calls) for seed in range(20)}
        ticks = [w[0][1] for w in work]
        assert max(ticks) - min(ticks) <= 2, name


@pytest.mark.parametrize("seed", [1, 1001])
def test_altered_output_counts_as_failure(dicesim, tmp_path, monkeypatch, seed):
    """Seed 1 is judged against its goldens, seed 1001 against its first operation."""
    workload = workloads.build("replay_busy", seed)
    altered = lambda n: n == 1 and flip_last_byte(Path("out/log.jsonl"))  # noqa: E731
    for name, tamper, want in (("clean", None, 0), ("altered", altered, 1)):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        ops = run_ops(dicesim, workload, work / "ref", tamper)
        attempted, failed, notes = checks.judge(workload, ops, work / "ref")
        assert (attempted, failed) == (2, want), notes
    assert "operation 1 call 0" in notes[0] and "0.log.jsonl" in notes[0]


def test_altered_reference_fails_the_oracles(dicesim, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.build("replay_busy", 1002)
    ops = run_ops(dicesim, workload, tmp_path / "ref",
                  tamper=lambda n: n == 0 and flip_last_byte(Path("out/uart.csv")))
    attempted, failed, notes = checks.judge(workload, ops, tmp_path / "ref")
    assert (attempted, failed) == (2, 2)
    assert any("uart.csv disagrees" in note for note in notes)


def test_traced_self_times_sum_to_traced_wall(dicesim, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.build("replay_busy", 3)
    for name, text in workload.inputs:
        Path(name).write_text(text, encoding="utf-8")
    recorder = Recorder(dicesim)
    recorder.install()
    try:
        secs, codes, _ = child.run_calls(dicesim.cli, workload)
    finally:
        recorder.uninstall()
    assert codes == [0]
    summary = recorder.summary()
    total_self = sum(row["self_s"] for row in summary.values())
    root = summary["cli.main"]["s"]
    assert total_self == pytest.approx(root, rel=1e-9)
    # the only time outside the root span is the root wrapper's own bookkeeping
    assert 0 <= secs[0] - root < 0.01 + 0.02 * secs[0]
    assert summary["device.hz10_tick"]["calls"] == workload.calls[0].words
    assert not hasattr(dicesim.cli.main, "__wrapped__")  # uninstall restored the originals


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "replay_busy", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "replay_busy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_compare_refuses_results_with_different_stamps(tmp_path):
    record = {"workload": "replay_busy", "trace": 0, "correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
              "stamp": {"python": "3.11.7", "numpy": "2.4.6", "using_numba": False, "nproc": 2, "seed": 1}}
    base, jitted = tmp_path / "base.jsonl", tmp_path / "jitted.jsonl"
    base.write_text(json.dumps(record) + "\n")
    record["stamp"]["using_numba"] = True
    jitted.write_text(json.dumps(record) + "\n")
    assert compare.main(["compare", str(base), str(jitted)]) == 2
    assert compare.main(["compare", str(base), str(base)]) == 0
