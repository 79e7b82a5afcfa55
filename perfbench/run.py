"""End-to-end and per-layer benchmark of the dicesim command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are generated from
the seed; the program sees only those files and its flags. The load is
closed-loop with a single client: one `cli.main` call at a time, each
waiting for the one before, inside a child process of its own. With
`--trace 0` the run prints the end-to-end metrics named in BENCHMARK.json;
with `--trace 1` it alternates untraced and traced operations and prints
the per-layer metrics from the traced ones. Either way every output is
checked (see checks.py), a full record with the environment stamp is
appended to .bench_out/results.jsonl, and the last line of stdout is the
JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from spans import CMD_NAMES, EMIT_NAMES

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).with_name("child.py")
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 6
# Median seconds of child.calibrate() on the reference host: a 2-core KVM
# guest on a Xeon (Sapphire Rapids) with Python 3.11.7. That host's speed
# drifts by up to a quarter from minute to minute, and the calibration loop
# drifts with it, so operation times are scaled by this over the run's own
# calibration median.
REFERENCE_CALIBRATION_S = 0.035
CHILD_GRACE_S = 100
EXACT_UNITS = ("count", "bytes")  # deterministic: must repeat exactly between operations


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # one thread per process and a fixed hash seed keep runs comparable
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    # set-up is timed with compiled bytecode cached, as users run the CLI
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def wait_child(argv: list[str], timeout: float, stdout=None) -> tuple[int, object, bytes]:
    """Run a child to completion; exit code, its own rusage (from wait4) and stdout.
    A child still running when this fails or is interrupted is killed and reaped."""
    proc = subprocess.Popen([sys.executable, *argv], env=child_env(), stdout=stdout)
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"child {argv[:2]} ran past {timeout:.0f} s and was killed")
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read() if proc.stdout else b""
    if proc.stdout:
        proc.stdout.close()
    return proc.returncode, usage, out


def setup_seconds() -> float:
    code, _, out = wait_child([str(CHILD), "setup"], 60, stdout=subprocess.PIPE)
    if code != 0:
        raise BenchError(f"set-up child exited with {code}")
    return json.loads(out)["setup_s"]


def _median_ratio(ops: list[dict], calls: tuple[workloads.Call, ...], field: str) -> float:
    # per operation: the field summed over calls that have it, over those calls' seconds
    ratios = []
    for op in ops:
        pairs = [(getattr(call, field), secs) for call, secs in zip(calls, op["seconds"]) if getattr(call, field)]
        ratios.append(sum(v for v, _ in pairs) / sum(s for _, s in pairs))
    return statistics.median(ratios)


def end_to_end(result: dict, workload: workloads.Workload, maxrss_kb: int, setups: list[float]) -> tuple[dict, dict]:
    """Metrics at the reference host speed, and the raw host-time values."""
    ops = result["ops"]
    raw = {
        "wall_s": statistics.median(sum(op["seconds"]) for op in ops),
        "sim_x_realtime": _median_ratio(ops, workload.calls, "device_s"),
        "words_per_s": _median_ratio(ops, workload.calls, "words"),
        "peak_rss_mb": maxrss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    speed = REFERENCE_CALIBRATION_S / statistics.median(result["calibration"])
    # set-up is mostly file reads and imports in other processes, which the
    # calibration loop does not track, so setup_s stays in raw host seconds
    scaled = dict(raw, wall_s=raw["wall_s"] * speed,
                  sim_x_realtime=raw["sim_x_realtime"] / speed, words_per_s=raw["words_per_s"] / speed)
    return scaled, dict(raw, host_speed=speed, setup_samples=setups)


def layer_values(s: dict) -> dict:
    """Per-layer metrics of one traced operation, from the recorder summary."""
    def get(name: str, key: str) -> float:
        return s.get(name, {}).get(key, 0)

    emits = [f"trace.{name}" for name in EMIT_NAMES]
    events = get("timing.advance", "events")
    # rising edges that a consumer (roll tick, keep-awake, UART, display scan) acted on
    useful = sum(get(name, "calls") for name in ("device.hz10_tick", "device.s5_tick", "uart.edge", "display.step"))
    values = {
        "timing.advance.calls": get("timing.advance", "calls"),
        "timing.advance.events": events,
        "timing.advance.self_s": get("timing.advance", "self_s"),
        "timing.useful_edge_ratio": useful / events if events else 0.0,
        "trace.replay.self_s": get("trace.replay", "self_s"),
        "trace.parse_trace.s": get("trace.parse_trace", "s"),
        "trace.parse_trace.events": get("trace.parse_trace", "events"),
        "trace.emit.s": sum(get(name, "s") for name in emits),
        "trace.emit.records": sum(get(name, "records") for name in emits),
        "trace.emit.bytes": sum(get(name, "bytes") for name in emits),
        "cli.cmd.self_s": sum(get(f"cli.{name}", "self_s") for name in CMD_NAMES),
        "kernels.words": get("kernels.feedback_sequence", "words") + get("kernels.stateless_sequence", "words"),
        "kernels.advance_feedback.steps": get("kernels.advance_feedback", "steps"),
    }
    for name in ("device.hz10_tick", "uart.edge", "display.step"):
        values[f"{name}.calls"] = get(name, "calls")
        values[f"{name}.self_s"] = get(name, "self_s")
    for name in ("device.s5_tick", "device.adc_next", "display.bcd_select", "kernels.advance_feedback"):
        values[f"{name}.calls"] = get(name, "calls")
    for name in ("kernels.advance_feedback", "kernels.feedback_sequence", "kernels.stateless_sequence",
                 "stats.tally", "stats.uniformity_report", "stats.modulo_bias"):
        values[f"{name}.s"] = get(name, "s")
    return values


def per_layer(result: dict, units: dict[str, str]) -> tuple[dict, list[str]]:
    """Counts from the first traced operation (they must repeat exactly),
    times as medians over the traced operations."""
    rows = [layer_values(s) for s in result["layers"]]
    walls = {traced: [sum(op["seconds"]) for op in result["ops"] if op["traced"] is traced]
             for traced in (False, True)}
    notes = [f"count {name} differs between traced operations"
             for name in rows[0] if units.get(name) in EXACT_UNITS and len({row[name] for row in rows}) > 1]
    values = {name: rows[0][name] if units.get(name) in EXACT_UNITS else statistics.median(r[name] for r in rows)
              for name in rows[0]}
    values["traced_wall_s"] = statistics.median(walls[True])
    values["trace_overhead"] = values["traced_wall_s"] / statistics.median(walls[False])
    return values, notes


def bench(args) -> tuple[dict, dict]:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dicesim" / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchError(f"{ROOT} holds no src/dicesim package or no BENCHMARK.json")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    workload = workloads.build(args.workload, args.seed)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        # half the set-up samples before the workload child and half after,
        # so that they do not all fall into one phase of the host's speed
        setups = [setup_seconds() for _ in range(SETUP_CHILDREN // 2)]
        code, usage, _ = wait_child(
            [str(CHILD), "run", str(workdir), args.workload, str(args.seed), str(args.seconds),
             str(args.trace), str(OUT / f"spans-{args.workload}.jsonl")],
            args.seconds + CHILD_GRACE_S)
        if code != 0:
            raise BenchError(f"workload child exited with {code}")
        setups += [setup_seconds() for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        attempted, failed, notes = checks.judge(workload, result["ops"], workdir / "ref")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = {}
    if args.trace:
        values, count_notes = per_layer(result, units)
        notes += count_notes
    else:
        values, raw = end_to_end(result, workload, usage.ru_maxrss, setups + [result["setup_s"]])
    if set(values) != set(units):
        raise BenchError(f"computed metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    summary = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    stamp = dict(result["stamp"], nproc=len(os.sched_getaffinity(0)), seed=args.seed)
    record = dict(summary, workload=args.workload, trace=args.trace, stamp=stamp,
                  operations=len(result["ops"]), op_seconds=[sum(op["seconds"]) for op in result["ops"]],
                  golden=checks.golden_for(workload) is not None, raw=raw, notes=notes)
    return summary, record


def report(summary: dict, record: dict) -> None:
    stamp = record["stamp"]
    print(f"perfbench {record['workload']} seed {stamp['seed']} trace {record['trace']}: "
          f"python {stamp['python']}, numpy {stamp['numpy']}, numba {stamp['using_numba']}, "
          f"nproc {stamp['nproc']}")
    print(f"  {record['operations']} operations, closed loop, one client")
    raw = record["raw"]
    if raw:
        print(f"  times scaled to the reference host speed; this host ran at {raw['host_speed']:.3f} of it")
    for name, metric in summary["metrics"].items():
        unscaled = f"  (host: {raw[name]:.6g})" if raw and raw[name] != metric["value"] else ""
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}{unscaled}")
    ratio = summary["failed"] / summary["attempted"]
    print(f"  {'fail_ratio':<32} {ratio:>14.6g} ({summary['failed']} of {summary['attempted']} calls)")
    source = "goldens stored for this seed" if record["golden"] else "the first operation, checked by the oracles"
    print(f"  outputs compared with {source}")
    for note in record["notes"]:
        print(f"  FAILED: {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        summary, record = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    report(summary, record)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
