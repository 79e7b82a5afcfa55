"""Workload child process: times set-up, then closed-loop CLI calls.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run WORKDIR WORKLOAD SEED SECONDS TRACE SPANS

`setup` prints the seconds of `import dicesim` plus `kernels.warmup()` as
JSON. `run` does the same set-up, writes the workload's inputs into
WORKDIR, then runs one operation (the workload's calls in order, each
waiting for the one before) after another until SECONDS have passed.
Every output and stdout is hashed outside the timed region; the first
operation's outputs are kept under WORKDIR/ref for the oracle checks.
Before each operation a fixed pure-Python loop is timed (`calibrate`), so
the parent can scale times to a reference host speed. With TRACE 1, every
second operation runs with the span recorder installed, and the spans of
the first traced one are written to SPANS. The result goes to
WORKDIR/result.json.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads
from spans import Recorder

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALIBRATION_STEPS = 120_000


def set_up():
    """Import the package from this checkout and warm its kernels; (module, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dicesim
    import dicesim.cli
    warmup = getattr(dicesim.kernels, "warmup", None)
    if warmup is not None:
        warmup()
    seconds = time.perf_counter() - start
    if not Path(dicesim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"dicesim imported from {dicesim.__file__}, not from this checkout")
    return dicesim, seconds


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop that does not touch the program:
    how fast the interpreter runs on this host right now."""
    start = time.perf_counter()
    x = 1
    for _ in range(CALIBRATION_STEPS):
        x ^= x >> 7
        x = (x ^ (x << 9)) & 0xFFFFFFFF
        x ^= x >> 13
    return time.perf_counter() - start


def run_calls(cli, workload: workloads.Workload) -> tuple[list[float], list, list[str]]:
    """Run one operation; per call: host seconds, exit code, stdout."""
    seconds, codes, stdouts = [], [], []
    for call in workload.calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except Exception:  # a crash is a failed call, not a failed benchmark
                code = "exception: " + traceback.format_exc(limit=3)
            seconds.append(time.perf_counter() - start)
        codes.append(code)
        stdouts.append(out.getvalue())
    return seconds, codes, stdouts


def digest_op(workload: workloads.Workload, stdouts: list[str], keep: Path | None) -> dict[str, str]:
    """Hash every output and stdout, then move the files into `keep` or delete them,
    so a call that stops writing cannot pass on an earlier operation's file."""
    digests = {}
    for index, (call, stdout) in enumerate(zip(workload.calls, stdouts)):
        data = stdout.encode("utf-8")
        digests[f"{index}.stdout"] = hashlib.sha256(data).hexdigest()
        if keep is not None:
            (keep / f"{index}.stdout").write_bytes(data)
        for out in call.outputs:
            path, key = Path(out), f"{index}.{Path(out).name}"
            if not path.is_file():
                digests[key] = "missing"
                continue
            digests[key] = checks.sha256_file(path)
            if keep is not None:
                shutil.move(path, keep / key)
            else:
                path.unlink()
    return digests


def run(dicesim, workload: workloads.Workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    for name, text in workload.inputs:
        Path(name).write_text(text, encoding="utf-8")
    keep = Path("ref")
    keep.mkdir()
    recorder = Recorder(dicesim) if trace else None
    ops, layers, calibration = [], [], []
    begin = time.perf_counter()
    while True:
        calibration.append(calibrate())
        traced = trace and len(ops) % 2 == 1
        if traced:
            recorder.install()
        try:
            secs, codes, stdouts = run_calls(dicesim.cli, workload)
        finally:
            if traced:
                recorder.uninstall()
        if traced:
            layers.append(recorder.summary())
            if len(layers) == 1:
                recorder.write(spans_path)
            recorder.clear()
        digests = digest_op(workload, stdouts, keep if not ops else None)
        ops.append({"seconds": secs, "codes": codes, "digests": digests, "traced": traced})
        gc.collect()
        if time.perf_counter() - begin >= seconds and (not trace or len(ops) % 2 == 0):
            return {"ops": ops, "layers": layers, "calibration": calibration}


def main(argv: list[str]) -> int:
    try:
        dicesim, setup_s = set_up()
    except ImportError as exc:
        print(f"perfbench: cannot import dicesim from {SRC}: {exc}", file=sys.stderr)
        return 2
    stamp = {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "using_numba": bool(getattr(dicesim.kernels, "USING_NUMBA", False)),
    }
    if argv[1] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workdir, name, seed, seconds, trace, spans_path = argv[2:8]
    spans_path = Path(spans_path).resolve()
    workload = workloads.build(name, int(seed))
    result_path = Path(workdir).resolve() / "result.json"
    os.chdir(workdir)
    result = run(dicesim, workload, float(seconds), trace == "1", spans_path)
    result.update(setup_s=setup_s, stamp=stamp)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
