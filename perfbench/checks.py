"""Correctness of a run: golden digests, independent oracles, determinism.

Every output file and every stdout of every timed call is hashed. A call
fails when its exit code is unexpected or any of its digests differs from
the expected one. The expected digests are the goldens stored for the seed
in goldens.json when there are any, and otherwise the first operation's
own outputs, which must then pass the oracle checks below. The goldens
were taken from this repository's own outputs; there are no hardware
captures, so the model itself is unvalidated against hardware.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import re
from collections import Counter
from pathlib import Path

from workloads import Workload

GOLDENS = Path(__file__).with_name("goldens.json")

MASK32 = 0xFFFFFFFF
SUPPORTED_DICE = (2, 4, 6, 8, 10, 12, 20, 100)
KIND_RANK = {"ROLL": 0, "UART": 1, "DISPLAY": 2, "ONPIN": 3}
# chi-square critical values at alpha 0.01 for the dice the workloads roll
CRITICAL_001 = {11: 24.72, 19: 36.19}
UART_BIT_US = 1000
SUMMARY = re.compile(r"replayed (\d+) events: (\d+) settled rolls, (\d+) uart bytes, "
                     r"(\d+) display words, (\d+) onpin edges -> ")
VERDICT = re.compile(r"chi-square ([0-9.]+), df (\d+), critical ([0-9.]+) at alpha ([0-9.]+): (PASS|FAIL)")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_names(workload: Workload) -> list[tuple[int, str]]:
    """(call index, digest key) of everything a workload's operation produces."""
    names = []
    for index, call in enumerate(workload.calls):
        names.append((index, f"{index}.stdout"))
        names += [(index, f"{index}.{Path(out).name}") for out in call.outputs]
    return names


def golden_for(workload: Workload) -> dict | None:
    if not GOLDENS.is_file():
        return None
    table = json.loads(GOLDENS.read_text(encoding="utf-8"))["workloads"]
    return table.get(workload.name, {}).get(str(workload.seed))


# ----------------------------------------------------------------------
#  oracles: recompute what each call must have written
# ----------------------------------------------------------------------

def _xorshift(x: int) -> int:
    x ^= x >> 7
    x = (x ^ (x << 9)) & MASK32
    return x ^ (x >> 13)


def reference_rolls(mode: str, seed: int, count: int, sides: int) -> str:
    """Rolls text from the documented generator definitions, one word at a time."""
    faces = []
    if mode == "feedback":
        x = seed & MASK32
        for _ in range(count):
            x = _xorshift(x)
            faces.append(x % sides + 1)
    else:
        state, register = seed & MASK32, 0
        for _ in range(count):
            state = (1664525 * state + 1013904223) & MASK32
            register = ((register << 16) & MASK32) | (state >> 16)
            faces.append(_xorshift(register) % sides + 1)
    return "roll\n" + "\n".join(map(str, faces)) + "\n"


def _flag(argv: tuple[str, ...], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _log_name(call) -> str:
    return next(Path(out).name for out in call.outputs if Path(out).name.startswith("log."))


def _read_log(path: Path) -> list[dict]:
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: v for k, v in row.items() if v != ""} for row in csv.DictReader(fh)]


def _decode_waveform(changes: list[tuple[int, int]], byte_times: list[int]) -> list[int]:
    """Bytes read off the tx waveform, one frame ending at each logged time.

    A frame is ten bit periods: start, eight data bits LSB first, stop. The
    byte is logged on the edge that raises the stop level, so data bit k
    sits mid-period at t - 7500 + 1000 k us and the start bit at t - 8500.
    """
    times = [t for t, _ in changes]

    def level(t_us: int) -> int:
        return changes[bisect.bisect_right(times, t_us) - 1][1]

    decoded = []
    for t in byte_times:
        if level(t - 8 * UART_BIT_US - UART_BIT_US // 2) != 0 or level(t + UART_BIT_US // 2) != 1:
            decoded.append(-1)
            continue
        decoded.append(sum(level(t - 7500 + UART_BIT_US * k) << k for k in range(8)))
    return decoded


def _check_simulate(workload: Workload, call, ref: Path, index: int, stdout: str) -> list[str]:
    problems = []
    rows = _read_log(ref / f"{index}.{_log_name(call)}")
    order = [(int(r["t_us"]), KIND_RANK.get(r["record"], 99)) for r in rows]
    if order != sorted(order) or any(rank == 99 for _, rank in order):
        problems.append("log records out of order or of unknown kind")
    kinds = Counter(r["record"] for r in rows)
    for r in rows:
        if r["record"] == "ROLL" and not (int(r["dice_sides"]) in SUPPORTED_DICE
                                          and 1 <= int(r["roll"]) <= int(r["dice_sides"])):
            problems.append(f"impossible roll record {r}")
    uart_log = [(int(r["t_us"]), int(r["byte"], 16)) for r in rows if r["record"] == "UART"]
    uart_csv = (ref / f"{index}.uart.csv").read_text(encoding="utf-8").splitlines()
    uart_rows = [(int(t), int(b, 16)) for t, b in (line.split(",") for line in uart_csv[1:])]
    if uart_csv[:1] != ["t_us,byte_hex"] or uart_rows != uart_log:
        problems.append("uart.csv disagrees with the UART records of the log")
    trace_text = dict(workload.inputs)[_flag(call.argv, "--trace")]
    summary = SUMMARY.search(stdout)
    wanted = (len(trace_text.splitlines()), kinds["ROLL"], kinds["UART"], kinds["DISPLAY"], kinds["ONPIN"])
    if summary is None or tuple(map(int, summary.groups())) != wanted:
        problems.append(f"stdout summary {stdout.strip()!r} disagrees with the log counts {wanted}")
    state = json.loads((ref / f"{index}.state.json").read_text(encoding="utf-8"))
    if state.get("t_us") != int(_flag(call.argv, "--duration-us")):
        problems.append("state.json does not end at the requested duration")
    if "--uart-bits" in call.argv:
        lines = (ref / f"{index}.uart_bits.csv").read_text(encoding="utf-8").splitlines()
        changes = [(int(t), int(v)) for t, v in (line.split(",") for line in lines[1:])]
        if _decode_waveform(changes, [t for t, _ in uart_rows]) != [b for _, b in uart_rows]:
            problems.append("uart_bits.csv waveform does not carry the bytes of uart.csv")
    return problems


def _check_rolls(call, ref: Path, index: int) -> list[str]:
    argv = call.argv
    expected = reference_rolls(_flag(argv, "--mode"), int(_flag(argv, "--seed")),
                               int(_flag(argv, "--count")), int(_flag(argv, "--sides")))
    out = Path(_flag(argv, "--out")).name
    if (ref / f"{index}.{out}").read_text(encoding="utf-8") != expected:
        return [f"{out} differs from the reference generator"]
    return []


def _check_stats(workload: Workload, call, ref: Path, index: int, stdout: str) -> tuple[list[str], int]:
    argv = call.argv
    sides = int(_flag(argv, "--sides"))
    producer = next(i for i, c in enumerate(workload.calls) if _flag(c.argv, "--out") == _flag(argv, "--rolls"))
    lines = (ref / f"{producer}.{_flag(argv, '--rolls')}").read_text(encoding="utf-8").splitlines()[1:]
    counts = Counter(int(v) for v in lines)
    total = sum(counts.values())
    mean = total / sides
    statistic = sum((counts[f] - mean) ** 2 / mean for f in range(1, sides + 1))
    passed = statistic < CRITICAL_001[sides - 1]
    problems = []
    verdict = VERDICT.search(stdout)
    if verdict is None or verdict.group(1) != f"{statistic:.4f}" or int(verdict.group(2)) != sides - 1 \
            or verdict.group(5) != ("PASS" if passed else "FAIL"):
        problems.append(f"chi-square line disagrees with the reference statistic {statistic:.4f}")
    hist = (ref / f"{index}.{Path(_flag(argv, '--out')).name}").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in hist[1:]]
    if [(int(f), int(c)) for f, c, _ in rows] != [(f, counts[f]) for f in range(1, sides + 1)]:
        problems.append("histogram CSV disagrees with the rolls file")
    return problems, 0 if passed else 3


def _check_bias(call, stdout: str) -> list[str]:
    faces = int(_flag(call.argv, "--bias"))
    q, r = divmod(1 << 32, faces)
    lines = stdout.splitlines()
    expected = [f"face {f},{q + 1 if f <= r else q}" for f in range(1, faces + 1)]
    if len(lines) != faces + 2 or f"quotient {q}, remainder {r}," not in lines[1] or lines[2:] != expected:
        return ["bias report disagrees with the exact preimage counts"]
    return []


def verify(workload: Workload, ref: Path) -> tuple[list[int], dict[int, list[str]]]:
    """Expected exit code of each call, and oracle problems by call index,
    judged on the first operation's outputs kept in `ref`."""
    codes, problems = [], {}
    for index, call in enumerate(workload.calls):
        stdout = (ref / f"{index}.stdout").read_text(encoding="utf-8")
        code = 0
        kind = call.argv[0]
        try:
            if kind == "simulate":
                found = _check_simulate(workload, call, ref, index, stdout)
            elif kind == "rolls":
                found = _check_rolls(call, ref, index)
            elif "--bias" in call.argv:
                found = _check_bias(call, stdout)
            else:
                found, code = _check_stats(workload, call, ref, index, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"outputs missing or malformed: {exc!r}"]
        codes.append(code)
        if found:
            problems[index] = found
    return codes, problems


def sim_stats(workload: Workload, ref: Path) -> dict | None:
    """Exact simulated statistics of a replay: records per kind, settled rolls, UART bytes."""
    call = workload.calls[0]
    if call.argv[0] != "simulate":
        return None
    rows = _read_log(ref / f"0.{_log_name(call)}")
    return {
        "records": dict(sorted(Counter(r["record"] for r in rows).items())),
        "settled_rolls": [[int(r["t_us"]), int(r["dice_sides"]), int(r["roll"])]
                          for r in rows if r["record"] == "ROLL"],
        "uart_bytes": sum(1 for r in rows if r["record"] == "UART"),
    }


def judge(workload: Workload, ops: list[dict], ref: Path) -> tuple[int, int, list[str]]:
    """(attempted calls, failed calls, problem descriptions) of a run."""
    codes, problems = verify(workload, ref)
    expected = ops[0]["digests"]
    golden = golden_for(workload)
    if golden is not None:
        expected = golden["digests"]
        for index, (want, oracle) in enumerate(zip(golden["codes"], codes)):
            if want != oracle:
                problems.setdefault(index, []).append(f"golden exit code {want}, oracle expects {oracle}")
        if 0 not in problems and golden["stats"] is not None and golden["stats"] != sim_stats(workload, ref):
            problems[0] = ["simulated statistics differ from the goldens"]
    notes = [f"call {i}: {msg}" for i, found in problems.items() for msg in found]
    names = output_names(workload)
    attempted = failed = 0
    for n, op in enumerate(ops):
        for index, code in enumerate(op["codes"]):
            attempted += 1
            bad = [key for i, key in names if i == index and op["digests"].get(key) != expected.get(key)]
            if code != codes[index] or bad or index in problems:
                failed += 1
                if code != codes[index] or bad:
                    notes.append(f"operation {n} call {index}: exit {code} (want {codes[index]}), "
                                 f"differing outputs {bad}")
    return attempted, failed, notes
