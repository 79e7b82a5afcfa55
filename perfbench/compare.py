"""Compare two sets of benchmark results, refusing mismatched environments.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records that run.py appended to .bench_out/results.jsonl.
Records pair up by workload, trace flag and seed. A pair whose environment
stamps differ (Python, numpy, numba path, nproc, seed) is never compared,
so a jitted-path number is never set against a fallback-path one: the
script names such pairs and exits 2. Otherwise it prints, per workload and
metric, both medians and the change as a share of the base median, checks
each end-to-end change against its bound in BENCHMARK.json, and exits 1
when one is worse than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(path: str) -> dict[tuple, list[dict]]:
    records = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            records[(rec["workload"], rec["trace"], rec["stamp"]["seed"])].append(rec)
    return records


def pairs(base: dict, change: dict) -> tuple[list[tuple[dict, dict]], list[str]]:
    matched, refused = [], []
    for key in sorted(set(base) & set(change), key=str):
        for a, b in zip(base[key], change[key]):
            if a["stamp"] != b["stamp"]:
                refused.append(f"{key}: stamp {a['stamp']} != {b['stamp']}")
            else:
                matched.append((a, b))
    return matched, refused


def compare(matched: list[tuple[dict, dict]], spec: dict) -> tuple[list[str], bool]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups = defaultdict(list)
    for a, b in matched:
        groups[(a["workload"], a["trace"])].append((a, b))
    lines, regressed = [], False
    for (workload, trace), group in sorted(groups.items()):
        lines.append(f"{workload} trace {trace}: {len(group)} seed pairs")
        for name in group[0][0]["metrics"]:
            base = [a["metrics"][name]["value"] for a, _ in group]
            new = [b["metrics"][name]["value"] for _, b in group]
            m_base, m_new = statistics.median(base), statistics.median(new)
            lower = metrics[name]["better"] == "lower"
            worse = (m_new - m_base) / m_base * (1 if lower else -1) if m_base else 0.0
            wins = sum((n < o) if lower else (n > o) for o, n in zip(base, new))
            verdict = ""
            if "bound" in metrics[name]:
                over = worse > metrics[name]["bound"]
                regressed |= over
                verdict = "WORSE THAN BOUND" if over else f"within bound {metrics[name]['bound']}"
            lines.append(f"  {name:<32} {m_base:>12.6g} -> {m_new:<12.6g} {metrics[name]['unit']:<6} "
                         f"worse by {worse:+.3f}, change wins {wins}/{len(group)} {verdict}")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    matched, refused = pairs(load(argv[1]), load(argv[2]))
    if refused:
        print("refusing to compare results from different environments:", file=sys.stderr)
        for line in refused:
            print(f"  {line}", file=sys.stderr)
        return 2
    if not matched:
        print("no records pair up by workload, trace and seed", file=sys.stderr)
        return 2
    lines, regressed = compare(matched, json.loads(SPEC.read_text(encoding="utf-8")))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
