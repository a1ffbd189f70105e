"""Compare two result sets of ``bench/run.py --workloads ... --out``.

    python3 bench/compare.py parent.json change.json

One row per (workload, end-to-end metric): both medians with their quartiles,
the change as a share of the first median (positive = worse), the bound from
``BENCHMARK.json`` and a verdict:

``within``      the median moved by no more than the bound, either way;
``better``      it improved by more than the bound (or, when the spread is
                wide, every sample of the second set beats every one of the first);
``worse``       it worsened by more than the bound;
``unresolved``  the spread between a set's own samples is wider than the bound,
                so the sets cannot be told apart — not the same as unchanged.

Then, where both sets carry a traced run, the per-layer self-time deltas: where
the time went.  Exits 1 when any row reads ``worse``.  Standard library only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def verdict(first: Sequence[float], second: Sequence[float], better: str,
            bound: float) -> Tuple[float, str]:
    """``(worsening as a share of the first median, verdict)``."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = quartiles(first)
    q1b, med_b, q3b = quartiles(second)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    if spread > bound:
        all_better = max(sign * v for v in second) < min(sign * v for v in first)
        return worse_by, "better" if all_better else "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "within"


def end_to_end_rows(first: Dict, second: Dict, specs: List[Dict]) -> List[Tuple]:
    rows = []
    for name in first["workloads"]:
        if name not in second["workloads"]:
            continue
        a = first["workloads"][name]["untraced"]["metrics"]
        b = second["workloads"][name]["untraced"]["metrics"]
        for spec in specs:
            sa, sb = a[spec["name"]]["samples"], b[spec["name"]]["samples"]
            worse_by, word = verdict(sa, sb, spec["better"], spec["bound"])
            rows.append((name, spec["name"], quartiles(sa), quartiles(sb),
                         worse_by, spec["bound"], word))
    return rows


def layer_rows(first: Dict, second: Dict) -> List[Tuple]:
    rows = []
    for name in first["workloads"]:
        a = first["workloads"][name].get("traced")
        b = second["workloads"].get(name, {}).get("traced")
        if not a or not b:
            continue
        total = sum(v["value"] for k, v in a["metrics"].items() if k.endswith(".self_s"))
        for key, entry in a["metrics"].items():
            if not key.endswith(".self_s") or key.startswith("trace."):
                continue
            before, after = entry["value"], b["metrics"][key]["value"]
            if max(before, after) >= 0.01 * total:
                rows.append((name, key, before, after, after - before))
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as handle:
        first = json.load(handle)
    with open(argv[1]) as handle:
        second = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        specs = json.load(handle)["end_to_end"]

    rows = end_to_end_rows(first, second, specs)
    print(f"{'workload':22s} {'metric':15s} {'first q1/med/q3':>30s} "
          f"{'second q1/med/q3':>30s} {'worse by':>9s} {'bound':>6s}  verdict")
    for name, metric, qa, qb, worse_by, bound, word in rows:
        print(f"{name:22s} {metric:15s} "
              f"{qa[0]:9.4f}/{qa[1]:9.4f}/{qa[2]:9.4f}  {qb[0]:9.4f}/{qb[1]:9.4f}/{qb[2]:9.4f} "
              f"{worse_by:+9.1%} {bound:6.1%}  {word}")
    layers = layer_rows(first, second)
    if layers:
        print(f"\n{'workload':22s} {'layer self time':22s} {'first s':>10s} "
              f"{'second s':>10s} {'delta s':>10s}")
        for name, key, before, after, delta in layers:
            print(f"{name:22s} {key:22s} {before:10.4f} {after:10.4f} {delta:+10.4f}")
    counts = {word: sum(1 for row in rows if row[-1] == word)
              for word in ("better", "within", "worse", "unresolved")}
    print("\n" + "  ".join(f"{word}: {count}" for word, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
