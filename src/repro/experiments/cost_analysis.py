"""§4.2 "Cost analysis" — aggregation complexity and convergence slowdown.

Two analytic claims are checked against the implementation:

* the model-update (aggregation) time of Multi-Krum and Bulyan is
  ``O(n^2 d)``, i.e. linear in ``d`` for fixed ``n`` and quadratic in ``n``
  for fixed ``d`` — measured from actual wall-clock of the NumPy GARs;
* the convergence slowdown relative to averaging is ``Omega(sqrt(m_tilde/n))``
  with ``m_tilde = n - f - 2`` (weak) or ``n - 2f - 2`` (strong) — reported
  from :mod:`repro.core.theory`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import Average, Bulyan, MultiKrum, theory
from repro.exceptions import ConfigurationError
from repro.experiments.export import format_table
from repro.utils.random import as_rng


def measure_aggregation_time(
    gar, n: int, d: int, *, repeats: int = 3, rng: Optional[np.random.Generator] = None
) -> float:
    """Median wall-clock seconds of one aggregation call on random gradients."""
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    generator = as_rng(rng if rng is not None else 0)
    matrix = generator.standard_normal((n, d))
    times = []
    for _ in range(repeats):
        # simlint: disable=SIM101 this driver measures host seconds on purpose;
        # they feed its own table and never a simulated clock or a replay.
        start = time.perf_counter()
        gar.aggregate(matrix)
        # simlint: disable=SIM101 same measured timing as above
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def run_cost_analysis(
    *,
    f: int = 2,
    dims: Sequence[int] = (1_000, 4_000, 16_000),
    worker_counts: Sequence[int] = (11, 15, 19),
    repeats: int = 3,
) -> Dict:
    """Measure GAR runtimes across a (n, d) grid and report scaling exponents."""
    rows: List[Dict] = []
    rng = as_rng(0)
    gars = {
        "average": Average(),
        "multi-krum": MultiKrum(f=f),
        "bulyan": Bulyan(f=f),
    }
    base_n = worker_counts[len(worker_counts) // 2]
    for name, gar in gars.items():
        for d in dims:
            rows.append(
                {
                    "gar": name,
                    "n": base_n,
                    "d": d,
                    "seconds": measure_aggregation_time(gar, base_n, d, repeats=repeats, rng=rng),
                }
            )
        for n in worker_counts:
            if n < type(gar).minimum_workers(gar.f):
                continue
            rows.append(
                {
                    "gar": name,
                    "n": n,
                    "d": dims[0],
                    "seconds": measure_aggregation_time(gar, n, dims[0], repeats=repeats, rng=rng),
                }
            )

    slowdowns = {
        "weak (Multi-Krum)": theory.slowdown_ratio(19, 4, strong=False),
        "strong (AggregaThor)": theory.slowdown_ratio(19, 4, strong=True),
    }
    return {"f": f, "measurements": rows, "analytic_slowdowns": slowdowns}


def scaling_exponent(results: Dict, gar: str, axis: str) -> float:
    """Fitted log-log slope of runtime against ``d`` (axis='d') or ``n`` (axis='n')."""
    if axis not in ("d", "n"):
        raise ConfigurationError("axis must be 'd' or 'n'")
    other = "n" if axis == "d" else "d"
    rows = [r for r in results["measurements"] if r["gar"] == gar]
    if not rows:
        raise ConfigurationError(f"no measurements for gar {gar!r}")
    # Fix the other axis to its most common value to isolate the scan.
    values = [r[other] for r in rows]
    fixed = max(set(values), key=values.count)
    scan = sorted({(r[axis], r["seconds"]) for r in rows if r[other] == fixed})
    if len(scan) < 2:
        raise ConfigurationError(f"not enough points to fit a slope for {gar!r} along {axis}")
    xs = np.log([p[0] for p in scan])
    ys = np.log([max(p[1], 1e-9) for p in scan])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


def format_results(results: Dict) -> str:
    """Pretty-print the cost-analysis measurements."""
    rows = [(r["gar"], r["n"], r["d"], r["seconds"]) for r in results["measurements"]]
    table = format_table(
        ["gar", "n", "d", "seconds"],
        rows,
        title="Cost analysis — measured aggregation time (O(n^2 d) expected for robust GARs)",
    )
    slowdown_rows = [(k, v) for k, v in results["analytic_slowdowns"].items()]
    table2 = format_table(
        ["resilience", "slowdown sqrt(m~/n)"],
        slowdown_rows,
        title="Analytic convergence slowdown vs averaging (n=19, f=4)",
    )
    return table + "\n\n" + table2


__all__ = ["measure_aggregation_time", "run_cost_analysis", "scaling_exponent", "format_results"]
