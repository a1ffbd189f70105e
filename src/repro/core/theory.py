"""Analytic results from the paper's Appendix B.

The resilience preconditions themselves — ``n >= 2f + 3`` for Multi-Krum
(weak) and ``n >= 4f + 3`` for Bulyan (strong) — are each rule's
:meth:`~repro.core.base.GradientAggregationRule.minimum_workers`, with
``max_byzantine`` its inverse; this module does not restate them.  It holds
the closed-form quantities the paper derives on top of them, as an analytic
reference for the cost-analysis benchmarks and the cluster cost model:

* the selection bound ``m <= n - f - 2`` (weak) / ``m <= n - 2f - 2``
  (strong);
* the constant ``eta(n, f)`` of Lemma 1 and the induced angle bound ``alpha``
  of (α, f)-Byzantine resilience;
* the convergence slowdown ratio ``Omega(sqrt(m_tilde / n))`` relative to
  averaging;
* aggregation-cost estimates ``O(n^2 d)`` used by the simulated cluster's
  cost model and the cost-analysis bench.
"""

from __future__ import annotations

import math

from repro.exceptions import ResilienceConditionError
from repro.utils.validation import check_non_negative_int, check_positive_int


# --------------------------------------------------------------------------
# Selection bounds
# --------------------------------------------------------------------------
def max_selection_weak(n: int, f: int) -> int:
    """Largest ``m`` preserving weak resilience: ``m_tilde = n - f - 2``."""
    n = check_positive_int(n, "n")
    f = check_non_negative_int(f, "f")
    m = n - f - 2
    if m < 1:
        raise ResilienceConditionError(
            f"no valid m: n={n}, f={f} violates n >= 2f + 3 (need n - f - 2 >= 1)"
        )
    return m


def max_selection_strong(n: int, f: int) -> int:
    """Largest ``m`` preserving strong resilience: ``m_tilde = n - 2f - 2``."""
    n = check_positive_int(n, "n")
    f = check_non_negative_int(f, "f")
    m = n - 2 * f - 2
    if m < 1:
        raise ResilienceConditionError(
            f"no valid m for strong resilience: n={n}, f={f} (need n - 2f - 2 >= 1)"
        )
    return m


# --------------------------------------------------------------------------
# (α, f)-Byzantine resilience constants (Lemma 1)
# --------------------------------------------------------------------------
def eta(n: int, f: int, m: int | None = None) -> float:
    """The constant ``eta(n, f)`` of Lemma 1.

    .. math::

        \\eta(n, f) = \\sqrt{2\\left(n - f + \\frac{f m + f^2 (m + 1)}{n - 2f - 2}\\right)}

    where ``m`` defaults to the maximal weakly-resilient selection size
    ``n - f - 2``.  The Lemma requires ``n > 2f + 2``.
    """
    n = check_positive_int(n, "n")
    f = check_non_negative_int(f, "f")
    if n <= 2 * f + 2:
        raise ResilienceConditionError(f"eta(n, f) requires n > 2f + 2, got n={n}, f={f}")
    if m is None:
        m = n - f - 2
    m = check_positive_int(m, "m")
    denom = n - 2 * f - 2
    if denom <= 0:
        raise ResilienceConditionError(f"eta(n, f) requires n - 2f - 2 > 0, got n={n}, f={f}")
    inner = n - f + (f * m + f * f * (m + 1)) / denom
    return math.sqrt(2.0 * inner)


def alpha_bound(n: int, f: int, d: int, sigma: float, gradient_norm: float,
                m: int | None = None) -> float:
    """Angle ``alpha`` (radians) of (α, f)-Byzantine resilience, when it exists.

    Defined through ``sin(alpha) = eta(n, f) * sqrt(d) * sigma / ||g||``.
    Raises :class:`ResilienceConditionError` when the Lemma's precondition
    ``eta * sqrt(d) * sigma < ||g||`` fails (the variance is too large for the
    guarantee to hold).
    """
    d = check_positive_int(d, "d")
    if sigma < 0:
        raise ResilienceConditionError(f"sigma must be non-negative, got {sigma}")
    if gradient_norm <= 0:
        raise ResilienceConditionError(f"gradient_norm must be positive, got {gradient_norm}")
    ratio = eta(n, f, m) * math.sqrt(d) * sigma / gradient_norm
    if ratio >= 1.0:
        raise ResilienceConditionError(
            f"(alpha, f)-resilience condition violated: eta*sqrt(d)*sigma = "
            f"{ratio * gradient_norm:.4g} >= ||g|| = {gradient_norm:.4g}"
        )
    return math.asin(ratio)


def resilience_condition_holds(n: int, f: int, d: int, sigma: float,
                               gradient_norm: float, m: int | None = None) -> bool:
    """Whether the Lemma-1 variance condition ``eta*sqrt(d)*sigma < ||g||`` holds."""
    try:
        alpha_bound(n, f, d, sigma, gradient_norm, m)
    except ResilienceConditionError:
        return False
    return True


# --------------------------------------------------------------------------
# Convergence speed / slowdown
# --------------------------------------------------------------------------
def convergence_steps_estimate(samples_per_step: float, tolerance: float = 1.0) -> float:
    """Number of SGD steps ~ O(1 / sqrt(samples per step)) to reach a fixed tolerance.

    Used for shape comparisons only; the constant is normalised so that one
    sample per step needs ``1 / tolerance`` steps.
    """
    if samples_per_step <= 0:
        raise ResilienceConditionError("samples_per_step must be positive")
    if tolerance <= 0:
        raise ResilienceConditionError("tolerance must be positive")
    return 1.0 / (tolerance * math.sqrt(samples_per_step))


def slowdown_ratio(n: int, f: int, *, strong: bool = False) -> float:
    """Convergence slowdown of AggregaThor relative to averaging: ``sqrt(m_tilde / n)``.

    The paper's Theorems 1(ii) and 2(ii) state the slowdown is
    ``Omega(sqrt(m_tilde / n))`` where ``m_tilde = n - f - 2`` for weak
    resilience (Multi-Krum alone) and ``n - 2f - 2`` for strong resilience
    (full AggregaThor).  A value of 1 means no slowdown.
    """
    m_tilde = max_selection_strong(n, f) if strong else max_selection_weak(n, f)
    return math.sqrt(m_tilde / n)


# --------------------------------------------------------------------------
# Cost model (§4.2 "Cost analysis")
# --------------------------------------------------------------------------
def aggregation_flops_average(n: int, d: int) -> float:
    """Approximate flop count of plain averaging: ``O(n d)``."""
    return float(check_positive_int(n, "n")) * float(check_positive_int(d, "d"))


def aggregation_flops_multi_krum(n: int, d: int) -> float:
    """Approximate flop count of Multi-Krum: ``O(n^2 d)`` (pairwise distances)."""
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    return float(n) * float(n) * float(d)


def aggregation_flops_distances(n: int, d: int) -> float:
    """Flop count of the shared pairwise-distance pass: ``n^2 d``.

    This is the term every selection GAR (Krum / Multi-Krum / Bulyan / Brute)
    spends on :func:`repro.core.kernels.pairwise_squared_distances`, isolated
    so the cluster cost model can price it separately — it is the part a
    cross-round :class:`~repro.core.distance_cache.DistanceCache` can skip
    (cache hits are free) and the part that shards embarrassingly across
    simulated server cores.
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    return float(n) * float(n) * float(d)


def aggregation_flops_brute(n: int, f: int, d: int) -> float:
    """Approximate flop count of Brute / MDA over ``C(n, n - f)`` subsets.

    Brute shares the ``n^2 d`` pairwise-distance pass with Multi-Krum, but
    then *enumerates every subset* of size ``s = n - f``: each of the
    ``C(n, s)`` subsets pays an ``s(s-1)/2`` diameter scan over the cached
    distances, and the winning subset is averaged coordinate-wise (``s d``).
    Pricing Brute at the Multi-Krum ``O(n^2 d)`` bound — the pre-PR-5
    behaviour — made the combinatorial rule look as cheap as the polynomial
    one, inverting the cost comparison the rule exists to illustrate.
    """
    n = check_positive_int(n, "n")
    f = check_non_negative_int(f, "f")
    d = check_positive_int(d, "d")
    subset_size = n - f
    if subset_size < 1:
        raise ResilienceConditionError(f"Brute needs n - f >= 1, got n={n}, f={f}")
    subsets = math.comb(n, subset_size)
    diameter_scan = float(subsets) * (subset_size * (subset_size - 1) / 2.0)
    return aggregation_flops_distances(n, d) + diameter_scan + float(subset_size * d)


def shard_combine_flops(n: int, d: int, cores: int) -> float:
    """Combine overhead of sharding one aggregation across *cores* cores.

    Splitting the distance matrix (and the coordinate-parallel trimming work)
    across simulated cores is not free: the partial ``(n, n)`` distance blocks
    and the per-coordinate partial results must be gathered, which costs one
    pass over both per extra core.  Zero for a single core, so the unsharded
    cost model is unchanged.
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    cores = check_positive_int(cores, "cores")
    return float((cores - 1) * (n * n + d))


def shard_gather_bytes(n: int, d_shard: int) -> float:
    """Wire bytes one non-coordinator parameter shard ships per gather.

    The wire realisation of :func:`shard_combine_flops`: when the distance
    matrix and the coordinate-parallel trimming work are sharded across
    *server actors* instead of cores, each non-coordinator shard must ship
    its partial ``(n, n)`` distance block plus its aggregated coordinate
    slice (``d_shard`` coordinates) to the coordinator — one float32 per
    gathered entry, mirroring the one-pass-per-extra-core flop charge:

    .. math:: 4 n^2 + 4 d_{shard}

    The sharded parameter service prices this as real
    :class:`~repro.cluster.link.LinkScheduler` sessions (and disables the
    flat flop term), so the gather cost becomes topology- and
    placement-dependent instead of a constant per extra core.
    """
    n = check_positive_int(n, "n")
    d_shard = check_positive_int(d_shard, "d_shard")
    return 4.0 * float(n) * float(n) + 4.0 * float(d_shard)


def aggregation_flops_bulyan(n: int, f: int, d: int) -> float:
    """Approximate flop count of Bulyan over Multi-Krum.

    Distances are computed once (``n^2 d``); each of the ``theta = n - 2f``
    selection iterations adds an ``O(n^2)`` score update plus ``O(n d)`` of
    bookkeeping (score extraction, removal, and its share of the final
    per-coordinate median/trimming work) — total ``O(n^2 d)``, matching the
    paper's claim that strong resilience costs the same asymptotic complexity
    while still being measurably more expensive than a single Multi-Krum pass
    (Figure 4's 52% vs 27% aggregation shares).  Because ``theta`` shrinks as
    ``f`` grows, a larger declared ``f`` makes Bulyan cheaper — the
    counter-intuitive throughput behaviour of Figure 5(a).
    """
    n = check_positive_int(n, "n")
    f = check_non_negative_int(f, "f")
    d = check_positive_int(d, "d")
    theta = max(n - 2 * f, 1)
    return float(n * n * d) + float(theta * n * n) + 1.5 * float(theta * n * d) + float(theta * d)


def attack_cost_regression(n: int, d: int, epsilon: float) -> float:
    """Lower bound on the attacker's per-step cost against a weak GAR (§4.3).

    The paper argues an attacker approximating a harmful-but-selected vector by
    regression needs ``Omega(n d / epsilon)`` operations.
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    if epsilon <= 0:
        raise ResilienceConditionError("epsilon must be positive")
    return float(n) * float(d) / float(epsilon)


__all__ = [
    "max_selection_weak",
    "max_selection_strong",
    "eta",
    "alpha_bound",
    "resilience_condition_holds",
    "convergence_steps_estimate",
    "slowdown_ratio",
    "aggregation_flops_average",
    "aggregation_flops_multi_krum",
    "aggregation_flops_bulyan",
    "aggregation_flops_brute",
    "aggregation_flops_distances",
    "shard_combine_flops",
    "shard_gather_bytes",
    "attack_cost_regression",
]
