"""Gradient Aggregation Rule (GAR) base class and registry.

A GAR takes the ``n`` gradient estimates submitted by the workers at one step
and produces the single aggregated gradient applied by the parameter server
(Equation 4 of the paper).  Concrete rules declare:

* their worst-case tolerated number of Byzantine workers for a given ``n``
  (``max_byzantine``), and conversely the minimum ``n`` for a given ``f``
  (``minimum_workers``);
* their resilience *level* — ``"none"`` (plain averaging), ``"weak"``
  (convergence to *some* flat region despite f Byzantine workers) or
  ``"strong"`` (convergence to a state attainable without Byzantine workers);
* whether they tolerate non-finite (NaN / ±Inf) coordinates, which is what a
  real malicious worker — or the lossy UDP transport — can deliver.

Rules are registered by name in :data:`GAR_REGISTRY` so experiments and the
command-line-style runner can instantiate them from strings, mirroring the
``--aggregator`` flag of AggregaThor's ``runner.py``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

import numpy as np

from repro.exceptions import AggregationError, ConfigurationError, ResilienceConditionError
from repro.utils.validation import GradientInput, make_registered, stack_gradients

#: Resilience levels a GAR may advertise.
RESILIENCE_LEVELS = ("none", "weak", "strong")


@dataclass
class AggregationResult:
    """Output of one aggregation call, with optional diagnostics.

    Attributes
    ----------
    gradient:
        The aggregated ``(d,)`` gradient.
    selected_indices:
        Indices of the worker gradients that contributed to the output (for
        selection-based rules such as Krum / Multi-Krum / Bulyan).  ``None``
        when the rule blends every input (e.g. averaging).
    scores:
        Per-worker scores when the rule computes them (Krum scores), else
        ``None``.
    """

    gradient: np.ndarray
    selected_indices: Optional[np.ndarray] = None
    scores: Optional[np.ndarray] = None


class GradientAggregationRule(abc.ABC):
    """Abstract base class for all gradient aggregation rules.

    Subclasses implement :meth:`_aggregate` on a validated ``(n, d)`` matrix.
    The public entry points are :meth:`aggregate` (returns the gradient) and
    :meth:`aggregate_detailed` (returns an :class:`AggregationResult`).
    """

    #: Registry name, set by the :func:`register_gar` decorator.
    name: str = "abstract"
    #: One of :data:`RESILIENCE_LEVELS`.
    resilience: str = "none"
    #: Whether the rule copes with NaN / ±Inf coordinates in Byzantine inputs.
    supports_non_finite: bool = False
    #: Linear form of :meth:`minimum_workers`: a pair ``(a, b)`` meaning
    #: ``minimum_workers(f) == a * f + b`` for every ``f >= 0``, which yields
    #: the closed-form inverse ``max_byzantine(n) = (n - b) // a``.  Every
    #: built-in resilience bound is linear; subclasses with a non-linear bound
    #: must set this to ``None`` to fall back to the documented scan.
    #: :func:`register_gar` verifies the declared pair against
    #: :meth:`minimum_workers` so the two can never drift apart.
    min_workers_linear: Optional[Tuple[int, int]] = (1, 1)
    #: Optional pairwise-distance provider (an object with a
    #: ``distances(matrix) -> (n, n) ndarray`` method, e.g.
    #: :class:`repro.core.distance_cache.DistanceCache`).  ``None`` — the
    #: default, and the behaviour of every directly constructed rule — means
    #: the selection GARs call the kernel module directly.  The cluster cost
    #: model installs a shared cache here for the duration of one validated
    #: aggregation call so cross-round distance reuse can be priced.
    distance_provider = None

    def __init__(self, f: int = 0) -> None:
        if isinstance(f, bool) or not isinstance(f, (int, np.integer)):
            raise ConfigurationError(f"f must be an integer, got {f!r}")
        if f < 0:
            raise ConfigurationError(f"f must be non-negative, got {f}")
        self.f = int(f)

    # ------------------------------------------------------------------ API
    def aggregate(self, gradients: GradientInput) -> np.ndarray:
        """Aggregate worker gradients into a single ``(d,)`` gradient."""
        return self.aggregate_detailed(gradients).gradient

    def aggregate_detailed(self, gradients: GradientInput) -> AggregationResult:
        """Aggregate and return diagnostics alongside the gradient."""
        return self.aggregate_validated(stack_gradients(gradients))

    def aggregate_validated(self, matrix: np.ndarray) -> AggregationResult:
        """Aggregate a matrix the caller has already validated and stacked.

        Fast path for the parameter server's hot loop: *matrix* must be a
        float64 ``(n, d)`` array whose rows passed per-message validation, so
        only the rule's own cardinality precondition and the output-shape
        check remain.  Everyone else should call :meth:`aggregate` /
        :meth:`aggregate_detailed`, which normalise arbitrary input first.
        """
        self._check_cardinality(matrix.shape[0])
        result = self._aggregate(matrix)
        if result.gradient.shape != (matrix.shape[1],):
            raise AggregationError(
                f"{type(self).__name__} produced a gradient of shape "
                f"{result.gradient.shape}, expected ({matrix.shape[1]},)"
            )
        return result

    def __call__(self, gradients: GradientInput) -> np.ndarray:
        return self.aggregate(gradients)

    # -------------------------------------------------------- resilience API
    @classmethod
    def minimum_workers(cls, f: int) -> int:
        """Minimum number of workers required to tolerate *f* Byzantine ones."""
        return max(1, f + 1)

    @classmethod
    def max_byzantine(cls, n: int) -> int:
        """Largest *f* tolerated with *n* workers (0 when none).

        Uses the closed-form inverse of the rule's linear
        :attr:`min_workers_linear` bound when one is declared, and the
        :meth:`_max_byzantine_scan` fallback otherwise.
        """
        if cls.min_workers_linear is not None:
            slope, intercept = cls.min_workers_linear
            return max((n - intercept) // slope, 0)
        return cls._max_byzantine_scan(n)

    @classmethod
    def _max_byzantine_scan(cls, n: int) -> int:
        """Fallback inverse of :meth:`minimum_workers` by O(n) scan.

        Correct for any monotone ``minimum_workers``; kept for subclasses
        whose resilience bound is not linear in ``f`` (``min_workers_linear``
        set to ``None``).  ``n`` is small in practice (< 1e3).
        """
        best = -1
        for f in range(n + 1):
            if cls.minimum_workers(f) <= n:
                best = f
            else:
                break
        return max(best, 0)

    def _check_cardinality(self, n: int) -> None:
        """Validate that *n* submitted gradients satisfy the rule's precondition."""
        required = self.minimum_workers(self.f)
        if n < required:
            raise ResilienceConditionError(
                f"{type(self).__name__} with f={self.f} requires at least "
                f"{required} workers, got {n}"
            )

    # ------------------------------------------------------------- internals
    def _distances(self, matrix: np.ndarray) -> np.ndarray:
        """Pairwise squared distances, routed through the provider when set.

        The single distance entry point of every selection GAR: with no
        provider it is exactly
        :func:`repro.core.kernels.pairwise_squared_distances`; with one, the
        provider serves bit-identical values while accounting cache hits and
        misses for the cluster cost model.
        """
        if self.distance_provider is None:
            from repro.core.kernels import pairwise_squared_distances

            return pairwise_squared_distances(matrix)
        return self.distance_provider.distances(matrix)

    @abc.abstractmethod
    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        """Aggregate a validated ``(n, d)`` float64 matrix."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(f={self.f})"


#: Global name -> class registry (mirrors AggregaThor's aggregators/ directory).
GAR_REGISTRY: Dict[str, Type[GradientAggregationRule]] = {}


def register_gar(name: str) -> Callable[[Type[GradientAggregationRule]], Type[GradientAggregationRule]]:
    """Class decorator registering a GAR under *name*.

    Registration is idempotent for re-imports but raises when two distinct
    classes claim the same name, which would silently shadow a rule.
    """

    def decorator(cls: Type[GradientAggregationRule]) -> Type[GradientAggregationRule]:
        existing = GAR_REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ConfigurationError(f"GAR name {name!r} already registered by {existing!r}")
        if cls.resilience not in RESILIENCE_LEVELS:
            raise ConfigurationError(
                f"{cls.__name__}.resilience must be one of {RESILIENCE_LEVELS}, "
                f"got {cls.resilience!r}"
            )
        if cls.min_workers_linear is not None:
            slope, intercept = cls.min_workers_linear
            for f in range(9):
                if cls.minimum_workers(f) != slope * f + intercept:
                    raise ConfigurationError(
                        f"{cls.__name__}.min_workers_linear={cls.min_workers_linear} "
                        f"disagrees with minimum_workers({f})={cls.minimum_workers(f)}; "
                        "fix the declaration or set min_workers_linear = None"
                    )
        cls.name = name
        GAR_REGISTRY[name] = cls
        return cls

    return decorator


def make_gar(name: str, **kwargs) -> GradientAggregationRule:
    """Instantiate a registered GAR by name (``--aggregator`` analogue)."""
    return make_registered(GAR_REGISTRY, "GAR", name, kwargs)


def available_gars() -> list[str]:
    """Names of all registered aggregation rules, sorted."""
    return sorted(GAR_REGISTRY)


__all__ = [
    "AggregationResult",
    "GradientAggregationRule",
    "GAR_REGISTRY",
    "register_gar",
    "make_gar",
    "available_gars",
    "RESILIENCE_LEVELS",
]
