"""Cost model translating work into simulated seconds.

The paper measures three latency components per step (Figure 4):

1. **gradient computation** on each worker — modelled as
   ``flops_per_sample * batch_size / worker_gflops``;
2. **communication** — the model broadcast and the gradient push, modelled as
   ``bytes / bandwidth + latency`` per direction (with a TCP congestion
   penalty under packet loss, see :mod:`repro.cluster.network`);
3. **aggregation** on the server — modelled from the GAR's asymptotic flop
   count (:mod:`repro.core.theory`), or optionally measured live from the
   actual NumPy execution.

The analytic mode is the default because it is deterministic and
machine-independent; the measured mode exists so absolute ratios can be
sanity-checked against real execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import theory
from repro.core.base import AggregationResult, GradientAggregationRule
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_probability, stack_gradients

#: Bytes per *raw* gradient coordinate on the wire (float32, as TensorFlow
#: sends).  This is the identity framing only: encoded wire sizes are owned
#: by the codec that produced the frame (:meth:`repro.cluster.codec.WireCodec.frame_bytes`
#: is the single source of truth for byte pricing), and the transport layer
#: prices transfers on ``frame.nbytes`` — never on this constant.
BYTES_PER_COORDINATE = 4


@dataclass
class CostModel:
    """Parameters of the simulated-time cost model.

    Attributes
    ----------
    flops_per_parameter_per_sample:
        Gradient-computation cost: a forward+backward pass costs roughly
        ``6`` floating-point operations per model parameter per sample
        (2 for the forward pass, 4 for the backward pass) — the standard
        rule of thumb for dense networks.
    worker_gflops:
        Sustained worker throughput in GFLOP/s.
    server_gflops:
        Sustained server throughput for the aggregation (per core).
    server_cores:
        Number of simulated server cores the aggregation's parallelisable
        work is sharded across.  The pairwise-distance matrix and the
        coordinate-wise trimming/averaging terms partition perfectly, so
        they divide by the core count (plus a
        :func:`repro.core.theory.shard_combine_flops` gather term); the
        sequential part — e.g. Bulyan's iterated selection-score updates —
        does not (Amdahl).  The default of 1 reproduces the single-core
        pricing bit for bit.
    bandwidth_gbps:
        Link bandwidth between any worker and the server.
    latency_s:
        One-way network latency in seconds.
    measured_aggregation:
        When True the aggregation time is measured from the live NumPy
        execution instead of the analytic flop model.  Wall-clock timings
        are machine- and load-dependent, so a measured-mode run is **not**
        replayable: the runner rejects it in combination with
        ``--determinism-check``.
    """

    flops_per_parameter_per_sample: float = 6.0
    worker_gflops: float = 80.0
    server_gflops: float = 80.0
    server_cores: int = 1
    bandwidth_gbps: float = 10.0
    latency_s: float = 1e-4
    measured_aggregation: bool = False

    def __post_init__(self) -> None:
        for attr in ("flops_per_parameter_per_sample", "worker_gflops", "server_gflops",
                     "bandwidth_gbps"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive, got {getattr(self, attr)}")
        if self.latency_s < 0:
            raise ConfigurationError(f"latency_s must be non-negative, got {self.latency_s}")
        if isinstance(self.server_cores, bool) or not isinstance(
            self.server_cores, (int, np.integer)
        ) or self.server_cores < 1:
            raise ConfigurationError(
                f"server_cores must be an integer >= 1, got {self.server_cores!r}"
            )

    # ----------------------------------------------------------- components
    def gradient_compute_time(self, model_dim: int, batch_size: int,
                              *, gflops: Optional[float] = None,
                              flops_per_sample: Optional[float] = None) -> float:
        """Seconds for one worker to compute one mini-batch gradient.

        When ``flops_per_sample`` (the model's measured *forward* cost per
        sample) is provided, the gradient cost is ``3x`` that forward cost —
        the standard forward+backward rule — which lets convolution-heavy
        models (high FLOPs per parameter) cost proportionally more than dense
        models.  Otherwise the dense estimate
        ``flops_per_parameter_per_sample * model_dim`` is used.
        """
        if model_dim < 1 or batch_size < 1:
            raise ConfigurationError("model_dim and batch_size must be positive")
        throughput = (gflops if gflops is not None else self.worker_gflops) * 1e9
        if flops_per_sample is not None and flops_per_sample > 0:
            flops = 3.0 * flops_per_sample * batch_size
        else:
            flops = self.flops_per_parameter_per_sample * model_dim * batch_size
        return flops / throughput

    def transfer_time(self, num_bytes: float, *, bandwidth_gbps: Optional[float] = None) -> float:
        """Seconds to move *num_bytes* across one link (bandwidth + latency)."""
        if num_bytes < 0:
            raise ConfigurationError("num_bytes must be non-negative")
        bandwidth = (bandwidth_gbps if bandwidth_gbps is not None else self.bandwidth_gbps) * 1e9 / 8
        return num_bytes / bandwidth + self.latency_s

    def transfer_time_batch(
        self, num_bytes: np.ndarray, *, bandwidth_gbps: Optional[float] = None
    ) -> np.ndarray:
        """Vectorised :meth:`transfer_time` over an array of byte counts.

        Elementwise-identical arithmetic (one divide, one add against the
        same scalars), so every entry is bit-equal to the scalar call.
        """
        num_bytes = np.asarray(num_bytes, dtype=np.float64)
        if num_bytes.size and num_bytes.min() < 0:
            raise ConfigurationError("num_bytes must be non-negative")
        bandwidth = (bandwidth_gbps if bandwidth_gbps is not None else self.bandwidth_gbps) * 1e9 / 8
        return num_bytes / bandwidth + self.latency_s

    def gradient_bytes(self, model_dim: int) -> float:
        """Wire size of one *raw* gradient (or one model broadcast).

        This is the identity framing used for model broadcasts (the server
        always sends the full parameter vector); encoded gradient uploads
        are priced by the codec's own
        :meth:`~repro.cluster.codec.WireCodec.frame_bytes` instead.
        """
        return float(model_dim) * BYTES_PER_COORDINATE

    def round_trip_time(self, model_dim: int, *, bandwidth_gbps: Optional[float] = None) -> float:
        """Model broadcast + gradient push for one worker in one step."""
        size = self.gradient_bytes(model_dim)
        return 2.0 * self.transfer_time(size, bandwidth_gbps=bandwidth_gbps)

    def aggregation_flops(self, gar: GradientAggregationRule, n: int, d: int) -> float:
        """Analytic flop count of one aggregation call for the given GAR."""
        name = getattr(gar, "name", "")
        if name in ("average", "selective-average", "median", "trimmed-mean",
                    "meamed", "phocas", "geometric-median"):
            return theory.aggregation_flops_average(n, d) * (3.0 if name != "average" else 1.0)
        if name in ("krum", "multi-krum"):
            return theory.aggregation_flops_multi_krum(n, d)
        if name == "bulyan":
            return theory.aggregation_flops_bulyan(n, gar.f, d)
        if name == "brute":
            # Brute enumerates C(n, n - f) subsets on top of the shared
            # distance pass; pricing it at the Multi-Krum O(n^2 d) bound (the
            # pre-PR-5 behaviour) made the combinatorial rule look as cheap
            # as the polynomial one.
            return theory.aggregation_flops_brute(n, gar.f, d)
        # Unknown rule: assume the common O(n^2 d) bound for robust GARs.
        return theory.aggregation_flops_multi_krum(n, d)

    #: GARs whose cost decomposes around the shared pairwise-distance pass.
    DISTANCE_BASED_GARS = ("krum", "multi-krum", "bulyan", "brute")

    def aggregation_flops_split(
        self, gar: GradientAggregationRule, n: int, d: int
    ) -> tuple[float, float, float]:
        """The GAR's flops as ``(distance, parallel_rest, serial_rest)``.

        The three shares always sum to :meth:`aggregation_flops` exactly.
        *distance* is the shared ``n^2 d`` pairwise pass (skippable per cache
        hit, shardable across cores); *parallel_rest* is the remaining
        coordinate-partitioned work (trimming, averaging, subset scans —
        shardable but never cached); *serial_rest* is the sequential part
        (Bulyan's iterated selection-score updates) that no amount of cores
        or caching removes.
        """
        total = self.aggregation_flops(gar, n, d)
        name = getattr(gar, "name", "")
        if name not in self.DISTANCE_BASED_GARS:
            return 0.0, total, 0.0
        distance = min(theory.aggregation_flops_distances(n, d), total)
        rest = total - distance
        if name == "bulyan":
            theta = max(n - 2 * gar.f, 1)
            serial = min(float(theta * n * n), rest)
            return distance, rest - serial, serial
        return distance, rest, 0.0

    def _analytic_aggregation_seconds(
        self, gar: GradientAggregationRule, n: int, d: int,
        *, computed_distance_flops: Optional[float] = None,
        charge_shard_combine: bool = True,
    ) -> float:
        """Analytic-mode duration of one aggregation call.

        *computed_distance_flops* caps the distance share at what a
        :class:`~repro.core.distance_cache.DistanceCache` actually computed
        this round (cache hits are free); ``None`` charges the full share.
        On a single core with no cache the legacy single-division pricing is
        reproduced bit for bit.

        *charge_shard_combine* keeps (default) or drops the flat
        :func:`repro.core.theory.shard_combine_flops` gather term; a sharded
        parameter service drops it and adds its own *measured* inter-server
        gather wire seconds instead (:meth:`repro.cluster.service.ServerFabric.gather_seconds`).
        """
        rate = self.server_gflops * 1e9
        if self.server_cores == 1 and computed_distance_flops is None:
            return self.aggregation_flops(gar, n, d) / rate
        distance, parallel, serial = self.aggregation_flops_split(gar, n, d)
        if computed_distance_flops is not None:
            distance = min(distance, max(float(computed_distance_flops), 0.0))
        combine = (
            theory.shard_combine_flops(n, d, self.server_cores)
            if charge_shard_combine
            else 0.0
        )
        return ((distance + parallel) / self.server_cores + serial + combine) / rate

    def distance_overlap_excess(self, warmed_flops: float, budget_s: float) -> float:
        """Seconds of pre-quorum distance warming the wait could not absorb.

        A pipelined server computes the distance blocks of already-arrived
        gradients while it waits for the quorum to fill; that work is free
        only as long as it fits inside the wait.  Returns the overflow
        seconds to add to the step's aggregation time (almost always zero at
        realistic scales, but the model must not pretend overlap is
        unconditionally free).
        """
        seconds = float(warmed_flops) / self.server_cores / (self.server_gflops * 1e9)
        return max(0.0, seconds - max(float(budget_s), 0.0))

    def aggregation_time_detailed(
        self, gar: GradientAggregationRule, matrix: np.ndarray,
        *, distance_cache=None, charge_shard_combine: bool = True,
    ) -> tuple[AggregationResult, float]:
        """Aggregate a pre-validated matrix, keeping the GAR's diagnostics.

        *matrix* must be a float64 ``(n, d)`` matrix already checked by
        :meth:`repro.cluster.server.ParameterServer.validate_rows` (as
        :meth:`repro.cluster.service.ServerFabric.aggregate` does): the GAR's
        single-validation fast path is used, and the returned :class:`~repro.core.base.AggregationResult`
        carries the selection indices / scores for telemetry.  In measured
        mode the host wall-clock duration of the NumPy call is used directly;
        in analytic mode (default) the duration comes from the flop model,
        making simulations machine-independent.

        *distance_cache* optionally installs a
        :class:`~repro.core.distance_cache.DistanceCache` as the GAR's
        distance provider for the duration of the call: the aggregated
        values stay bit-identical (the cache serves the audited kernel's
        numbers), but the analytic duration charges only the distance flops
        the cache actually computed — cache hits are free.  Non-selection
        GARs never query the provider and are priced unchanged.

        *charge_shard_combine* is forwarded to the analytic pricing: a
        sharded parameter service passes ``False`` and prices the gather as
        measured inter-server wire sessions instead of the flat flop term.
        """
        n, d = matrix.shape
        charged_before = queries_before = 0.0
        if distance_cache is not None:
            charged_before = distance_cache.total_charged_flops
            queries_before = distance_cache.total_queries
            previous = gar.distance_provider
            gar.distance_provider = distance_cache
        try:
            if self.measured_aggregation:
                # simlint: disable=SIM101 measured aggregation is the opt-in
                # non-replayable mode; the CLI refuses it under
                # --determinism-check, so replay never takes this branch.
                start = time.perf_counter()
                result = gar.aggregate_validated(matrix)
                # simlint: disable=SIM101 same opt-in measured branch as above
                return result, time.perf_counter() - start
            result = gar.aggregate_validated(matrix)
        finally:
            if distance_cache is not None:
                gar.distance_provider = previous
        computed: Optional[float] = None
        if distance_cache is not None and distance_cache.total_queries > queries_before:
            computed = distance_cache.total_charged_flops - charged_before
        return result, self._analytic_aggregation_seconds(
            gar, n, d, computed_distance_flops=computed,
            charge_shard_combine=charge_shard_combine,
        )

    def aggregation_time(
        self, gar: GradientAggregationRule, gradients: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Aggregate *gradients* and return ``(result, simulated_seconds)``.

        Convenience wrapper around :meth:`aggregation_time_detailed` that
        accepts unvalidated input and returns only the gradient.
        """
        result, seconds = self.aggregation_time_detailed(gar, stack_gradients(gradients))
        return result.gradient, seconds

    def update_time(self, model_dim: int) -> float:
        """Server-side model update (optimizer step): a few passes over ``d`` values."""
        return 5.0 * model_dim / (self.server_gflops * 1e9)


@dataclass
class StragglerModel:
    """Per-worker, per-step compute slowdown sampling.

    The seed cost model made every worker deterministic, so the step time was
    the *maximum* of identical paths and synchrony policies had nothing to
    exploit.  This model draws an independent slowdown multiplier (>= 1) for
    each honest worker each step, turning the arrival process into the
    heavy-tailed distribution real clusters exhibit (GC pauses, co-located
    jobs, thermal throttling) and giving ``Quorum`` / ``BoundedStaleness``
    their Figure-8-style advantage over full synchrony.

    Attributes
    ----------
    distribution:
        ``"lognormal"`` — multiplier ``max(1, LogNormal(0, sigma))``;
        ``"pareto"`` — multiplier ``1 + scale * Pareto(alpha)`` (heavy tail);
        ``"constant"`` — deterministic multiplier ``scale`` (for tests).
    prob:
        Probability that a worker straggles at all in a given step
        (otherwise its multiplier is exactly 1).
    sigma:
        Log-scale spread of the lognormal distribution.
    alpha:
        Pareto tail index (smaller = heavier tail; must be > 0).
    scale:
        Scale of the Pareto excess / the constant multiplier.
    """

    distribution: str = "lognormal"
    prob: float = 1.0
    sigma: float = 0.75
    alpha: float = 2.0
    scale: float = 1.0

    DISTRIBUTIONS = ("lognormal", "pareto", "constant")

    def __post_init__(self) -> None:
        if self.distribution not in self.DISTRIBUTIONS:
            raise ConfigurationError(
                f"distribution must be one of {self.DISTRIBUTIONS}, got {self.distribution!r}"
            )
        self.prob = check_probability(self.prob, "prob")
        if self.sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        if self.scale < 1.0 and self.distribution == "constant":
            raise ConfigurationError(f"constant slowdown must be >= 1, got {self.scale}")
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")

    def sample(self, num_workers: int, rng: np.random.Generator) -> np.ndarray:
        """One slowdown multiplier (>= 1) per worker for the current step."""
        if num_workers < 0:
            raise ConfigurationError(f"num_workers must be non-negative, got {num_workers}")
        if self.distribution == "constant":
            factors = np.full(num_workers, float(self.scale))
        elif self.distribution == "pareto":
            factors = 1.0 + self.scale * rng.pareto(self.alpha, size=num_workers)
        else:
            factors = np.maximum(1.0, rng.lognormal(0.0, self.sigma, size=num_workers))
        if self.prob < 1.0:
            factors = np.where(rng.random(num_workers) < self.prob, factors, 1.0)
        return factors


__all__ = ["CostModel", "StragglerModel", "BYTES_PER_COORDINATE"]
