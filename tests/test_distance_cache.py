"""Property and integration tests for the cross-round distance cache.

The frozen oracle below is an independent, dict-and-set reimplementation of
the cache's *bookkeeping* contract (rows keyed by content, unordered pairs,
carry-pool retention); the numerical contract is pinned against
``kernels.pairwise_squared_distances`` directly — the cache must serve the
audited kernel's values bit for bit under any insert / evict / carry
sequence, because the cluster layer's cache-on/cache-off bit-identity
guarantee rests on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builder import build_trainer
from repro.cluster.checkpoint import (
    capture_training_state,
    load_training_state,
    restore_training_state,
    save_training_state,
)
from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.trainer import TrainerConfig
from repro.core import Bulyan, MultiKrum, kernels
from repro.core.distance_cache import (
    PAIR_FLOPS_PER_COORDINATE,
    DistanceCache,
    DistanceRoundStats,
    row_fingerprint,
)
from repro.data.datasets import gaussian_blobs
from repro.exceptions import ConfigurationError


def _knows_row(cache, row):
    """Whether *row* (by content) is fingerprint-cached."""
    return row_fingerprint(row) in cache._rows


# --------------------------------------------------------------------- oracle
class OracleBookkeeping:
    """Independent reference for the cache's hit/miss/retention contract."""

    def __init__(self):
        self.rows = set()
        self.pairs = set()

    @staticmethod
    def _key(row):
        return np.ascontiguousarray(row, dtype=np.float64).tobytes()

    def round(self, matrix, warm_rows=None, carry=None):
        """One round: optional warm, one query, carry-pool eviction.

        Returns the stats the cache should report for the same sequence.
        The flop convention: ``d`` per row registered for the first time
        (its squared norm) and ``2 d`` per newly computed pair, so a fully
        fresh round of ``n`` rows prices at ``n^2 d``.
        """
        d = matrix.shape[1]
        known_at_start = set(self.rows)
        seen = set()
        stats = dict(hit_rows=0, miss_rows=0, hit_pairs=0, miss_pairs=0,
                     warmed_pairs=0, quarantined=0,
                     charged_flops=0.0, warmed_flops=0.0)

        def observe(rows):
            new = 0
            for row in rows:
                if not np.isfinite(row).all():
                    stats["quarantined"] += 1
                    continue
                key = self._key(row)
                if key not in seen:
                    seen.add(key)
                    if key in known_at_start:
                        stats["hit_rows"] += 1
                    else:
                        stats["miss_rows"] += 1
                if key not in self.rows:
                    self.rows.add(key)
                    new += 1
            return new

        def finite_keys(rows):
            return [self._key(r) for r in rows if np.isfinite(r).all()]

        def warm_phase(rows):
            stats["warmed_flops"] += d * observe(rows)
            keys = finite_keys(rows)
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    pair = tuple(sorted((keys[i], keys[j])))
                    if pair not in self.pairs:
                        self.pairs.add(pair)
                        stats["warmed_pairs"] += 1
                        stats["warmed_flops"] += 2 * d

        if warm_rows is not None and len(warm_rows):
            warm_phase(warm_rows)

        stats["charged_flops"] += d * observe(matrix)
        keys = finite_keys(matrix)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                pair = tuple(sorted((keys[i], keys[j])))
                if pair in self.pairs:
                    stats["hit_pairs"] += 1
                else:
                    self.pairs.add(pair)
                    stats["miss_pairs"] += 1
                    stats["charged_flops"] += 2 * d

        if carry is not None and len(carry):
            warm_phase(carry)
            keep = set(finite_keys(carry))
        else:
            keep = set()
        self.rows = {k for k in self.rows if k in keep}
        self.pairs = {p for p in self.pairs if p[0] in keep and p[1] in keep}
        return stats


def round_sequences(max_rounds=5, max_n=10, max_d=8):
    """Strategy: a sequence of rounds, each carrying a random row subset."""

    @st.composite
    def build(draw):
        d = draw(st.integers(1, max_d))
        seed = draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        rounds = []
        carried = np.zeros((0, d))
        for _ in range(draw(st.integers(1, max_rounds))):
            fresh = rng.standard_normal((draw(st.integers(2, max_n)), d))
            matrix = np.vstack([carried, fresh]) if len(carried) else fresh
            if draw(st.booleans()):
                poison = draw(st.integers(0, max(0, matrix.shape[0] - 2)))
                matrix = matrix.copy()
                for row in range(poison):
                    matrix[row, rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
            carry_count = draw(st.integers(0, matrix.shape[0]))
            carry_idx = rng.choice(matrix.shape[0], size=carry_count, replace=False)
            rounds.append((matrix, carry_idx))
            carried = matrix[sorted(carry_idx)]
        return rounds

    return build()


@settings(max_examples=40, deadline=None)
@given(rounds=round_sequences())
def test_cache_parity_and_bookkeeping_under_carry_sequences(rounds):
    """Values match the kernel bit for bit; stats match the frozen oracle."""
    cache = DistanceCache()
    oracle = OracleBookkeeping()
    for matrix, carry_idx in rounds:
        carry = matrix[sorted(carry_idx)] if len(carry_idx) else None
        cache.begin_round()
        served = cache.distances(matrix)
        np.testing.assert_array_equal(
            served, kernels.pairwise_squared_distances(matrix)
        )
        stats = cache.end_round(carry)
        expected = oracle.round(matrix, carry=carry)
        assert stats.hit_rows == expected["hit_rows"]
        assert stats.miss_rows == expected["miss_rows"]
        assert stats.hit_pairs == expected["hit_pairs"]
        assert stats.miss_pairs == expected["miss_pairs"]
        assert stats.warmed_pairs == expected["warmed_pairs"]
        assert stats.quarantined_rows == expected["quarantined"]
        assert stats.charged_flops == pytest.approx(expected["charged_flops"])
        assert stats.warmed_flops == pytest.approx(expected["warmed_flops"])
        # Retention is exactly the carry pool.
        finite_carry = (
            [r for r in carry if np.isfinite(r).all()] if carry is not None else []
        )
        assert cache.known_rows == len({row_fingerprint(r) for r in finite_carry})


@settings(max_examples=30, deadline=None)
@given(rounds=round_sequences(max_rounds=4))
def test_cache_warm_then_query_matches_oracle(rounds):
    """Warming a prefix off-path leaves only the remaining pairs as misses."""
    cache = DistanceCache()
    oracle = OracleBookkeeping()
    for matrix, carry_idx in rounds:
        carry = matrix[sorted(carry_idx)] if len(carry_idx) else None
        split = matrix.shape[0] // 2
        warm_rows = matrix[:split] if split else None
        cache.begin_round()
        if warm_rows is not None and len(warm_rows):
            cache.warm(warm_rows)
        np.testing.assert_array_equal(
            cache.distances(matrix), kernels.pairwise_squared_distances(matrix)
        )
        stats = cache.end_round(carry)
        expected = oracle.round(matrix, warm_rows=warm_rows, carry=carry)
        assert stats.warmed_pairs == expected["warmed_pairs"]
        assert stats.miss_pairs == expected["miss_pairs"]
        assert stats.hit_pairs == expected["hit_pairs"]
        assert stats.charged_flops == pytest.approx(expected["charged_flops"])
        assert stats.warmed_flops == pytest.approx(expected["warmed_flops"])


def test_non_finite_rows_are_quarantined_not_cached(rng):
    cache = DistanceCache()
    matrix = rng.standard_normal((6, 10))
    matrix[2, 3] = np.nan
    matrix[4, 0] = np.inf
    cache.begin_round()
    served = cache.distances(matrix)
    assert np.isinf(served[2, :]).sum() == matrix.shape[0] - 1  # diag stays 0
    np.testing.assert_array_equal(
        served, kernels.pairwise_squared_distances(matrix)
    )
    stats = cache.end_round(matrix)  # try to carry everything
    assert stats.quarantined_rows == 4  # 2 bad rows seen twice (query + carry)
    assert cache.known_rows == 4  # the finite ones only
    assert not _knows_row(cache, matrix[2])
    assert not _knows_row(cache, matrix[4])


def test_identical_repeat_query_is_all_hits_and_memoised(rng):
    cache = DistanceCache()
    matrix = rng.standard_normal((7, 12))
    cache.begin_round()
    first = cache.distances(matrix)
    again = cache.distances(matrix)
    np.testing.assert_array_equal(first, again)
    stats = cache.end_round(None)
    assert stats.miss_pairs == 21 and stats.hit_pairs == 21
    assert stats.queries == 2


def test_rebuild_reproduces_carry_pool_state(rng):
    """Post-restore rebuild == the uninterrupted cache's between-round state."""
    d = 9
    carried = rng.standard_normal((4, d))
    live = DistanceCache()
    live.begin_round()
    live.distances(np.vstack([carried, rng.standard_normal((5, d))]))
    live.end_round(carried)

    rebuilt = DistanceCache()
    rebuilt.rebuild(carried)
    assert rebuilt.known_rows == live.known_rows
    assert rebuilt.cached_pairs == live.cached_pairs
    assert rebuilt.last_round is None  # a rebuild is not a round

    # The next round must report identical stats from either cache.
    next_matrix = np.vstack([carried[:2], rng.standard_normal((4, d))])
    results = []
    for cache in (live, rebuilt):
        cache.begin_round()
        cache.distances(next_matrix)
        results.append(cache.end_round(None).to_dict())
    assert results[0] == results[1]
    assert results[0]["hit_rows"] == 2
    assert results[0]["hit_pairs"] == 1  # the carried[:2] mutual block


def test_rebuild_from_empty_pool_resets():
    cache = DistanceCache()
    cache.begin_round()
    cache.distances(np.ones((3, 2)) * np.arange(3)[:, None])
    cache.end_round(np.ones((2, 2)))
    cache.rebuild(None)
    assert cache.known_rows == 0 and cache.cached_pairs == 0


def test_capacity_bound_evicts_oldest(rng):
    cache = DistanceCache(max_rows=8)
    cache.begin_round()
    first = rng.standard_normal((5, 4))
    cache.distances(first)
    second = rng.standard_normal((6, 4))
    cache.distances(second)
    assert cache.known_rows <= 8
    # The current query's rows are always protected.
    for row in second:
        assert _knows_row(cache, row)


def test_cache_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        DistanceCache(max_rows=0)
    with pytest.raises(ConfigurationError):
        DistanceCache().distances(np.ones(3))


def test_fresh_round_prices_exactly_the_uncached_distance_share(rng):
    """Zero hits => the cache charges the full n^2 d share, not a discount."""
    n, d = 9, 120
    cache = DistanceCache()
    cache.begin_round()
    cache.distances(rng.standard_normal((n, d)))
    stats = cache.end_round(None)
    assert stats.hit_pairs == 0
    assert stats.charged_flops == pytest.approx(
        PAIR_FLOPS_PER_COORDINATE * d * n * (n - 1) / 2 + d * n
    )
    assert stats.charged_flops == pytest.approx(float(n * n * d))


# ----------------------------------------------------------- cost-model tier
class TestCacheAwarePricing:
    def test_zero_hit_cached_round_prices_like_uncached(self, rng):
        # A cache with no reuse must not quietly pad the comparison: the
        # charged flops equal the analytic distance share exactly.
        model = CostModel()
        matrix = rng.standard_normal((11, 500))
        gar = MultiKrum(f=2)
        _, uncached = model.aggregation_time_detailed(gar, matrix)
        cache = DistanceCache()
        cache.begin_round()
        _, cached = model.aggregation_time_detailed(gar, matrix, distance_cache=cache)
        assert cached == pytest.approx(uncached)
        assert cached <= uncached

    def test_full_hit_round_charges_no_distance_flops(self, rng):
        model = CostModel()
        matrix = rng.standard_normal((11, 500))
        gar = Bulyan(f=2)
        cache = DistanceCache()
        cache.begin_round()
        cache.warm(matrix)  # every block precomputed off-path
        result, seconds = model.aggregation_time_detailed(
            gar, matrix, distance_cache=cache
        )
        distance, parallel, serial = model.aggregation_flops_split(gar, 11, 500)
        expected = (parallel / model.server_cores + serial) / (model.server_gflops * 1e9)
        assert seconds == pytest.approx(expected)
        np.testing.assert_array_equal(
            result.gradient, Bulyan(f=2).aggregate(matrix)
        )

    def test_provider_not_installed_outside_the_call(self, rng):
        model = CostModel()
        gar = MultiKrum(f=1)
        cache = DistanceCache()
        model.aggregation_time_detailed(
            gar, rng.standard_normal((7, 20)), distance_cache=cache
        )
        assert gar.distance_provider is None

    def test_overlap_excess_charges_overflow_only(self):
        model = CostModel(server_gflops=1e-9 * 1000)  # 1000 flop/s
        assert model.distance_overlap_excess(500.0, 1.0) == pytest.approx(0.0)
        assert model.distance_overlap_excess(1500.0, 1.0) == pytest.approx(0.5)
        assert model.distance_overlap_excess(1500.0, -3.0) == pytest.approx(1.5)


# --------------------------------------------------------- cluster-layer tier
@pytest.fixture(scope="module")
def carry_dataset():
    return gaussian_blobs(
        num_train=240, num_test=60, num_classes=3, dim=8, separation=3.0,
        noise=0.8, rng=0
    )


def _carry_trainer(dataset, *, distance_cache, server_cores=1, seed=7):
    """Bulyan under quorum(carry) with heavy stragglers: a carry-heavy run."""
    return build_trainer(
        model="mlp",
        model_kwargs={"input_dim": 8, "hidden": (12,), "num_classes": 3},
        dataset=dataset,
        gar="bulyan",
        num_workers=15,
        declared_f=2,
        batch_size=16,
        sync_policy="quorum",
        sync_kwargs={"quorum": 13, "stragglers": "carry"},
        straggler_model=StragglerModel(distribution="pareto", prob=0.6, scale=3.0),
        distance_cache=distance_cache,
        server_cores=server_cores,
        seed=seed,
    )


class TestTrainerIntegration:
    def test_bulyan_quorum_carry_bit_identical_with_nonzero_hits(self, carry_dataset):
        """The PR's acceptance property, at test scale."""
        config = TrainerConfig(max_steps=8, eval_every=4)
        off = _carry_trainer(carry_dataset, distance_cache=False)
        history_off = off.run(config)
        on = _carry_trainer(carry_dataset, distance_cache=True)
        history_on = on.run(config)

        np.testing.assert_array_equal(off.server.parameters, on.server.parameters)
        assert history_off.sync_summary()["carried_gradients"] > 0

        summary = history_on.distance_cache_summary()
        assert summary["hit_rows"] > 0 and summary["hit_pairs"] > 0
        assert summary["distance_flops"] > 0
        assert sum(r.aggregation_time for r in history_on.steps) < sum(
            r.aggregation_time for r in history_off.steps
        )
        # The uncached run reports no cache activity at all.
        off_summary = history_off.distance_cache_summary()
        assert off_summary["hit_pairs"] == 0 and off_summary["miss_pairs"] == 0

    def test_step_records_carry_cache_fields(self, carry_dataset):
        trainer = _carry_trainer(carry_dataset, distance_cache=True)
        trainer.run(TrainerConfig(max_steps=4, eval_every=0))
        later = trainer.history.steps[1:]
        assert any(r.cache_hit_rows > 0 for r in later)
        assert all(r.distance_flops >= 0 for r in trainer.history.steps)
        assert any(r.overlapped_flops > 0 for r in trainer.history.steps)

    def test_server_cores_compose_with_cache_bit_identically(self, carry_dataset):
        config = TrainerConfig(max_steps=6, eval_every=0)
        base = _carry_trainer(carry_dataset, distance_cache=False)
        base.run(config)
        sharded = _carry_trainer(carry_dataset, distance_cache=True, server_cores=4)
        sharded.run(config)
        np.testing.assert_array_equal(base.server.parameters, sharded.server.parameters)
        assert sum(r.aggregation_time for r in sharded.history.steps) < sum(
            r.aggregation_time for r in base.history.steps
        )

    def test_resume_is_bit_identical_including_cache_pricing(
        self, carry_dataset, tmp_path
    ):
        """Cache = derived state: invalidate + rebuild keeps resume exact."""
        reference = _carry_trainer(carry_dataset, distance_cache=True)
        reference.run(TrainerConfig(max_steps=8, eval_every=0))

        first = _carry_trainer(carry_dataset, distance_cache=True)
        first.run(TrainerConfig(max_steps=4, eval_every=0))
        path = save_training_state(capture_training_state(first), tmp_path / "state")

        resumed = _carry_trainer(carry_dataset, distance_cache=True)
        restore_training_state(resumed, load_training_state(path))
        resumed.run(TrainerConfig(max_steps=4, eval_every=0))

        np.testing.assert_array_equal(
            reference.server.parameters, resumed.server.parameters
        )
        assert resumed.clock.now == pytest.approx(reference.clock.now)
        # Per-step cache pricing after the resume point matches the
        # uninterrupted run exactly (the rebuild restored the carry blocks).
        for ref, res in zip(reference.history.steps[4:], resumed.history.steps):
            assert ref.aggregation_time == res.aggregation_time
            assert ref.cache_hit_rows == res.cache_hit_rows
            assert ref.cache_hit_pairs == res.cache_hit_pairs
            assert ref.distance_flops == res.distance_flops

    def test_carry_warm_is_billed_against_the_next_round(self, carry_dataset):
        """End-of-round warming is debt for the next wait, never silently free."""
        trainer = _carry_trainer(carry_dataset, distance_cache=True)
        trainer.run(TrainerConfig(max_steps=4, eval_every=0))
        # The last round carried gradients, so their warm debt is pending.
        assert trainer.history.steps[-1].carried_gradients > 0
        assert trainer._warm_debt > 0
        # The debt is consumed (and re-accrued) by the next step's budget.
        debt = trainer._warm_debt
        trainer.run_step()
        excess = trainer.cost_model.distance_overlap_excess(
            debt, trainer.history.steps[-1].compute_comm_time
        )
        assert excess == 0.0  # at this scale the wait absorbs it...
        slow = CostModel(server_gflops=1e-9)  # ...but a 1 flop/s server cannot
        assert slow.distance_overlap_excess(debt, 1.0) > 0.0

    def test_warm_debt_round_trips_through_checkpoints(self, carry_dataset, tmp_path):
        trainer = _carry_trainer(carry_dataset, distance_cache=True)
        trainer.run(TrainerConfig(max_steps=4, eval_every=0))
        state = capture_training_state(trainer)
        assert state.distance_warm_debt == trainer._warm_debt
        path = save_training_state(state, tmp_path / "debt")
        loaded = load_training_state(path)
        assert loaded.distance_warm_debt == trainer._warm_debt
        target = _carry_trainer(carry_dataset, distance_cache=True)
        restore_training_state(target, loaded)
        assert target._warm_debt == trainer._warm_debt

    def test_restore_invalidates_cache(self, carry_dataset, tmp_path):
        trainer = _carry_trainer(carry_dataset, distance_cache=True)
        trainer.run(TrainerConfig(max_steps=3, eval_every=0))
        state = capture_training_state(trainer)
        target = _carry_trainer(carry_dataset, distance_cache=True)
        target.run(TrainerConfig(max_steps=2, eval_every=0))
        restore_training_state(target, state)
        cache = target.server.distance_cache
        # Only the restored carry pool's rows survive the rebuild.
        pending = target.sync_policy.pending().payloads
        assert cache.known_rows == len(
            {row_fingerprint(row) for row in pending if np.isfinite(row).all()}
        )

    def test_async_cache_runs_deterministically(self, carry_dataset):
        """Async + cache is supported and replay-deterministic.

        (Unlike lock-step mode there is no cache-on/off bit-identity claim:
        in the event-driven engine aggregation pricing feeds back into
        admission timing — a faster server aggregates earlier and admits
        different batches.  That is modelled behaviour, not drift.)
        """

        def run_once():
            trainer = build_trainer(
                model="mlp",
                model_kwargs={"input_dim": 8, "hidden": (12,), "num_classes": 3},
                dataset=carry_dataset,
                gar="bulyan",
                num_workers=15,
                declared_f=2,
                batch_size=16,
                mode="async",
                sync_policy="quorum",
                sync_kwargs={"quorum": 13, "stragglers": "carry"},
                max_version_lag=4,
                distance_cache=True,
                seed=11,
            )
            history = trainer.run(TrainerConfig(max_steps=6, eval_every=0))
            return trainer.server.parameters, history

        params_a, history_a = run_once()
        params_b, history_b = run_once()
        np.testing.assert_array_equal(params_a, params_b)
        assert history_a.distance_cache_summary() == history_b.distance_cache_summary()
        assert history_a.distance_cache_summary()["miss_pairs"] > 0
