"""Tests for the simulated clock, cost model and cluster specification."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, CostModel, NodeSpec, SimulatedClock, allocate_devices
from repro.core import Average, Brute, Bulyan, MultiKrum
from repro.exceptions import ConfigurationError


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatedClock().advance(-1.0)

    def test_reset(self):
        clock = SimulatedClock(5.0)
        clock.reset()
        assert clock.now == 0.0

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatedClock(-1.0)


class TestCostModel:
    def test_gradient_compute_time_scales_with_model_and_batch(self):
        model = CostModel()
        base = model.gradient_compute_time(1000, 10)
        assert model.gradient_compute_time(2000, 10) == pytest.approx(2 * base)
        assert model.gradient_compute_time(1000, 20) == pytest.approx(2 * base)

    def test_transfer_time_includes_latency(self):
        model = CostModel(latency_s=0.01, bandwidth_gbps=1.0)
        assert model.transfer_time(0) == pytest.approx(0.01)
        assert model.transfer_time(1.25e8) == pytest.approx(1.0 + 0.01)  # 1 Gb at 1 Gbps

    def test_gradient_bytes(self):
        assert CostModel().gradient_bytes(1000) == 4000

    def test_round_trip_is_twice_one_way(self):
        model = CostModel()
        assert model.round_trip_time(500) == pytest.approx(
            2 * model.transfer_time(model.gradient_bytes(500))
        )

    def test_aggregation_flops_ordering(self):
        model = CostModel()
        n, d = 11, 10_000
        avg = model.aggregation_flops(Average(), n, d)
        mk = model.aggregation_flops(MultiKrum(f=2), n, d)
        bulyan = model.aggregation_flops(Bulyan(f=2), n, d)
        assert avg < mk < bulyan

    def test_brute_analytic_time_dominates_multi_krum(self, rng):
        # Regression (PR-5): Brute was priced at the Multi-Krum O(n^2 d)
        # bound; the subset enumeration must make it strictly dearer for the
        # same (n, d).
        model = CostModel()
        n, d = 12, 2_000
        matrix = rng.standard_normal((n, d))
        for f in (0, 2, 3):
            assert model.aggregation_flops(Brute(f=f), n, d) > (
                model.aggregation_flops(MultiKrum(f=f), n, d)
            )
            _, brute_seconds = model.aggregation_time_detailed(Brute(f=f), matrix)
            _, mk_seconds = model.aggregation_time_detailed(MultiKrum(f=f), matrix)
            assert brute_seconds > mk_seconds

    def test_aggregation_flops_split_sums_to_total(self):
        model = CostModel()
        n, d = 15, 3_000
        for gar in (Average(), MultiKrum(f=2), Bulyan(f=2), Brute(f=3)):
            distance, parallel, serial = model.aggregation_flops_split(gar, n, d)
            assert distance >= 0 and parallel >= 0 and serial >= 0
            assert distance + parallel + serial == model.aggregation_flops(gar, n, d)
        assert model.aggregation_flops_split(Average(), n, d)[0] == 0.0
        assert model.aggregation_flops_split(Bulyan(f=2), n, d)[2] > 0.0

    def test_server_cores_shard_the_parallel_work(self, rng):
        matrix = rng.standard_normal((11, 2_000))
        gar = Bulyan(f=2)
        _, single = CostModel().aggregation_time_detailed(gar, matrix)
        _, quad = CostModel(server_cores=4).aggregation_time_detailed(gar, matrix)
        assert quad < single
        # More cores also pay a larger combine term: going from 4 to 4096
        # cores on a tiny problem must not tend to zero.
        _, absurd = CostModel(server_cores=4096).aggregation_time_detailed(gar, matrix)
        assert absurd > 0

    def test_single_core_pricing_is_bit_identical_to_legacy(self, rng):
        # The split path divides before summing; the legacy path must stay
        # the single division so existing trajectories replay bit for bit.
        model = CostModel()
        gar = Bulyan(f=2)
        n, d = 11, 1_777
        expected = model.aggregation_flops(gar, n, d) / (model.server_gflops * 1e9)
        _, seconds = model.aggregation_time_detailed(gar, rng.standard_normal((n, d)))
        assert seconds == expected

    def test_server_cores_validation(self):
        with pytest.raises(ConfigurationError):
            CostModel(server_cores=0)
        with pytest.raises(ConfigurationError):
            CostModel(server_cores=1.5)
        with pytest.raises(ConfigurationError):
            CostModel(server_cores=True)

    def test_aggregation_time_analytic_mode_returns_result(self, rng):
        model = CostModel()
        gar = MultiKrum(f=1)
        matrix = rng.standard_normal((6, 50))
        result, seconds = model.aggregation_time_detailed(gar, matrix)
        np.testing.assert_allclose(result.gradient, gar.aggregate(matrix))
        assert seconds > 0

    def test_aggregation_time_measured_mode(self, rng):
        model = CostModel(measured_aggregation=True)
        matrix = rng.standard_normal((6, 50))
        result, seconds = model.aggregation_time_detailed(MultiKrum(f=1), matrix)
        assert seconds > 0
        assert result.gradient.shape == (50,)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(worker_gflops=0.0)
        with pytest.raises(ConfigurationError):
            CostModel(latency_s=-1.0)
        with pytest.raises(ConfigurationError):
            CostModel().gradient_compute_time(0, 10)
        with pytest.raises(ConfigurationError):
            CostModel().transfer_time(-5)

    def test_update_time_positive(self):
        assert CostModel().update_time(100) > 0


class TestClusterSpec:
    def test_homogeneous_cluster(self):
        spec = ClusterSpec.homogeneous(20)
        assert len(spec.nodes) == 20
        assert spec.node("node3").compute_gflops == 80.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(nodes=[NodeSpec("a"), NodeSpec("a")])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(nodes=[])

    def test_unknown_node_lookup(self):
        spec = ClusterSpec.homogeneous(2)
        with pytest.raises(ConfigurationError):
            spec.node("node99")

    def test_invalid_node_spec(self):
        with pytest.raises(ConfigurationError):
            NodeSpec("x", compute_gflops=0)
        with pytest.raises(ConfigurationError):
            NodeSpec("x", network_latency_ms=-1)


class TestAllocateDevices:
    def test_first_fit_paper_deployment(self):
        """20 nodes -> 1 parameter server + 19 workers, one per node."""
        spec = allocate_devices(ClusterSpec.homogeneous(20), 19)
        assert spec.server_node == "node0"
        assert len(spec.worker_nodes) == 19
        assert spec.server_node not in spec.worker_nodes

    def test_workers_wrap_around_when_oversubscribed(self):
        spec = allocate_devices(ClusterSpec.homogeneous(3), 5)
        assert len(spec.worker_nodes) == 5
        assert set(spec.worker_nodes) <= {"node1", "node2"}

    def test_strongest_ps_policy(self):
        nodes = [NodeSpec("weak", compute_gflops=10), NodeSpec("strong", compute_gflops=100)]
        spec = allocate_devices(ClusterSpec(nodes=nodes), 1, policy="strongest-ps")
        assert spec.server_node == "strong"
        assert spec.worker_nodes == ["weak"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            allocate_devices(ClusterSpec.homogeneous(2), 1, policy="random")

    def test_single_node_cluster(self):
        spec = allocate_devices(ClusterSpec.homogeneous(1), 2)
        assert spec.server_node == "node0"
        assert spec.worker_nodes == ["node0", "node0"]


@pytest.mark.parametrize("distribution", ["lognormal", "pareto", "constant"])
@pytest.mark.parametrize("prob", [1.0, 0.3])
def test_when_a_batch_straggler_draw_equals_single_draws(distribution, prob):
    """``sample(k, rng)`` equals k calls of ``sample(1, rng)`` exactly when it says so.

    Every distribution draws its factors one after another, so the two agree
    at ``prob == 1``.  Below it, a batch draws all k factors and then k
    uniforms where single calls alternate factor and uniform — unless the
    factor draws nothing (``constant``).  The async engine prices a compute
    cohort with one batch draw only where ``draws_in_sequence`` holds.
    """
    from repro.cluster.cost_model import StragglerModel

    model = StragglerModel(distribution, prob=prob, scale=2.0)
    batch = model.sample(64, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    single = np.array([model.sample(1, rng)[0] for _ in range(64)])
    assert model.draws_in_sequence == (distribution == "constant" or prob == 1.0)
    assert np.array_equal(batch, single) == model.draws_in_sequence
