"""Heterogeneous links: profile parsing, per-session caps, per-region pipes."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, build_trainer
from repro.cluster.cost_model import CostModel
from repro.cluster.link import (
    LinkFabric,
    LinkScheduler,
    LinkTopology,
    RegionLink,
    parse_link_profile,
)
from repro.cluster.trainer import TrainerConfig
from repro.exceptions import ConfigurationError


class TestProfileParsing:
    def test_symmetric_and_empty_mean_no_topology(self):
        assert parse_link_profile(None, 4) is None
        assert parse_link_profile("", 4) is None
        assert parse_link_profile("symmetric", 4) is None

    def test_wan_profile_round_robins_workers(self):
        topology = parse_link_profile("wan:3x10mbit", 7)
        assert [r.name for r in topology.regions] == ["region0", "region1", "region2"]
        assert all(r.bandwidth_gbps == pytest.approx(0.01) for r in topology.regions)
        assert all(r.latency_s == 0.0 for r in topology.regions)
        assert topology.region_of(0) == "region0"
        assert topology.region_of(1) == "region1"
        assert topology.region_of(5) == "region2"
        assert topology.region_of(6) == "region0"

    def test_wan_profile_with_latency_suffix(self):
        topology = parse_link_profile("wan:2x100kbit/40ms", 4)
        assert all(r.bandwidth_gbps == pytest.approx(1e-4) for r in topology.regions)
        assert all(r.latency_s == pytest.approx(0.04) for r in topology.regions)

    def test_gbit_and_fractional_units(self):
        topology = parse_link_profile("wan:1x0.5gbit/100us", 2)
        assert topology.regions[0].bandwidth_gbps == pytest.approx(0.5)
        assert topology.regions[0].latency_s == pytest.approx(1e-4)

    @pytest.mark.parametrize("bad", [
        "wan:3x10", "wan:x10mbit", "lan:2x10mbit", "wan:0x10mbit",
        "wan:2x10mbit/fast", "wan:2x-3mbit",
    ])
    def test_malformed_profiles_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_link_profile(bad, 8)

    def test_more_regions_than_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="regions"):
            parse_link_profile("wan:5x10mbit", 3)


class TestTopologyValidation:
    def test_unknown_region_assignment_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown region"):
            LinkTopology(
                regions=(RegionLink("eu"),), worker_regions={0: "us"}
            )

    def test_duplicate_region_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            LinkTopology(regions=(RegionLink("eu"), RegionLink("eu")))

    def test_missing_worker_assignment_rejected(self):
        topology = LinkTopology(regions=(RegionLink("eu"),), worker_regions={0: "eu"})
        with pytest.raises(ConfigurationError, match="no region"):
            topology.validate_workers([0, 1])

    def test_nonpositive_worker_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            LinkTopology(
                regions=(RegionLink("eu"),),
                worker_regions={0: "eu"},
                worker_bandwidth_gbps={0: 0.0},
            )


class TestSessionCaps:
    def test_rate_cap_slows_a_session_below_link_rate(self):
        link = LinkScheduler(bandwidth_gbps=8e-9, latency_s=0.0)  # 1 byte/s
        capped = link.open(0.0, 10.0, rate_cap=0.5)
        free = link.open(0.0, 10.0)
        done = {}
        while link.active_sessions:
            target = link.next_completion()
            for session in link.pop_completed(target):
                done[session.session_id] = session.done_time
        assert done[free.session_id] == pytest.approx(10.0)
        assert done[capped.session_id] == pytest.approx(20.0)
        # The cap is part of the session's solo baseline, not queueing.
        assert capped.queueing_delay == pytest.approx(0.0)

    def test_extra_latency_is_per_session(self):
        link = LinkScheduler(bandwidth_gbps=8e-9, latency_s=1.0)
        slow = link.open(0.0, 4.0, extra_latency_s=2.5)
        fast = link.open(0.0, 4.0)
        done = {}
        while link.active_sessions:
            target = link.next_completion()
            for session in link.pop_completed(target):
                done[session.session_id] = session.done_time
        assert done[fast.session_id] == pytest.approx(5.0)
        assert done[slow.session_id] == pytest.approx(7.5)
        assert slow.queueing_delay == pytest.approx(0.0)

    def test_fair_share_respects_caps(self):
        # Two sessions on a 2 byte/s pipe: fair share is 1 byte/s each, but
        # the capped sender can only push 0.5 byte/s.  The cap is not
        # work-conserving: the free session still drains at its fair share.
        link = LinkScheduler(bandwidth_gbps=16e-9, latency_s=0.0, sharing="fair")
        capped = link.open(0.0, 5.0, rate_cap=0.5)
        free = link.open(0.0, 5.0)
        done = {}
        while link.active_sessions:
            target = link.next_completion()
            for session in link.pop_completed(target):
                done[session.session_id] = session.done_time
        assert done[free.session_id] == pytest.approx(5.0)
        # Capped: 5 s at 0.5 B/s drains 2.5 B; then alone, still capped at
        # 0.5 B/s for the remaining 2.5 B -> 10 s total.
        assert done[capped.session_id] == pytest.approx(10.0)

    def test_next_completion_never_overshoots_a_real_arrival(self):
        # Regression: projecting a draining session's arrival at current
        # rates is unsound under heterogeneous extra latencies — when the
        # high-latency session drains first, its peer speeds up and arrives
        # EARLIER than the projection, and an event scheduled at the stale
        # projection would process the arrival late.  next_completion must
        # therefore stop at drain completions (rate-change points).
        link = LinkScheduler(bandwidth_gbps=8e-9, latency_s=0.0, sharing="fair")
        slow = link.open(0.0, 4.0, extra_latency_s=10.0)
        fast = link.open(0.0, 8.0)
        # First event point: slow's drain at t=8 (4 B at the 0.5 B/s share).
        assert link.next_completion() == pytest.approx(8.0)
        assert link.pop_completed(link.next_completion()) == []
        # fast then drains alone at 1 B/s: 4 B left -> t=12, not the t=16
        # the stale half-rate projection implied.
        assert link.next_completion() == pytest.approx(12.0)
        (done,) = link.pop_completed(link.next_completion())
        assert done is fast and done.done_time == pytest.approx(12.0)
        assert link.next_completion() == pytest.approx(18.0)  # slow's arrival
        (done,) = link.pop_completed(18.0)
        assert done is slow

    def test_invalid_session_kwargs_rejected(self):
        link = LinkScheduler(bandwidth_gbps=1.0, latency_s=0.0)
        with pytest.raises(ConfigurationError):
            link.open(0.0, 1.0, rate_cap=0.0)
        with pytest.raises(ConfigurationError):
            link.open(0.0, 1.0, extra_latency_s=-1.0)


class TestLinkFabric:
    def _topology(self):
        return LinkTopology(
            regions=(
                RegionLink("fast", bandwidth_gbps=None),
                RegionLink("slow", bandwidth_gbps=8e-9, latency_s=1.0),  # 1 B/s
            ),
            worker_regions={0: "fast", 1: "slow", 2: "slow"},
            worker_bandwidth_gbps={2: 4e-9},  # 0.5 B/s access cap
            worker_latency_s={2: 0.25},
        )

    def test_solo_seconds_without_topology_delegates_to_cost_model(self):
        cost = CostModel()
        fabric = LinkFabric(cost, None)
        assert fabric.solo_seconds(3, 1234.0) == cost.transfer_time(1234.0)
        assert fabric.uplink_seconds(3, 1234.0, 0.5) == 0.5

    def test_solo_seconds_composes_path_minimum_and_latency_sum(self):
        cost = CostModel(bandwidth_gbps=80e-9, latency_s=0.5)  # 10 B/s base
        fabric = LinkFabric(cost, self._topology())
        # fast region: base rate, base latency.
        assert fabric.solo_seconds(0, 10.0) == pytest.approx(1.0 + 0.5)
        # slow region: 1 B/s bottleneck, +1 s region latency.
        assert fabric.solo_seconds(1, 10.0) == pytest.approx(10.0 + 1.5)
        # worker 2: 0.5 B/s access cap, +0.25 s access latency on top.
        assert fabric.solo_seconds(2, 10.0) == pytest.approx(20.0 + 1.75)

    def test_simulate_contends_per_region_only(self):
        cost = CostModel(bandwidth_gbps=8e-9, latency_s=0.0)  # 1 B/s everywhere
        topology = LinkTopology(
            regions=(RegionLink("a"), RegionLink("b")),
            worker_regions={0: "a", 1: "a", 2: "b"},
        )
        fabric = LinkFabric(cost, topology, sharing="fair")
        results = fabric.simulate([(0.0, 10.0, 0), (0.0, 10.0, 1), (0.0, 10.0, 2)])
        # Region a: two sessions share 1 B/s -> 20 s each, 10 s queueing.
        assert results[0][0] == pytest.approx(20.0)
        assert results[1][0] == pytest.approx(20.0)
        assert results[0][1] == pytest.approx(10.0)
        # Region b: alone on its pipe -> no contention at all.
        assert results[2][0] == pytest.approx(10.0)
        assert results[2][1] == pytest.approx(0.0)

    def _mixed(self):
        """Two WAN regions; some workers capped, some slow to reach, some neither."""
        topology = LinkTopology(
            regions=(
                RegionLink("west", bandwidth_gbps=0.01, latency_s=0.02),
                RegionLink("east", bandwidth_gbps=0.004, latency_s=0.05),
            ),
            # Sparse, unordered ids: the route table must not assume 0..n-1.
            worker_regions={7: "east", 0: "west", 3: "east", 12: "west", 5: "west", 9: "east"},
            worker_bandwidth_gbps={3: 0.001, 12: 0.5, 5: 0.002},
            worker_latency_s={7: 0.01, 5: 0.03},
        )
        return CostModel(bandwidth_gbps=0.1, latency_s=0.001), topology

    def test_batch_pricing_equals_the_scalar_methods(self):
        cost, topology = self._mixed()
        fabric = LinkFabric(cost, topology)
        worker_ids = [5, 0, 9, 3, 12, 7, 5]
        nbytes = np.array([3520.0, 0.0, 1.0, 2.0**20 + 0.5, 250.0, 99370.0 * 4, 17.0])
        channel = np.array([0.5, 0.001, 0.25, 900.0, 0.002, 40.0, 0.0])
        assert fabric.solo_seconds_batch(worker_ids, nbytes).tolist() == [
            fabric.solo_seconds(w, b) for w, b in zip(worker_ids, nbytes.tolist())
        ]
        assert fabric.uplink_seconds_batch(worker_ids, nbytes, channel).tolist() == [
            fabric.uplink_seconds(w, b, c)
            for w, b, c in zip(worker_ids, nbytes.tolist(), channel.tolist())
        ]
        with pytest.raises(ConfigurationError, match="worker 4 has no region"):
            fabric.solo_seconds_batch([0, 4], np.array([1.0, 1.0]))

    @pytest.mark.parametrize("sharing", ["none", "fair", "fifo"])
    def test_simulate_equals_per_region_scheduler_simulate(self, sharing):
        cost, topology = self._mixed()
        fabric = LinkFabric(cost, topology, sharing=sharing)
        jobs = [
            (0.0, 3520.0, 5), (0.0, 3520.0, 7), (0.0, 3520.0, 0), (0.25, 880.0, 3),
            (0.0, 3520.0, 9), (0.01, 0.0, 12), (0.0, 3520.0, 12), (0.01, 7040.0, 0),
            (0.3, 3520.0, 7), (0.0, 1e-7, 3),
        ]
        schedule = fabric.simulate(jobs)
        assert schedule.shape == (len(jobs), 2)
        expected = [None] * len(jobs)
        for region in fabric.region_names():
            rows = [i for i, job in enumerate(jobs) if fabric.region_of(job[2]) == region]
            resolved = fabric.scheduler_for(region).simulate(
                [jobs[i][:2] for i in rows],
                session_kwargs=[fabric.session_kwargs(jobs[i][2]) for i in rows],
            )
            for i, outcome in zip(rows, resolved):
                expected[i] = outcome
        assert [tuple(row) for row in schedule.tolist()] == expected  # input order
        # The same jobs as an (n, 3) array are the same call.
        assert (fabric.simulate(np.array(jobs)) == schedule).all()

    def test_simulate_validates_on_the_array_path(self):
        cost, topology = self._mixed()
        fabric = LinkFabric(cost, topology, sharing="fair")
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="nbytes"):
                fabric.simulate([(0.0, 10.0, 0), (0.0, bad, 5)])
            with pytest.raises(ConfigurationError, match="now"):
                fabric.simulate([(bad, 10.0, 0)])
        with pytest.raises(ConfigurationError, match="cannot move backwards"):
            fabric.simulate([(-1.0, 10.0, 0)])
        with pytest.raises(ConfigurationError, match="worker 4 has no region"):
            fabric.simulate([(0.0, 10.0, 4)])
        assert fabric.simulate([]).shape == (0, 2)
        # No topology: one symmetric pipe, any worker id.
        plain = LinkFabric(cost, None, sharing="fair").simulate([(0.0, 10.0, 4), (0.0, 10.0, 99)])
        assert plain.tolist() == [list(pair) for pair in LinkScheduler(
            bandwidth_gbps=cost.bandwidth_gbps, latency_s=cost.latency_s, sharing="fair"
        ).simulate([(0.0, 10.0), (0.0, 10.0)])]

    def test_region_scheduler_caps_at_cost_model_bandwidth(self):
        cost = CostModel(bandwidth_gbps=8e-9)  # 1 B/s server NIC
        topology = LinkTopology(
            regions=(RegionLink("over", bandwidth_gbps=1.0),),
            worker_regions={0: "over"},
        )
        fabric = LinkFabric(cost, topology)
        # A region faster than the server NIC cannot beat the NIC.
        assert fabric.scheduler_for("over").capacity == pytest.approx(1.0)


def _build(tiny_dataset, tiny_model_kwargs, **overrides):
    kwargs = dict(
        model="mlp",
        model_kwargs=tiny_model_kwargs,
        dataset=tiny_dataset,
        gar="average",
        num_workers=4,
        batch_size=16,
        learning_rate=5e-3,
        seed=123,
    )
    kwargs.update(overrides)
    return build_trainer(**kwargs)


class TestTopologyTraining:
    def test_wan_profile_slows_training_even_without_sharing(
        self, tiny_dataset, tiny_model_kwargs
    ):
        base = _build(tiny_dataset, tiny_model_kwargs)
        wan = _build(tiny_dataset, tiny_model_kwargs, link_profile="wan:2x1mbit")
        h_base = base.run(TrainerConfig(max_steps=3, eval_every=0))
        h_wan = wan.run(TrainerConfig(max_steps=3, eval_every=0))
        # Same trajectory (loss-free links, full sync) but a slower wire.
        np.testing.assert_array_equal(base.server.parameters, wan.server.parameters)
        assert h_wan.total_time > h_base.total_time

    def test_fair_wan_contention_is_per_region(self, tiny_dataset, tiny_model_kwargs):
        trainer = _build(tiny_dataset, tiny_model_kwargs,
                         link_sharing="fair", link_profile="wan:2x1mbit")
        history = trainer.run(TrainerConfig(max_steps=3, eval_every=0))
        regions = history.region_queueing_summary()
        assert set(regions) == {"region0", "region1"}
        assert all(delay > 0 for delay in regions.values())

    def test_lone_region_worker_records_no_queueing(
        self, tiny_dataset, tiny_model_kwargs
    ):
        topology = LinkTopology(
            regions=(RegionLink("crowd", bandwidth_gbps=1e-3),
                     RegionLink("lone", bandwidth_gbps=1e-3)),
            worker_regions={0: "crowd", 1: "crowd", 2: "crowd", 3: "lone"},
        )
        trainer = _build(tiny_dataset, tiny_model_kwargs,
                         link_sharing="fair", link_topology=topology)
        history = trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        timelines = history.worker_timelines
        # Workers sharing the crowded bottleneck queue; the lone worker never does.
        assert all(timelines[w].queueing_delay_seconds > 0 for w in (0, 1, 2))
        assert timelines[3].queueing_delay_seconds == 0.0
        assert "lone" not in history.region_queueing_summary()

    def test_async_wan_run_is_deterministic(self, tiny_dataset, tiny_model_kwargs):
        params = []
        for _ in range(2):
            trainer = _build(tiny_dataset, tiny_model_kwargs,
                             mode="async", sync_policy="quorum", max_version_lag=3,
                             link_sharing="fifo", link_profile="wan:2x1mbit/5ms")
            trainer.run(TrainerConfig(max_steps=5, eval_every=0))
            params.append(trainer.server.parameters)
        np.testing.assert_array_equal(params[0], params[1])

    def test_profile_and_topology_mutually_exclusive(
        self, tiny_dataset, tiny_model_kwargs
    ):
        topology = LinkTopology(
            regions=(RegionLink("eu"),),
            worker_regions={i: "eu" for i in range(4)},
        )
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            _build(tiny_dataset, tiny_model_kwargs,
                   link_profile="wan:2x1mbit", link_topology=topology)

    def test_topology_must_cover_all_workers(self, tiny_dataset, tiny_model_kwargs):
        topology = LinkTopology(
            regions=(RegionLink("eu"),), worker_regions={0: "eu"}
        )
        with pytest.raises(ConfigurationError, match="no region"):
            _build(tiny_dataset, tiny_model_kwargs, link_topology=topology)

    def test_cluster_spec_link_profile_roundtrips_and_applies(
        self, tiny_dataset, tiny_model_kwargs
    ):
        spec = ClusterSpec.homogeneous(5)
        spec.link_profile = "wan:2x1mbit"
        rebuilt = ClusterSpec.from_dict(spec.to_dict())
        assert rebuilt.link_profile == "wan:2x1mbit"

        plain = _build(tiny_dataset, tiny_model_kwargs)
        via_spec = _build(tiny_dataset, tiny_model_kwargs, cluster=rebuilt)
        h_plain = plain.run(TrainerConfig(max_steps=2, eval_every=0))
        h_spec = via_spec.run(TrainerConfig(max_steps=2, eval_every=0))
        assert via_spec.link_topology is not None
        assert h_spec.total_time > h_plain.total_time
