"""Smoke + shape tests for the per-figure experiment drivers (CI profile, short runs)."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    byzantine_attacks,
    ci_profile,
    corrupted_data,
    cost_analysis,
    dropped_packets,
    impact_f,
    latency,
    overhead,
    scalability,
    table1,
    telemetry_series,
)
from repro.experiments.runners import (
    SYSTEM_GARS,
    resolve_k_fractions,
    run_deployment,
    run_system,
)


@pytest.fixture(scope="module")
def fast_profile():
    """A very short CI profile so every driver runs in a few seconds."""
    return ci_profile(max_steps=15, eval_every=5)


@pytest.fixture(scope="module")
def fast_dataset(fast_profile):
    return fast_profile.make_dataset()


class TestRunners:
    def test_run_deployment_fills_the_profile_and_applies_overrides(self, fast_profile, fast_dataset):
        trainer = run_deployment(fast_profile, fast_dataset, max_steps=3, num_workers=7, gar="median")
        assert len(trainer.workers) == 7
        assert trainer.server.step == 3
        assert trainer.server.gar.f == fast_profile.f
        assert [e.step for e in trainer.history.evaluations] == [3]

    def test_k_fractions_resolve_against_the_model_dimension(self, fast_profile):
        from repro.nn.models.registry import make_model

        dim = make_model(fast_profile.model, rng=0, **fast_profile.model_kwargs).num_parameters
        entries = (("raw", None, {}), ("top-k/8", "top-k", {"k_fraction": 1 / 8, "other": 1}))
        assert resolve_k_fractions(fast_profile, entries, "codec_k") == [
            {}, {"codec_k": dim // 8, "other": 1}]

    def test_experiments_build_a_deployment_in_one_place(self):
        """One ``build_trainer`` call site in the drivers, and no driver CLI."""
        package = Path(__file__).resolve().parents[1] / "src" / "repro" / "experiments"
        calls, clis = [], []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "build_trainer":
                    calls.append(path.name)
                if isinstance(node, ast.FunctionDef) and node.name in ("main", "_smoke"):
                    clis.append((path.name, node.name))
                if isinstance(node, ast.Import) and any(a.name == "argparse" for a in node.names):
                    clis.append((path.name, "argparse"))
        assert calls == ["runners.py"]
        assert clis == []

    def test_known_systems(self):
        assert {"tf", "average", "median", "multi-krum", "bulyan"} <= set(SYSTEM_GARS)

    def test_unknown_system_rejected(self, fast_profile, fast_dataset):
        with pytest.raises(ConfigurationError):
            run_system(fast_profile, "paxos", fast_dataset)

    @pytest.mark.parametrize("system", ["tf", "multi-krum", "bulyan", "draco"])
    def test_each_system_trains(self, fast_profile, fast_dataset, system):
        history = run_system(fast_profile, system, fast_dataset, max_steps=5, eval_every=5)
        assert history.num_updates == 5
        assert history.total_time > 0


class TestTable1:
    def test_parameter_count_matches_paper(self):
        results = table1.run_table1()
        assert results["total_parameters"] == 1_756_426
        assert abs(results["total_parameters"] - results["paper_reported_parameters"]) < 2e4
        assert len(results["layers"]) == 12

    def test_format(self):
        text = table1.format_results(table1.run_table1())
        assert "Table 1" in text and "TOTAL" in text


class TestOverhead:
    def test_runs_and_summarises(self, fast_profile):
        results = overhead.run_overhead(
            fast_profile, systems=("tf", "multi-krum"), batch_sizes=[16]
        )
        assert set(results["panels"]) == {16}
        assert len(results["panels"][16]) == 2
        rows = overhead.overhead_summary(results)
        tf_row = next(r for r in rows if r["system"] == "tf")
        mk_row = next(r for r in rows if r["system"] == "multi-krum")
        assert tf_row["overhead_vs_tf"] == pytest.approx(0.0)
        assert np.isfinite(mk_row["overhead_vs_tf"])
        assert "Figure 3" in overhead.format_results(results)


class TestLatency:
    def test_breakdown_ordering(self, fast_profile):
        results = latency.run_latency_breakdown(fast_profile, max_steps=5)
        shares = {b["system"]: b["aggregation_share"] for b in results["breakdowns"]}
        # Robust aggregation costs more: Bulyan > Multi-Krum > Median > TF.
        assert shares["bulyan"] > shares["multi-krum"] > shares["median"] > shares["tf"]
        assert "Figure 4" in latency.format_results(results)


class TestScalability:
    def test_throughput_decreases_with_workers_for_robust_gar(self, fast_profile):
        results = scalability.run_throughput_sweep(
            fast_profile,
            worker_counts=(5, 11),
            curves=(("average", None), ("multi-krum", 1)),
            steps_per_point=3,
        )
        mk_curve = dict(scalability.throughput_curve(results, "multi-krum", 1))
        avg_curve = dict(scalability.throughput_curve(results, "average", None))
        # At the larger cluster, Multi-Krum's throughput lags averaging's.
        assert mk_curve[11] < avg_curve[11]
        assert "Figure 5" in scalability.format_results(results)

    def test_draco_order_of_magnitude_slower(self, fast_profile):
        results = scalability.run_throughput_sweep(
            fast_profile,
            worker_counts=(11,),
            curves=(("average", None), ("draco", 2)),
            steps_per_point=3,
        )
        avg = scalability.throughput_curve(results, "average", None)[0][1]
        draco = scalability.throughput_curve(results, "draco", 2)[0][1]
        assert draco < avg / 5

    def test_invalid_steps(self, fast_profile):
        with pytest.raises(ConfigurationError):
            scalability.run_throughput_sweep(fast_profile, steps_per_point=0)

    @pytest.mark.parametrize(
        "system, f, expected",
        [
            ("average", None, 2),
            ("multi-krum", None, 2),
            ("draco", 2, 5),
            ("krum", 2, 7),
            ("multi-krum", 1, 5),
            ("multi-krum", 8, 19),
            ("bulyan", 1, 7),
            ("bulyan", 4, 19),
        ],
    )
    def test_min_workers_asks_the_registered_rule(self, system, f, expected):
        # Draco keeps its own 2f + 1; every GAR answers with its minimum_workers.
        assert scalability._min_workers(system, f) == expected


class TestImpactF:
    def test_runs_all_curves(self, fast_profile):
        results = impact_f.run_impact_of_f(
            fast_profile, curves=(("multi-krum", 1), ("bulyan", 2)), batch_sizes=[16]
        )
        assert len(results["summaries"]) == 2
        assert "Figure 6" in impact_f.format_results(results)

    def test_bulyan_faster_with_larger_f(self, fast_profile, fast_dataset):
        """Fewer Bulyan iterations with larger declared f -> higher throughput."""
        slow = run_system(fast_profile, "bulyan", fast_dataset, f=1, max_steps=5, eval_every=0)
        fast = run_system(fast_profile, "bulyan", fast_dataset, f=2, max_steps=5, eval_every=0)
        assert fast.throughput() > slow.throughput()


class TestCorruptedData:
    def test_aggregathor_beats_poisoned_tf(self, fast_profile):
        profile = fast_profile.with_overrides(max_steps=40, eval_every=10)
        results = corrupted_data.run_corrupted_data(profile)
        summaries = {s["system"]: s for s in results["summaries"]}
        assert summaries["aggregathor"]["final_accuracy"] >= summaries["tf"]["final_accuracy"]
        assert "Figure 7" in corrupted_data.format_results(results)


class TestDroppedPackets:
    @pytest.mark.parametrize("n, expected", [(1, 1), (3, 1), (5, 1), (7, 2), (11, 4), (19, 8)])
    def test_f_is_the_multi_krum_maximum_floored_at_one(self, n, expected):
        # f = 8 at the paper's n = 19; a cluster too small for Multi-Krum still
        # declares one Byzantine worker.
        assert dropped_packets._multi_krum_f(n) == expected

    def test_clean_panel_all_converge(self, fast_profile):
        results = dropped_packets.run_dropped_packets_clean(fast_profile)
        for summary in results["summaries"]:
            assert not summary["diverged"]
        assert "Figure 8" in dropped_packets.format_results(results)

    def test_lossy_panel_aggregathor_faster_than_tcp(self, fast_profile):
        results = dropped_packets.run_dropped_packets_lossy(fast_profile, drop_rate=0.10)
        summaries = {s["system"]: s for s in results["summaries"]}
        # UDP transport is faster than TCP under loss for the same number of steps.
        assert summaries["aggregathor-udp"]["total_time"] < summaries["tf-grpc"]["total_time"]
        speed = dropped_packets.speedup_to_accuracy(results, 0.3)
        assert speed["speedup_aggregathor_vs_tf_grpc"] > 1.0


class TestByzantineAttackGrid:
    def test_grid_shapes_and_robustness(self, fast_profile):
        profile = fast_profile.with_overrides(max_steps=25, eval_every=5)
        results = byzantine_attacks.run_attack_grid(
            profile,
            attacks=(("reversed-gradient", {"scale": 100.0}),),
            defences=("average", "multi-krum"),
        )
        cells = {(c["defence"], c["attack"]): c for c in results["cells"]}
        assert len(cells) == 2
        mk = cells[("multi-krum", "reversed-gradient")]
        avg = cells[("average", "reversed-gradient")]
        assert mk["final_accuracy"] > avg["final_accuracy"]
        assert results["attack_cost_lower_bound_ops"] > 0
        assert "defence" in byzantine_attacks.format_results(results)


class TestCostAnalysis:
    def test_scaling_exponents(self):
        results = cost_analysis.run_cost_analysis(
            f=1, dims=(4_000, 32_000, 256_000), worker_counts=(7, 11, 15), repeats=2
        )
        d_slope = cost_analysis.scaling_exponent(results, "multi-krum", "d")
        assert 0.7 < d_slope < 1.5  # linear in d once d dominates the constant costs
        assert results["analytic_slowdowns"]["weak (Multi-Krum)"] > results[
            "analytic_slowdowns"
        ]["strong (AggregaThor)"]
        assert "Cost analysis" in cost_analysis.format_results(results)

    def test_invalid_axis(self):
        results = cost_analysis.run_cost_analysis(f=1, dims=(500, 1000), worker_counts=(7,), repeats=1)
        with pytest.raises(ConfigurationError):
            cost_analysis.scaling_exponent(results, "multi-krum", "q")


class TestBroadcastScaling:
    def test_sweep_reports_downlink_savings(self, fast_profile):
        from repro.experiments import broadcast_scaling

        results = broadcast_scaling.run_broadcast_scaling(
            fast_profile,
            link_profile="wan:3x1mbit",
            max_steps=6,
            lineup=(
                ("raw", None, {}),
                ("delta-top-k/8", "top-k", {"k_fraction": 1 / 8}),
            ),
        )
        by_label = {s["label"]: s for s in results["summaries"]}
        assert not any(s["diverged"] for s in results["summaries"])
        assert (
            by_label["delta-top-k/8"]["downlink_bytes"]
            < by_label["raw"]["downlink_bytes"]
        )
        assert by_label["raw"]["region_queueing"]  # WAN contention recorded
        text = broadcast_scaling.format_results(results)
        assert "Delta broadcasts" in text and "raw" in text

    def test_wan_async_replay_is_deterministic(self):
        """Delta framing, per-region contention and event rescheduling replay from the seed."""
        from repro.experiments import broadcast_scaling

        profile = ci_profile(max_steps=6, eval_every=3)

        def one_run() -> str:
            results = broadcast_scaling.run_broadcast_scaling(
                profile,
                lineup=(("delta-top-k/8", "top-k", {"k_fraction": 1 / 8}),),
                mode="async",
                sync_policy="quorum",
                max_version_lag=3,
                link_profile="wan:3x1mbit/5ms",
                link_sharing="fair",
            )
            history = results["results"][0]["history"]
            payload = telemetry_series(history)
            payload["final_accuracy"] = history.final_accuracy
            payload["total_time"] = history.total_time
            payload["steps"] = [
                (r.step, r.sim_time, r.wire_bytes, r.downlink_bytes) for r in history.steps
            ]
            return json.dumps(payload, sort_keys=True)

        assert one_run() == one_run()
