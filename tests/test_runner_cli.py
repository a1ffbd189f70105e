"""Tests for the command-line runner (repro.runner)."""

import io
import json

import pytest

from repro import runner
from repro.exceptions import ConfigurationError


BASE_ARGS = [
    "--experiment", "mlp",
    "--experiment-args", "input_dim:8 num_classes:3 hidden:12",
    "--dataset", "blobs",
    "--dataset-args", "num_train:200 num_test:50 num_classes:3 dim:8",
    "--nb-workers", "5",
    "--batch-size", "16",
    "--max-step", "10",
    "--evaluation-delta", "5",
    "--learning-rate", "5e-3",
    "--seed", "0",
]


class TestParser:
    def test_defaults(self):
        args = runner.build_parser().parse_args([])
        assert args.aggregator == "multi-krum"
        assert args.nb_workers == 11
        assert args.optimizer == "rmsprop"

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(SystemExit):
            runner.build_parser().parse_args(["--optimizer", "lbfgs"])

    def test_kv_parsing(self):
        parsed = runner._parse_kv_args("a:1 b:2.5 c:hello")
        assert parsed == {"a": 1, "b": 2.5, "c": "hello"}

    def test_kv_parsing_malformed(self):
        with pytest.raises(ConfigurationError):
            runner._parse_kv_args("novalue")

    def test_kv_parsing_empty(self):
        assert runner._parse_kv_args("") == {}


class TestListings:
    def test_empty_aggregator_lists_options(self):
        stream = io.StringIO()
        result = runner.run(["--aggregator", ""], stream=stream)
        assert result == {"listed": "aggregators"}
        assert "multi-krum" in stream.getvalue()

    def test_empty_experiment_lists_models(self):
        stream = io.StringIO()
        result = runner.run(["--experiment", ""], stream=stream)
        assert result == {"listed": "experiments"}
        assert "cifar-cnn" in stream.getvalue()

    def test_empty_dataset_lists_datasets(self):
        stream = io.StringIO()
        result = runner.run(["--dataset", ""], stream=stream)
        assert result == {"listed": "datasets"}
        assert "blobs" in stream.getvalue()

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigurationError):
            runner.run(BASE_ARGS + ["--attack", "ddos"], stream=io.StringIO())


class TestClusterFlagHardening:
    def test_staleness_bound_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="--staleness-bound"):
            runner.run(
                BASE_ARGS + ["--sync-policy", "bounded-staleness", "--staleness-bound", "0"],
                stream=io.StringIO(),
            )

    def test_negative_staleness_bound_rejected(self):
        with pytest.raises(ConfigurationError, match="--staleness-bound"):
            runner.run(BASE_ARGS + ["--staleness-bound", "-3"], stream=io.StringIO())

    def test_quorum_size_below_resilience_floor_rejected(self):
        # n=5, f=1 -> the quorum must stay within [4, 5].
        with pytest.raises(ConfigurationError, match=r"quorum=3 .* n - f = 4"):
            runner.run(
                BASE_ARGS + ["--nb-decl-byz", "1", "--sync-policy", "quorum",
                             "--quorum-size", "3"],
                stream=io.StringIO(),
            )

    def test_quorum_size_above_cluster_size_rejected(self):
        with pytest.raises(ConfigurationError, match=r"quorum=6 exceeds .* n=5"):
            runner.run(
                BASE_ARGS + ["--sync-policy", "quorum", "--quorum-size", "6"],
                stream=io.StringIO(),
            )

    def test_quorum_size_in_range_accepted(self):
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "average", "--sync-policy", "quorum",
                         "--quorum-size", "5"],
            stream=io.StringIO(),
        )
        assert not summary["diverged"]

    def test_default_quorum_below_the_gar_minimum_fails_before_training(self):
        # The paper's deployment: Bulyan, n=19, f=4 -> default quorum 15 < 19.
        bulyan = BASE_ARGS + ["--aggregator", "bulyan", "--nb-workers", "19",
                              "--nb-decl-byz", "4", "--sync-policy", "quorum"]
        with pytest.raises(ConfigurationError, match=r"quorum=15 .* 19 gradients"):
            runner.run(bulyan, stream=io.StringIO())
        summary = runner.run(bulyan + ["--quorum-size", "19"], stream=io.StringIO())
        assert not summary["diverged"]

    def test_async_mode_with_full_sync_rejected(self):
        with pytest.raises(ConfigurationError, match="--mode async"):
            runner.run(BASE_ARGS + ["--mode", "async"], stream=io.StringIO())

    def test_flag_validation_happens_before_building(self):
        # Two things are wrong here; the first owner reached (the dataset
        # registry, before anything is built) reports, as a ConfigurationError.
        with pytest.raises(ConfigurationError, match="unknown dataset 'imagenet-64k'"):
            runner.run(
                BASE_ARGS + ["--mode", "async", "--dataset", "imagenet-64k"],
                stream=io.StringIO(),
            )


class TestCodecFlagValidation:
    """The --codec / --codec-k / --quantize-bits / --link-sharing matrix."""

    def test_codec_listing(self):
        stream = io.StringIO()
        result = runner.run(["--codec", ""], stream=stream)
        assert result == {"listed": "codecs"}
        assert "top-k" in stream.getvalue()
        assert "qsgd" in stream.getvalue()

    def test_codec_k_without_sparsifying_codec_rejected(self):
        with pytest.raises(ConfigurationError, match="codec_k only applies"):
            runner.run(BASE_ARGS + ["--codec-k", "10"], stream=io.StringIO())

    def test_codec_k_with_qsgd_rejected(self):
        with pytest.raises(ConfigurationError, match="codec_k only applies"):
            runner.run(
                BASE_ARGS + ["--codec", "qsgd", "--codec-k", "10"],
                stream=io.StringIO(),
            )

    def test_topk_without_codec_k_rejected(self):
        with pytest.raises(ConfigurationError, match="requires codec_k"):
            runner.run(BASE_ARGS + ["--codec", "top-k"], stream=io.StringIO())

    def test_non_positive_codec_k_rejected(self):
        with pytest.raises(ConfigurationError, match="k >= 1, got 0"):
            runner.run(
                BASE_ARGS + ["--codec", "top-k", "--codec-k", "0"],
                stream=io.StringIO(),
            )

    def test_quantize_bits_without_qsgd_rejected(self):
        with pytest.raises(ConfigurationError, match="quantize_bits only applies"):
            runner.run(BASE_ARGS + ["--quantize-bits", "4"], stream=io.StringIO())
        with pytest.raises(ConfigurationError, match="quantize_bits only applies"):
            runner.run(
                BASE_ARGS + ["--codec", "top-k", "--codec-k", "5",
                             "--quantize-bits", "4"],
                stream=io.StringIO(),
            )

    def test_quantize_bits_out_of_range_rejected(self):
        for bits in ("0", "17", "-3"):
            with pytest.raises(ConfigurationError, match=r"\[1, 16\]"):
                runner.run(
                    BASE_ARGS + ["--codec", "qsgd", "--quantize-bits", bits],
                    stream=io.StringIO(),
                )

    def test_unknown_link_sharing_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            runner.build_parser().parse_args(["--link-sharing", "weighted"])

    def test_topk_run_with_fair_sharing(self):
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "average", "--codec", "top-k",
                         "--codec-k", "10", "--link-sharing", "fair"],
            stream=io.StringIO(),
        )
        assert not summary["diverged"]
        assert summary["configuration"]["codec"] == "top-k"
        assert summary["configuration"]["link_sharing"] == "fair"
        assert summary["wire"]["wire_bytes"] > 0
        assert summary["wire"]["queueing_delay_seconds"] > 0

    def test_qsgd_run(self):
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "average", "--codec", "qsgd",
                         "--quantize-bits", "6"],
            stream=io.StringIO(),
        )
        assert not summary["diverged"]
        assert summary["configuration"]["quantize_bits"] == 6


class TestBroadcastAndLinkProfileFlags:
    """The --broadcast-codec / --broadcast-k / --broadcast-bits / --link-profile matrix."""

    def test_broadcast_codec_listing(self):
        stream = io.StringIO()
        result = runner.run(["--broadcast-codec", ""], stream=stream)
        assert result == {"listed": "broadcast-codecs"}
        assert "identity" in stream.getvalue()

    def test_broadcast_k_without_codec_rejected(self):
        with pytest.raises(ConfigurationError, match="broadcast_k"):
            runner.run(BASE_ARGS + ["--broadcast-k", "10"], stream=io.StringIO())

    def test_broadcast_bits_without_codec_rejected(self):
        with pytest.raises(ConfigurationError, match="broadcast_bits"):
            runner.run(BASE_ARGS + ["--broadcast-bits", "4"], stream=io.StringIO())

    def test_broadcast_k_with_identity_rejected(self):
        with pytest.raises(ConfigurationError, match="broadcast_k only applies"):
            runner.run(
                BASE_ARGS + ["--broadcast-codec", "identity", "--broadcast-k", "5"],
                stream=io.StringIO(),
            )

    def test_topk_broadcast_without_k_rejected(self):
        with pytest.raises(ConfigurationError, match="requires broadcast_k"):
            runner.run(
                BASE_ARGS + ["--broadcast-codec", "top-k"], stream=io.StringIO()
            )

    def test_broadcast_bits_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\[1, 16\]"):
            runner.run(
                BASE_ARGS + ["--broadcast-codec", "qsgd", "--broadcast-bits", "20"],
                stream=io.StringIO(),
            )

    def test_unknown_broadcast_codec_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown broadcast_codec 'gzip'"):
            runner.run(
                BASE_ARGS + ["--broadcast-codec", "gzip"], stream=io.StringIO()
            )

    def test_malformed_link_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="link profile"):
            runner.run(
                BASE_ARGS + ["--link-profile", "wan:fast"], stream=io.StringIO()
            )

    def test_delta_broadcast_run_on_wan_profile(self):
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "average",
                         "--broadcast-codec", "top-k", "--broadcast-k", "10",
                         "--link-profile", "wan:2x1mbit", "--link-sharing", "fair"],
            stream=io.StringIO(),
        )
        assert not summary["diverged"]
        assert summary["configuration"]["broadcast_codec"] == "top-k"
        assert summary["configuration"]["link_profile"] == "wan:2x1mbit"
        assert summary["wire"]["bytes_received_delta"] > 0
        assert summary["wire"]["downlink_bytes"] > 0
        assert set(summary["region_queueing"]) == {"region0", "region1"}

    def test_identity_broadcast_matches_raw_summary(self):
        raw = runner.run(BASE_ARGS + ["--aggregator", "average"],
                         stream=io.StringIO())
        delta = runner.run(
            BASE_ARGS + ["--aggregator", "average", "--broadcast-codec", "identity"],
            stream=io.StringIO(),
        )
        assert raw["final_accuracy"] == delta["final_accuracy"]
        assert raw["total_time"] == delta["total_time"]
        assert raw["wire"]["bytes_received"] == delta["wire"]["bytes_received"]


class TestServerTopologyFlag:
    """--server-topology: every spelling runs on the one ServerFabric."""

    def test_shards1_gives_the_default_summary(self):
        plain = runner.run(BASE_ARGS + ["--aggregator", "average"], stream=io.StringIO())
        shards1 = runner.run(
            BASE_ARGS + ["--aggregator", "average", "--server-topology", "shards:1"],
            stream=io.StringIO(),
        )
        assert shards1.pop("configuration")["server_topology"] == "shards:1"
        assert plain.pop("configuration")["server_topology"] is None
        assert shards1 == plain
        assert not any(plain["interserver"].values())

    def test_shards2_books_the_interserver_gather(self):
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "average", "--server-topology", "shards:2"],
            stream=io.StringIO(),
        )
        assert summary["interserver"]["gather_sessions"] > 0
        assert summary["interserver"]["gather_bytes"] > 0

    def test_malformed_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed server topology"):
            runner.run(BASE_ARGS + ["--server-topology", "mesh:3"], stream=io.StringIO())

    def test_region_sharded_needs_a_wan_profile(self):
        with pytest.raises(ConfigurationError, match="link_profile"):
            runner.run(
                BASE_ARGS + ["--server-topology", "region-sharded"], stream=io.StringIO()
            )

    def test_async_sharded_run_replays_deterministically(self):
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "average", "--mode", "async",
                         "--sync-policy", "quorum", "--server-topology", "shards:2",
                         "--determinism-check"],
            stream=io.StringIO(),
        )
        assert summary["determinism_check"] == "ok"
        assert summary["interserver"]["gather_sessions"] > 0


class TestServerComputeFlags:
    def test_server_cores_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="server_cores"):
            runner.run(BASE_ARGS + ["--server-cores", "0"], stream=io.StringIO())

    def test_measured_aggregation_with_determinism_check_rejected(self):
        # Regression (PR-5): measured mode times the host wall-clock inside
        # the simulation — silently machine-dependent, so replay verification
        # must refuse it rather than report spurious nondeterminism.
        with pytest.raises(ConfigurationError, match="--measured-aggregation"):
            runner.run(
                BASE_ARGS + ["--measured-aggregation", "--determinism-check"],
                stream=io.StringIO(),
            )

    def test_measured_plus_determinism_rejected_before_building(self):
        # Bad flag combinations must fail fast even with an absurd workload.
        with pytest.raises(ConfigurationError):
            runner.run(
                BASE_ARGS
                + ["--measured-aggregation", "--determinism-check",
                   "--nb-workers", "100000", "--max-step", "10000000"],
                stream=io.StringIO(),
            )

    def test_distance_cache_run_matches_uncached_accuracy(self):
        base = runner.run(
            BASE_ARGS + ["--aggregator", "multi-krum"], stream=io.StringIO()
        )
        cached = runner.run(
            BASE_ARGS + ["--aggregator", "multi-krum", "--distance-cache", "on",
                         "--server-cores", "4"],
            stream=io.StringIO(),
        )
        # Lock-step gradients are bit-identical with the cache on; only the
        # simulated aggregation pricing changes.
        assert cached["final_accuracy"] == base["final_accuracy"]
        assert cached["distance_cache"]["miss_pairs"] > 0
        assert base["distance_cache"]["miss_pairs"] == 0
        assert (
            cached["latency_breakdown"]["aggregation"]
            < base["latency_breakdown"]["aggregation"]
        )
        assert cached["configuration"]["server_cores"] == 4
        assert cached["configuration"]["distance_cache"] == "on"

    def test_determinism_check_passes_on_deterministic_run(self):
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "average", "--determinism-check"],
            stream=io.StringIO(),
        )
        assert summary["determinism_check"] == "ok"

    def test_measured_aggregation_run(self):
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "multi-krum", "--measured-aggregation"],
            stream=io.StringIO(),
        )
        assert summary["configuration"]["measured_aggregation"] is True
        assert summary["latency_breakdown"]["aggregation"] > 0

    def test_retired_implementation_flags_are_gone(self, capsys):
        """``--no-vectorized`` / ``--gar-selection`` selected paths that no longer exist."""
        for flags in (["--no-vectorized"], ["--gar-selection", "loop"]):
            with pytest.raises(SystemExit) as exit_info:
                runner.run(BASE_ARGS + flags, stream=io.StringIO())
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "bulyan", "--nb-workers", "11",
                         "--nb-decl-byz", "2"],
            stream=io.StringIO(),
        )
        assert not {"vectorized", "gar_selection"} & set(summary["configuration"])


class TestEndToEnd:
    def test_average_run(self, tmp_path):
        stream = io.StringIO()
        output = tmp_path / "result.json"
        summary = runner.run(
            BASE_ARGS + ["--aggregator", "average", "--output", str(output)], stream=stream
        )
        assert summary["num_updates"] == 10
        assert not summary["diverged"]
        assert json.loads(output.read_text())["configuration"]["aggregator"] == "average"
        assert "final accuracy" in stream.getvalue()

    def test_byzantine_run_with_multikrum(self):
        stream = io.StringIO()
        summary = runner.run(
            BASE_ARGS
            + [
                "--aggregator", "multi-krum",
                "--nb-workers", "9",
                "--nb-real-byz", "2",
                "--nb-decl-byz", "2",
                "--attack", "reversed-gradient",
            ],
            stream=stream,
        )
        assert not summary["diverged"]
        assert summary["configuration"]["attack"] == "reversed-gradient"

    def test_checkpointing_run(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpts"
        summary = runner.run(
            BASE_ARGS
            + [
                "--aggregator", "average",
                "--checkpoint-delta", "5",
                "--checkpoint-dir", str(checkpoint_dir),
            ],
            stream=io.StringIO(),
        )
        assert summary["num_updates"] == 10
        checkpoints = sorted(checkpoint_dir.glob("*.npz"))
        assert len(checkpoints) == 2

    def test_summary_csv_export(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        runner.run(
            BASE_ARGS + ["--aggregator", "average", "--summary-csv", str(csv_path)],
            stream=io.StringIO(),
        )
        assert csv_path.exists()
        assert "accuracy" in csv_path.read_text().splitlines()[0]

    def test_async_mode_run(self, tmp_path):
        output = tmp_path / "async.json"
        summary = runner.run(
            BASE_ARGS
            + [
                "--aggregator", "multi-krum",
                "--nb-workers", "9",
                "--nb-decl-byz", "2",
                "--mode", "async",
                "--sync-policy", "quorum",
                "--max-version-lag", "3",
                "--straggler-model", "pareto",
                "--output", str(output),
            ],
            stream=io.StringIO(),
        )
        assert not summary["diverged"]
        assert summary["configuration"]["mode"] == "async"
        assert summary["configuration"]["max_version_lag"] == 3
        payload = json.loads(output.read_text())
        assert payload["server_utilisation"]["busy_fraction"] > 0
        assert all(int(lag) <= 3 for lag in payload["version_lag_histogram"])

    def test_lossy_run(self):
        summary = runner.run(
            BASE_ARGS
            + [
                "--aggregator", "multi-krum",
                "--nb-workers", "9",
                "--nb-decl-byz", "2",
                "--lossy-links", "2",
                "--drop-rate", "0.1",
                "--recovery-policy", "random-fill",
            ],
            stream=io.StringIO(),
        )
        assert not summary["diverged"]

    def test_main_returns_error_code_on_bad_configuration(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["repro.runner", "--attack", "ddos"])
        assert runner.main() == 1
