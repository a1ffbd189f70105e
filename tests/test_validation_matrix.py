"""One validation site per constraint: the CLI and the API refuse alike.

Every row of :data:`INVALID` is one invalid deployment spelled twice — as
``build_trainer`` keywords and as ``repro.runner`` flags.  The runner adds no
check of its own on top of the layer that owns a constraint, so both spellings
must raise a ``ConfigurationError`` with the *same* text; a row whose two
messages differ means somebody re-validated above the owner.
"""

import io

import pytest

from repro import runner
from repro.cluster import build_trainer
from repro.data.datasets import load_dataset
from repro.exceptions import ConfigurationError

DATASET_KWARGS = {"num_train": 120, "num_test": 30, "num_classes": 3, "dim": 8}
MODEL_KWARGS = {"input_dim": 8, "num_classes": 3}
BASE_KWARGS = {"model": "mlp", "model_kwargs": MODEL_KWARGS, "num_workers": 11}
BASE_ARGV = [
    "--experiment-args", "input_dim:8 num_classes:3",
    "--dataset-args", "num_train:120 num_test:30 num_classes:3 dim:8",
    "--nb-workers", "11", "--max-step", "2", "--evaluation-delta", "0",
]

#: ``(id, build_trainer keywords, runner flags)``, both on top of the bases
#: above.  ``dataset_kwargs`` is not a ``build_trainer`` keyword: it is what
#: the runner hands to ``load_dataset``.  ``None`` marks a spelling that does
#: not exist (argparse ``choices`` already refuse it / a CLI-only concept).
INVALID = [
    # --- wire codec x k x bits (owner: make_codec + the codec constructors)
    ("codec_k-identity", {"codec_k": 10}, ["--codec-k", "10"]),
    ("codec_k-qsgd", {"codec": "qsgd", "codec_k": 10}, ["--codec", "qsgd", "--codec-k", "10"]),
    ("topk-without-k", {"codec": "top-k"}, ["--codec", "top-k"]),
    ("topk-k-zero", {"codec": "top-k", "codec_k": 0}, ["--codec", "top-k", "--codec-k", "0"]),
    ("bits-identity", {"quantize_bits": 4}, ["--quantize-bits", "4"]),
    ("bits-topk", {"codec": "top-k", "codec_k": 5, "quantize_bits": 4},
     ["--codec", "top-k", "--codec-k", "5", "--quantize-bits", "4"]),
    ("bits-out-of-range", {"codec": "qsgd", "quantize_bits": 17},
     ["--codec", "qsgd", "--quantize-bits", "17"]),
    ("unknown-codec", {"codec": "gzip"}, ["--codec", "gzip"]),
    # --- the broadcast twin (same owner, told the broadcast_* spellings)
    ("broadcast_k-no-codec", {"broadcast_k": 10}, ["--broadcast-k", "10"]),
    ("broadcast_bits-no-codec", {"broadcast_bits": 4}, ["--broadcast-bits", "4"]),
    ("broadcast_k-identity", {"broadcast_codec": "identity", "broadcast_k": 5},
     ["--broadcast-codec", "identity", "--broadcast-k", "5"]),
    ("broadcast-topk-without-k", {"broadcast_codec": "top-k"}, ["--broadcast-codec", "top-k"]),
    ("broadcast_bits-topk", {"broadcast_codec": "top-k", "broadcast_k": 5, "broadcast_bits": 4},
     ["--broadcast-codec", "top-k", "--broadcast-k", "5", "--broadcast-bits", "4"]),
    ("broadcast_bits-out-of-range", {"broadcast_codec": "qsgd", "broadcast_bits": 20},
     ["--broadcast-codec", "qsgd", "--broadcast-bits", "20"]),
    ("unknown-broadcast-codec", {"broadcast_codec": "gzip"}, ["--broadcast-codec", "gzip"]),
    # --- quorum range and the GAR's minimum batch (owner: QuorumBasedPolicy.bind)
    ("quorum-below-n-f", {"declared_f": 2, "sync_policy": "quorum", "sync_kwargs": {"quorum": 3}},
     ["--nb-decl-byz", "2", "--sync-policy", "quorum", "--quorum-size", "3"]),
    ("quorum-above-n", {"sync_policy": "bounded-staleness", "sync_kwargs": {"quorum": 12}},
     ["--sync-policy", "bounded-staleness", "--quorum-size", "12"]),
    ("quorum-below-gar-minimum",
     {"gar": "bulyan", "num_workers": 19, "declared_f": 4, "sync_policy": "quorum"},
     ["--aggregator", "bulyan", "--nb-workers", "19", "--nb-decl-byz", "4",
      "--sync-policy", "quorum"]),
    # --- async x full-sync (owner: SyncPolicy.admission)
    ("async-full-sync", {"mode": "async"}, ["--mode", "async"]),
    ("negative-version-lag", {"mode": "async", "sync_policy": "quorum", "max_version_lag": -1},
     ["--mode", "async", "--sync-policy", "quorum", "--max-version-lag", "-1"]),
    # --- server side (owners: CostModel, parse_server_topology, ServerFabric)
    ("server-cores-zero", {"server_cores": 0}, ["--server-cores", "0"]),
    ("region-sharded-without-wan", {"server_topology": "region-sharded"},
     ["--server-topology", "region-sharded"]),
    ("region-sharded-symmetric",
     {"server_topology": "region-sharded", "link_profile": "symmetric"},
     ["--server-topology", "region-sharded", "--link-profile", "symmetric"]),
    ("unknown-topology", {"server_topology": "mesh:3"}, ["--server-topology", "mesh:3"]),
    ("more-shards-than-parameters", {"server_topology": "shards:100000"},
     ["--server-topology", "shards:100000"]),
    # --- link layer
    ("malformed-link-profile", {"link_profile": "wan:fast"}, ["--link-profile", "wan:fast"]),
    ("more-regions-than-workers", {"link_profile": "wan:12x1mbit"},
     ["--link-profile", "wan:12x1mbit"]),
    ("link-sharing", {"link_sharing": "weighted"}, None),
    # --- per-worker link maps (owner: build_trainer; neither has a runner flag)
    ("negative-link-jitter", {"link_jitters": {3: -0.1}}, None),
    ("link-jitter-id-out-of-range", {"link_jitters": {42: 0.1}}, None),
    ("link-delay-on-a-byzantine-id",
     {"num_byzantine": 2, "attack": "sign-flip", "link_delays": {1: 0.5}}, None),
    # --- per-worker compute speed (owner: Worker.__init__; no runner flag).  NaN
    # used to build: the async engine died in its event loop on step 0 and the
    # lock-step engine ran to the end on a NaN compute time.
    ("worker-speed-nan", {"worker_speeds": {3: float("nan")}}, None),
    ("worker-speed-inf", {"worker_speeds": {3: float("inf")}}, None),
    ("worker-speed-negative-inf", {"worker_speeds": {3: float("-inf")}}, None),
    # --- registries
    ("unknown-attack", {"attack": "ddos"}, ["--attack", "ddos"]),
    ("unknown-aggregator", {"gar": "blockchain"}, ["--aggregator", "blockchain"]),
    ("unknown-model", {"model": "gpt"}, ["--experiment", "gpt"]),
    ("unknown-sync-policy", {"sync_policy": "eventual"}, ["--sync-policy", "eventual"]),
    ("unknown-optimizer", {"optimizer": "lbfgs"}, None),
    ("byzantine-without-attack", {"num_byzantine": 2}, ["--nb-real-byz", "2"]),
    # --- options that do not apply used to be accepted, ignored and echoed
    ("noop-quorum-full-sync", {"sync_kwargs": {"quorum": 11}},
     ["--quorum-size", "11", "--sync-policy", "full-sync"]),
    ("noop-tau-quorum", {"sync_policy": "quorum", "sync_kwargs": {"tau": 4}},
     ["--staleness-bound", "4", "--sync-policy", "quorum"]),
    ("noop-stragglers-bounded-staleness",
     {"sync_policy": "bounded-staleness", "sync_kwargs": {"stragglers": "carry"}},
     ["--straggler-policy", "carry", "--sync-policy", "bounded-staleness"]),
    ("noop-version-lag-sync", {"max_version_lag": 3}, ["--max-version-lag", "3"]),
    ("noop-straggler-options-without-model", None,
     ["--straggler-prob", "0.5", "--straggler-intensity", "9"]),
    ("noop-drop-rate-without-lossy-links", {"lossy_drop_rate": 7.0}, ["--drop-rate", "7"]),
    ("noop-recovery-policy-without-lossy-links", {"lossy_policy": "nan-fill"},
     ["--recovery-policy", "nan-fill"]),
    ("drop-rate-out-of-range", {"lossy_links": 2, "lossy_drop_rate": 7.0},
     ["--lossy-links", "2", "--drop-rate", "7"]),
    ("unknown-recovery-policy", {"lossy_links": 1, "lossy_policy": "bogus"}, None),
    # --- outside input that used to leave as a Python traceback
    ("traceback-dataset-args", {"dataset_kwargs": {"bogus": 3}}, ["--dataset-args", "bogus:3"]),
    ("traceback-experiment-args", {"model_kwargs": {"bogus": 3}},
     ["--experiment-args", "bogus:3"]),
    ("traceback-negative-seed", {"seed": -1}, ["--seed", "-1"]),
    ("malformed-kv-token", None, ["--dataset-args", "novalue"]),
    # --- the two checks only a command line can make
    ("cli-only-staleness-bound", None,
     ["--sync-policy", "bounded-staleness", "--staleness-bound", "0"]),
    ("cli-only-measured-determinism", None, ["--measured-aggregation", "--determinism-check"]),
]


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("blobs", **DATASET_KWARGS, rng=0)


def _api_error(dataset, kwargs) -> str:
    kwargs = dict(kwargs)
    with pytest.raises(ConfigurationError) as raised:
        if "dataset_kwargs" in kwargs:
            load_dataset("blobs", **kwargs.pop("dataset_kwargs"), rng=0)
        build_trainer(dataset=dataset, **{**BASE_KWARGS, **kwargs})
    return str(raised.value)


def _cli_error(argv) -> str:
    with pytest.raises(ConfigurationError) as raised:
        runner.run(BASE_ARGV + argv, stream=io.StringIO())
    return str(raised.value)


@pytest.mark.parametrize("kwargs,argv", [row[1:] for row in INVALID],
                         ids=[row[0] for row in INVALID])
def test_cli_and_api_raise_the_same_error(dataset, kwargs, argv, monkeypatch, capsys):
    messages = set()
    if kwargs is not None:
        messages.add(_api_error(dataset, kwargs))
    if argv is not None:
        messages.add(_cli_error(argv))
        # ... and through the console entry point: exit 1, one ``error:`` line.
        monkeypatch.setattr("sys.argv", ["repro.runner", *BASE_ARGV, *argv])
        assert runner.main() == 1
        assert capsys.readouterr().err == f"error: {next(iter(messages))}\n"
    assert len(messages) == 1, messages


@pytest.mark.parametrize("kwargs,message", [
    ({"link_jitters": {3: -0.1}},
     "link_jitters values must be non-negative, got -0.1 for worker 3"),
    ({"link_delays": {11: 0.5}},
     "link_delays/link_jitters id 11 does not name an honest worker (honest ids "
     "are [2, 11); the adversary is arbitrarily fast regardless)"),
    ({"link_jitters": {1: 0.5}},
     "link_delays/link_jitters id 1 does not name an honest worker (honest ids "
     "are [2, 11); the adversary is arbitrarily fast regardless)"),
])
def test_link_map_refusals_come_before_any_per_worker_object(dataset, kwargs, message, monkeypatch):
    """Both used to be raised after the worker loop: 0.5 s late at 10,000 workers."""
    from repro.cluster import builder

    built = []
    for name in ("HonestWorker", "ByzantineWorker", "MiniBatchSampler"):
        cls = getattr(builder, name)
        monkeypatch.setattr(
            builder, name, lambda *a, _cls=cls, **k: built.append(_cls) or _cls(*a, **k))
    assert _api_error(dataset, {"num_byzantine": 2, "attack": "sign-flip", **kwargs}) == message
    assert built == []
    build_trainer(dataset=dataset, **{**BASE_KWARGS, "link_jitters": {3: 0.1}})
    assert len(built) == 22  # the wrappers do count: 11 samplers + 11 workers


def test_messages_name_the_option_in_its_owners_spelling(dataset):
    """Spot checks: the broadcast twin is told its own names, no flag spelling leaks down."""
    assert "broadcast_k only applies" in _api_error(
        dataset, {"broadcast_codec": "identity", "broadcast_k": 5})
    assert "codec_k only applies" in _api_error(dataset, {"codec_k": 5})
    assert "has no parameter 'quorum'; accepted: (none)" in _cli_error(
        ["--quorum-size", "11", "--sync-policy", "full-sync"])
    assert "has no parameter 'tau'; accepted: quorum, stragglers" in _cli_error(
        ["--staleness-bound", "4", "--sync-policy", "quorum"])
    assert "accepted: num_train, num_test" in _cli_error(["--dataset-args", "bogus:3"])


def test_unknown_recovery_policy_names_the_valid_ones_from_both_spellings(dataset, capsys):
    """The API used to leak the enum's bare ``ValueError``; the CLI refuses by ``choices``."""
    policies = ["drop-gradient", "nan-fill", "random-fill"]
    assert _api_error(dataset, {"lossy_links": 1, "lossy_policy": "bogus"}) == (
        f"unknown recovery policy 'bogus'; available: {policies}")
    with pytest.raises(SystemExit) as raised:
        runner.build_parser().parse_args(["--lossy-links", "1", "--recovery-policy", "bogus"])
    assert raised.value.code == 2
    refusal = capsys.readouterr().err
    assert "--recovery-policy: invalid choice: 'bogus'" in refusal
    assert all(policy in refusal for policy in policies)


def test_every_flag_is_forwarded_echoed_or_a_file_path(monkeypatch, tmp_path):
    """No flag can be parsed and then dropped on the floor."""
    forwarded = {}

    def recording_build_trainer(**kwargs):
        forwarded.update(kwargs)
        return build_trainer(**kwargs)

    monkeypatch.setattr(runner, "build_trainer", recording_build_trainer)
    argv = BASE_ARGV + [
        "--aggregator", "average", "--nb-decl-byz", "1",
        "--sync-policy", "quorum", "--quorum-size", "10",
        "--straggler-policy", "carry", "--lossy-links", "2", "--drop-rate", "0.25",
        "--output", str(tmp_path / "out.json"), "--summary-csv", str(tmp_path / "out.csv"),
        "--checkpoint-dir", str(tmp_path / "ckpt"),
    ]
    args = runner.build_parser().parse_args(argv)
    configuration = runner.run(argv, stream=io.StringIO())["configuration"]

    dests = {action.dest for action in runner.build_parser()._actions} - {"help"}
    assert dests == set(vars(args))
    assert set(configuration) == dests - set(runner.FILE_PATH_FLAGS)
    assert set(runner.FILE_PATH_FLAGS) <= dests
    for dest, value in configuration.items():
        assert value == getattr(args, dest), dest  # the echo is the parsed value
    # What was typed is forwarded, what was not is left to the constructor.
    assert forwarded["sync_kwargs"] == {"quorum": 10, "stragglers": "carry"}
    assert forwarded["lossy_drop_rate"] == 0.25
    assert "lossy_policy" not in forwarded
    assert configuration["staleness_bound"] is None


def test_checkpointing_does_not_steer_the_telemetry(tmp_path):
    """``--checkpoint-delta`` snapshots the run; it must not add evaluations to it."""
    base = BASE_ARGV + ["--aggregator", "average", "--max-step", "20"]
    for evaluation_delta, expected in (("8", [8, 16, 20]), ("0", [20])):
        directory = tmp_path / f"eval{evaluation_delta}"
        argv = base + ["--evaluation-delta", evaluation_delta]
        plain = runner.run(argv, stream=io.StringIO())
        snapshotted = runner.run(
            argv + ["--checkpoint-delta", "5", "--checkpoint-dir", str(directory)],
            stream=io.StringIO(),
        )
        plain.pop("configuration"), snapshotted.pop("configuration")
        assert snapshotted == plain
        assert [e["step"] for e in plain["evaluations"]] == expected
        # Steps 5..20 were saved; the manager keeps the newest three.
        assert sorted(p.name for p in directory.glob("*.npz")) == [
            f"checkpoint-{step:08d}.npz" for step in (10, 15, 20)
        ]


def test_off_grid_final_step_is_snapshotted(tmp_path):
    runner.run(
        BASE_ARGV + ["--aggregator", "average", "--max-step", "7", "--checkpoint-delta", "5",
                     "--checkpoint-dir", str(tmp_path)],
        stream=io.StringIO(),
    )
    assert sorted(p.name for p in tmp_path.glob("*.npz")) == [
        "checkpoint-00000005.npz", "checkpoint-00000007.npz",
    ]
