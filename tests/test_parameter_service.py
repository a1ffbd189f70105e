"""Tests for the sharded/replicated parameter service (``--server-topology``).

Two contracts anchor the service:

* ``shards:1`` (and ``replicas:1``) is **bit-identical** to the plain
  single-server deployment — parameters, simulated clock and the full
  telemetry export — because every trainer runs the same code on a
  ``ServerFabric`` (``single`` is the one-actor one) and a one-actor fabric
  books no inter-server traffic.  The parity grid below pins that across the
  hot-path branches (codecs, WAN, delta broadcasts, stragglers, async engine).
* Non-trivial *sharding* never touches the data plane: the synchronous
  engine's parameters stay bit-identical to the unsharded run (the gather
  wire only shifts simulated time), while the byte ledger splits into
  local/cross-region flows and the measured inter-server gather replaces
  the analytic shard-combine term.
"""

import json

import numpy as np
import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.codec import IdentityCodec, RandomKCodec, TopKCodec
from repro.cluster.link import parse_link_profile
from repro.cluster.checkpoint import (
    capture_training_state,
    load_training_state,
    restore_training_state,
    save_training_state,
)
from repro.cluster.service import (
    REPLICA_DIGEST_BYTES,
    ServerFabric,
    ServerTopology,
    majority_model,
    parse_server_topology,
    place_shards,
    shard_bounds,
)
from repro.cluster.trainer import SynchronousTrainer, TrainerConfig
from repro.data.datasets import gaussian_blobs, load_dataset
from repro.exceptions import ConfigurationError, TrainingError
from tests.codec_reference import shard_frame_bytes


# --------------------------------------------------------------------- grammar
class TestTopologyGrammar:
    @pytest.mark.parametrize(
        "spec, kind, count",
        [
            (None, "single", 1),
            ("", "single", 1),
            ("single", "single", 1),
            ("shards:4", "shards", 4),
            ("  Shards:2 ", "shards", 2),
            ("replicas:3", "replicas", 3),
            ("region-sharded", "region-sharded", 0),
        ],
    )
    def test_parse(self, spec, kind, count):
        topology = parse_server_topology(spec)
        assert (topology.kind, topology.count) == (kind, count)

    @pytest.mark.parametrize(
        "spec", ["shards:", "shards:x", "shards:0", "replicas:-1", "mesh:3", "2"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_server_topology(spec)

    def test_spec_round_trips(self):
        for spec in ("single", "shards:4", "replicas:3", "region-sharded"):
            topology = parse_server_topology(spec)
            assert topology.spec == spec
            assert parse_server_topology(topology.spec) == topology

    def test_region_sharded_rejects_explicit_count(self):
        with pytest.raises(ConfigurationError):
            ServerTopology(kind="region-sharded", count=2)


class TestShardGeometry:
    @pytest.mark.parametrize("dim, n", [(10, 1), (10, 3), (10, 10), (7, 4), (1, 1)])
    def test_bounds_partition_every_coordinate(self, dim, n):
        bounds = shard_bounds(dim, n)
        assert len(bounds) == n
        assert bounds[0][0] == 0 and bounds[-1][1] == dim
        widths = [hi - lo for lo, hi in bounds]
        assert sum(widths) == dim
        assert max(widths) - min(widths) <= 1
        for (_, hi_prev), (lo, _) in zip(bounds, bounds[1:]):
            assert hi_prev == lo

    def test_bounds_reject_impossible_splits(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(4, 5)
        with pytest.raises(ConfigurationError):
            shard_bounds(4, 0)
        with pytest.raises(ConfigurationError):
            shard_bounds(0, 1)

    def test_placement_round_robin(self):
        assert place_shards(4, ["eu", "us"]) == ["eu", "us", "eu", "us"]
        assert place_shards(1, ["solo"]) == ["solo"]
        with pytest.raises(ConfigurationError):
            place_shards(2, [])


# ------------------------------------------------------------- deployment grid
BASE_KWARGS = dict(
    model="logistic",
    model_kwargs={"input_dim": 10, "num_classes": 5},
    gar="median",
    num_workers=8,
    num_byzantine=2,
    attack="sign-flip",
    batch_size=16,
    learning_rate=0.05,
    seed=11,
)


def _build(topology, overrides=None):
    kwargs = dict(BASE_KWARGS)
    kwargs["dataset"] = gaussian_blobs(num_train=2000, num_classes=5, dim=10, rng=3)
    kwargs.update(overrides or {})
    kwargs["server_topology"] = topology
    return build_trainer(**kwargs)


def _run(topology, overrides=None, steps=6):
    trainer = _build(topology, overrides)
    history = trainer.run(TrainerConfig(max_steps=steps, eval_every=0))
    return trainer, history


PARITY_SCENARIOS = {
    "sync_identity": {},
    "sync_topk_ef": {"codec": "top-k", "codec_k": 8},
    "sync_wan": {"link_profile": "wan:2x10mbit/5ms", "link_sharing": "fair"},
    "sync_broadcast_delta": {"broadcast_codec": "top-k", "broadcast_k": 8},
    "sync_compact": {"compact_telemetry": True},
    "async_identity": {"mode": "async", "sync_policy": "quorum"},
    "async_wan": {
        "mode": "async",
        "sync_policy": "quorum",
        "link_profile": "wan:2x10mbit/5ms",
        "link_sharing": "fair",
    },
    "async_qsgd": {"mode": "async", "sync_policy": "quorum", "codec": "qsgd",
                   "quantize_bits": 4},
}


@pytest.mark.parametrize("name", sorted(PARITY_SCENARIOS))
def test_shards1_is_bit_identical_to_single_server(name):
    """The hard contract: a trivial service is indistinguishable from none."""
    overrides = PARITY_SCENARIOS[name]
    plain_trainer, plain_history = _run(None, overrides)
    shard_trainer, shard_history = _run("shards:1", overrides)
    np.testing.assert_array_equal(
        shard_trainer.server.parameters, plain_trainer.server.parameters
    )
    assert shard_trainer.clock.now == plain_trainer.clock.now
    assert shard_history.to_dict() == plain_history.to_dict()


def test_replicas1_and_single_spec_are_also_trivial():
    plain_trainer, plain_history = _run(None)
    for spec in ("replicas:1", "single"):
        trainer, history = _run(spec)
        np.testing.assert_array_equal(
            trainer.server.parameters, plain_trainer.server.parameters
        )
        assert history.to_dict() == plain_history.to_dict()


@pytest.mark.parametrize("spec", [None, "single"])
def test_every_build_runs_on_a_fabric(spec):
    trainer = _build(spec)
    assert isinstance(trainer.service, ServerFabric)
    assert trainer.service.topology.spec == "single"
    assert trainer.service.server is trainer.server


def test_hand_built_trainer_hosts_the_single_fabric():
    built = _build(None)
    hand = SynchronousTrainer(
        built.server, built.workers, built.cost_model, eval_model=built.eval_model
    )
    assert hand.service.topology.spec == "single"
    assert hand.service.server is built.server
    assert hand.service._history is hand.history
    hand.run(TrainerConfig(max_steps=2, eval_every=0))
    assert not any(hand.history.interserver_summary().values())

    elsewhere = _build("shards:2").service
    with pytest.raises(ConfigurationError, match="different ParameterServer"):
        SynchronousTrainer(
            built.server, built.workers, built.cost_model, eval_model=built.eval_model,
            service=elsewhere,
        )


def test_sync_sharding_leaves_the_data_plane_untouched():
    """Sharding is a systems-layer change: sync parameters stay bit-equal."""
    plain_trainer, _ = _run(None)
    shard_trainer, shard_history = _run("shards:2")
    np.testing.assert_array_equal(
        shard_trainer.server.parameters, plain_trainer.server.parameters
    )
    # ...but the run now carries a measured inter-server ledger.
    summary = shard_history.to_dict()["interserver"]
    assert summary["gather_bytes"] > 0
    assert summary["gather_sessions"] == 6  # one non-coordinator shard x 6 rounds
    assert shard_trainer.clock.now > plain_trainer.clock.now


def test_region_sharding_localises_home_slices_on_wan():
    overrides = {"link_profile": "wan:2x10mbit/5ms", "link_sharing": "fair"}
    trainer, history = _run("region-sharded", overrides)
    service = trainer.service
    assert service.num_actors == 2
    assert {shard.region for shard in service.shards} == {"region0", "region1"}
    counters = service.counters
    # Workers alternate regions and shards alternate regions, so both local
    # and cross flows must be populated — and agree with the telemetry export.
    assert counters["push_local_bytes"] > 0
    assert counters["push_cross_bytes"] > 0
    assert counters["fetch_local_bytes"] > 0
    assert counters["fetch_cross_bytes"] > 0
    exported = history.to_dict()["interserver"]
    assert exported["push_cross_bytes"] == counters["push_cross_bytes"]


#: A dense model (d = 2020) pushed uncompressed to a four-region WAN: the
#: regime where serving each worker's home slice in-region pays for the
#: inter-server gather.  (On the 55-parameter model the benchmark's
#: ``wan_sharded_sync_2k`` runs, the gather dominates and sharding adds bytes.)
SHARDED_WAN = dict(
    model="logistic", model_kwargs={"input_dim": 100, "num_classes": 20}, gar="median",
    num_workers=60, num_byzantine=0, declared_f=2, batch_size=2, codec="identity",
    compute_mode="exact", seed=7, link_profile="wan:4x10mbit/20ms", link_sharing="fair",
)


def test_region_sharding_cuts_cross_region_bytes_on_a_dense_model():
    """The region-sharded service's headline claim, measured.

    On a ``wan:`` profile the single server is the core hub outside every
    region: each push and fetch rides its region's WAN bottleneck, so the
    unsharded twin's cross-region bytes are all its wire bytes.  Sharded,
    each home slice stays in-region, and what crosses (the other slices plus
    the measured gather) must still come out below: 2,329,380 < 2,908,800.
    """
    dataset = load_dataset("blobs", num_train=2000, num_classes=20, dim=100, rng=3)
    config = TrainerConfig(max_steps=3, eval_every=0)
    sharded = build_trainer(dataset=dataset, server_topology="region-sharded", **SHARDED_WAN)
    inter = sharded.run(config).interserver_summary()
    wire = build_trainer(dataset=dataset, **SHARDED_WAN).run(config).wire_summary()
    assert inter["gather_bytes"] > 0
    crossed = inter["push_cross_bytes"] + inter["fetch_cross_bytes"] + inter["gather_bytes"]
    assert crossed < wire["bytes_sent"] + wire["bytes_received"]


def test_region_sharded_requires_wan_regions():
    with pytest.raises(ConfigurationError, match="region"):
        _build("region-sharded")


def test_sharding_rejects_more_shards_than_parameters():
    with pytest.raises(ConfigurationError, match="cannot shard"):
        _build("shards:999")


def test_replicas_sync_digests_not_models():
    plain_trainer, _ = _run(None)
    trainer, _ = _run("replicas:3")
    np.testing.assert_array_equal(
        trainer.server.parameters, plain_trainer.server.parameters
    )
    counters = trainer.service.counters
    # Two non-primary replicas x 6 rounds x one 16-byte digest each.
    assert counters["replica_sync_bytes"] == 2 * 6 * REPLICA_DIGEST_BYTES
    assert counters["gather_bytes"] == counters["replica_sync_bytes"]


def test_gather_pricing_is_deterministic():
    first, _ = _run("shards:3")
    second, _ = _run("shards:3")
    assert first.service.counters == second.service.counters


# ------------------------------------------------------------------ fabric unit
def _fabric(topology="shards:2", **kwargs):
    trainer = _build(None)
    return ServerFabric(
        trainer.server,
        trainer.cost_model,
        topology=parse_server_topology(topology),
        **kwargs,
    )


class TestServerFabric:
    def test_region_sharded_aggregate_raises_the_servers_rejections(self):
        """The shards validate nothing of their own: ``validate_rows`` is the one site."""
        num_workers = BASE_KWARGS["num_workers"]
        fabric = _fabric(
            "region-sharded", link_topology=parse_link_profile("wan:2x10mbit/5ms", num_workers)
        )
        assert fabric.num_actors == 2
        dim = fabric.server.dim
        with pytest.raises(TrainingError) as foreign:
            fabric.aggregate([0, num_workers + 1], np.ones((2, dim)))
        assert str(foreign.value) == (
            f"worker {num_workers + 1} is not part of the deployed cluster "
            "(hardened server rejects foreign submissions)"
        )
        with pytest.raises(TrainingError) as wide:
            fabric.aggregate([0, 1], np.ones((2, dim + 1)))
        assert str(wide.value) == (
            f"gradient dimensionality {dim + 1} does not match the model ({dim})"
        )

    @pytest.mark.parametrize("topology", ["single", "shards:3", "replicas:3"])
    def test_every_topology_rejects_through_validate_rows(self, topology):
        fabric = _fabric(topology)
        dim = fabric.server.dim
        with pytest.raises(TrainingError) as foreign:
            fabric.aggregate([1, 99], np.ones((2, dim)))
        assert str(foreign.value) == (
            "worker 99 is not part of the deployed cluster "
            "(hardened server rejects foreign submissions)"
        )
        with pytest.raises(TrainingError) as empty:
            fabric.aggregate([], np.zeros((0, dim)))
        assert str(empty.value) == "no gradients arrived this step — cannot aggregate"

    def test_describe_is_json_serialisable(self):
        description = _fabric("shards:3").describe()
        assert json.loads(json.dumps(description)) == description
        assert description["num_actors"] == 3
        assert [s["shard_id"] for s in description["shards"]] == [0, 1, 2]

    def test_trivial_fabric_prices_nothing(self):
        fabric = _fabric("shards:1")
        assert fabric.is_trivial
        assert fabric.gather_seconds(8) == 0.0
        fabric.account_fetches([0, 1], [100.0, 100.0])
        assert all(value == 0.0 for value in fabric.counters.values())

    def test_state_dict_json_round_trip(self):
        fabric = _fabric()
        fabric.gather_seconds(8)
        state = fabric.state_dict()
        assert json.loads(json.dumps(state)) == state
        twin = _fabric()
        twin.restore_state(json.loads(json.dumps(state)))
        assert twin.counters == fabric.counters

    def test_restore_rejects_topology_mismatch(self):
        state = _fabric("shards:2").state_dict()
        with pytest.raises(ConfigurationError, match="topology"):
            _fabric("shards:3").restore_state(state)

    @pytest.mark.parametrize("spec", ["single", "shards:1", "replicas:1"])
    def test_pre_service_archive_restores_into_one_actor(self, spec):
        fabric = _fabric(spec)
        fabric.restore_state(None)
        assert all(value == 0.0 for value in fabric.counters.values())

    @pytest.mark.parametrize("deployed", ["single", "shards:1", "replicas:1"])
    @pytest.mark.parametrize("archived", ["single", "shards:1", "replicas:1"])
    def test_one_actor_archives_are_interchangeable(self, archived, deployed):
        state = _fabric(archived).state_dict()
        _fabric(deployed).restore_state(state)
        with pytest.raises(ConfigurationError, match="does not match the deployed"):
            _fabric("shards:2").restore_state(state)
        with pytest.raises(ConfigurationError, match="does not match the deployed"):
            _fabric(deployed).restore_state(_fabric("shards:2").state_dict())

    def test_one_actor_archive_without_the_restored_digest(self):
        """Archives of the mirrored-log era hold version 0's digest only."""
        trainer, _ = _run("shards:1")
        service = trainer.service
        assert trainer.server.version > 0
        state = service.state_dict()
        state["shards"][0]["versions"] = {"0": "00" * 16}
        service.restore_state(state)
        # A digest that *is* recorded for the restored version is still held to.
        state["shards"][0]["versions"] = {str(trainer.server.version): "00" * 16}
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            service.restore_state(state)
        # A multi-actor archive always carried it: its absence is a mismatch.
        sharded, _ = _run("shards:2")
        state = sharded.service.state_dict()
        state["shards"][0]["versions"] = {}
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            sharded.service.restore_state(state)

    def test_pre_service_archive_refused_by_multi_actor(self):
        with pytest.raises(
            ConfigurationError,
            match="'single' does not match the deployed topology 'shards:2'",
        ):
            _fabric("shards:2").restore_state(None)

    def test_restore_rejects_divergent_digests(self):
        fabric = _fabric()
        state = fabric.state_dict()
        version = next(iter(state["shards"][0]["versions"]))
        state["shards"][0]["versions"][version] = "00" * 16
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            fabric.restore_state(state)

    def test_version_store_tracks_every_shard(self):
        trainer, _ = _run("shards:2")
        service = trainer.service
        state = service.state_dict()
        assert len(state["shards"]) == service.num_actors
        for entry in state["shards"]:
            # Only the checkpointed version's digest: the one resume can verify.
            assert set(entry["versions"]) == {str(trainer.server.version)}
            assert "pins" not in entry

    def test_restore_ignores_the_pins_of_older_archives(self):
        trainer, _ = _run("shards:2")
        service = trainer.service
        state = service.state_dict()
        for entry in state["shards"]:
            entry["pins"] = {str(trainer.server.version): 3}
        counters = dict(service.counters)
        service.restore_state(state)
        assert service.counters == counters


def _oracle_pushes(fabric, worker_ids, frames):
    """The per-frame, per-shard ``+=`` loop the batch accounting replaced."""
    local = cross = 0.0
    for worker_id, frame in zip(worker_ids, frames):
        region = fabric.region_of_worker(int(worker_id))
        if fabric.kind == "replicas":
            split = [frame.nbytes] * fabric.num_actors
        else:
            split = shard_frame_bytes(frame, [(s.lo, s.hi) for s in fabric.shards])
        for shard, nbytes in zip(fabric.shards, split):
            if shard.region == region:
                local += float(nbytes)
            else:
                cross += float(nbytes)
    return local, cross


def _oracle_fetches(fabric, worker_ids, nbytes):
    """The per-worker loop the batch fetch accounting replaced."""
    dim = float(fabric.server.dim)
    local = cross = 0.0
    for worker_id, total in zip(worker_ids, nbytes):
        total = float(total)
        if total == 0.0:
            continue
        region = fabric.region_of_worker(int(worker_id))
        if fabric.kind == "replicas":
            if any(shard.region == region for shard in fabric.shards):
                local += total
            else:
                cross += total
            continue
        for shard in fabric.shards:
            share = total * (shard.width / dim)
            if shard.region == region:
                local += share
            else:
                cross += share
    return local, cross


class TestBatchAccounting:
    """Batched push / fetch accounting leaves the counters ``==`` the loop's."""

    #: Enough (worker, shard) entries per call that a pairwise or blocked sum
    #: would round differently from the left-to-right one.
    WORKERS = 48

    def _service(self, spec, wan):
        link_topology = parse_link_profile("wan:3x10mbit", self.WORKERS) if wan else None
        return _fabric(spec, link_topology=link_topology)

    @pytest.mark.parametrize("spec, wan", [
        ("shards:2", False), ("shards:4", True), ("region-sharded", True),
        ("replicas:2", True), ("replicas:3", False),
    ])
    def test_counters_equal_the_per_frame_oracle(self, rng, spec, wan):
        fabric = self._service(spec, wan)
        dim = fabric.server.dim
        matrix = rng.standard_normal((self.WORKERS, dim))
        worker_ids = rng.permutation(self.WORKERS).tolist()
        codecs = (IdentityCodec(), TopKCodec(k=7), RandomKCodec(k=7, rng=3))
        calls = [[codec.encode_decode_batch(matrix)[0]] for codec in codecs]
        # One call over several batches (the lock-step step's honest rows,
        # then its raw Byzantine ones): their splits concatenate in row order.
        cut = self.WORKERS - 5
        calls.append([
            TopKCodec(k=7).encode_decode_batch(matrix[:cut])[0],
            IdentityCodec().encode_decode_batch(matrix[cut:])[0],
        ])
        calls.append([])
        uneven = rng.random(self.WORKERS) * 1e4  # e.g. delta broadcasts of every size
        uneven[::5] = 0.0
        fetches = [
            [220.0] * self.WORKERS,
            uneven.tolist(),
            [0.0] * self.WORKERS,
        ]
        expected = dict(fabric.counters)
        for batches in calls:
            ids = worker_ids[: sum(len(batch) for batch in batches)]
            fabric.account_pushes(ids, batches)
            frames = [batch.frame(i) for batch in batches for i in range(len(batch))]
            local, cross = _oracle_pushes(fabric, ids, frames)
            expected["push_local_bytes"] += local
            expected["push_cross_bytes"] += cross
        for nbytes in fetches:
            fabric.account_fetches(worker_ids, nbytes)
            local, cross = _oracle_fetches(fabric, worker_ids, nbytes)
            expected["fetch_local_bytes"] += local
            expected["fetch_cross_bytes"] += cross
        assert fabric.counters == expected
        assert fabric.counters["push_local_bytes"] > 0 and fabric.counters["fetch_local_bytes"] > 0
        if wan:
            assert fabric.counters["push_cross_bytes"] > 0
            assert fabric.counters["fetch_cross_bytes"] > 0

    def test_one_frame_at_a_time_is_the_same_ledger(self, rng):
        # The async trainer accounts per event: the per-call totals must be
        # the floats a batch of one produces, call after call.
        batched, single = self._service("region-sharded", True), self._service("region-sharded", True)
        batch = IdentityCodec().encode_decode_batch(
            rng.standard_normal((9, batched.server.dim))
        )[0]
        worker_ids = list(range(9))
        for worker_id in worker_ids:
            frame = batch.frame(worker_id)
            single.account_pushes([worker_id], [batch.rows([worker_id])])
            single.account_fetches([worker_id], [frame.nbytes])
            local, cross = _oracle_pushes(batched, [worker_id], [frame])
            batched.counters["push_local_bytes"] += local
            batched.counters["push_cross_bytes"] += cross
            local, cross = _oracle_fetches(batched, [worker_id], [frame.nbytes])
            batched.counters["fetch_local_bytes"] += local
            batched.counters["fetch_cross_bytes"] += cross
        assert single.counters == batched.counters

    def test_unknown_worker_is_rejected(self):
        fabric = self._service("region-sharded", True)
        with pytest.raises(ConfigurationError, match="no region"):
            fabric.account_fetches([0, self.WORKERS], [1.0, 1.0])


# ----------------------------------------------------------- checkpoint/resume
def _quorum_overrides():
    return {
        "mode": "sync",
        "sync_policy": "quorum",
        "sync_kwargs": {"quorum": 6, "stragglers": "carry"},
    }


def test_resume_is_bit_identical_under_shards2_quorum_carry(tmp_path):
    """Interrupt at step 3, resume from disk, match the uninterrupted run."""
    overrides = _quorum_overrides()
    reference, _ = _run("shards:2", overrides)

    first = _build("shards:2", overrides)
    first.run(TrainerConfig(max_steps=3, eval_every=0))
    state = capture_training_state(first)
    assert state.service_state is not None
    path = save_training_state(state, tmp_path / "svc.npz")
    loaded = load_training_state(path)
    assert loaded.service_state == state.service_state

    resumed = _build("shards:2", overrides)
    restore_training_state(resumed, loaded)
    resumed.run(TrainerConfig(max_steps=3, eval_every=0))
    np.testing.assert_array_equal(
        resumed.server.parameters, reference.server.parameters
    )
    assert resumed.clock.now == reference.clock.now
    # The cumulative interserver ledger carries across the interruption.
    assert resumed.service.counters == reference.service.counters


@pytest.mark.parametrize(
    "archived, deployed", [(None, "shards:1"), ("shards:1", None), ("replicas:1", "shards:1")]
)
def test_one_actor_spellings_resume_each_others_archives(archived, deployed):
    """``single`` and ``shards:1`` differ only in their spec string."""
    overrides = _quorum_overrides()
    reference, _ = _run(None, overrides)

    first = _build(archived, overrides)
    first.run(TrainerConfig(max_steps=3, eval_every=0))
    resumed = _build(deployed, overrides)
    restore_training_state(resumed, capture_training_state(first))
    resumed.run(TrainerConfig(max_steps=3, eval_every=0))
    np.testing.assert_array_equal(
        resumed.server.parameters, reference.server.parameters
    )
    assert resumed.clock.now == reference.clock.now


_LOSSY_BROADCASTS = {
    "top-k": {"broadcast_codec": "top-k", "broadcast_k": 8},
    "random-k": {"broadcast_codec": "random-k", "broadcast_k": 8},
    "qsgd": {"broadcast_codec": "qsgd", "broadcast_bits": 4},
}


def _lossy_overrides(topology, codec):
    overrides = dict(_LOSSY_BROADCASTS[codec])
    if topology == "region-sharded":
        overrides["link_profile"] = "wan:2x10mbit/5ms"
    return overrides


@pytest.mark.parametrize("codec", sorted(_LOSSY_BROADCASTS))
@pytest.mark.parametrize("topology", ["shards:2", "region-sharded", "replicas:2"])
def test_resume_under_multi_actor_topology_with_lossy_broadcast(tmp_path, topology, codec):
    """Regression: resume used to die on "shard 0 slice digest mismatch".

    Restore re-registers each worker's held version from its *replica*, a
    reconstruction that is exact only under a lossless broadcast codec, and
    the fabric compared its digest of the logged vector against it.  Only
    the restored version — the checkpoint's own ``parameters`` — is verified.
    """
    overrides = _lossy_overrides(topology, codec)
    reference, _ = _run(topology, overrides)

    first = _build(topology, overrides)
    first.run(TrainerConfig(max_steps=3, eval_every=0))
    path = save_training_state(capture_training_state(first), tmp_path / "lossy.npz")

    resumed = _build(topology, overrides)
    restore_training_state(resumed, load_training_state(path))
    resumed.run(TrainerConfig(max_steps=3, eval_every=0))
    np.testing.assert_array_equal(
        resumed.server.parameters, reference.server.parameters
    )
    assert resumed.clock.now == reference.clock.now
    assert resumed.service.counters == reference.service.counters


def test_resume_still_refuses_corrupted_parameters():
    overrides = _lossy_overrides("shards:2", "top-k")
    first = _build("shards:2", overrides)
    first.run(TrainerConfig(max_steps=3, eval_every=0))
    state = capture_training_state(first)
    state.parameters = state.parameters + 1e-9
    with pytest.raises(ConfigurationError, match="slice digest mismatch"):
        restore_training_state(_build("shards:2", overrides), state)


def test_restore_rejects_service_mismatch():
    overrides = _quorum_overrides()
    sharded = _build("shards:2", overrides)
    sharded.run(TrainerConfig(max_steps=2, eval_every=0))
    sharded_state = capture_training_state(sharded)

    plain = _build(None, overrides)
    with pytest.raises(
        ConfigurationError,
        match="'shards:2' does not match the deployed topology 'single'",
    ):
        restore_training_state(plain, sharded_state)

    plain2 = _build(None, overrides)
    plain2.run(TrainerConfig(max_steps=2, eval_every=0))
    plain_state = capture_training_state(plain2)
    sharded2 = _build("shards:2", overrides)
    with pytest.raises(
        ConfigurationError,
        match="'single' does not match the deployed topology 'shards:2'",
    ):
        restore_training_state(sharded2, plain_state)


# ------------------------------------------------------- untrusted-server vote
class TestMajorityModel:
    def test_unanimous(self):
        model = np.arange(4.0)
        np.testing.assert_allclose(majority_model([model, model, model]), model)

    def test_majority_beats_liar(self):
        model = np.ones(5)
        garbage = 100.0 * np.ones(5)
        np.testing.assert_allclose(majority_model([model, model, model, garbage]), model)

    def test_no_quorum_raises(self):
        proposals = [np.zeros(3), np.ones(3), 2 * np.ones(3)]
        with pytest.raises(TrainingError):
            majority_model(proposals)

    def test_empty_raises(self):
        with pytest.raises(TrainingError):
            majority_model([])

    def test_custom_quorum(self):
        proposals = [np.zeros(3), np.zeros(3), np.ones(3)]
        np.testing.assert_allclose(majority_model(proposals, quorum=2), np.zeros(3))
        with pytest.raises(ConfigurationError):
            majority_model(proposals, quorum=5)

    def test_exact_path_never_calls_allclose(self, monkeypatch):
        """The atol=0 vote groups by fingerprint — no pairwise allclose loop."""
        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("exact-equality voting must not call np.allclose")

        monkeypatch.setattr(np, "allclose", boom)
        model = np.arange(6.0)
        np.testing.assert_array_equal(majority_model([model, model, model]), model)
        # The tolerance fallback still goes through the pairwise loop.
        with pytest.raises(AssertionError, match="must not call"):
            majority_model([model, model, model], atol=1e-9)

    def test_exact_path_negative_zero_groups_with_positive_zero(self):
        # -0.0 == +0.0 under allclose despite different bit patterns; the
        # fingerprint canonicalisation must keep them in one group.
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([-0.0, 1.0, 2.0])
        np.testing.assert_array_equal(majority_model([a, b, np.ones(3)], quorum=2), a)

    def test_exact_path_nan_proposal_matches_nothing(self):
        # equal_nan=False: a NaN proposal does not even match itself, so two
        # bit-identical NaN vectors must not form a quorum.
        nan_vec = np.array([np.nan, 1.0, 2.0])
        good = np.zeros(3)
        np.testing.assert_array_equal(
            majority_model([nan_vec, nan_vec.copy(), good, good.copy()], quorum=2), good
        )
        with pytest.raises(TrainingError):
            majority_model([nan_vec, nan_vec.copy(), np.ones(3)], quorum=2)

    def test_exact_path_matches_pairwise_loop_tie_break(self):
        # argmax tie-breaking (first index of the max count) must match the
        # legacy loop: with two equal-sized groups the earlier proposal wins.
        a, b = np.zeros(4), np.ones(4)
        np.testing.assert_array_equal(majority_model([a, b, a, b], quorum=2), a)
        np.testing.assert_array_equal(majority_model([b, a, b, a], quorum=2), b)

    def test_exact_path_microbench(self):
        """Fingerprint grouping keeps a wide vote off the O(r^2 d) cliff.

        40 replicas x 200k parameters means 1600 pairwise allclose scans for
        the legacy loop; the fingerprint path hashes each vector once.  The
        bound is deliberately loose (slow shared CI runners) but tight
        enough that a reversion to the pairwise loop fails immediately.
        """
        import time

        model = np.arange(200_000, dtype=np.float64)
        proposals = [model.copy() for _ in range(40)]
        start = time.perf_counter()
        winner = majority_model(proposals)
        elapsed = time.perf_counter() - start
        np.testing.assert_array_equal(winner, model)
        assert elapsed < 2.0, f"majority_model took {elapsed:.2f}s for r=40, d=200k"

    @pytest.mark.parametrize("replicas", [4, 7, 10])
    def test_default_quorum_tolerates_fewer_than_a_third_byzantine_replicas(self, replicas):
        """``floor(2r/3) + 1`` agreeing replicas outvote up to ``(r - 1) // 3`` liars, no more."""
        model = np.linspace(-1.0, 1.0, 6)
        tolerated = (replicas - 1) // 3

        def proposals(byzantine):
            garbage = [np.full(6, 100.0 + i) for i in range(byzantine)]
            return garbage + [model.copy() for _ in range(replicas - byzantine)]

        np.testing.assert_array_equal(majority_model(proposals(tolerated)), model)
        with pytest.raises(TrainingError, match="no model reached the quorum"):
            majority_model(proposals(tolerated + 1))
