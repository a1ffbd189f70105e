"""Delta broadcasts: versioned downlink framing, pinning, fallback, resume."""

import numpy as np
import pytest

from repro.cluster import build_trainer
from repro.cluster.codec import (
    IdentityCodec,
    TopKCodec,
    decode_frame,
    encode_delta,
)
from repro.cluster.trainer import TrainerConfig
from repro.exceptions import ConfigurationError


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


class TestDeltaFraming:
    def test_encode_delta_stamps_versions_and_prices_codec_bytes(self, rng):
        codec = TopKCodec(5)
        delta = rng.standard_normal(40)
        frame = encode_delta(codec, delta, base_version=3, target_version=7)
        assert frame.is_delta
        assert frame.base_version == 3 and frame.target_version == 7
        # The version tags are free: a delta frame costs exactly frame_bytes.
        assert frame.nbytes == codec.frame_bytes(40)

    def test_identity_delta_decodes_exactly(self, rng):
        codec = IdentityCodec()
        assert codec.lossless
        delta = rng.standard_normal(32)
        frame = encode_delta(codec, delta, base_version=0, target_version=1)
        np.testing.assert_array_equal(decode_frame(frame), delta)

    def test_gradient_frames_are_not_deltas(self, rng):
        frame = IdentityCodec().encode(rng.standard_normal(8))
        assert not frame.is_delta


class TestServerVersionPinning:
    def _server(self, tiny_dataset, tiny_model_kwargs, **overrides):
        trainer = _build(tiny_dataset, tiny_model_kwargs, **overrides)
        return trainer

    def test_pinned_version_survives_eviction(self, tiny_dataset, tiny_model_kwargs):
        trainer = self._server(tiny_dataset, tiny_model_kwargs, retain_versions=2)
        server = trainer.server
        server.pin_version(0)
        trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        assert server.has_version(0)  # pinned: exempt from retain_versions=2
        assert server.has_version(server.version)

    def test_released_version_gets_evicted(self, tiny_dataset, tiny_model_kwargs):
        trainer = self._server(tiny_dataset, tiny_model_kwargs, retain_versions=2)
        server = trainer.server
        server.pin_version(0)
        server.release_version(0)
        trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        assert not server.has_version(0)

    def test_pin_counts_are_per_holder(self, tiny_dataset, tiny_model_kwargs):
        trainer = self._server(tiny_dataset, tiny_model_kwargs, retain_versions=1)
        server = trainer.server
        server.pin_version(0)
        server.pin_version(0)
        server.release_version(0)
        trainer.run(TrainerConfig(max_steps=3, eval_every=0))
        assert server.has_version(0)  # one pin still outstanding

    def test_pinning_unretained_version_rejected(self, tiny_dataset, tiny_model_kwargs):
        server = self._server(tiny_dataset, tiny_model_kwargs).server
        with pytest.raises(ConfigurationError, match="pin"):
            server.pin_version(99)

    def test_delta_since_none_when_evicted(self, tiny_dataset, tiny_model_kwargs):
        trainer = self._server(tiny_dataset, tiny_model_kwargs, retain_versions=2)
        server = trainer.server
        trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        assert server.delta_since(0) is None
        latest = server.version
        delta = server.delta_since(latest)
        np.testing.assert_array_equal(delta, np.zeros(server.dim))

    def test_delta_since_reference_is_downlink_error_feedback(
        self, tiny_dataset, tiny_model_kwargs
    ):
        server = self._server(tiny_dataset, tiny_model_kwargs).server
        replica = server.parameters + 0.5  # a drifted worker reconstruction
        delta = server.delta_since(server.version, reference=replica)
        # The delta re-offers the drift, not just the version difference.
        np.testing.assert_allclose(delta, -0.5 * np.ones(server.dim))


class TestIdentityBroadcastParity:
    """--broadcast-codec identity + --link-sharing none is bit-identical to raw."""

    def test_trajectory_time_and_bytes_identical(self, tiny_dataset, tiny_model_kwargs):
        raw = _build(tiny_dataset, tiny_model_kwargs)
        delta = _build(tiny_dataset, tiny_model_kwargs, broadcast_codec="identity")
        h_raw = raw.run(TrainerConfig(max_steps=6, eval_every=3))
        h_delta = delta.run(TrainerConfig(max_steps=6, eval_every=3))
        np.testing.assert_array_equal(raw.server.parameters, delta.server.parameters)
        assert h_raw.total_time == h_delta.total_time
        assert h_raw.final_accuracy == h_delta.final_accuracy
        w_raw, w_delta = h_raw.wire_summary(), h_delta.wire_summary()
        assert w_raw["bytes_received"] == w_delta["bytes_received"]
        assert w_raw["downlink_bytes"] == w_delta["downlink_bytes"]

    def test_identity_parity_holds_under_fair_sharing(
        self, tiny_dataset, tiny_model_kwargs
    ):
        raw = _build(tiny_dataset, tiny_model_kwargs, link_sharing="fair")
        delta = _build(tiny_dataset, tiny_model_kwargs, link_sharing="fair",
                       broadcast_codec="identity")
        h_raw = raw.run(TrainerConfig(max_steps=4, eval_every=0))
        h_delta = delta.run(TrainerConfig(max_steps=4, eval_every=0))
        np.testing.assert_array_equal(raw.server.parameters, delta.server.parameters)
        assert h_raw.total_time == h_delta.total_time

    def test_framing_split_first_fetch_full_then_delta(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs, broadcast_codec="identity")
        history = trainer.run(TrainerConfig(max_steps=3, eval_every=0))
        model_bytes = trainer.cost_model.gradient_bytes(trainer.server.dim)
        for timeline in history.worker_timelines.values():
            assert timeline.full_fetches == 1
            assert timeline.delta_fetches == 2
            assert timeline.bytes_received_full == model_bytes
            assert timeline.bytes_received == 3 * model_bytes


class TestSparseDeltaBroadcasts:
    def test_topk_delta_shrinks_downlink(self, tiny_dataset, tiny_model_kwargs):
        raw = _build(tiny_dataset, tiny_model_kwargs)
        sparse = _build(tiny_dataset, tiny_model_kwargs,
                        broadcast_codec="top-k", broadcast_k=10)
        h_raw = raw.run(TrainerConfig(max_steps=6, eval_every=0))
        h_sparse = sparse.run(TrainerConfig(max_steps=6, eval_every=0))
        assert (
            h_sparse.wire_summary()["downlink_bytes"]
            < h_raw.wire_summary()["downlink_bytes"] / 2
        )
        # Uplink framing is untouched by the broadcast codec.
        assert h_sparse.wire_summary()["bytes_sent"] == h_raw.wire_summary()["bytes_sent"]
        assert not h_sparse.diverged

    def test_replica_error_stays_one_step(self, tiny_dataset, tiny_model_kwargs):
        # Deltas are encoded against the worker's replica (downlink error
        # feedback), so the reconstruction error never accumulates beyond
        # one codec residual: after any number of rounds the replica matches
        # the true model up to the last frame's truncation.
        trainer = _build(tiny_dataset, tiny_model_kwargs,
                         broadcast_codec="top-k", broadcast_k=10)
        trainer.run(TrainerConfig(max_steps=10, eval_every=0))
        scale = float(np.linalg.norm(trainer.server.parameters))
        for session in trainer._downlink.values():
            # In lock-step mode every worker fetched at the start of the
            # last step, one version behind the post-update server.
            assert session.version == trainer.server.version - 1
            held = trainer.server.parameters_at(session.version)
            drift = float(np.linalg.norm(session.replica - held))
            assert drift < 0.5 * scale + 1e-6

    def test_topk_delta_training_converges(self, tiny_dataset, tiny_model_kwargs):
        trainer = _build(tiny_dataset, tiny_model_kwargs,
                         broadcast_codec="top-k", broadcast_k=20)
        history = trainer.run(TrainerConfig(max_steps=40, eval_every=10))
        assert not history.diverged
        assert history.final_accuracy > 0.5

    def test_qsgd_delta_broadcast_is_deterministic(
        self, tiny_dataset, tiny_model_kwargs
    ):
        params = []
        for _ in range(2):
            trainer = _build(tiny_dataset, tiny_model_kwargs,
                             broadcast_codec="qsgd", broadcast_bits=6)
            trainer.run(TrainerConfig(max_steps=4, eval_every=0))
            params.append(trainer.server.parameters)
        np.testing.assert_array_equal(params[0], params[1])


class TestFullStateFallback:
    def test_evicted_base_version_triggers_full_resync(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs, broadcast_codec="identity")
        trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        worker_id = trainer.honest_workers[0].worker_id
        held = trainer._downlink[worker_id].version
        # Simulate an eviction beyond retain_versions (as after a restore).
        trainer.server.release_version(held)
        del trainer.server._version_log[held]
        parameters, nbytes, is_delta = trainer._encode_broadcast(worker_id)
        assert not is_delta  # full-state resync
        assert nbytes == trainer.cost_model.gradient_bytes(trainer.server.dim)
        np.testing.assert_array_equal(parameters, trainer.server.parameters)
        # The session re-synced and the next fetch is a delta again.
        _, _, is_delta = trainer._encode_broadcast(worker_id)
        assert is_delta

    def test_worker_versions_stay_pinned_during_training(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs,
                         broadcast_codec="identity", retain_versions=1)
        history = trainer.run(TrainerConfig(max_steps=6, eval_every=0))
        # retain_versions=1 would evict every base version without pinning;
        # with the downlink pinning them, no fetch after the first ever
        # falls back to full state.
        for timeline in history.worker_timelines.values():
            assert timeline.full_fetches == 1
            assert timeline.delta_fetches == 5


class TestBroadcastCheckpointResume:
    @pytest.mark.parametrize(
        "broadcast_kwargs",
        [
            {"broadcast_codec": "identity"},
            {"broadcast_codec": "top-k", "broadcast_k": 10},
            {"broadcast_codec": "qsgd", "broadcast_bits": 6},
        ],
        ids=["identity", "top-k", "qsgd"],
    )
    def test_resume_is_bit_identical(
        self, tiny_dataset, tiny_model_kwargs, tmp_path, broadcast_kwargs
    ):
        from repro.cluster.checkpoint import (
            capture_training_state,
            load_training_state,
            restore_training_state,
            save_training_state,
        )

        build = lambda: _build(tiny_dataset, tiny_model_kwargs, **broadcast_kwargs)
        uninterrupted = build()
        uninterrupted.run(TrainerConfig(max_steps=6, eval_every=0))

        first = build()
        first.run(TrainerConfig(max_steps=3, eval_every=0))
        path = save_training_state(capture_training_state(first), tmp_path / "state.npz")

        resumed = build()
        restore_training_state(resumed, load_training_state(path))
        resumed.run(TrainerConfig(max_steps=3, eval_every=0))
        np.testing.assert_array_equal(
            resumed.server.parameters, uninterrupted.server.parameters
        )
        # Resume did not force any full-state resync: sessions round-trip.
        timelines = resumed.history.worker_timelines
        assert all(t.full_fetches == 0 for t in timelines.values())


class TestAsyncDeltaBroadcasts:
    def _build_async(self, tiny_dataset, tiny_model_kwargs, **overrides):
        return _build(
            tiny_dataset, tiny_model_kwargs,
            mode="async", sync_policy="quorum", max_version_lag=3,
            **overrides,
        )

    def test_async_delta_fetches_split_and_reconcile(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = self._build_async(tiny_dataset, tiny_model_kwargs,
                                    broadcast_codec="top-k", broadcast_k=10)
        history = trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        wire = history.wire_summary()
        assert wire["bytes_received_delta"] > 0
        assert wire["bytes_received"] == pytest.approx(
            wire["bytes_received_full"] + wire["bytes_received_delta"]
        )
        assert not history.diverged

    def test_async_delta_run_is_deterministic(self, tiny_dataset, tiny_model_kwargs):
        params = []
        for _ in range(2):
            trainer = self._build_async(tiny_dataset, tiny_model_kwargs,
                                        broadcast_codec="top-k", broadcast_k=10,
                                        link_sharing="fair")
            trainer.run(TrainerConfig(max_steps=5, eval_every=0))
            params.append(trainer.server.parameters)
        np.testing.assert_array_equal(params[0], params[1])

    def test_async_identity_delta_matches_raw_trajectory(
        self, tiny_dataset, tiny_model_kwargs
    ):
        raw = self._build_async(tiny_dataset, tiny_model_kwargs)
        delta = self._build_async(tiny_dataset, tiny_model_kwargs,
                                  broadcast_codec="identity")
        h_raw = raw.run(TrainerConfig(max_steps=5, eval_every=0))
        h_delta = delta.run(TrainerConfig(max_steps=5, eval_every=0))
        np.testing.assert_array_equal(raw.server.parameters, delta.server.parameters)
        assert h_raw.total_time == h_delta.total_time


class TestBroadcastBuilderValidation:
    def test_broadcast_k_requires_codec(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="broadcast_k"):
            _build(tiny_dataset, tiny_model_kwargs, broadcast_k=5)

    def test_broadcast_k_rejected_for_identity(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="broadcast_k only applies"):
            _build(tiny_dataset, tiny_model_kwargs,
                   broadcast_codec="identity", broadcast_k=5)

    def test_broadcast_bits_rejected_for_topk(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="broadcast_bits only applies"):
            _build(tiny_dataset, tiny_model_kwargs,
                   broadcast_codec="top-k", broadcast_k=5, broadcast_bits=4)

    def test_broadcast_instance_with_kwargs_rejected(
        self, tiny_dataset, tiny_model_kwargs
    ):
        with pytest.raises(ConfigurationError, match="broadcast"):
            _build(tiny_dataset, tiny_model_kwargs,
                   broadcast_codec=TopKCodec(5), broadcast_k=5)

    def test_unknown_broadcast_codec_rejected(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="unknown broadcast_codec"):
            _build(tiny_dataset, tiny_model_kwargs, broadcast_codec="gzip")
