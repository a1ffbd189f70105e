"""Delta broadcasts: versioned downlink framing, replica framing, fallback, resume."""

import numpy as np
import pytest

from repro.cluster import build_trainer
from repro.cluster.codec import TopKCodec
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
    def test_a_delta_costs_the_codec_frame_bytes_and_lands_at_the_current_version(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs, broadcast_codec="top-k", broadcast_k=5)
        trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        worker_id = trainer.honest_workers[0].worker_id
        [(version, _)], nbytes, is_delta = trainer._frame_fetches([worker_id])
        assert is_delta[0] and version == trainer.server.version
        # The version tags are free: a delta frame costs exactly frame_bytes.
        assert nbytes[0] == trainer.broadcast_codec.frame_bytes(trainer.server.dim)


class TestReplicaFraming:
    """Each fetch is framed against the worker's replica, never a stored version."""

    def test_delta_reference_is_downlink_error_feedback(
        self, tiny_dataset, tiny_model_kwargs, monkeypatch
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs, broadcast_codec="identity")
        trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        worker_id = trainer.honest_workers[0].worker_id
        session = trainer._downlink[worker_id]
        session.replica = trainer.server.parameters + 0.5  # a drifted reconstruction
        codec = trainer.broadcast_codec
        framed = []

        def recording(deltas):
            framed.append(np.array(deltas))
            return type(codec).encode_decode_batch(codec, deltas)

        monkeypatch.setattr(codec, "encode_decode_batch", recording)
        [(version, parameters)], _, is_delta = trainer._frame_fetches([worker_id])
        assert is_delta[0] and version == trainer.server.version
        # The delta re-offers the drift, not just the version difference.
        [deltas] = framed
        np.testing.assert_allclose(deltas, -0.5 * np.ones((1, trainer.server.dim)))
        np.testing.assert_array_equal(parameters, trainer.server.parameters)

    def test_a_worker_without_a_session_gets_full_state(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs, broadcast_codec="identity")
        trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        worker_id = trainer.honest_workers[0].worker_id
        del trainer._downlink[worker_id]
        [(_, parameters)], nbytes, is_delta = trainer._frame_fetches([worker_id])
        assert not is_delta[0]  # full-state resync
        assert nbytes[0] == trainer.cost_model.gradient_bytes(trainer.server.dim)
        np.testing.assert_array_equal(parameters, trainer.server.parameters)
        # The session re-synced and the next fetch is a delta again.
        assert trainer._downlink[worker_id].version == trainer.server.version
        _, _, is_delta = trainer._frame_fetches([worker_id])
        assert is_delta[0]

    def test_a_session_at_any_old_version_gets_a_delta(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs, broadcast_codec="identity")
        held = trainer.server.parameters
        trainer.run(TrainerConfig(max_steps=3, eval_every=0))
        worker_id = trainer.honest_workers[0].worker_id
        session = trainer._downlink[worker_id]
        # A worker still holding the initial model, however many updates ago.
        session.version, session.replica = 0, held
        [(version, parameters)], nbytes, is_delta = trainer._frame_fetches([worker_id])
        assert is_delta[0]
        assert nbytes[0] == trainer.broadcast_codec.frame_bytes(trainer.server.dim)
        assert version == trainer.server.version == 3
        np.testing.assert_array_equal(parameters, trainer.server.parameters)
        assert trainer._downlink[worker_id].version == 3


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
        trainer.run(TrainerConfig(max_steps=9, eval_every=0))
        held = trainer.server.parameters  # the model the last step fetches
        trainer.run_step()
        scale = float(np.linalg.norm(trainer.server.parameters))
        for session in trainer._downlink.values():
            # In lock-step mode every worker fetched at the start of the
            # last step, one version behind the post-update server.
            assert session.version == trainer.server.version - 1
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
    def test_every_fetch_after_the_first_is_a_delta(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs, broadcast_codec="identity")
        history = trainer.run(TrainerConfig(max_steps=6, eval_every=0))
        # A worker's first fetch is full state; every later one is a delta
        # against the replica its downlink session holds.
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
