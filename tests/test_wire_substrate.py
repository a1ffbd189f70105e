"""Integration tests for the wire substrate: codecs + link contention + RNG isolation."""

import numpy as np
import pytest

from repro.cluster import CostModel, DelayedChannel, LossyChannel, RecoveryPolicy, build_trainer
from repro.cluster.codec import RandomKCodec, TopKCodec, decode_frame
from repro.cluster.trainer import TrainerConfig
from repro.exceptions import ConfigurationError
from tests.channel_testing import frame_of, transfer


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


class TestWireRngIsolation:
    """Satellite regression: wire randomness cannot perturb training streams."""

    def test_drop_rate_does_not_perturb_model_init_or_batch_order(
        self, tiny_dataset, tiny_model_kwargs
    ):
        clean = _build(tiny_dataset, tiny_model_kwargs,
                       lossy_links=2, lossy_drop_rate=0.0)
        lossy = _build(tiny_dataset, tiny_model_kwargs,
                       lossy_links=2, lossy_drop_rate=0.7)
        # Model initialisation is bit-identical regardless of the drop rate.
        np.testing.assert_array_equal(clean.server.parameters, lossy.server.parameters)
        # Every worker's first mini-batch is bit-identical too.
        for a, b in zip(clean.honest_workers, lossy.honest_workers):
            ax, ay = a.sampler.sample()
            bx, by = b.sampler.sample()
            np.testing.assert_array_equal(ax, bx)
            np.testing.assert_array_equal(ay, by)

    def test_first_step_losses_identical_under_different_drop_rates(
        self, tiny_dataset, tiny_model_kwargs
    ):
        # The first step's honest gradients are computed before any wire
        # damage can feed back into the model, so the mean loss must match.
        histories = []
        for drop in (0.0, 0.5):
            trainer = _build(tiny_dataset, tiny_model_kwargs,
                             lossy_links=1, lossy_drop_rate=drop,
                             lossy_policy=RecoveryPolicy.NAN_FILL,
                             gar="selective-average")
            histories.append(trainer.run(TrainerConfig(max_steps=1, eval_every=0)))
        assert histories[0].steps[0].mean_loss == histories[1].steps[0].mean_loss

    def test_codec_choice_does_not_perturb_model_init(
        self, tiny_dataset, tiny_model_kwargs
    ):
        identity = _build(tiny_dataset, tiny_model_kwargs)
        qsgd = _build(tiny_dataset, tiny_model_kwargs, codec="qsgd", quantize_bits=6)
        np.testing.assert_array_equal(identity.server.parameters, qsgd.server.parameters)

    def test_loss_free_lossy_channel_consumes_no_wire_randomness(self, rng):
        channel = LossyChannel(drop_rate=0.0, policy="random-fill", rng=9)
        before_wire = channel._wire_rng.bit_generator.state
        before_fill = channel.packetizer._rng.bit_generator.state
        transfer(channel, rng.standard_normal(1000), CostModel())
        assert channel._wire_rng.bit_generator.state == before_wire
        assert channel.packetizer._rng.bit_generator.state == before_fill

    def test_drop_draws_do_not_perturb_fill_stream(self, rng):
        # Channels with the same seed but different drop rates consume
        # different *amounts* of drop randomness; because the garbage fill
        # lives on its own named stream, both channels' fill streams start
        # from the identical state — and the drop stream's consumption never
        # advances the fill stream.
        fresh_a = LossyChannel(drop_rate=0.2, rng=4)
        fresh_b = LossyChannel(drop_rate=0.9, rng=4)
        assert (
            fresh_a.packetizer._rng.bit_generator.state
            == fresh_b.packetizer._rng.bit_generator.state
        )
        payload = rng.standard_normal(2048)
        fill_before = fresh_a.packetizer._rng.bit_generator.state
        nan_fill = LossyChannel(drop_rate=0.5, policy="nan-fill", rng=4)
        transfer(nan_fill, payload, CostModel())
        # NaN fill never draws garbage: only the drop stream advanced.
        assert nan_fill.packetizer._rng.bit_generator.state == fill_before
        assert nan_fill._wire_rng.bit_generator.state != fresh_a._wire_rng.bit_generator.state


class TestIdentityNoneParity:
    """codec=identity + link_sharing=none is the seed wire, bit for bit."""

    def test_explicit_defaults_match_implicit_defaults(
        self, tiny_dataset, tiny_model_kwargs
    ):
        implicit = _build(tiny_dataset, tiny_model_kwargs)
        explicit = _build(tiny_dataset, tiny_model_kwargs,
                          codec="identity", link_sharing="none")
        h_implicit = implicit.run(TrainerConfig(max_steps=5, eval_every=0))
        h_explicit = explicit.run(TrainerConfig(max_steps=5, eval_every=0))
        np.testing.assert_array_equal(
            implicit.server.parameters, explicit.server.parameters
        )
        assert h_implicit.total_time == h_explicit.total_time

    def test_fair_sharing_changes_time_not_trajectory(
        self, tiny_dataset, tiny_model_kwargs
    ):
        base = _build(tiny_dataset, tiny_model_kwargs)
        contended = _build(tiny_dataset, tiny_model_kwargs, link_sharing="fair")
        h_base = base.run(TrainerConfig(max_steps=5, eval_every=0))
        h_contended = contended.run(TrainerConfig(max_steps=5, eval_every=0))
        # Full synchrony admits every gradient either way: same parameters.
        np.testing.assert_array_equal(base.server.parameters, contended.server.parameters)
        # But the shared link makes the broadcast + pushes contend: slower.
        assert h_contended.total_time > h_base.total_time

    def test_contention_records_per_worker_queueing_delay(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs, link_sharing="fair")
        history = trainer.run(TrainerConfig(max_steps=3, eval_every=0))
        delays = [
            t.queueing_delay_seconds for t in history.worker_timelines.values()
        ]
        assert len(delays) == 4
        assert all(d > 0 for d in delays)
        assert history.wire_summary()["queueing_delay_seconds"] > 0

    @pytest.mark.parametrize("sharing", ["fair", "fifo"])
    def test_straggler_on_a_shared_link_pushes_uncontended(
        self, tiny_dataset, tiny_model_kwargs, sharing
    ):
        # One slow worker starts its push long after everyone else's arrived.
        # The closed-world link simulation used to rewind its clock on that
        # ("link scheduler cannot move backwards") and crash the first step.
        speeds = {0: 1e-6}
        base = _build(tiny_dataset, tiny_model_kwargs, worker_speeds=speeds)
        contended = _build(tiny_dataset, tiny_model_kwargs, worker_speeds=speeds,
                           link_sharing=sharing)
        h_base = base.run(TrainerConfig(max_steps=3, eval_every=0))
        h_contended = contended.run(TrainerConfig(max_steps=3, eval_every=0))
        assert not h_contended.diverged and len(h_contended.steps) == 3
        np.testing.assert_array_equal(base.server.parameters, contended.server.parameters)
        # The straggler's push had the ingress to itself: it queued no longer
        # than anyone, and the step ends when its solo-time push lands — the
        # contended run is slower only by the straggler's broadcast wait.
        delays = {
            wid: t.queueing_delay_seconds
            for wid, t in h_contended.worker_timelines.items()
        }
        assert delays[0] == min(delays.values())
        assert h_contended.total_time - h_base.total_time == pytest.approx(
            delays[0], abs=1e-9
        )

    def test_uncontended_run_records_zero_queueing_delay(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(TrainerConfig(max_steps=3, eval_every=0))
        assert history.wire_summary()["queueing_delay_seconds"] == 0.0
        assert history.wire_summary()["bytes_sent"] > 0


class TestCodecTraining:
    def test_topk_moves_fewer_bytes(self, tiny_dataset, tiny_model_kwargs):
        identity = _build(tiny_dataset, tiny_model_kwargs)
        sparse = _build(tiny_dataset, tiny_model_kwargs, codec="top-k", codec_k=10)
        h_identity = identity.run(TrainerConfig(max_steps=5, eval_every=0))
        h_sparse = sparse.run(TrainerConfig(max_steps=5, eval_every=0))
        assert h_sparse.total_wire_bytes < h_identity.total_wire_bytes / 4
        # Compressed frames are cheaper to move: simulated time shrinks too.
        assert h_sparse.total_time <= h_identity.total_time

    def test_qsgd_training_converges(self, tiny_dataset, tiny_model_kwargs):
        trainer = _build(tiny_dataset, tiny_model_kwargs, codec="qsgd",
                         quantize_bits=8)
        history = trainer.run(TrainerConfig(max_steps=30, eval_every=10))
        assert not history.diverged
        assert history.final_accuracy > 0.5

    def test_compression_error_is_recorded(self, tiny_dataset, tiny_model_kwargs):
        trainer = _build(tiny_dataset, tiny_model_kwargs, codec="top-k", codec_k=10)
        history = trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        assert history.wire_summary()["compression_error"] > 0

    def test_codec_composes_with_lossy_transport(self, tiny_dataset, tiny_model_kwargs):
        # Drops hit the *compressed* frames; the robust GAR absorbs them.
        trainer = _build(tiny_dataset, tiny_model_kwargs,
                         gar="median", declared_f=1,
                         codec="top-k", codec_k=20,
                         lossy_links=1, lossy_drop_rate=0.3)
        history = trainer.run(TrainerConfig(max_steps=10, eval_every=0))
        assert not history.diverged

    def test_wire_bytes_recorded_per_update(self, tiny_dataset, tiny_model_kwargs):
        trainer = _build(tiny_dataset, tiny_model_kwargs, codec="top-k", codec_k=10)
        trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        per_update = trainer.codec.frame_bytes(trainer.server.dim) * 4
        for record in trainer.history.steps:
            assert record.wire_bytes == pytest.approx(per_update)
        for entry in trainer.server.update_log:
            assert entry.wire_bytes == pytest.approx(per_update)


class TestAsyncWireSubstrate:
    def _build_async(self, tiny_dataset, tiny_model_kwargs, **overrides):
        return _build(
            tiny_dataset, tiny_model_kwargs,
            mode="async", sync_policy="quorum", gar="average",
            num_workers=4, max_version_lag=3,
            **overrides,
        )

    def test_async_fair_sharing_records_queueing_delay(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = self._build_async(tiny_dataset, tiny_model_kwargs,
                                    link_sharing="fair")
        history = trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        assert history.wire_summary()["queueing_delay_seconds"] > 0
        assert not history.diverged

    def test_async_contended_run_is_deterministic(
        self, tiny_dataset, tiny_model_kwargs
    ):
        params = []
        for _ in range(2):
            trainer = self._build_async(tiny_dataset, tiny_model_kwargs,
                                        link_sharing="fair", codec="qsgd",
                                        quantize_bits=6)
            trainer.run(TrainerConfig(max_steps=5, eval_every=0))
            params.append(trainer.server.parameters)
        np.testing.assert_array_equal(params[0], params[1])

    def test_async_codec_counts_bytes(self, tiny_dataset, tiny_model_kwargs):
        trainer = self._build_async(tiny_dataset, tiny_model_kwargs,
                                    codec="top-k", codec_k=15)
        history = trainer.run(TrainerConfig(max_steps=4, eval_every=0))
        frame_bytes = trainer.codec.frame_bytes(trainer.server.dim)
        sent = history.wire_summary()["bytes_sent"]
        assert sent > 0
        assert sent == pytest.approx(
            frame_bytes * sum(t.rounds_completed for t in history.worker_timelines.values())
        )


class TestErrorFeedback:
    def test_residuals_are_carried_per_worker(self, tiny_dataset, tiny_model_kwargs):
        trainer = _build(tiny_dataset, tiny_model_kwargs, codec="top-k", codec_k=10)
        assert trainer.error_feedback
        trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        memory = trainer._fleet.state_dict()
        assert sorted(memory) == [w.worker_id for w in trainer.honest_workers]
        assert all(np.linalg.norm(m) > 0 for m in memory.values())

    def test_identity_codec_disables_error_feedback(self, tiny_dataset, tiny_model_kwargs):
        trainer = _build(tiny_dataset, tiny_model_kwargs)
        assert not trainer.error_feedback
        trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        assert trainer._fleet.state_dict() == {}

    def test_error_feedback_improves_aggressive_sparsification(
        self, tiny_dataset, tiny_model_kwargs
    ):
        histories = {}
        for ef in (True, False):
            trainer = _build(tiny_dataset, tiny_model_kwargs, codec="top-k",
                             codec_k=5, error_feedback=ef)
            histories[ef] = trainer.run(TrainerConfig(max_steps=40, eval_every=10))
        assert histories[True].final_accuracy >= histories[False].final_accuracy

    def test_resume_with_topk_codec_is_bit_identical(
        self, tiny_dataset, tiny_model_kwargs, tmp_path
    ):
        from repro.cluster.checkpoint import (
            capture_training_state,
            load_training_state,
            restore_training_state,
            save_training_state,
        )

        build = lambda: _build(tiny_dataset, tiny_model_kwargs,
                               codec="top-k", codec_k=10)
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


class TestJitterRngIsolation:
    """Satellite regression: jitter randomness cannot perturb training streams."""

    def test_jitter_does_not_perturb_model_init_or_batch_order(
        self, tiny_dataset, tiny_model_kwargs
    ):
        plain = _build(tiny_dataset, tiny_model_kwargs)
        jittered = _build(tiny_dataset, tiny_model_kwargs,
                          link_jitters={2: 0.5, 3: 0.25})
        np.testing.assert_array_equal(plain.server.parameters, jittered.server.parameters)
        for a, b in zip(plain.honest_workers, jittered.honest_workers):
            ax, ay = a.sampler.sample()
            bx, by = b.sampler.sample()
            np.testing.assert_array_equal(ax, bx)
            np.testing.assert_array_equal(ay, by)

    def test_builder_jitter_is_reproducible_from_the_seed(
        self, tiny_dataset, tiny_model_kwargs
    ):
        times = []
        for _ in range(2):
            trainer = _build(tiny_dataset, tiny_model_kwargs,
                             link_jitters={1: 0.3, 2: 0.3})
            history = trainer.run(TrainerConfig(max_steps=3, eval_every=0))
            times.append(history.total_time)
        assert times[0] == times[1]

    def test_delayed_channel_spawns_a_named_child_stream(self, rng):
        # Two channels seeded alike draw identical jitter; and the child
        # spawn means the raw parent stream is never consumed directly.
        a = DelayedChannel(delay_s=0.0, jitter_s=1.0, rng=7)
        b = DelayedChannel(delay_s=0.0, jitter_s=1.0, rng=7)
        payload = rng.standard_normal(64)
        cost = CostModel()
        for _ in range(3):
            _, sa = transfer(a, payload, cost)
            _, sb = transfer(b, payload, cost)
            assert sa == sb

    def test_jitter_draws_do_not_perturb_inner_lossy_streams(self, rng):
        # A delayed wrapper sharing its seed material with the wrapped lossy
        # channel must leave the lossy channel's wire/fill streams exactly
        # where an unwrapped channel's would be.
        parent_a = np.random.default_rng(11)
        inner_a = LossyChannel(drop_rate=0.4, rng=parent_a)
        wrapped = DelayedChannel(inner_a, jitter_s=0.5, rng=parent_a)
        payload = rng.standard_normal(2048)
        cost = CostModel()
        for _ in range(2):
            transfer(wrapped, payload, cost)

        parent_b = np.random.default_rng(11)
        inner_b = LossyChannel(drop_rate=0.4, rng=parent_b)
        np.random.default_rng(0)  # unrelated draw, must not matter
        for _ in range(2):
            transfer(inner_b, payload, cost)
        # Same number of transfers -> identical wire-stream states, jitter or not.
        assert (
            inner_a._wire_rng.bit_generator.state
            == inner_b._wire_rng.bit_generator.state
        )


class TestSparseFrameLoss:
    """Satellite regression: loss thins (index, value) pairs, never corrupts them."""

    def _drop_all_channel(self, policy):
        return LossyChannel(drop_rate=1.0, policy=policy,
                            coordinates_per_packet=4, rng=3)

    def test_lost_pairs_disappear_instead_of_garbling(self, rng):
        frame = frame_of(TopKCodec(16), rng.standard_normal(256))
        channel = LossyChannel(drop_rate=0.5, policy="random-fill",
                               coordinates_per_packet=4, rng=5)
        delivered, _ = channel.transfer_frame(frame, CostModel())
        assert delivered is not None
        # Survivors are a strict subset of the original pairs, value-exact.
        assert delivered.indices.size < frame.indices.size
        original = {int(i): v for i, v in zip(frame.indices, frame.values)}
        for index, value in zip(delivered.indices, delivered.values):
            assert original[int(index)] == value
        # Decode: surviving pairs scatter, lost coordinates are absent (zero),
        # and nothing lands outside the original support.
        decoded = decode_frame(delivered)
        outside = np.setdiff1d(np.arange(256), frame.indices)
        np.testing.assert_array_equal(decoded[outside], 0.0)

    def test_drop_gradient_policy_drops_sparse_frame_whole(self, rng):
        frame = frame_of(TopKCodec(16), rng.standard_normal(256))
        delivered, _ = self._drop_all_channel("drop-gradient").transfer_frame(
            frame, CostModel()
        )
        assert delivered is None

    def test_nan_fill_marks_lost_shared_support_coordinates(self, rng):
        # random-k elides indices (shared seed), so the receiver knows the
        # full support and which positions died: exactly those coordinates
        # are NaN — selective-average sees missing coordinates, not garbage.
        frame = frame_of(RandomKCodec(16, rng=9), rng.standard_normal(256))
        channel = LossyChannel(drop_rate=0.5, policy="nan-fill",
                               coordinates_per_packet=4, rng=5)
        delivered, _ = channel.transfer_frame(frame, CostModel())
        assert delivered is not None
        assert delivered.indices.size == frame.indices.size  # support retained
        decoded = decode_frame(delivered)
        lost = np.isnan(delivered.values)
        assert 0 < lost.sum() < frame.values.size
        assert np.isnan(decoded[frame.indices[lost]]).all()
        surviving = frame.indices[~lost]
        np.testing.assert_array_equal(decoded[surviving], frame.values[~lost])

    def test_loss_free_sparse_transfer_is_unchanged(self, rng):
        frame = frame_of(TopKCodec(8), rng.standard_normal(64))
        channel = LossyChannel(drop_rate=0.0, rng=1)
        delivered, _ = channel.transfer_frame(frame, CostModel())
        np.testing.assert_array_equal(delivered.values, frame.values)
        np.testing.assert_array_equal(delivered.indices, frame.indices)

    def test_selective_average_with_lossy_topk_converges(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs,
                         gar="selective-average",
                         codec="top-k", codec_k=20,
                         lossy_links=2, lossy_drop_rate=0.3,
                         lossy_policy=RecoveryPolicy.NAN_FILL)
        history = trainer.run(TrainerConfig(max_steps=20, eval_every=10))
        assert not history.diverged
        assert history.final_accuracy > 0.5


class TestByzantineBroadcastContention:
    """Satellite regression: Byzantine fetches contend on the shared egress."""

    def _build_byz(self, tiny_dataset, tiny_model_kwargs, **overrides):
        return _build(tiny_dataset, tiny_model_kwargs,
                      gar="median", declared_f=1, num_byzantine=1,
                      attack="reversed-gradient", **overrides)

    def test_byzantine_fetches_are_broadcast_sessions(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = self._build_byz(tiny_dataset, tiny_model_kwargs,
                                  link_sharing="fair")
        history = trainer.run(TrainerConfig(max_steps=1, eval_every=0))
        n = len(trainer.workers)
        model_bytes = trainer.cost_model.gradient_bytes(trainer.server.dim)
        capacity = trainer.cost_model.bandwidth_gbps * 1e9 / 8.0

        # The adversary's fetch is real: bytes and queueing are recorded.
        byz_id = trainer.byzantine_workers[0].worker_id
        byz = history.worker_timelines[byz_id]
        assert byz.bytes_received == model_bytes
        assert byz.queueing_delay_seconds == pytest.approx(
            (n - 1) * model_bytes / capacity
        )

        # Honest fetches contend with ALL n sessions (the pre-fix broadcast
        # scheduled only the honest ones): fair sharing of n equal sessions
        # queues each for (n-1) solo drains on the downlink, plus the
        # honest-only uplink contention on the push.
        num_honest = len(trainer.honest_workers)
        frame_bytes = trainer.codec.frame_bytes(trainer.server.dim)
        expected = (
            (n - 1) * model_bytes / capacity
            + (num_honest - 1) * frame_bytes / capacity
        )
        for worker in trainer.honest_workers:
            timeline = history.worker_timelines[worker.worker_id]
            assert timeline.queueing_delay_seconds == pytest.approx(expected)

    def test_uncontended_byzantine_fetch_still_counts_bytes(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = self._build_byz(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        byz_id = trainer.byzantine_workers[0].worker_id
        byz = history.worker_timelines[byz_id]
        model_bytes = trainer.cost_model.gradient_bytes(trainer.server.dim)
        assert byz.bytes_received == 2 * model_bytes
        assert byz.queueing_delay_seconds == 0.0


class TestBytesAccounting:
    """Satellite: dropped/carried submissions charge bytes; downlinks reconcile."""

    def _quorum_build(self, tiny_dataset, tiny_model_kwargs, stragglers):
        return _build(
            tiny_dataset, tiny_model_kwargs,
            num_workers=5, declared_f=2, codec="top-k", codec_k=10,
            sync_policy="quorum",
            sync_kwargs={"quorum": 3, "stragglers": stragglers},
        )

    def test_dropped_quorum_submissions_still_charge_uplink_bytes(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = self._quorum_build(tiny_dataset, tiny_model_kwargs, "drop")
        steps = 4
        history = trainer.run(TrainerConfig(max_steps=steps, eval_every=0))
        frame_bytes = trainer.codec.frame_bytes(trainer.server.dim)
        wire = history.wire_summary()
        # Every push is charged at send time, admitted or not.
        assert wire["bytes_sent"] == pytest.approx(5 * steps * frame_bytes)
        # Admitted (per-update) bytes count only the quorum...
        assert history.total_wire_bytes == pytest.approx(3 * steps * frame_bytes)
        # ...so the gap is exactly the dropped stragglers' bytes.
        dropped = sum(r.dropped_stragglers for r in history.steps)
        assert wire["bytes_sent"] - history.total_wire_bytes == pytest.approx(
            dropped * frame_bytes
        )

    def test_carried_submissions_charge_bytes_once_when_admitted(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = self._quorum_build(tiny_dataset, tiny_model_kwargs, "carry")
        steps = 4
        history = trainer.run(TrainerConfig(max_steps=steps, eval_every=0))
        frame_bytes = trainer.codec.frame_bytes(trainer.server.dim)
        wire = history.wire_summary()
        assert wire["bytes_sent"] == pytest.approx(5 * steps * frame_bytes)
        # Carried gradients keep their wire bytes and are charged exactly
        # once, in the update that admits them.
        assert history.total_wire_bytes == pytest.approx(3 * steps * frame_bytes)

    def test_sync_downlink_counters_reconcile(self, tiny_dataset, tiny_model_kwargs):
        trainer = _build(tiny_dataset, tiny_model_kwargs,
                         broadcast_codec="top-k", broadcast_k=10)
        history = trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        wire = history.wire_summary()
        assert wire["bytes_received"] == pytest.approx(
            wire["bytes_received_full"] + wire["bytes_received_delta"]
        )
        # Per-update downlink records sum to the per-worker timeline totals.
        assert history.total_downlink_bytes == pytest.approx(wire["bytes_received"])
        assert wire["downlink_bytes"] == history.total_downlink_bytes

    def test_async_downlink_counters_reconcile(self, tiny_dataset, tiny_model_kwargs):
        trainer = _build(tiny_dataset, tiny_model_kwargs,
                         mode="async", sync_policy="quorum", max_version_lag=3,
                         broadcast_codec="top-k", broadcast_k=10)
        history = trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        wire = history.wire_summary()
        assert wire["bytes_received"] == pytest.approx(
            wire["bytes_received_full"] + wire["bytes_received_delta"]
        )
        # Fetches issued after the last completed update are still in
        # flight; the step records plus that residual cover every byte the
        # timelines saw.
        assert history.total_downlink_bytes + trainer._interval_downlink == (
            pytest.approx(wire["bytes_received"])
        )

    def test_downlink_bytes_to_accuracy_mirrors_uplink(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = _build(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(TrainerConfig(max_steps=20, eval_every=1))
        threshold = 0.9 * history.final_accuracy
        up = history.bytes_to_accuracy(threshold)
        down = history.downlink_bytes_to_accuracy(threshold)
        assert up is not None and down is not None
        # Identity framing both ways on a 4-worker cluster: equal per step.
        assert down == pytest.approx(up)
        assert history.downlink_bytes_to_accuracy(2.0) is None


class TestBuilderValidation:
    def test_codec_k_rejected_for_identity(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="codec_k"):
            _build(tiny_dataset, tiny_model_kwargs, codec="identity", codec_k=5)

    def test_quantize_bits_rejected_for_topk(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="quantize_bits"):
            _build(tiny_dataset, tiny_model_kwargs, codec="top-k", codec_k=5,
                   quantize_bits=4)

    def test_unknown_link_sharing_rejected(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="link sharing must be one of"):
            _build(tiny_dataset, tiny_model_kwargs, link_sharing="weighted")

    def test_codec_instance_with_kwargs_rejected(self, tiny_dataset, tiny_model_kwargs):
        from repro.cluster.codec import TopKCodec

        with pytest.raises(ConfigurationError):
            _build(tiny_dataset, tiny_model_kwargs, codec=TopKCodec(5), codec_k=5)
