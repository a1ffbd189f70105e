"""Tests for gradient packetization and the simulated transports."""

import numpy as np
import pytest

from repro.cluster import (
    CostModel,
    DelayedChannel,
    LossyChannel,
    Packetizer,
    RecoveryPolicy,
    ReliableChannel,
)
from repro.exceptions import ConfigurationError, NetworkError
from tests.channel_testing import transfer


class TestPacketizer:
    def test_split_covers_all_coordinates(self, rng):
        gradient = rng.standard_normal(1000)
        packets = Packetizer(256).split(gradient)
        assert len(packets) == 4
        reassembled = np.concatenate([p.payload for p in packets])
        np.testing.assert_array_equal(reassembled, gradient)

    def test_num_packets(self):
        packetizer = Packetizer(256)
        assert packetizer.num_packets(256) == 1
        assert packetizer.num_packets(257) == 2
        assert packetizer.num_packets(1) == 1

    def test_roundtrip_no_loss(self, rng):
        gradient = rng.standard_normal(700)
        for policy in RecoveryPolicy:
            packetizer = Packetizer(256, policy=policy, rng=0)
            packets = packetizer.split(gradient)
            restored = packetizer.reassemble(packets, 700)
            np.testing.assert_array_equal(restored, gradient)

    def test_drop_gradient_policy_returns_none_on_loss(self, rng):
        gradient = rng.standard_normal(700)
        packetizer = Packetizer(256, policy=RecoveryPolicy.DROP_GRADIENT)
        packets = packetizer.split(gradient)[:-1]
        assert packetizer.reassemble(packets, 700) is None

    def test_nan_fill_marks_lost_coordinates(self, rng):
        gradient = rng.standard_normal(700)
        packetizer = Packetizer(256, policy=RecoveryPolicy.NAN_FILL)
        packets = packetizer.split(gradient)
        survivors = [p for p in packets if p.sequence != 1]
        restored = packetizer.reassemble(survivors, 700)
        assert np.isnan(restored[256:512]).all()
        np.testing.assert_array_equal(restored[:256], gradient[:256])
        np.testing.assert_array_equal(restored[512:], gradient[512:])

    def test_nan_fill_tolerates_reordering(self, rng):
        gradient = rng.standard_normal(700)
        packetizer = Packetizer(256, policy=RecoveryPolicy.NAN_FILL)
        packets = list(reversed(packetizer.split(gradient)))
        restored = packetizer.reassemble(packets, 700)
        np.testing.assert_array_equal(restored, gradient)

    def test_random_fill_replaces_lost_coordinates_with_garbage(self, rng):
        gradient = rng.standard_normal(700)
        packetizer = Packetizer(256, policy=RecoveryPolicy.RANDOM_FILL, rng=1)
        packets = packetizer.split(gradient)
        survivors = packets[:-1]
        restored = packetizer.reassemble(survivors, 700)
        assert restored is not None
        assert np.isfinite(restored).all()
        np.testing.assert_array_equal(restored[:512], gradient[:512])
        assert not np.allclose(restored[512:], gradient[512:])

    def test_random_fill_out_of_order_scrambles(self, rng):
        gradient = rng.standard_normal(512)
        packetizer = Packetizer(256, policy=RecoveryPolicy.RANDOM_FILL, rng=1)
        packets = list(reversed(packetizer.split(gradient)))
        restored = packetizer.reassemble(packets, 512, in_order=False)
        # Written back-to-back in arrival order: halves are swapped.
        np.testing.assert_array_equal(restored[:256], gradient[256:])
        np.testing.assert_array_equal(restored[256:], gradient[:256])

    def test_too_many_packets_rejected(self, rng):
        packetizer = Packetizer(256)
        packets = packetizer.split(rng.standard_normal(700))
        with pytest.raises(NetworkError):
            packetizer.reassemble(packets + packets, 700)

    def test_empty_gradient_rejected(self):
        with pytest.raises(NetworkError):
            Packetizer(10).split(np.zeros(0))

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            Packetizer(10, policy="retransmit")


class TestReliableChannel:
    def test_payload_delivered_intact(self, rng):
        payload = rng.standard_normal(500)
        delivered, seconds = transfer(ReliableChannel(), payload, CostModel())
        np.testing.assert_array_equal(delivered, payload)
        assert seconds > 0

    def test_loss_free_uses_link_bandwidth(self):
        channel = ReliableChannel(drop_rate=0.0)
        assert channel.effective_bandwidth_gbps(CostModel(bandwidth_gbps=10)) == 10

    def test_packet_loss_slows_transfer_down(self, rng):
        payload = rng.standard_normal(100_000)
        cost_model = CostModel()
        _, clean = transfer(ReliableChannel(drop_rate=0.0), payload, cost_model)
        _, lossy = transfer(ReliableChannel(drop_rate=0.10), payload, cost_model)
        assert lossy > 2 * clean

    def test_higher_loss_is_slower(self, rng):
        payload = rng.standard_normal(50_000)
        cost_model = CostModel()
        _, mild = transfer(ReliableChannel(drop_rate=0.01), payload, cost_model)
        _, severe = transfer(ReliableChannel(drop_rate=0.20), payload, cost_model)
        assert severe > mild

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ReliableChannel(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            ReliableChannel(rtt_s=0.0)


class TestDelayedChannel:
    def test_adds_fixed_delay_on_top_of_inner_transfer(self, rng):
        payload = rng.standard_normal(500)
        cost_model = CostModel()
        _, base = transfer(ReliableChannel(), payload, cost_model)
        delivered, slowed = transfer(DelayedChannel(delay_s=0.25), payload, cost_model)
        np.testing.assert_array_equal(delivered, payload)
        assert slowed == pytest.approx(base + 0.25)

    def test_jitter_is_bounded_and_deterministic_per_seed(self, rng):
        payload = rng.standard_normal(100)
        cost_model = CostModel()
        _, base = transfer(ReliableChannel(), payload, cost_model)
        times_a = [
            transfer(DelayedChannel(jitter_s=0.5, rng=7), payload, cost_model)[1]
            for _ in range(3)
        ]
        times_b = [
            transfer(DelayedChannel(jitter_s=0.5, rng=7), payload, cost_model)[1]
            for _ in range(3)
        ]
        assert times_a == times_b
        assert all(base <= t <= base + 0.5 for t in times_a)

    def test_wraps_lossy_inner_channel(self, rng):
        inner = LossyChannel(drop_rate=1.0, policy=RecoveryPolicy.DROP_GRADIENT, rng=0)
        delivered, seconds = transfer(
            DelayedChannel(inner, delay_s=0.1), rng.standard_normal(600), CostModel()
        )
        assert delivered is None  # the inner drop semantics survive the wrapper
        assert seconds > 0.1

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            DelayedChannel(delay_s=-0.1)
        with pytest.raises(ConfigurationError):
            DelayedChannel(jitter_s=-1.0)


class TestLossyChannel:
    def test_no_loss_is_transparent(self, rng):
        payload = rng.standard_normal(600)
        delivered, _ = transfer(LossyChannel(drop_rate=0.0, rng=0), payload, CostModel())
        np.testing.assert_array_equal(delivered, payload)

    def test_transfer_time_unaffected_by_loss(self, rng):
        payload = rng.standard_normal(100_000)
        cost_model = CostModel()
        _, clean = transfer(LossyChannel(drop_rate=0.0, rng=0), payload, cost_model)
        _, lossy = transfer(LossyChannel(drop_rate=0.3, rng=0), payload, cost_model)
        assert lossy == pytest.approx(clean)

    def test_random_fill_corrupts_some_coordinates(self, rng):
        payload = rng.standard_normal(10_000)
        channel = LossyChannel(drop_rate=0.3, policy="random-fill", rng=3)
        delivered, _ = transfer(channel, payload, CostModel())
        assert delivered is not None
        assert not np.allclose(delivered, payload)

    def test_nan_fill_marks_losses(self, rng):
        payload = rng.standard_normal(10_000)
        channel = LossyChannel(drop_rate=0.3, policy="nan-fill", rng=3)
        delivered, _ = transfer(channel, payload, CostModel())
        assert np.isnan(delivered).any()
        finite = np.isfinite(delivered)
        np.testing.assert_array_equal(delivered[finite], payload[finite])

    def test_drop_gradient_policy_can_return_none(self, rng):
        payload = rng.standard_normal(10_000)
        channel = LossyChannel(drop_rate=0.9, policy="drop-gradient", rng=3)
        delivered, _ = transfer(channel, payload, CostModel())
        assert delivered is None

    def test_reordering_with_random_fill(self, rng):
        payload = rng.standard_normal(2048)
        channel = LossyChannel(drop_rate=0.0, reorder_rate=1.0, policy="random-fill", rng=5)
        delivered, _ = transfer(channel, payload, CostModel())
        # All coordinates arrive but possibly at the wrong offsets.
        assert delivered is not None
        assert sorted(delivered.tolist()) == pytest.approx(sorted(payload.tolist()))

    def test_statistical_loss_rate(self, rng):
        payload = rng.standard_normal(256 * 200)  # 200 packets
        channel = LossyChannel(drop_rate=0.25, policy="nan-fill", rng=7)
        delivered, _ = transfer(channel, payload, CostModel())
        lost_fraction = np.isnan(delivered).mean()
        assert 0.15 < lost_fraction < 0.35
