"""Pinning tests for the determinism fixes surfaced by simlint (SIM201/SIM202).

Components that used to fall back to fresh OS entropy when constructed
without an explicit ``rng`` now derive a deterministic per-component seed via
:func:`repro.utils.random.component_seed`.  These tests pin the new contract:

* constructing the same component twice with no rng yields bit-identical
  draws (replayability even for "lazy" construction);
* different components get *different* default streams (no accidental
  coupling through a shared fallback seed);
* an explicit rng still wins (the builder's named-stream tree is untouched).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import RandomGradientAttack
from repro.cluster.codec import QSGDCodec, RandomKCodec, WireFrame
from repro.cluster.network import DelayedChannel, LossyChannel, ReliableChannel
from repro.cluster.cost_model import CostModel
from repro.cluster.packets import Packetizer, RecoveryPolicy
from repro.cluster.worker import ByzantineWorker
from repro.core import Average
from repro.utils.random import as_rng, component_seed, derive_seed, fresh_rng


# --------------------------------------------------------------- primitives
def test_component_seed_passthrough():
    rng = as_rng(7)
    assert component_seed(rng, "anything") is rng
    assert component_seed(123, "anything") == 123


def test_component_seed_deterministic_and_distinct():
    a1 = component_seed(None, "packetizer")
    a2 = component_seed(None, "packetizer")
    b = component_seed(None, "byzantine-worker")
    assert a1 == a2
    assert a1 != b
    assert a1 == derive_seed(0x51AB, "packetizer")


def test_fresh_rng_returns_generator():
    rng = fresh_rng()
    assert isinstance(rng, np.random.Generator)
    # Two fresh generators are (overwhelmingly likely) independent streams.
    assert fresh_rng().random() != rng.random() or True  # smoke only


# ------------------------------------------------- unseeded reconstruction
def _packetizer_garbage(packetizer: Packetizer) -> np.ndarray:
    packets = packetizer.split(np.arange(512, dtype=np.float64))
    return packetizer.reassemble(packets[:1], 512, in_order=True)


def test_packetizer_unseeded_is_deterministic():
    a = _packetizer_garbage(Packetizer(256, policy=RecoveryPolicy.RANDOM_FILL))
    b = _packetizer_garbage(Packetizer(256, policy=RecoveryPolicy.RANDOM_FILL))
    np.testing.assert_array_equal(a, b)


def test_random_k_codec_unseeded_is_deterministic():
    grad = np.linspace(-1.0, 1.0, 64)
    fa = RandomKCodec(k=8).encode(grad)
    fb = RandomKCodec(k=8).encode(grad)
    np.testing.assert_array_equal(fa.indices, fb.indices)
    np.testing.assert_array_equal(fa.values, fb.values)


def test_qsgd_codec_unseeded_is_deterministic():
    grad = np.linspace(-1.0, 1.0, 64)
    fa = QSGDCodec(bits=2).encode(grad)
    fb = QSGDCodec(bits=2).encode(grad)
    np.testing.assert_array_equal(fa.values, fb.values)


def test_byzantine_worker_unseeded_is_deterministic():
    honest = np.ones((3, 8))
    params = np.zeros(8)
    msgs = []
    for _ in range(2):
        worker = ByzantineWorker(0, RandomGradientAttack(scale=5.0))
        msgs.append(worker.craft_gradient(params, honest, step=0))
    np.testing.assert_array_equal(msgs[0].gradient, msgs[1].gradient)


def test_delayed_channel_unseeded_is_deterministic():
    cost = CostModel()
    frame = WireFrame(dim=8, values=np.ones(8), nbytes=64.0)
    seconds = []
    for _ in range(2):
        channel = DelayedChannel(ReliableChannel(), delay_s=0.1, jitter_s=0.5)
        _, s = channel.transfer_frame(frame, cost)
        seconds.append(s)
    assert seconds[0] == seconds[1]


def test_lossy_channel_unseeded_is_deterministic():
    cost = CostModel()
    values = np.arange(512, dtype=np.float64)
    frame = WireFrame(dim=512, values=values, nbytes=4096.0)
    results = []
    for _ in range(2):
        channel = LossyChannel(drop_rate=0.5, rng=None)
        delivered, _ = channel.transfer_frame(frame, cost)
        results.append(delivered)
    if results[0] is None:
        assert results[1] is None
    else:
        np.testing.assert_array_equal(results[0].values, results[1].values)


def test_explicit_rng_still_wins():
    grad = np.linspace(-1.0, 1.0, 64)
    fa = RandomKCodec(k=8, rng=99).encode(grad)
    fb = RandomKCodec(k=8, rng=99).encode(grad)
    fc = RandomKCodec(k=8).encode(grad)
    np.testing.assert_array_equal(fa.indices, fb.indices)
    assert not np.array_equal(fa.indices, fc.indices)


# ------------------------------------------------------------ SIM202 fixes
def test_dataset_subset_default_is_deterministic():
    from repro.data.dataset import Dataset

    rng = as_rng(3)
    ds = Dataset(
        train_x=rng.normal(size=(32, 4)), train_y=np.arange(32) % 2,
        test_x=rng.normal(size=(8, 4)), test_y=np.arange(8) % 2,
        name="toy", num_classes=2,
    )
    a = ds.subset(10)
    b = ds.subset(10)
    np.testing.assert_array_equal(a.train_x, b.train_x)


def test_cost_analysis_measure_accepts_seedlike():
    from repro.experiments.cost_analysis import measure_aggregation_time

    t = measure_aggregation_time(Average(), 5, 16, repeats=1)
    assert t >= 0.0
    t2 = measure_aggregation_time(Average(), 5, 16, repeats=1, rng=as_rng(4))
    assert t2 >= 0.0


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
