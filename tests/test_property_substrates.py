"""Property-based tests for the substrates: flattening, packets, theory, optimizers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.packets import Packetizer, RecoveryPolicy
from repro.core import Bulyan, MultiKrum, theory
from repro.optim import SGD, Adam, RMSprop
from repro.utils.flatten import flatten_arrays, unflatten_array


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=6
    ),
    seed=st.integers(0, 2**31),
)
def test_flatten_unflatten_roundtrip(shapes, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape) for shape in shapes]
    flat, recorded = flatten_arrays(arrays)
    assert flat.size == sum(a.size for a in arrays)
    restored = unflatten_array(flat, recorded)
    for original, back in zip(arrays, restored):
        np.testing.assert_array_equal(original, back)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 2000),
    packet_size=st.integers(1, 300),
    seed=st.integers(0, 2**31),
)
def test_packetizer_roundtrip_without_loss(dim, packet_size, seed):
    rng = np.random.default_rng(seed)
    gradient = rng.standard_normal(dim)
    for policy in RecoveryPolicy:
        packetizer = Packetizer(packet_size, policy=policy, rng=seed)
        packets = packetizer.split(gradient)
        assert len(packets) == packetizer.num_packets(dim)
        assert sum(p.payload.size for p in packets) == dim
        restored = packetizer.reassemble(packets, dim)
        np.testing.assert_array_equal(restored, gradient)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(10, 1500),
    packet_size=st.integers(5, 200),
    drop_index=st.integers(0, 10_000),
    seed=st.integers(0, 2**31),
)
def test_packetizer_nan_fill_marks_exactly_the_lost_packet(dim, packet_size, drop_index, seed):
    rng = np.random.default_rng(seed)
    gradient = rng.standard_normal(dim)
    packetizer = Packetizer(packet_size, policy=RecoveryPolicy.NAN_FILL, rng=seed)
    packets = packetizer.split(gradient)
    lost = drop_index % len(packets)
    survivors = [p for i, p in enumerate(packets) if i != lost]
    restored = packetizer.reassemble(survivors, dim)
    lost_slice = slice(lost * packet_size, min((lost + 1) * packet_size, dim))
    assert np.isnan(restored[lost_slice]).all()
    kept_mask = np.ones(dim, dtype=bool)
    kept_mask[lost_slice] = False
    np.testing.assert_array_equal(restored[kept_mask], gradient[kept_mask])


@settings(max_examples=60, deadline=None)
@given(f=st.integers(0, 20))
def test_theory_minimum_workers_are_consistent(f):
    n_weak = MultiKrum.minimum_workers(f)
    n_strong = Bulyan.minimum_workers(f)
    assert n_strong >= n_weak
    # At the minimum deployment, the maximum tolerated f equals the requested f.
    assert MultiKrum.max_byzantine(n_weak) == f
    assert Bulyan.max_byzantine(n_strong) == f
    # And the selection bound is achievable (>= 1).
    assert theory.max_selection_weak(n_weak, f) >= 1
    assert theory.max_selection_strong(n_strong, f) >= 1


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 100),
    f=st.integers(0, 40),
)
def test_theory_slowdown_bounds(n, f):
    if n < 2 * f + 3:
        return  # undeployable combination; nothing to check
    weak = theory.slowdown_ratio(n, f, strong=False)
    assert 0 < weak <= 1.0
    if n >= 4 * f + 3:
        strong = theory.slowdown_ratio(n, f, strong=True)
        assert 0 < strong <= weak


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    dim=st.integers(1, 50),
    steps=st.integers(1, 20),
)
def test_optimizers_produce_finite_parameters(seed, dim, steps):
    rng = np.random.default_rng(seed)
    for optimizer in (SGD(learning_rate=0.1), Adam(), RMSprop()):
        params = rng.standard_normal(dim)
        for _ in range(steps):
            gradient = rng.standard_normal(dim)
            params = optimizer.step(params, gradient)
        assert np.isfinite(params).all()
        assert params.shape == (dim,)
