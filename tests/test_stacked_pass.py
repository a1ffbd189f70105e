"""The stacked exact pass against ``k`` replicas, compared as bytes.

``Sequential.stacked_loss_and_gradients`` must return, for every worker of a
run, the bytes a replica loaded with that worker's snapshot returns from
``loss_and_gradient`` and then ``flops_per_sample``.  The property test draws
the models the pass serves; each test after it names one way a stacked pass
can drift from the replicas, with an input that trips it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.sampler import MiniBatchSampler, sample_stacked
from repro.exceptions import ConfigurationError
from repro.nn.layers import (
    BatchNorm, Conv2D, Dense, Dropout, Flatten, LeakyReLU, ReLU, Sigmoid, Tanh,
)
from repro.nn.losses import MeanSquaredError
from repro.nn.model import Sequential
from repro.nn.models.registry import make_model

ACTIVATIONS = {
    "relu": ReLU,
    "leaky-relu": lambda: LeakyReLU(0.1),
    "sigmoid": Sigmoid,
    "tanh": Tanh,
}


def _replicas(model, snapshots, x, y):
    """``(losses, gradients, flops)`` of one replica per worker, in worker order."""
    losses, gradients, flops = [], [], []
    for snapshot, batch_x, batch_y in zip(snapshots, x, y):
        model.set_parameters(snapshot)
        loss, gradient = model.loss_and_gradient(batch_x, batch_y)
        losses.append(loss)
        gradients.append(gradient)
        flops.append(model.flops_per_sample())
    return np.array(losses), np.stack(gradients), np.array(flops)


def _assert_bytes_equal(model, snapshots, x, y):
    stacked = model.stacked_loss_and_gradients(snapshots, x, y)
    losses, gradients, flops = _replicas(model, snapshots, x, y)
    assert stacked[0].tobytes() == losses.tobytes()
    assert stacked[1].tobytes() == gradients.tobytes()
    assert np.full(len(snapshots), stacked[2]).tobytes() == flops.tobytes()
    return stacked


@st.composite
def _runs(draw):
    """A Dense chain, its loss and L2, and one run of ``k`` workers on it."""
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    flatten = draw(st.booleans())
    layers = [Flatten()] if flatten else []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        layers.append(Dense(fan_in, fan_out, use_bias=draw(st.booleans()), rng=i))
        activation = draw(st.sampled_from([None, *sorted(ACTIVATIONS)]))
        if activation is not None:
            layers.append(ACTIVATIONS[activation]())
    mse = draw(st.booleans())
    model = Sequential(
        layers, loss=MeanSquaredError() if mse else None, l2=draw(st.sampled_from([0.0, 0.3]))
    )
    num, batch = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    generator = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))  # 30: saturated sigmoids and tanhs
    shape = (num, batch, 2, widths[0] // 2) if flatten and widths[0] % 2 == 0 else (
        (num, batch, widths[0]))
    x = generator.standard_normal(shape) * scale
    x[generator.random(shape) < 0.1] = -0.0
    if mse:
        y = generator.standard_normal((num, batch, widths[-1]))
    else:
        y = generator.integers(0, widths[-1], size=(num, batch))
    dim = model.num_parameters
    if draw(st.booleans()):
        snapshots = [generator.standard_normal(dim) * scale] * num  # one shared object
    else:
        snapshots = [generator.standard_normal(dim) * scale for _ in range(num)]
    return model, snapshots, x, y


@settings(max_examples=150, deadline=None)
@given(run=_runs())
def test_the_stacked_pass_returns_the_replicas_bytes(run):
    model, snapshots, x, y = run
    assert model.stacked_signature() is not None
    _assert_bytes_equal(model, snapshots, x, y)


def test_the_paper_mlp_at_batch_100_equals_its_replicas():
    """The 1024 -> 96 -> 10 MLP: gemms large enough for BLAS to block and thread."""
    model = make_model("mlp", input_dim=1024, hidden=96, num_classes=10, l2=1e-4, rng=0)
    generator = np.random.default_rng(1)
    x = generator.standard_normal((3, 100, 1024))
    y = generator.integers(0, 10, size=(3, 100))
    distinct = [generator.standard_normal(model.num_parameters) * 0.05 for _ in range(3)]
    _assert_bytes_equal(model, distinct, x, y)
    _assert_bytes_equal(model, [distinct[0]] * 3, x, y)


# ------------------------------------------------------------------- hazards
def test_negative_zero_gradient_terms_leave_as_positive_zero(monkeypatch):
    """A replica accumulates into zeroed grads, so a ``-0.0`` term leaves as ``0.0 + -0.0``.

    numpy here starts every sum of zero products from ``+0.0``, so no term
    comes out ``-0.0`` on its own; a gemm that starts from its first product
    (or a reduction that copies its first element) returns ``-0.0`` for a
    sum of ``-0.0`` products.  ``np.matmul`` is patched into that gemm (the
    replicas' ``@`` is not), and an input feature that is always zero makes
    its weight-gradient row such a sum.
    """
    matmul, terms = np.matmul, []

    def first_product_gemm(a, b):
        out = matmul(a, b)
        terms.append(np.where(out == 0, -0.0, out))
        return terms[-1]

    monkeypatch.setattr(np, "matmul", first_product_gemm)
    model = make_model("logistic", input_dim=3, num_classes=2, rng=0)
    generator = np.random.default_rng(5)
    x = generator.standard_normal((2, 4, 3))
    x[..., 1] = 0.0
    y = generator.integers(0, 2, size=(2, 4))
    snapshots = [generator.standard_normal(model.num_parameters) for _ in range(2)]
    _, gradients, _ = _assert_bytes_equal(model, snapshots, x, y)
    assert any(np.signbit(term[term == 0]).any() for term in terms)
    zero_row = gradients[:, 2:4]  # row 1 of the (3, 2) weight
    assert (zero_row == 0).all() and not np.signbit(zero_row).any()


def test_stateless_layers_run_their_own_forward():
    """``ReLU`` is ``np.where(x > 0, x, 0)``: it zeroes a NaN, ``np.maximum`` would keep it."""
    model = Sequential([Dense(2, 2, rng=0), ReLU(), Dense(2, 3, rng=1)])
    snapshot = np.ones(model.num_parameters)
    snapshot[4] = np.nan  # the first layer's bias: a NaN pre-activation
    x, y = np.ones((2, 3, 2)), np.array([[0, 1, 2], [2, 2, 0]])
    losses, gradients, _ = _assert_bytes_equal(model, [snapshot, snapshot.copy()], x, y)
    assert np.isfinite(losses).all() and np.isfinite(gradients).all()
    assert np.isnan(np.maximum(np.nan, 0.0))


def test_each_loss_is_its_own_batch_mean_plus_its_own_l2():
    """Normalising by ``k * b``, or reading worker 0's snapshot for L2, moves every row."""
    model = make_model("logistic", input_dim=3, num_classes=2, l2=0.5, rng=0)
    generator = np.random.default_rng(3)
    snapshots = [generator.standard_normal(model.num_parameters) * (1 + 4 * i) for i in range(3)]
    x = generator.standard_normal((3, 4, 3))
    y = generator.integers(0, 2, size=(3, 4))
    losses, _, _ = _assert_bytes_equal(model, snapshots, x, y)
    norms = [0.5 * 0.5 * float(s @ s) for s in snapshots]
    assert len(set(norms)) == 3 and (losses > norms).all()


def test_a_wrong_size_snapshot_raises_set_parameters_error():
    model = make_model("logistic", input_dim=3, num_classes=2, rng=0)
    good = np.zeros(model.num_parameters)
    bad = np.zeros(model.num_parameters + 1)
    with pytest.raises(ValueError) as replica:
        model.set_parameters(bad)
    with pytest.raises(ValueError) as stacked:
        model.stacked_loss_and_gradients([good, bad], np.zeros((2, 1, 3)), np.zeros((2, 1), int))
    assert str(stacked.value) == str(replica.value)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "among-distinct"])
def test_a_wrong_size_snapshot_raises_set_parameters_error_once_validated(shared):
    """A snapshot every worker shares is checked once; one bad row among distinct ones is found."""
    model = make_model("logistic", input_dim=3, num_classes=2, rng=0)
    good = np.zeros(model.num_parameters)
    bad = np.zeros(model.num_parameters + 2)
    snapshots = [bad] * 4 if shared else [good, good.copy(), bad, good.copy()]
    with pytest.raises(ValueError) as replica:
        model.set_parameters(bad)
    with pytest.raises(ValueError) as stacked:
        model.stacked_loss_and_gradients(snapshots, np.zeros((4, 1, 3)), np.zeros((4, 1), int))
    assert str(stacked.value) == str(replica.value)


def test_a_bad_label_or_input_raises_the_replica_error():
    model = make_model("logistic", input_dim=3, num_classes=2, rng=0)
    snapshots = [np.zeros(model.num_parameters)] * 2
    labels = np.array([[0, 1], [1, 5]])
    with pytest.raises(ConfigurationError) as replica:
        model.loss_and_gradient(np.zeros((2, 3)), labels[1])
    with pytest.raises(ConfigurationError) as stacked:
        model.stacked_loss_and_gradients(snapshots, np.zeros((2, 2, 3)), labels)
    assert str(stacked.value) == str(replica.value) == "labels must lie in [0, 1], got range [1, 5]"
    with pytest.raises(ConfigurationError) as replica:
        model.loss_and_gradient(np.zeros((2, 4)), labels[0])
    with pytest.raises(ConfigurationError) as stacked:
        model.stacked_loss_and_gradients(snapshots, np.zeros((2, 2, 4)), labels)
    assert str(stacked.value) == str(replica.value)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_shared_snapshot_is_broadcast_not_stacked():
    """``paper_bulyan_lossy`` shares one snapshot among 17 workers: no ``(17, d)`` copy."""
    model = make_model("mlp", input_dim=1024, hidden=96, num_classes=10, rng=0)
    num, dim = 17, model.num_parameters
    snapshot = np.random.default_rng(0).standard_normal(dim) * 0.05
    x = np.random.default_rng(1).standard_normal((num, 1, 1024))
    y = np.zeros((num, 1), dtype=int)
    shared = [snapshot] * num
    copies = [snapshot.copy() for _ in range(num)]
    assert model.stacked_loss_and_gradients(shared, x, y)[1].tobytes() == (
        model.stacked_loss_and_gradients(copies, x, y)[1].tobytes()
    )
    stack_bytes = num * dim * 8
    broadcast = _peak_bytes(lambda: model.stacked_loss_and_gradients(shared, x, y))
    stacked = _peak_bytes(lambda: model.stacked_loss_and_gradients(copies, x, y))
    assert stacked - broadcast >= 0.9 * stack_bytes, (broadcast, stacked, stack_bytes)


def test_samplers_draw_in_worker_order_and_gather_their_own_rows():
    """Equal to sequential ``sample()`` calls, a private (corrupted) copy included."""
    generator = np.random.default_rng(0)
    features, labels = generator.standard_normal((30, 4)), generator.integers(0, 3, 30)
    private = (features[::-1] * 100.0, (labels + 1) % 3)

    def fleet(with_private):
        made = [MiniBatchSampler(features, labels, 5, rng=seed) for seed in (4, 9, 2)]
        if with_private:
            made.insert(1, MiniBatchSampler(*private, 5, rng=7))
        return made

    for with_private in (False, True):
        sequential, stacked = fleet(with_private), fleet(with_private)
        expected = [sampler.sample() for sampler in sequential]
        x, y = sample_stacked(stacked)
        assert x.tobytes() == np.stack([e[0] for e in expected]).tobytes()
        assert y.tobytes() == np.stack([e[1] for e in expected]).tobytes()
        assert [s._rng.bit_generator.state for s in stacked] == [
            s._rng.bit_generator.state for s in sequential
        ]


# ------------------------------------------------------------------- the gate
@pytest.mark.parametrize("layers", [
    [Dense(4, 3), Dropout(0.5), Dense(3, 2)],
    [Dense(4, 4), BatchNorm(4), Dense(4, 2)],
    [Conv2D(1, 2, 3), Flatten(), Dense(8, 2)],
    [Flatten(), ReLU()],
])
def test_models_with_per_replica_state_or_no_dense_have_no_signature(layers):
    assert Sequential(layers).stacked_signature() is None


def test_signatures_name_the_computation_not_the_weights():
    first = make_model("mlp", input_dim=4, hidden=3, num_classes=2, rng=0)
    again = make_model("mlp", input_dim=4, hidden=3, num_classes=2, rng=9)
    wider = make_model("mlp", input_dim=4, hidden=5, num_classes=2, rng=0)
    regularised = make_model("mlp", input_dim=4, hidden=3, num_classes=2, l2=0.1, rng=0)
    assert first.stacked_signature() == again.stacked_signature()
    assert first.stacked_signature() != wider.stacked_signature()
    assert first.stacked_signature() != regularised.stacked_signature()
    assert Sequential([Dense(2, 2), LeakyReLU(0.1)]).stacked_signature() != (
        Sequential([Dense(2, 2), LeakyReLU(0.2)]).stacked_signature()
    )
