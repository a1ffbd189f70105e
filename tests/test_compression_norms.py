"""Compression-error norms: one stacked ``matmul`` equals per-row ``np.linalg.norm``.

``BaseTrainer._encode_rows`` takes every row's residual norm from one
``(n, 1, d) @ (n, d, 1)`` product; each stacked product is the BLAS dot
``np.linalg.norm`` applies to a single row, so the two must agree in
``tobytes()`` — signed zeros, subnormals and overflow to ``inf`` included.
``einsum('ij,ij->i')`` sums in another order and does not.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.builder import build_trainer

#: Values a residual row is drawn from: signed zeros, subnormals, huge
#: magnitudes whose squares overflow, and ordinary floats.
ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e150, -1e150, 3e153]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=True),
)


def stacked_norms(residuals: np.ndarray) -> np.ndarray:
    """The expression ``_encode_rows`` evaluates."""
    return np.sqrt((residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0])


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 12), st.sampled_from([1, 2, 3, 7, 55, 128])),
    data=st.data(),
)
def test_stacked_norms_equal_per_row_linalg_norm_in_bytes(shape, data):
    residuals = data.draw(arrays(np.float64, shape, elements=ELEMENTS))
    zero_rows = data.draw(arrays(bool, shape[0]))
    residuals[zero_rows] = data.draw(st.sampled_from([0.0, -0.0]))
    with np.errstate(over="ignore"):  # squares of 1e150 overflow on purpose
        expected = np.array([np.linalg.norm(row) for row in residuals])
        assert stacked_norms(residuals).tobytes() == expected.tobytes()


def test_stacked_norms_at_the_fleet_and_paper_shapes():
    rng = np.random.default_rng(7)
    for n, d in ((10_000, 55), (4, 99_370)):
        residuals = rng.standard_normal((n, d))
        expected = np.array([np.linalg.norm(row) for row in residuals])
        assert stacked_norms(residuals).tobytes() == expected.tobytes()


def test_encode_rows_reports_the_per_row_norms_of_its_residuals(tiny_dataset):
    trainer = build_trainer(
        model="logistic", model_kwargs={"input_dim": 8, "num_classes": 3},
        dataset=tiny_dataset, gar="average", num_workers=6, codec="top-k", codec_k=3,
        error_feedback=False, seed=3,
    )
    gradients = np.random.default_rng(0).standard_normal((6, trainer.server.dim))
    _, decoded, errors = trainer._encode_rows(np.arange(6), gradients)
    expected = np.array([np.linalg.norm(row) for row in gradients - decoded])
    assert errors.tobytes() == expected.tobytes()
