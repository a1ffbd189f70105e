"""Batched codec paths: per-frame bit parity with the frozen sequential encodes.

``encode_decode_batch`` must consume each codec's PRNG exactly as ``n``
sequential calls of the frozen scalar ``encode`` (``tests/codec_reference.py``)
would and stamp identical frames, and returns the decoded matrix in the same
pass, whose row ``i`` must be bit-identical to
``decode_frame(batch.frame(i))``.  These contracts are what lets the trainers'
encode stage reuse one decoded matrix for both the EF-SGD residuals and the
server-side arrival payloads.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.codec import (
    IdentityCodec,
    QSGDCodec,
    RandomKCodec,
    TopKCodec,
    decode_frame,
)
from tests import codec_reference
from tests.codec_reference import decode_frames, frames_of


def _matrix(rng, n=12, dim=40):
    matrix = rng.standard_normal((n, dim))
    matrix[3] *= 1e6          # large-magnitude row
    if n > 5:
        matrix[5] = 0.0       # all-zero row (qsgd zero-norm fast path)
    if n > 7:
        matrix[7, ::2] = 0.0  # sparse-ish row with magnitude ties
    return matrix


def _codecs(seed):
    return [
        IdentityCodec(),
        TopKCodec(k=8),
        TopKCodec(k=100),     # k >= dim: identity degradation
        RandomKCodec(k=8, rng=seed),
        QSGDCodec(bits=4, rng=seed),
    ]


def _assert_frames_equal(batch, sequential):
    assert len(batch) == len(sequential)
    for got, want in zip(batch, sequential):
        assert got.dim == want.dim
        assert got.codec == want.codec
        assert got.nbytes == want.nbytes
        assert got.scale == want.scale
        np.testing.assert_array_equal(got.values, want.values)
        if want.indices is None:
            assert got.indices is None
        else:
            np.testing.assert_array_equal(got.indices, want.indices)


@pytest.mark.parametrize("codec_index", range(5))
def test_encode_batch_matches_sequential_encodes(codec_index):
    matrix = _matrix(np.random.default_rng(0))
    batched_codec = _codecs(seed=42)[codec_index]
    sequential_codec = _codecs(seed=42)[codec_index]
    batch_frames = frames_of(batched_codec.encode_decode_batch(matrix)[0])
    seq_frames = [codec_reference.encode(sequential_codec, row) for row in matrix]
    _assert_frames_equal(batch_frames, seq_frames)


@pytest.mark.parametrize("codec_index", range(5))
def test_encode_decode_batch_matches_per_frame_decode(codec_index):
    matrix = _matrix(np.random.default_rng(1))
    one_pass_codec = _codecs(seed=7)[codec_index]
    reference_codec = _codecs(seed=7)[codec_index]
    batch, decoded = one_pass_codec.encode_decode_batch(matrix)
    frames = frames_of(batch)
    _assert_frames_equal(
        frames, [codec_reference.encode(reference_codec, row) for row in matrix]
    )
    assert decoded.shape == matrix.shape
    for i, frame in enumerate(frames):
        np.testing.assert_array_equal(decoded[i], decode_frame(frame))
    np.testing.assert_array_equal(decoded, decode_frames(frames))


def test_identity_encode_decode_batch_preserves_bits_and_copies():
    matrix = np.array([[0.0, -0.0, 1.5, np.pi], [1e-300, -1e300, 2.0, 3.0]])
    batch, decoded = IdentityCodec().encode_decode_batch(matrix)
    np.testing.assert_array_equal(decoded, matrix)
    # -0.0 must survive (bit preservation, not just value equality).
    assert np.signbit(decoded[0, 1])
    decoded[0, 0] = 99.0  # the decode is a copy, not a view of the input
    assert matrix[0, 0] == 0.0
    assert batch.codec == "identity"


def test_batched_rng_codecs_stay_in_stream_across_calls():
    # Batches of several rows and of one row, one after another, must keep
    # the PRNG stream aligned with a purely sequential reference.
    matrix = _matrix(np.random.default_rng(2), n=6)
    for make in (lambda: RandomKCodec(k=8, rng=3), lambda: QSGDCodec(bits=4, rng=3)):
        mixed, reference = make(), make()
        got = [
            frame for part in (matrix[:3], matrix[3:4], matrix[4:])
            for frame in frames_of(mixed.encode_decode_batch(part)[0])
        ]
        want = [codec_reference.encode(reference, row) for row in matrix]
        _assert_frames_equal(got, want)


#: Rows QSGD must frame without drawing a rounding coin — zero, NaN, inf,
#: and finite rows whose squared norm overflows — beside live rows at
#: magnitudes from tiny (squares near the smallest normal) to huge.
_QSGD_ROW = st.one_of(
    st.sampled_from(["zero", "nan", "inf", "-inf", "overflow"]),
    st.sampled_from([1e-150, 1e-3, 1.0, 1e150]),
)


def _qsgd_row(kind, rng, dim):
    row = rng.standard_normal(dim)
    if kind == "zero":
        return np.zeros(dim)
    if kind == "overflow":
        return row * 1e300
    if isinstance(kind, str):
        row[rng.integers(dim)] = float(kind)
        return row
    return row * kind


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(_QSGD_ROW, min_size=1, max_size=8),
    dim=st.integers(min_value=1, max_value=24),
    bits=st.integers(min_value=QSGDCodec.MIN_BITS, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(kinds=["zero", "nan", "inf", "overflow"], dim=7, bits=4, seed=0)  # all dead
@example(kinds=["nan", 1.0, "zero", 1e-150, "overflow", 1e150], dim=9, bits=1, seed=1)
def test_qsgd_columns_equal_the_frozen_per_row_loop(kinds, dim, bits, seed):
    """Dead rows draw nothing, live rows draw in row order: bytes and PRNG state ``==``."""
    rng = np.random.default_rng(seed)
    matrix = np.stack([_qsgd_row(kind, rng, dim) for kind in kinds])
    live, frozen = QSGDCodec(bits, rng=seed), QSGDCodec(bits, rng=seed)
    with np.errstate(over="ignore", invalid="ignore"):
        batch, decoded = live.encode_decode_batch(matrix)
        want, want_decoded = codec_reference.encode_decode_batch(frozen, matrix)
    assert batch.values.tobytes() == want.values.tobytes()
    assert batch.scales.tobytes() == want.scales.tobytes()
    assert decoded.tobytes() == want_decoded.tobytes()
    assert (batch.dim, batch.codec, batch.nbytes, batch.indices) == (
        want.dim, want.codec, want.nbytes, want.indices
    )
    assert live._rng.bit_generator.state == frozen._rng.bit_generator.state
