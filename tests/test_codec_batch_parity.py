"""Batched codec paths: per-frame bit parity with the sequential encodes.

``encode_decode_batch`` must consume each codec's PRNG exactly as ``n``
sequential ``encode`` calls would and stamp identical frames, and returns the
decoded matrix in the same pass, whose row ``i`` must be bit-identical to
``decode_frame(frames[i])``.  These contracts are what lets the trainers'
encode stage reuse one decoded matrix for both the EF-SGD residuals and the
server-side arrival payloads.
"""

import numpy as np
import pytest

from repro.cluster.codec import (
    IdentityCodec,
    QSGDCodec,
    RandomKCodec,
    TopKCodec,
    decode_frame,
    decode_frames,
)


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
    batch_frames = batched_codec.encode_decode_batch(matrix)[0]
    seq_frames = [sequential_codec.encode(row) for row in matrix]
    _assert_frames_equal(batch_frames, seq_frames)


@pytest.mark.parametrize("codec_index", range(5))
def test_encode_decode_batch_matches_per_frame_decode(codec_index):
    matrix = _matrix(np.random.default_rng(1))
    one_pass_codec = _codecs(seed=7)[codec_index]
    reference_codec = _codecs(seed=7)[codec_index]
    frames, decoded = one_pass_codec.encode_decode_batch(matrix)
    _assert_frames_equal(frames, [reference_codec.encode(row) for row in matrix])
    assert decoded.shape == matrix.shape
    for i, frame in enumerate(frames):
        np.testing.assert_array_equal(decoded[i], decode_frame(frame))
    np.testing.assert_array_equal(decoded, decode_frames(frames))


def test_identity_encode_decode_batch_preserves_bits_and_copies():
    matrix = np.array([[0.0, -0.0, 1.5, np.pi], [1e-300, -1e300, 2.0, 3.0]])
    frames, decoded = IdentityCodec().encode_decode_batch(matrix)
    np.testing.assert_array_equal(decoded, matrix)
    # -0.0 must survive (bit preservation, not just value equality).
    assert np.signbit(decoded[0, 1])
    decoded[0, 0] = 99.0  # the decode is a copy, not a view of the input
    assert matrix[0, 0] == 0.0
    assert all(frame.codec == "identity" for frame in frames)


def test_batched_rng_codecs_stay_in_stream_across_calls():
    # Interleaving batch and scalar encodes must keep the PRNG stream
    # aligned with a purely sequential reference.
    matrix = _matrix(np.random.default_rng(2), n=6)
    for make in (lambda: RandomKCodec(k=8, rng=3), lambda: QSGDCodec(bits=4, rng=3)):
        mixed, reference = make(), make()
        got = mixed.encode_decode_batch(matrix[:3])[0] + [
            mixed.encode(matrix[3])
        ] + mixed.encode_decode_batch(matrix[4:])[0]
        want = [reference.encode(row) for row in matrix]
        _assert_frames_equal(got, want)
