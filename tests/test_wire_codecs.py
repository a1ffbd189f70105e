"""Tests for the pluggable wire codecs (cluster/codec.py)."""

import numpy as np
import pytest

from repro.cluster.codec import (
    IdentityCodec,
    QSGDCodec,
    RandomKCodec,
    TopKCodec,
    available_codecs,
    decode_frame,
    make_codec,
    shard_frame_bytes,
    shard_frame_bytes_batch,
)
from repro.cluster.cost_model import BYTES_PER_COORDINATE
from repro.exceptions import ConfigurationError


class TestIdentityCodec:
    def test_roundtrip_is_exact(self, rng):
        gradient = rng.standard_normal(513)
        codec = IdentityCodec()
        frame = codec.encode(gradient)
        np.testing.assert_array_equal(codec.decode(frame), gradient)
        np.testing.assert_array_equal(decode_frame(frame), gradient)

    def test_frame_bytes_match_raw_framing(self):
        codec = IdentityCodec()
        assert codec.frame_bytes(1000) == 1000 * BYTES_PER_COORDINATE
        assert codec.compression_ratio(1000) == 1.0

    def test_decode_returns_a_copy(self, rng):
        gradient = rng.standard_normal(16)
        codec = IdentityCodec()
        frame = codec.encode(gradient)
        decoded = codec.decode(frame)
        decoded[0] = 123.0
        assert frame.values[0] != 123.0 or gradient[0] != 123.0

    def test_empty_gradient_rejected(self):
        with pytest.raises(ConfigurationError):
            IdentityCodec().encode(np.zeros(0))


class TestTopKCodec:
    def test_support_is_the_k_largest_magnitudes(self, rng):
        gradient = rng.standard_normal(200)
        codec = TopKCodec(k=10)
        frame = codec.encode(gradient)
        kept = set(frame.indices.tolist())
        top = set(np.argsort(np.abs(gradient))[-10:].tolist())
        assert kept == top

    def test_decode_preserves_kept_magnitudes_and_zeroes_the_rest(self, rng):
        gradient = rng.standard_normal(100)
        codec = TopKCodec(k=7)
        decoded = codec.decode(codec.encode(gradient))
        kept = np.nonzero(decoded)[0]
        assert len(kept) == 7
        np.testing.assert_array_equal(decoded[kept], gradient[kept])
        # Every surviving coordinate dominates every zeroed one in magnitude.
        zeroed = np.setdiff1d(np.arange(100), kept)
        assert np.abs(gradient[kept]).min() >= np.abs(gradient[zeroed]).max()

    def test_k_larger_than_dim_degrades_to_identity(self, rng):
        gradient = rng.standard_normal(5)
        codec = TopKCodec(k=50)
        np.testing.assert_array_equal(codec.decode(codec.encode(gradient)), gradient)

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            TopKCodec(k=0)


class TestRandomKCodec:
    def test_unbiased_over_many_draws(self, rng):
        gradient = rng.standard_normal(50)
        codec = RandomKCodec(k=25, rng=0)
        mean = np.mean(
            [codec.decode(codec.encode(gradient)) for _ in range(4000)], axis=0
        )
        # Per-coordinate estimator std is |g_i| at k = d/2; 4000 draws put
        # the mean's std at |g_i|/63 — 0.25 is a comfortable many-sigma band.
        np.testing.assert_allclose(mean, gradient, atol=0.25)

    def test_support_size_and_scaling(self, rng):
        gradient = rng.standard_normal(40)
        codec = RandomKCodec(k=8, rng=1)
        frame = codec.encode(gradient)
        assert frame.indices.size == 8
        np.testing.assert_allclose(frame.values, gradient[frame.indices] * (40 / 8))


class TestQSGDCodec:
    def test_unbiased_over_many_draws(self, rng):
        gradient = rng.standard_normal(30)
        codec = QSGDCodec(bits=2, rng=0)
        mean = np.mean(
            [codec.decode(codec.encode(gradient)) for _ in range(4000)], axis=0
        )
        np.testing.assert_allclose(mean, gradient, atol=0.1)

    def test_levels_are_bounded_integers(self, rng):
        gradient = rng.standard_normal(500)
        codec = QSGDCodec(bits=3, rng=1)
        frame = codec.encode(gradient)
        levels = np.abs(frame.values)
        np.testing.assert_array_equal(levels, np.round(levels))
        assert levels.max() <= codec.levels

    def test_zero_gradient_roundtrips_to_zero(self):
        codec = QSGDCodec(bits=4, rng=0)
        decoded = codec.decode(codec.encode(np.zeros(10)))
        np.testing.assert_array_equal(decoded, np.zeros(10))

    def test_invalid_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            QSGDCodec(bits=0)
        with pytest.raises(ConfigurationError):
            QSGDCodec(bits=17)


class TestByteMonotonicity:
    """Encoded bytes <= raw bytes, and decreasing in k / bits."""

    DIM = 10_000

    def test_every_codec_is_at_most_raw(self):
        raw = self.DIM * BYTES_PER_COORDINATE
        assert TopKCodec(k=self.DIM // 4).frame_bytes(self.DIM) <= raw
        assert RandomKCodec(k=self.DIM // 4, rng=0).frame_bytes(self.DIM) <= raw
        assert QSGDCodec(bits=8, rng=0).frame_bytes(self.DIM) <= raw
        assert IdentityCodec().frame_bytes(self.DIM) == raw

    def test_bytes_decrease_in_k(self):
        sizes = [TopKCodec(k=k).frame_bytes(self.DIM) for k in (4000, 1000, 100, 10)]
        assert sizes == sorted(sizes, reverse=True)
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_bytes_decrease_in_bits(self):
        sizes = [QSGDCodec(bits=b, rng=0).frame_bytes(self.DIM) for b in (16, 8, 4, 2, 1)]
        assert sizes == sorted(sizes, reverse=True)
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_frame_carries_its_priced_bytes(self, rng):
        gradient = rng.standard_normal(self.DIM)
        for codec in (IdentityCodec(), TopKCodec(k=100), QSGDCodec(bits=4, rng=0)):
            frame = codec.encode(gradient)
            assert frame.nbytes == codec.frame_bytes(self.DIM)


class TestRegistry:
    def test_available_codecs(self):
        assert available_codecs() == ["identity", "qsgd", "random-k", "top-k"]

    def test_make_codec_identity(self):
        assert isinstance(make_codec("identity"), IdentityCodec)

    def test_make_codec_topk_requires_k(self):
        with pytest.raises(ConfigurationError, match="codec_k"):
            make_codec("top-k")
        assert make_codec("top-k", k=5).k == 5

    def test_make_codec_rejects_misplaced_arguments(self):
        with pytest.raises(ConfigurationError):
            make_codec("identity", k=5)
        with pytest.raises(ConfigurationError):
            make_codec("identity", bits=4)
        with pytest.raises(ConfigurationError):
            make_codec("qsgd", k=5)
        with pytest.raises(ConfigurationError):
            make_codec("top-k", k=5, bits=4)

    def test_make_codec_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown codec"):
            make_codec("zip")

    def test_qsgd_default_bits(self):
        assert make_codec("qsgd").bits == 4


class TestDegradedFrames:
    """decode_frame handles frames the lossy transport mangled."""

    def test_sparse_frame_with_nan_values(self, rng):
        gradient = rng.standard_normal(100)
        codec = TopKCodec(k=10)
        frame = codec.encode(gradient)
        mangled = frame.degraded(np.full(10, np.nan))
        decoded = decode_frame(mangled)
        assert np.isnan(decoded[frame.indices]).all()
        others = np.setdiff1d(np.arange(100), frame.indices)
        np.testing.assert_array_equal(decoded[others], 0.0)

    def test_dropped_frame_propagates_none(self, rng):
        frame = TopKCodec(k=4).encode(rng.standard_normal(16))
        assert frame.degraded(None) is None


def _tiling(dim, num_shards):
    """``[lo, hi)`` bounds of *num_shards* contiguous shards tiling *dim*."""
    edges = np.linspace(0, dim, num_shards + 1).astype(int).tolist()
    return list(zip(edges[:-1], edges[1:]))


class TestShardFrameBytesBatch:
    """The batch pricing is the per-frame pricing, row by row, bit for bit."""

    DIM = 37
    CODECS = {
        "identity": lambda: IdentityCodec(),
        "top-k": lambda: TopKCodec(k=9),
        "random-k": lambda: RandomKCodec(k=9, rng=5),
        "qsgd": lambda: QSGDCodec(bits=4, rng=5),
    }

    def _frames(self, name, rng, n=6):
        return self.CODECS[name]().encode_decode_batch(rng.standard_normal((n, self.DIM)))[0]

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_uniform_batches_equal_the_per_frame_function(self, rng, name, num_shards):
        frames = self._frames(name, rng)
        bounds = _tiling(self.DIM, num_shards)
        batch = shard_frame_bytes_batch(frames, bounds)
        assert batch.shape == (len(frames), num_shards)
        assert batch.tolist() == [shard_frame_bytes(f, bounds).tolist() for f in frames]
        if name == "random-k":
            # The 8-byte seed tag travels to every shard: a real fan-out cost.
            assert batch.sum(axis=1).tolist() == [9 * 4.0 + 8.0 * num_shards] * len(frames)
        else:
            np.testing.assert_allclose(batch.sum(axis=1), [f.nbytes for f in frames])

    @pytest.mark.parametrize("name", ["top-k", "random-k"])
    def test_ragged_batches_fall_back_to_the_per_frame_function(self, rng, name):
        frames = self._frames(name, rng)
        # Packet loss thinned one frame's (index, value) pairs.
        frames[2] = frames[2].degraded(frames[2].values[:4], indices=frames[2].indices[:4])
        bounds = _tiling(self.DIM, 4)
        batch = shard_frame_bytes_batch(frames, bounds)
        assert batch.tolist() == [shard_frame_bytes(f, bounds).tolist() for f in frames]

    def test_mixed_framings_and_degraded_dense_frames(self, rng):
        dense = self._frames("identity", rng, n=3)
        dense[1] = dense[1].degraded(np.full(self.DIM, np.nan))  # priced like any other
        bounds = _tiling(self.DIM, 2)
        assert shard_frame_bytes_batch(dense, bounds).tolist() == [
            shard_frame_bytes(f, bounds).tolist() for f in dense
        ]
        mixed = dense + self._frames("top-k", rng, n=2) + self._frames("random-k", rng, n=2)
        assert shard_frame_bytes_batch(mixed, bounds).tolist() == [
            shard_frame_bytes(f, bounds).tolist() for f in mixed
        ]

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_bounds_that_do_not_tile_the_frame_are_rejected(self, rng, name):
        frames = self._frames(name, rng)
        for bounds in ([(0, 20), (20, 36)], [(0, 37), (37, 37)], []):
            with pytest.raises(ConfigurationError) as single:
                shard_frame_bytes(frames[0], bounds)
            with pytest.raises(ConfigurationError) as batch:
                shard_frame_bytes_batch(frames, bounds)
            assert str(batch.value) == str(single.value)

    def test_empty_batch(self):
        assert shard_frame_bytes_batch([], _tiling(self.DIM, 3)).shape == (0, 3)
