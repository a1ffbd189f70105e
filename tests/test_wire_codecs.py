"""Tests for the pluggable wire codecs (cluster/codec.py)."""

import numpy as np
import pytest

from repro.cluster.codec import (
    FrameBatch,
    IdentityCodec,
    QSGDCodec,
    RandomKCodec,
    TopKCodec,
    available_codecs,
    decode_frame,
    make_codec,
)
from repro.cluster.cost_model import BYTES_PER_COORDINATE
from repro.exceptions import ConfigurationError
from tests.codec_reference import frames_of, shard_frame_bytes_batch, stack
from tests.codec_reference import shard_frame_bytes as frozen_shard_frame_bytes


def _encode(codec, gradient):
    """*gradient* as a batch of one row: its ``(frame, decoded)``."""
    batch, decoded = codec.encode_decode_batch(np.asarray(gradient)[None, :])
    return batch.frame(0), decoded[0]


def _mean_decode(codec, gradient, draws):
    """The mean of *draws* encode/decode round trips of *gradient*, in one batch."""
    return codec.encode_decode_batch(np.tile(gradient, (draws, 1)))[1].mean(axis=0)


class TestIdentityCodec:
    def test_roundtrip_is_exact(self, rng):
        gradient = rng.standard_normal(513)
        frame, decoded = _encode(IdentityCodec(), gradient)
        np.testing.assert_array_equal(decoded, gradient)
        np.testing.assert_array_equal(decode_frame(frame), gradient)

    def test_frame_bytes_match_raw_framing(self):
        codec = IdentityCodec()
        assert codec.frame_bytes(1000) == 1000 * BYTES_PER_COORDINATE
        assert codec.compression_ratio(1000) == 1.0

    def test_empty_gradient_rejected(self):
        with pytest.raises(ConfigurationError, match="empty gradient batch"):
            IdentityCodec().encode_decode_batch(np.zeros((1, 0)))


class TestTopKCodec:
    def test_support_is_the_k_largest_magnitudes(self, rng):
        gradient = rng.standard_normal(200)
        frame, _ = _encode(TopKCodec(k=10), gradient)
        kept = set(frame.indices.tolist())
        top = set(np.argsort(np.abs(gradient))[-10:].tolist())
        assert kept == top

    def test_decode_preserves_kept_magnitudes_and_zeroes_the_rest(self, rng):
        gradient = rng.standard_normal(100)
        _, decoded = _encode(TopKCodec(k=7), gradient)
        kept = np.nonzero(decoded)[0]
        assert len(kept) == 7
        np.testing.assert_array_equal(decoded[kept], gradient[kept])
        # Every surviving coordinate dominates every zeroed one in magnitude.
        zeroed = np.setdiff1d(np.arange(100), kept)
        assert np.abs(gradient[kept]).min() >= np.abs(gradient[zeroed]).max()

    def test_k_larger_than_dim_degrades_to_identity(self, rng):
        gradient = rng.standard_normal(5)
        np.testing.assert_array_equal(_encode(TopKCodec(k=50), gradient)[1], gradient)

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            TopKCodec(k=0)


class TestRandomKCodec:
    def test_unbiased_over_many_draws(self, rng):
        gradient = rng.standard_normal(50)
        mean = _mean_decode(RandomKCodec(k=25, rng=0), gradient, 4000)
        # Per-coordinate estimator std is |g_i| at k = d/2; 4000 draws put
        # the mean's std at |g_i|/63 — 0.25 is a comfortable many-sigma band.
        np.testing.assert_allclose(mean, gradient, atol=0.25)

    def test_support_size_and_scaling(self, rng):
        gradient = rng.standard_normal(40)
        frame, _ = _encode(RandomKCodec(k=8, rng=1), gradient)
        assert frame.indices.size == 8
        np.testing.assert_allclose(frame.values, gradient[frame.indices] * (40 / 8))


class TestQSGDCodec:
    def test_unbiased_over_many_draws(self, rng):
        gradient = rng.standard_normal(30)
        mean = _mean_decode(QSGDCodec(bits=2, rng=0), gradient, 4000)
        np.testing.assert_allclose(mean, gradient, atol=0.1)

    def test_levels_are_bounded_integers(self, rng):
        gradient = rng.standard_normal(500)
        codec = QSGDCodec(bits=3, rng=1)
        frame, _ = _encode(codec, gradient)
        levels = np.abs(frame.values)
        np.testing.assert_array_equal(levels, np.round(levels))
        assert levels.max() <= codec.levels

    def test_zero_gradient_roundtrips_to_zero(self):
        _, decoded = _encode(QSGDCodec(bits=4, rng=0), np.zeros(10))
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
            frame, _ = _encode(codec, gradient)
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
        frame, _ = _encode(TopKCodec(k=10), gradient)
        mangled = frame.degraded(np.full(10, np.nan))
        decoded = decode_frame(mangled)
        assert np.isnan(decoded[frame.indices]).all()
        others = np.setdiff1d(np.arange(100), frame.indices)
        np.testing.assert_array_equal(decoded[others], 0.0)

    def test_dropped_frame_propagates_none(self, rng):
        frame, _ = _encode(TopKCodec(k=4), rng.standard_normal(16))
        assert frame.degraded(None) is None


def _tiling(dim, num_shards):
    """``[lo, hi)`` bounds of *num_shards* contiguous shards tiling *dim*."""
    edges = np.linspace(0, dim, num_shards + 1).astype(int).tolist()
    return list(zip(edges[:-1], edges[1:]))


class TestShardFrameBytesBatch:
    """``FrameBatch.shard_bytes`` is the per-frame pricing, row by row, bit for bit."""

    DIM = 37
    CODECS = {
        "identity": lambda: IdentityCodec(),
        "top-k": lambda: TopKCodec(k=9),
        "random-k": lambda: RandomKCodec(k=9, rng=5),
        "qsgd": lambda: QSGDCodec(bits=4, rng=5),
    }

    def _batch(self, name, rng, n=6):
        return self.CODECS[name]().encode_decode_batch(rng.standard_normal((n, self.DIM)))[0]

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_batches_equal_the_per_frame_function(self, rng, name, num_shards):
        batch = self._batch(name, rng)
        frames = frames_of(batch)
        bounds = _tiling(self.DIM, num_shards)
        split = batch.shard_bytes(bounds)
        assert split.shape == (len(frames), num_shards)
        assert split.tolist() == [frozen_shard_frame_bytes(f, bounds).tolist() for f in frames]
        assert split.tolist() == shard_frame_bytes_batch(frames, bounds).tolist()
        if name == "random-k":
            # The 8-byte seed tag travels to every shard: a real fan-out cost.
            assert split.sum(axis=1).tolist() == [9 * 4.0 + 8.0 * num_shards] * len(frames)
        else:
            np.testing.assert_allclose(split.sum(axis=1), [f.nbytes for f in frames])

    @pytest.mark.parametrize("name", ["top-k", "random-k"])
    def test_a_thinned_frame_is_priced_alone_and_never_stacked(self, rng, name):
        frames = frames_of(self._batch(name, rng))
        # Packet loss thinned one frame's (index, value) pairs: it no longer
        # shares the batch's shape, and only a one-frame batch prices it.
        frames[2] = frames[2].degraded(frames[2].values[:4], indices=frames[2].indices[:4])
        with pytest.raises(ConfigurationError, match="one codec, dim, price and shape"):
            stack(frames)
        bounds = _tiling(self.DIM, 4)
        assert stack([frames[2]]).shard_bytes(bounds)[0].tolist() == (
            shard_frame_bytes_batch(frames, bounds)[2].tolist()
        ) == frozen_shard_frame_bytes(frames[2], bounds).tolist()

    def test_degraded_dense_rows_and_mixed_framings_concatenate_in_row_order(self, rng):
        dense = frames_of(self._batch("identity", rng, n=3))
        dense[1] = dense[1].degraded(np.full(self.DIM, np.nan))  # priced like any other
        batches = [
            stack(dense), self._batch("top-k", rng, n=2),
            self._batch("random-k", rng, n=2),
        ]
        bounds = _tiling(self.DIM, 2)
        mixed = [frame for batch in batches for frame in frames_of(batch)]
        assert np.concatenate([b.shard_bytes(bounds) for b in batches]).tolist() == [
            frozen_shard_frame_bytes(f, bounds).tolist() for f in mixed
        ]

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_bounds_that_do_not_tile_the_frame_are_rejected(self, rng, name):
        batch = self._batch(name, rng)
        for bounds in ([(0, 20), (20, 36)], [(0, 37), (37, 37)], []):
            with pytest.raises(ConfigurationError) as single:
                frozen_shard_frame_bytes(batch.frame(0), bounds)
            with pytest.raises(ConfigurationError) as batched:
                batch.shard_bytes(bounds)
            assert str(batched.value) == str(single.value)

    def test_empty_batch(self):
        empty = FrameBatch(dim=self.DIM, codec="identity", values=np.zeros((0, self.DIM)))
        assert empty.shard_bytes(_tiling(self.DIM, 3)).shape == (0, 3)
