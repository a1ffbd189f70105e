"""The scalar codec paths and list-of-frames functions ``FrameBatch`` replaced, frozen as oracles.

Every codec once spelt its encode twice: a scalar ``encode`` of one flat
gradient into one :class:`~repro.cluster.codec.WireFrame`, beside the
``encode_decode_batch`` the trainers call, and the base class's
``encode_decode_batch`` was a loop over the scalar one, stacked by
``FrameBatch.stack``.  The four scalar encodes (:func:`encode` dispatches on
the codec's class), the ``_flat`` check they share, that loop
(:func:`encode_decode_batch`) and ``FrameBatch.stack`` (:func:`stack`) are
kept here verbatim, as functions of the codec (``self``) or of the frames.
One mechanical edit: ``self._flat`` is the module's :func:`_flat`.  Every
live ``encode_decode_batch`` is held ``==`` to :func:`encode_decode_batch`
on the same codec class and seed — values, supports, scales, prices, decode
and the PRNG state it leaves (``tests/test_frame_batch.py``,
``tests/test_codec_batch_parity.py``).

Before the codecs' ``encode_decode_batch`` returned one
:class:`~repro.cluster.codec.FrameBatch`, a batch was a list of
:class:`~repro.cluster.codec.WireFrame` objects, decoded by
:func:`decode_frames` and priced per shard by :func:`shard_frame_bytes_batch`
on top of the per-frame :func:`shard_frame_bytes`.  All three are kept
verbatim here: ``FrameBatch.decode`` and ``FrameBatch.shard_bytes`` are held
``==`` to them and to the per-frame
:func:`~repro.cluster.codec.decode_frame`, which stays in ``src/``.
Do not edit the function bodies below.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.cluster.codec import (
    FrameBatch,
    IdentityCodec,
    QSGDCodec,
    RandomKCodec,
    TopKCodec,
    WireCodec,
    WireFrame,
    decode_frame,
)
from repro.cluster.cost_model import BYTES_PER_COORDINATE
from repro.exceptions import ConfigurationError


def _flat(gradient: np.ndarray) -> np.ndarray:
    gradient = np.asarray(gradient, dtype=np.float64).ravel()
    if gradient.size == 0:
        raise ConfigurationError("cannot encode an empty gradient")
    return gradient


def _identity_encode(self: IdentityCodec, gradient: np.ndarray) -> WireFrame:
    values = _flat(gradient)
    return WireFrame(
        dim=values.size, values=values, nbytes=self.frame_bytes(values.size),
        codec=self.name,
    )


def _top_k_encode(self: TopKCodec, gradient: np.ndarray) -> WireFrame:
    values = _flat(gradient)
    k = self._effective_k(values.size)
    if k >= values.size:
        indices = np.arange(values.size)
    else:
        # simlint: disable=SIM301 boundary ties follow introselect pivot
        # order; the resulting support is pinned by the frozen codec
        # round-trip oracles and the batch path reproduces it exactly.
        indices = np.argpartition(np.abs(values), values.size - k)[-k:]
        indices = np.sort(indices)
    return WireFrame(
        dim=values.size, values=values[indices].copy(), indices=indices,
        nbytes=self.frame_bytes(values.size), codec=self.name,
    )


def _random_k_encode(self: RandomKCodec, gradient: np.ndarray) -> WireFrame:
    values = _flat(gradient)
    k = self._effective_k(values.size)
    uniforms = self._rng.random(values.size)
    # simlint: disable=SIM301 uniform-draw ties are measure-zero
    indices = np.sort(np.argpartition(uniforms, k - 1)[:k])
    scale = values.size / k
    return WireFrame(
        dim=values.size, values=values[indices] * scale, indices=indices,
        scale=scale, nbytes=self.frame_bytes(values.size), codec=self.name,
        shared_support=True,
    )


def _qsgd_encode(self: QSGDCodec, gradient: np.ndarray) -> WireFrame:
    values = _flat(gradient)
    # Same reduction shape as the batched row norms (a length-d pairwise
    # sum over the contiguous row), so batch and per-row paths agree bit
    # for bit on the norm that feeds the rounding probabilities.
    norm = float(np.sqrt(np.square(values).sum()))
    if norm == 0.0 or not np.isfinite(norm):
        # Zero (or non-finite) gradients carry zero levels; the scale
        # keeps decode finite and the frame priced like any other.
        return WireFrame(
            dim=values.size, values=np.zeros(values.size), scale=0.0,
            nbytes=self.frame_bytes(values.size), codec=self.name,
        )
    ratio = np.abs(values) / norm * self.levels
    low = np.floor(ratio)
    level = low + (self._rng.random(values.size) < (ratio - low))
    return WireFrame(
        dim=values.size, values=np.sign(values) * level,
        scale=norm / self.levels, nbytes=self.frame_bytes(values.size),
        codec=self.name,
    )


#: Each built-in codec class's frozen scalar encode.
SCALAR_ENCODES = {
    IdentityCodec: _identity_encode,
    TopKCodec: _top_k_encode,
    RandomKCodec: _random_k_encode,
    QSGDCodec: _qsgd_encode,
}


def encode(codec: WireCodec, gradient: np.ndarray) -> WireFrame:
    """*codec*'s frozen scalar encode of one flat *gradient*, on its own PRNG."""
    return SCALAR_ENCODES[type(codec)](codec, gradient)


def stack(frames: Sequence[WireFrame]) -> FrameBatch:
    """The batch whose rows are *frames* — one codec, dim, price and shape."""
    first = frames[0]
    layouts = {
        (f.dim, f.codec, f.nbytes, f.shared_support, np.shape(f.values),
         None if f.indices is None else np.shape(f.indices))
        for f in frames
    }
    if len(layouts) != 1:
        raise ConfigurationError(
            "a frame batch needs frames of one codec, dim, price and shape"
        )
    return FrameBatch(
        dim=first.dim, codec=first.codec,
        values=np.stack([np.asarray(f.values, dtype=np.float64) for f in frames]),
        indices=None if first.indices is None else np.stack([f.indices for f in frames]),
        scales=np.array([f.scale for f in frames], dtype=np.float64),
        nbytes=first.nbytes, shared_support=first.shared_support,
    )


def encode_decode_batch(codec: WireCodec, matrix: np.ndarray) -> Tuple[FrameBatch, np.ndarray]:
    """The base class's loop: one frozen :func:`encode` per row, stacked into one batch."""
    matrix = codec._matrix(matrix)
    batch = stack([encode(codec, row) for row in matrix])
    return batch, batch.decode()


def decode_frames(frames: Sequence[WireFrame]) -> np.ndarray:
    """Decode a batch of frames into one ``(n, dim)`` matrix in a single pass.

    Row ``i`` is bit-identical to ``decode_frame(frames[i])``.  Homogeneous
    batches (all sparse with equal support size, or all dense with equal
    payload length — the shape every codec's ``encode_decode_batch`` emits) decode
    as one vectorised scatter or one broadcast multiply; ragged batches
    (e.g. frames degraded by packet loss) fall back to the per-frame loop.
    """
    if len(frames) == 0:
        raise ConfigurationError("cannot decode an empty frame batch")
    dim = frames[0].dim
    if any(frame.dim != dim for frame in frames):
        raise ConfigurationError("decode_frames needs frames of equal dim")
    sparse = frames[0].indices is not None
    uniform = all(
        (frame.indices is not None) == sparse
        and np.asarray(frame.values).ndim == 1
        and (
            (sparse and frame.indices.shape == frames[0].indices.shape
             and np.asarray(frame.values).shape == frame.indices.shape)
            or (not sparse and np.asarray(frame.values).size == dim)
        )
        for frame in frames
    )
    if not uniform:
        return np.stack([decode_frame(frame) for frame in frames])
    values = np.stack([np.asarray(frame.values, dtype=np.float64) for frame in frames])
    if sparse:
        out = np.zeros((len(frames), dim), dtype=np.float64)
        indices = np.stack([frame.indices for frame in frames])
        np.put_along_axis(out, indices, values, axis=1)
        return out
    scales = np.array([frame.scale for frame in frames], dtype=np.float64)
    return values * scales[:, None]


def shard_frame_bytes(
    frame: WireFrame, bounds: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Split one frame's priced bytes into per-shard sub-frame bytes.

    When the server side is a sharded parameter service, a worker's push
    fans out as one sub-frame per contiguous coordinate shard ``[lo, hi)``.
    This prices that fan-out from the frame alone — no re-encoding:

    * **Explicit-index sparse frames** (top-k): each shard receives exactly
      its resident ``(index, value)`` pairs, priced at the codec's
      per-coordinate rate (``nbytes / k``), so the split sums exactly to
      the frame's priced bytes.
    * **Shared-support sparse frames** (random-k): values split by resident
      count at ``BYTES_PER_COORDINATE`` each, but the 8-byte seed tag must
      travel to *every* shard (each endpoint re-derives the full support
      independently) — a real fan-out overhead of ``8 * (num_shards - 1)``
      bytes over the unsharded frame.
    * **Dense frames** (identity, qsgd, dense deltas): the payload plane is
      cut at the shard boundaries, so bytes split proportionally to shard
      width and sum exactly to the frame's priced bytes.
    """
    if not bounds:
        raise ConfigurationError("shard_bytes needs at least one shard")
    widths = np.array([hi - lo for lo, hi in bounds], dtype=np.float64)
    if (widths < 1).any() or int(widths.sum()) != frame.dim:
        raise ConfigurationError(
            f"shard bounds {list(bounds)} do not tile a dim-{frame.dim} frame"
        )
    if frame.indices is not None:
        edges = np.array([lo for lo, _ in bounds] + [bounds[-1][1]])
        counts = np.diff(np.searchsorted(np.sort(frame.indices), edges)).astype(
            np.float64
        )
        k = max(int(np.asarray(frame.indices).size), 1)
        if frame.shared_support:
            # k float32 values split by residency; the seed tag replicates.
            return counts * BYTES_PER_COORDINATE + 8.0
        return counts * (frame.nbytes / k)
    return frame.nbytes * (widths / float(frame.dim))


def shard_frame_bytes_batch(
    frames: Sequence[WireFrame], bounds: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """:func:`shard_frame_bytes` for a batch: an ``(n, num_shards)`` matrix.

    Row ``i`` is bit-identical to ``shard_frame_bytes(frames[i], bounds)``
    (the same elementwise operations, broadcast over the batch).  Uniform
    batches — all dense with one ``dim``, or all sparse with one support
    size and one framing, the shape every codec's ``encode_decode_batch`` emits —
    are priced in one pass: dense rows are ``nbytes[:, None] * (widths /
    dim)``; sparse rows count each shard's resident indices with a single
    comparison of the stacked supports against the shard edges.  Ragged
    batches (e.g. frames thinned by packet loss) fall back to the per-frame
    function, exactly as :func:`decode_frames` does, and so does a batch
    the bounds do not tile (for the same ``ConfigurationError``).
    """
    if not bounds:
        raise ConfigurationError("shard_bytes needs at least one shard")
    if len(frames) == 0:
        return np.zeros((0, len(bounds)))
    first = frames[0]
    sparse = first.indices is not None
    widths = np.array([hi - lo for lo, hi in bounds], dtype=np.float64)
    uniform = (widths >= 1).all() and int(widths.sum()) == first.dim and all(
        frame.dim == first.dim
        and (frame.indices is not None) == sparse
        and (
            not sparse
            or (frame.indices.shape == first.indices.shape
                and frame.shared_support == first.shared_support)
        )
        for frame in frames
    )
    if not uniform:
        return np.stack([shard_frame_bytes(frame, bounds) for frame in frames])
    nbytes = np.array([frame.nbytes for frame in frames], dtype=np.float64)
    if not sparse:
        return nbytes[:, None] * (widths / float(first.dim))
    # Indices below each edge, differenced: what searchsorted on the sorted
    # support returns, without the sort.
    edges = np.array([lo for lo, _ in bounds] + [bounds[-1][1]])
    supports = np.stack([np.ravel(frame.indices) for frame in frames])
    below = (supports[:, None, :] < edges[None, :, None]).sum(axis=2)
    counts = np.diff(below, axis=1).astype(np.float64)
    if first.shared_support:
        return counts * BYTES_PER_COORDINATE + 8.0
    return counts * (nbytes / max(supports.shape[1], 1))[:, None]


def frames_of(batch) -> list:
    """A :class:`~repro.cluster.codec.FrameBatch` as the frame list it replaced."""
    return [batch.frame(i) for i in range(len(batch))]
