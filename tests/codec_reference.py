"""The list-of-frames shard pricing and decode ``FrameBatch`` replaced, frozen as oracles.

Before the codecs' ``encode_decode_batch`` returned one
:class:`~repro.cluster.codec.FrameBatch`, a batch was a list of
:class:`~repro.cluster.codec.WireFrame` objects, decoded by
:func:`decode_frames` and priced per shard by :func:`shard_frame_bytes_batch`
on top of the per-frame :func:`shard_frame_bytes`.  All three are kept
verbatim here: ``FrameBatch.decode`` and ``FrameBatch.shard_bytes`` (and so
:func:`repro.cluster.codec.shard_frame_bytes`, its one-frame batch) are held
``==`` to them and to the per-frame
:func:`~repro.cluster.codec.decode_frame`, which stays in ``src/``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.cluster.codec import WireFrame, decode_frame
from repro.cluster.cost_model import BYTES_PER_COORDINATE
from repro.exceptions import ConfigurationError


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
        raise ConfigurationError("shard_frame_bytes needs at least one shard")
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
        raise ConfigurationError("shard_frame_bytes needs at least one shard")
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
