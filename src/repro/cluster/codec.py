"""Pluggable wire codecs: what a gradient looks like as bytes on the wire.

The paper's transport trades delivered bytes against time and lets the robust
GAR absorb the damage; this module makes the *byte* side of that trade-off a
first-class, pluggable stage.  A :class:`WireCodec` sits between the worker
and its channel: ``encode`` turns a flat gradient into a :class:`WireFrame`
(the exact float payload that crosses the wire plus its priced byte count),
``decode`` reconstructs a gradient estimate at the server.  Transfer time is
always priced on the *encoded* bytes, and the lossy transport packetizes the
encoded payload — so drops, reordering and garbage fill hit compressed
frames, exactly as they would on a real UDP wire.

A fleet's round is encoded as one :class:`FrameBatch` — the ``(n, m)``
payload plane, the ``(n, k)`` supports and the ``(n,)`` scales in columns —
by :meth:`WireCodec.encode_decode_batch`.  A :class:`WireFrame` is minted
from it (:meth:`FrameBatch.frame`) only where one frame has to travel on
its own: through a lossy channel, or inside one async ``arrive`` event.

Implemented codecs
------------------
``identity``
    Raw float32 framing, ``4 * d`` bytes — bit-identical to the seed wire.
``top-k``
    Magnitude sparsification: the ``k`` largest-magnitude coordinates travel
    as ``(index, value)`` pairs (8 bytes per kept coordinate).  Biased but
    very effective in practice; the dropped mass is simply zero at decode.
``random-k``
    Uniform-support sparsification with the shared-seed trick: sender and
    receiver derive the support from a common PRNG, so only the ``k`` values
    (plus one 8-byte seed tag) cross the wire.  Kept values are scaled by
    ``d / k`` so the decoded gradient stays an unbiased estimate.
``qsgd``
    QSGD-style stochastic quantisation (Alistarh et al.): coordinates are
    randomly rounded to ``2^bits - 1`` levels of ``|g_i| / ||g||_2``, so the
    wire carries small signed integers (``bits + 1`` bits per coordinate)
    plus one float32 norm.  Stochastic rounding keeps the estimate unbiased:
    the mean of many encode/decode draws converges to the input gradient.

Every codec owns its byte pricing through :meth:`WireCodec.frame_bytes`,
which is the single source of truth for bytes-per-gradient — the transport
layer never re-derives wire sizes from a shared constant.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cost_model import BYTES_PER_COORDINATE
from repro.exceptions import ConfigurationError
from repro.utils.random import SeedLike, as_rng, component_seed

#: Sentinel distinguishing "keep the frame's indices" from an explicit None.
_KEEP_INDICES = object()


@dataclass(slots=True)
class WireFrame:
    """One encoded gradient as it crosses the wire.

    A slotted dataclass.  Batch encodes keep their frames in columns
    (:class:`FrameBatch`); a frame is built where one gradient travels on
    its own — a scalar encode, a row of a batch crossing a channel that can
    degrade it, an async ``arrive`` event, a delta broadcast.

    Attributes
    ----------
    dim:
        Dimensionality of the *original* gradient (the decode target).
    values:
        The float payload that actually travels (and that the lossy
        transport packetizes) — raw coordinates for ``identity``, kept
        values for the sparsifiers, signed quantisation levels for ``qsgd``.
    indices:
        Coordinate indices of ``values`` for sparse codecs (``None`` for
        dense framings).
    scale:
        Dequantisation scale (``qsgd``: ``||g||_2 / s``; sparsifiers use it
        for the unbiasedness correction; 1.0 for identity).
    nbytes:
        Priced wire size of the frame in bytes (the codec's
        :meth:`~WireCodec.frame_bytes` for this ``dim``).
    codec:
        Name of the codec that produced the frame.
    shared_support:
        Whether ``indices`` never crossed the wire (shared-seed elision):
        the receiver derives them independently, so a lossy transport can
        attribute lost positions to exact coordinates.
    base_version / target_version:
        Set on delta broadcast frames: the payload encodes the parameter
        change from the worker's held model ``base_version`` to the
        server's ``target_version`` (``None`` on ordinary gradient frames
        and full-state broadcasts).
    """

    dim: int
    values: np.ndarray
    indices: Optional[np.ndarray] = None
    scale: float = 1.0
    nbytes: float = 0.0
    codec: str = "identity"
    shared_support: bool = False
    base_version: Optional[int] = None
    target_version: Optional[int] = None

    @property
    def is_delta(self) -> bool:
        """Whether this frame carries a version delta rather than a payload."""
        return self.base_version is not None

    def degraded(
        self,
        values: Optional[np.ndarray],
        *,
        indices: Optional[np.ndarray] = _KEEP_INDICES,
    ) -> Optional["WireFrame"]:
        """The same frame with its wire payload replaced by *values*.

        Channels call this after packet loss / reordering mangled the
        payload; ``None`` propagates a whole-frame drop.  Sparse frames
        whose (index, value) pairs were thinned by loss pass the surviving
        *indices* explicitly; by default the original support is kept.
        """
        if values is None:
            return None
        if indices is _KEEP_INDICES:
            indices = self.indices
        return WireFrame(
            dim=self.dim, values=np.asarray(values, dtype=np.float64),
            indices=indices, scale=self.scale, nbytes=self.nbytes,
            codec=self.codec, shared_support=self.shared_support,
            base_version=self.base_version, target_version=self.target_version,
        )


@dataclass(slots=True)
class FrameBatch:
    """A batch of ``n`` encoded gradients of one codec, in columns.

    Row ``i`` is the :class:`WireFrame` that :meth:`frame` mints: the
    ``values[i]`` payload, its ``indices[i]`` support (``None`` for dense
    codecs) and its ``scales[i]`` (``None`` meaning 1.0 for every row).
    Every frame of a batch prices at the codec's ``frame_bytes(dim)``, so
    the batch holds one ``nbytes``.
    """

    dim: int
    codec: str
    values: np.ndarray
    indices: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None
    nbytes: float = 0.0
    shared_support: bool = False

    def __len__(self) -> int:
        return self.values.shape[0]

    def frame(self, i: int) -> WireFrame:
        """Row *i* as a :class:`WireFrame` of row views."""
        return WireFrame(
            dim=self.dim, values=self.values[i],
            indices=None if self.indices is None else self.indices[i],
            scale=1.0 if self.scales is None else float(self.scales[i]),
            nbytes=self.nbytes, codec=self.codec, shared_support=self.shared_support,
        )

    @classmethod
    def stack(cls, frames: Sequence[WireFrame]) -> "FrameBatch":
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
        return cls(
            dim=first.dim, codec=first.codec,
            values=np.stack([np.asarray(f.values, dtype=np.float64) for f in frames]),
            indices=None if first.indices is None else np.stack([f.indices for f in frames]),
            scales=np.array([f.scale for f in frames], dtype=np.float64),
            nbytes=first.nbytes, shared_support=first.shared_support,
        )

    def decode(self) -> np.ndarray:
        """The ``(n, dim)`` server-side reconstruction; row ``i`` is ``decode_frame(frame(i))``.

        Sparse rows scatter their values over zeros; dense rows rescale by
        their scale (an exact 1.0 is bit-preserving for every IEEE value).
        """
        if self.indices is not None:
            decoded = np.zeros((len(self), self.dim), dtype=np.float64)
            np.put_along_axis(decoded, self.indices, self.values, axis=1)
            return decoded
        return self.values * (1.0 if self.scales is None else self.scales[:, None])

    def shard_bytes(self, bounds: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Every row's priced bytes split into per-shard sub-frame bytes: ``(n, num_shards)``.

        When the server side is a sharded parameter service, a worker's push
        fans out as one sub-frame per contiguous coordinate shard ``[lo,
        hi)``.  This prices that fan-out from the frames alone — no
        re-encoding:

        * **Explicit-index sparse frames** (top-k): each shard receives
          exactly its resident ``(index, value)`` pairs, priced at the
          codec's per-coordinate rate (``nbytes / k``), so the split sums
          exactly to the frame's priced bytes.
        * **Shared-support sparse frames** (random-k): values split by
          resident count at ``BYTES_PER_COORDINATE`` each, but the 8-byte
          seed tag must travel to *every* shard (each endpoint re-derives
          the full support independently) — a real fan-out overhead of
          ``8 * (num_shards - 1)`` bytes over the unsharded frame.
        * **Dense frames** (identity, qsgd, dense deltas): the payload plane
          is cut at the shard boundaries, so bytes split proportionally to
          shard width and sum exactly to the frame's priced bytes.

        Residency is counted with one comparison of the supports against
        the shard edges, for every row at once.
        """
        if not bounds:
            raise ConfigurationError("shard_frame_bytes needs at least one shard")
        widths = np.array([hi - lo for lo, hi in bounds], dtype=np.float64)
        if (widths < 1).any() or int(widths.sum()) != self.dim:
            raise ConfigurationError(
                f"shard bounds {list(bounds)} do not tile a dim-{self.dim} frame"
            )
        if self.indices is None:
            return np.tile(self.nbytes * (widths / float(self.dim)), (len(self), 1))
        # Indices below each edge, differenced: what searchsorted on the
        # sorted support returns, without the sort.
        edges = np.array([lo for lo, _ in bounds] + [bounds[-1][1]])
        below = (self.indices[:, None, :] < edges[None, :, None]).sum(axis=2)
        counts = np.diff(below, axis=1).astype(np.float64)
        if self.shared_support:
            # k float32 values split by residency; the seed tag replicates.
            return counts * BYTES_PER_COORDINATE + 8.0
        return counts * (self.nbytes / max(self.indices.shape[1], 1))


class WireCodec(abc.ABC):
    """Encode a flat gradient into a wire frame and back."""

    #: Registered codec name.
    name: str = "codec"
    #: Whether the codec transmits a strict subset of coordinates.
    sparsifying: bool = False
    #: Whether ``decode(encode(g)) == g`` bit for bit.  Lossless codecs let
    #: a delta broadcast reconstruct the exact target state (on a real wire
    #: a lossless float delta is a bitwise diff, which recombines exactly).
    lossless: bool = False

    @abc.abstractmethod
    def encode(self, gradient: np.ndarray) -> WireFrame:
        """Produce the wire frame for *gradient* (a flat float vector)."""

    def encode_decode_batch(self, matrix: np.ndarray) -> Tuple[FrameBatch, np.ndarray]:
        """Encode every row of an ``(n, d)`` matrix: ``(batch, decoded)``.

        The contract is exact per-frame parity with :meth:`encode`:
        ``batch.frame(i)`` must be bit-identical (values, indices, scale,
        bytes) — and the PRNG draws consumed in the same order — to
        ``encode(M[i])`` in a loop over ``i``, and ``decoded[i]`` to
        ``decode_frame(batch.frame(i))``, the server-side reconstruction of
        what worker ``i`` sent.  The base implementation is that loop,
        stacked into one batch; codecs override it with a single vectorised
        pass where numpy's batched kernels provably match the per-row ones.
        """
        matrix = self._matrix(matrix)
        batch = FrameBatch.stack([self.encode(row) for row in matrix])
        return batch, batch.decode()

    def decode(self, frame: WireFrame) -> np.ndarray:
        """Reconstruct a ``frame.dim``-dimensional gradient estimate.

        Frames are self-describing, so decoding is codec-independent: this
        delegates to :func:`decode_frame`, the same function the receiving
        endpoint uses — the tested decode *is* the production decode.
        """
        return decode_frame(frame)

    @abc.abstractmethod
    def frame_bytes(self, dim: int) -> float:
        """Wire size in bytes of one encoded *dim*-dimensional gradient.

        The single source of truth for byte pricing: transfer time, the
        telemetry byte counters and the cost analyses all derive from it.
        """

    def compression_ratio(self, dim: int) -> float:
        """Raw bytes over encoded bytes (>= 1 for anything useful)."""
        return (dim * BYTES_PER_COORDINATE) / self.frame_bytes(dim)

    @staticmethod
    def _flat(gradient: np.ndarray) -> np.ndarray:
        gradient = np.asarray(gradient, dtype=np.float64).ravel()
        if gradient.size == 0:
            raise ConfigurationError("cannot encode an empty gradient")
        return gradient

    @staticmethod
    def _matrix(matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ConfigurationError(
                f"encode_decode_batch expects an (n, d) matrix, got shape {matrix.shape}"
            )
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ConfigurationError("cannot encode an empty gradient batch")
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class IdentityCodec(WireCodec):
    """Raw float32 framing — the seed wire format, 4 bytes per coordinate."""

    name = "identity"
    lossless = True

    def encode(self, gradient: np.ndarray) -> WireFrame:
        values = self._flat(gradient)
        return WireFrame(
            dim=values.size, values=values, nbytes=self.frame_bytes(values.size),
            codec=self.name,
        )

    def encode_decode_batch(self, matrix: np.ndarray) -> Tuple[FrameBatch, np.ndarray]:
        matrix = self._matrix(matrix)
        dim = matrix.shape[1]
        batch = FrameBatch(
            dim=dim, codec=self.name, values=matrix, nbytes=self.frame_bytes(dim)
        )
        return batch, batch.decode()

    def frame_bytes(self, dim: int) -> float:
        return float(dim) * BYTES_PER_COORDINATE


def _check_k(k: Optional[int]) -> int:
    if k is None or k < 1:
        raise ConfigurationError(f"sparsifying codecs need k >= 1, got {k}")
    return int(k)


class TopKCodec(WireCodec):
    """Magnitude sparsification: keep the ``k`` largest-|g_i|, send (index, value).

    Each kept coordinate costs 8 bytes on the wire (a 4-byte index plus a
    float32 value).  Decoding scatters the survivors and zero-fills the rest,
    so the estimate is biased towards zero but concentrates the budget on the
    heavy coordinates — the classic bytes-for-accuracy trade.
    """

    name = "top-k"
    sparsifying = True

    def __init__(self, k: int) -> None:
        self.k = _check_k(k)

    def _effective_k(self, dim: int) -> int:
        return min(self.k, int(dim))

    def encode(self, gradient: np.ndarray) -> WireFrame:
        values = self._flat(gradient)
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

    def encode_decode_batch(self, matrix: np.ndarray) -> Tuple[FrameBatch, np.ndarray]:
        matrix = self._matrix(matrix)
        n, dim = matrix.shape
        k = self._effective_k(dim)
        if k >= dim:
            batch = FrameBatch(
                dim=dim, codec=self.name, values=matrix.copy(),
                indices=np.broadcast_to(np.arange(dim), (n, dim)),
                nbytes=self.frame_bytes(dim),
            )
            return batch, matrix.copy()
        # np.argpartition with axis=1 applies introselect row-wise with the
        # same pivot walk as the 1-D call, so the selected (and then sorted)
        # support matches the per-row encode exactly, ties included.
        # simlint: disable=SIM301 tie arrangement pinned against the 1-D path
        support = np.argpartition(np.abs(matrix), dim - k, axis=1)[:, -k:]
        indices = np.sort(support, axis=1)
        batch = FrameBatch(
            dim=dim, codec=self.name, values=np.take_along_axis(matrix, indices, axis=1),
            indices=indices, nbytes=self.frame_bytes(dim),
        )
        return batch, batch.decode()

    def frame_bytes(self, dim: int) -> float:
        # 4-byte index + float32 value per kept coordinate.
        return float(self._effective_k(dim)) * (4.0 + BYTES_PER_COORDINATE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TopKCodec(k={self.k})"


class RandomKCodec(WireCodec):
    """Uniform-support sparsification with shared-seed index elision.

    The support is drawn uniformly without replacement from a PRNG whose seed
    both endpoints share, so indices never cross the wire — only the ``k``
    float32 values plus an 8-byte seed tag.  Kept values are scaled by
    ``d / k``, making the decoded gradient an unbiased estimate of the input.

    Support derivation: each frame's support is the index set of the ``k``
    smallest of ``d`` uniform draws — a uniform random ``k``-subset.  The
    uniform plane is the *only* PRNG consumption, and an ``(n, d)`` batch
    draw advances the PCG64 stream exactly as ``n`` sequential ``(d,)``
    draws do, so ``encode_decode_batch`` needs one draw per batch while staying
    frame-for-frame aligned with the per-row encode (the shared-seed
    receiver derives identical supports either way).  Earlier revisions
    drew each support via a per-row ``Generator.choice`` call, whose
    data-dependent rejection sampling cannot be batched — same support
    distribution, different stream.
    """

    name = "random-k"
    sparsifying = True

    def __init__(self, k: int, *, rng: SeedLike = None) -> None:
        self.k = _check_k(k)
        # Omitted rng = deterministic named stream, never fresh entropy
        # (SIM201); the builder always passes its dedicated codec stream.
        self._rng = as_rng(component_seed(rng, "random-k-codec"))

    def _effective_k(self, dim: int) -> int:
        return min(self.k, int(dim))

    def _supports(self, n: int, dim: int, k: int) -> np.ndarray:
        """``(n, k)`` sorted uniform supports from one batched uniform draw."""
        uniforms = self._rng.random((n, dim))
        # simlint: disable=SIM301 selecting on iid uniforms — exact ties have
        # probability zero, so no data-dependent tie-break can arise.
        return np.sort(np.argpartition(uniforms, k - 1, axis=1)[:, :k], axis=1)

    def encode(self, gradient: np.ndarray) -> WireFrame:
        values = self._flat(gradient)
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

    def encode_decode_batch(self, matrix: np.ndarray) -> Tuple[FrameBatch, np.ndarray]:
        matrix = self._matrix(matrix)
        n, dim = matrix.shape
        k = self._effective_k(dim)
        scale = dim / k
        indices = self._supports(n, dim, k)
        batch = FrameBatch(
            dim=dim, codec=self.name,
            values=np.take_along_axis(matrix, indices, axis=1) * scale,
            indices=indices, scales=np.full(n, scale), nbytes=self.frame_bytes(dim),
            shared_support=True,
        )
        return batch, batch.decode()

    def frame_bytes(self, dim: int) -> float:
        # Shared-seed support: k float32 values + one 8-byte seed tag.
        return float(self._effective_k(dim)) * BYTES_PER_COORDINATE + 8.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomKCodec(k={self.k})"


class QSGDCodec(WireCodec):
    """QSGD-style unbiased stochastic quantisation to ``2^bits - 1`` levels.

    Each coordinate's magnitude relative to the gradient's L2 norm is
    stochastically rounded to one of ``s = 2^bits - 1`` levels, so the wire
    carries signed integer levels (``bits + 1`` bits per coordinate, sign
    included) plus one float32 norm.  Rounding up with probability equal to
    the fractional part keeps ``E[decode(encode(g))] = g`` exactly.
    """

    name = "qsgd"

    #: Accepted quantisation widths (1 bit degenerates to sign-of-coordinate).
    MIN_BITS, MAX_BITS = 1, 16

    def __init__(self, bits: int = 4, *, rng: SeedLike = None) -> None:
        if not self.MIN_BITS <= int(bits) <= self.MAX_BITS:
            raise ConfigurationError(
                f"qsgd bits must be in [{self.MIN_BITS}, {self.MAX_BITS}], got {bits}"
            )
        self.bits = int(bits)
        self.levels = 2 ** self.bits - 1
        # Omitted rng = deterministic named stream, never fresh entropy
        # (SIM201); the builder always passes its dedicated codec stream.
        self._rng = as_rng(component_seed(rng, "qsgd-codec"))

    def encode(self, gradient: np.ndarray) -> WireFrame:
        values = self._flat(gradient)
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

    def encode_decode_batch(self, matrix: np.ndarray) -> Tuple[FrameBatch, np.ndarray]:
        matrix = self._matrix(matrix)
        n, dim = matrix.shape
        # One batched row-norm reduction: summing the last axis of the
        # C-contiguous (n, d) square applies the same pairwise blocking per
        # row as the 1-D sum in encode(), so the norms match bit for bit.
        norms = np.sqrt(np.square(matrix).sum(axis=1))
        if not (np.isfinite(norms).all() and (norms != 0.0).all()):
            # Zero/non-finite rows consume no PRNG draws in encode(); batching
            # the draws would misalign the stream, so fall back to the loop.
            return super().encode_decode_batch(matrix)
        ratio = np.abs(matrix) / norms[:, None] * self.levels
        low = np.floor(ratio)
        # One (n, d) draw advances the PCG64 stream exactly as n sequential
        # (d,) draws do, so the rounding coins match the per-row path.
        level = low + (self._rng.random((n, dim)) < (ratio - low))
        batch = FrameBatch(
            dim=dim, codec=self.name, values=np.sign(matrix) * level,
            scales=norms / self.levels, nbytes=self.frame_bytes(dim),
        )
        return batch, batch.decode()

    def frame_bytes(self, dim: int) -> float:
        # (bits + sign) per coordinate, plus one float32 norm.
        return float(dim) * (self.bits + 1) / 8.0 + 4.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QSGDCodec(bits={self.bits})"


def encode_delta(
    codec: WireCodec,
    delta: np.ndarray,
    *,
    base_version: int,
    target_version: int,
) -> WireFrame:
    """Encode a ``base → target`` parameter delta as a broadcast frame.

    Any :class:`WireCodec` composes: the delta vector is just the signal the
    codec encodes, and the frame is stamped with the two version tags so the
    receiver knows which held state to apply it to.  The tags themselves are
    not priced — two 4-byte integers disappear into the transport header the
    cost model already charges as per-transfer latency, so the delta frame
    costs exactly ``codec.frame_bytes(d)`` (the identity delta is therefore
    byte-identical to a full ``4d`` broadcast, as it must be: a dense delta
    saves nothing, only a sparsifying or quantising codec does).
    """
    frame = codec.encode(delta)
    frame.base_version = int(base_version)
    frame.target_version = int(target_version)
    return frame


def decode_frame(frame: WireFrame) -> np.ndarray:
    """Reconstruct a gradient estimate from any wire frame, however degraded.

    Frames are self-describing (dim, indices, scale), so the receiving
    endpoint never needs the encoder instance: sparse frames scatter their
    surviving values (garbage or NaN fill lands at the frame's indices,
    which is exactly what a real receiver would reconstruct), and dense
    frames rescale their payload by ``frame.scale`` — the quantised-levels
    contract any dense codec (built-in or custom) can rely on.  The identity
    framing carries ``scale=1.0``, and multiplying by exactly 1.0 is
    bit-preserving for every IEEE value, so raw frames decode unchanged.
    """
    values = np.asarray(frame.values, dtype=np.float64)
    if frame.indices is not None:
        gradient = np.zeros(frame.dim, dtype=np.float64)
        gradient[frame.indices] = values
        return gradient
    return values * frame.scale


def shard_frame_bytes(
    frame: WireFrame, bounds: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Split one frame's priced bytes into per-shard sub-frame bytes.

    :meth:`FrameBatch.shard_bytes` of the one-frame batch — any frame,
    one a lossy channel thinned included.
    """
    return FrameBatch.stack([frame]).shard_bytes(bounds)[0]


#: Registered codec factories, keyed by name.
CODEC_REGISTRY: Dict[str, Callable[..., WireCodec]] = {
    IdentityCodec.name: IdentityCodec,
    TopKCodec.name: TopKCodec,
    RandomKCodec.name: RandomKCodec,
    QSGDCodec.name: QSGDCodec,
}


def available_codecs() -> list[str]:
    """Registered codec names, sorted."""
    return sorted(CODEC_REGISTRY)


def make_codec(
    name: str,
    *,
    k: Optional[int] = None,
    bits: Optional[int] = None,
    rng: SeedLike = None,
    options: Tuple[str, str, str] = ("codec", "codec_k", "quantize_bits"),
) -> WireCodec:
    """Instantiate a registered codec from declarative arguments.

    ``k`` configures the sparsifiers (required for ``top-k`` / ``random-k``,
    rejected elsewhere); ``bits`` configures ``qsgd`` (rejected elsewhere).
    This is the one place those applicability rules live; the value ranges
    are the codec constructors' own.  *options* is what the caller calls
    ``(name, k, bits)`` — the builder passes its ``broadcast_*`` keywords for
    the downlink codec — so a refusal names the option that was actually set.
    """
    codec_option, k_option, bits_option = options
    name = str(name).lower()
    if name not in CODEC_REGISTRY:
        raise ConfigurationError(
            f"unknown {codec_option} {name!r}; available: {available_codecs()}"
        )
    if name in (TopKCodec.name, RandomKCodec.name):
        if k is None:
            raise ConfigurationError(
                f"the {name} {codec_option} requires {k_option} (coordinates kept)"
            )
    elif k is not None:
        raise ConfigurationError(
            f"{k_option} only applies to the sparsifying codecs (top-k, "
            f"random-k); the {codec_option} is {name!r}"
        )
    if bits is not None and name != QSGDCodec.name:
        raise ConfigurationError(
            f"{bits_option} only applies to the qsgd codec; the {codec_option} is {name!r}"
        )
    if name == IdentityCodec.name:
        return IdentityCodec()
    if name == TopKCodec.name:
        return TopKCodec(k)
    if name == RandomKCodec.name:
        return RandomKCodec(k, rng=rng)
    return QSGDCodec(bits if bits is not None else 4, rng=rng)


__all__ = [
    "WireFrame",
    "FrameBatch",
    "WireCodec",
    "IdentityCodec",
    "TopKCodec",
    "RandomKCodec",
    "QSGDCodec",
    "CODEC_REGISTRY",
    "available_codecs",
    "decode_frame",
    "encode_delta",
    "make_codec",
    "shard_frame_bytes",
]
