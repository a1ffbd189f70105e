"""Simulated transports: reliable (TCP/gRPC-like) and lossy (UDP/lossyMPI-like).

A channel carries one *wire frame* (an encoded gradient, see
:mod:`repro.cluster.codec`) between a worker and the server and reports two
things: the (possibly degraded) frame that arrives and the *solo* transfer
time — what the transfer costs on an uncontended link.  Contention between
concurrent transfers is not the channel's business: the
:class:`~repro.cluster.link.LinkScheduler` owns the shared pipe, and the
trainers compose ``scheduler drain time + channel penalty`` so loss
behaviour (retransmission stalls, structural delays, jitter) survives
unchanged under any sharing discipline.

``ReliableChannel``
    Models TCP semantics: the frame always arrives intact, but packet loss
    costs time — retransmissions and congestion-window backoff reduce the
    effective throughput.  We use the standard Mathis throughput model
    (``rate ∝ MSS / (RTT * sqrt(p))``) capped at the link bandwidth, which
    reproduces the paper's observation that a 10% loss rate slows TCP-based
    training down by an order of magnitude.

``LossyChannel``
    Models UDP semantics: each packet is independently dropped with
    probability ``drop_rate`` (and optionally reordered); whatever arrives is
    delivered immediately at full link speed.  The receiving endpoint applies
    one of the §3.3 recovery policies via :class:`~repro.cluster.packets.Packetizer`.
    Packetization operates on the frame's *encoded* payload, so drops and
    garbage fill hit compressed frames — a lost packet of a top-k frame
    loses (index, value) pairs, exactly as on a real wire.

Every transfer is priced on the frame's **encoded** byte count
(``frame.nbytes``, owned by the codec that built it) — the transport layer
never re-derives wire sizes from a bytes-per-coordinate constant.

Wire randomness is isolated by construction: a channel spawns two named child
streams from the seed it is given — one for its own drop/reorder draws, one
for the packetizer's garbage fill — so wire events can never perturb each
other's streams, let alone the training streams (model init, batch order,
attacks), which the builder derives from entirely separate spawns.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.cluster.codec import WireFrame
from repro.cluster.cost_model import CostModel
from repro.cluster.packets import Packetizer, RecoveryPolicy
from repro.exceptions import ConfigurationError
from repro.utils.random import SeedLike, component_seed, spawn_rngs
from repro.utils.validation import check_probability


class Channel(abc.ABC):
    """A unidirectional transport for wire frames."""

    #: Human-readable transport name used in experiment reports.
    name: str = "channel"

    @property
    def is_transparent(self) -> bool:
        """Whether the channel is a no-op wire for batching purposes.

        A transparent channel always returns the frame unchanged with
        ``seconds == cost_model.transfer_time(frame.nbytes)`` (bit for bit)
        and consumes no randomness — so the vectorised trainer path may
        price a whole fleet of such transfers in one array op instead of
        one ``transfer_frame`` call each.  Conservatively ``False``.
        """
        return False

    @abc.abstractmethod
    def transfer_frame(
        self, frame: WireFrame, cost_model: CostModel
    ) -> Tuple[Optional[WireFrame], float]:
        """Send *frame*; return ``(delivered_frame_or_None, solo_seconds)``.

        ``solo_seconds`` is the uncontended transfer time for the frame's
        encoded bytes, including any channel-specific penalty (congestion
        backoff, structural delay, jitter) — the
        :class:`~repro.cluster.link.LinkScheduler` adds contention on top.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ReliableChannel(Channel):
    """TCP-like transport: always delivers, pays for losses with time.

    Parameters
    ----------
    drop_rate:
        Probability that a packet is lost on the wire (losses trigger
        retransmission and congestion backoff, they never corrupt data).
    mss_bytes:
        Maximum segment size used in the Mathis throughput model.
    rtt_s:
        Round-trip time used in the Mathis throughput model.
    """

    name = "tcp"

    def __init__(self, *, drop_rate: float = 0.0, mss_bytes: int = 1460, rtt_s: float = 1e-3) -> None:
        self.drop_rate = check_probability(drop_rate, "drop_rate")
        if mss_bytes < 1:
            raise ConfigurationError(f"mss_bytes must be >= 1, got {mss_bytes}")
        if rtt_s <= 0:
            raise ConfigurationError(f"rtt_s must be positive, got {rtt_s}")
        self.mss_bytes = int(mss_bytes)
        self.rtt_s = float(rtt_s)

    @property
    def is_transparent(self) -> bool:
        # Loss-free TCP delivers the frame unchanged at exactly the cost
        # model's transfer time (the Mathis penalty and the retransmission
        # stall are both gated on drop_rate > 0), drawing no randomness.
        return self.drop_rate <= 0.0

    def effective_bandwidth_gbps(self, cost_model: CostModel) -> float:
        """Link bandwidth after the congestion-control penalty for the drop rate."""
        link = cost_model.bandwidth_gbps
        if self.drop_rate <= 0.0:
            return link
        # Mathis et al.: throughput ~= (MSS / RTT) * 1 / sqrt(2p/3).
        mathis_bps = (self.mss_bytes * 8.0 / self.rtt_s) / math.sqrt(2.0 * self.drop_rate / 3.0)
        return min(link, mathis_bps / 1e9)

    def transfer_frame(
        self, frame: WireFrame, cost_model: CostModel
    ) -> Tuple[WireFrame, float]:
        num_bytes = frame.nbytes
        seconds = cost_model.transfer_time(
            num_bytes, bandwidth_gbps=self.effective_bandwidth_gbps(cost_model)
        )
        if self.drop_rate > 0.0:
            # Each loss event additionally stalls the sender for ~one RTT
            # (fast-retransmit); expected number of loss events per transfer.
            packets = max(1, math.ceil(num_bytes / self.mss_bytes))
            seconds += packets * self.drop_rate * self.rtt_s
        return frame, seconds


class DelayedChannel(Channel):
    """Wrap another channel behind an extra (optionally jittered) delay.

    Models a structurally slow or congested link — a cross-datacenter hop, a
    saturated top-of-rack switch — independently of the loss behaviour of the
    wrapped transport.  Together with :class:`~repro.cluster.cost_model.StragglerModel`
    (slow *compute*) this provides the slow-*network* half of the straggler
    scenarios the quorum synchrony policies are evaluated under.

    Parameters
    ----------
    inner:
        The transport actually carrying the frame (reliable by default).
    delay_s:
        Deterministic extra one-way delay added to every transfer.
    jitter_s:
        Upper bound of a uniform random extra delay (0 disables jitter).
    rng:
        Randomness source for the jitter.
    """

    name = "delayed"

    def __init__(
        self,
        inner: Optional[Channel] = None,
        *,
        delay_s: float = 0.0,
        jitter_s: float = 0.0,
        rng: SeedLike = None,
    ) -> None:
        if delay_s < 0:
            raise ConfigurationError(f"delay_s must be non-negative, got {delay_s}")
        if jitter_s < 0:
            raise ConfigurationError(f"jitter_s must be non-negative, got {jitter_s}")
        self.inner = inner if inner is not None else ReliableChannel()
        self.delay_s = float(delay_s)
        self.jitter_s = float(jitter_s)
        # The jitter draws live on their own named child stream, exactly like
        # the lossy channel's wire/fill streams: sharing the raw seed (or a
        # parent generator) with another component must never let jitter
        # consumption perturb that component's draws — or any training stream.
        # An omitted rng falls back to a deterministic component seed, never
        # fresh entropy (SIM201), so replays stay bit-identical.
        (self._rng,) = spawn_rngs(component_seed(rng, "delayed-channel"), 1)

    def transfer_frame(
        self, frame: WireFrame, cost_model: CostModel
    ) -> Tuple[Optional[WireFrame], float]:
        delivered, seconds = self.inner.transfer_frame(frame, cost_model)
        seconds += self.delay_s
        if self.jitter_s > 0.0:
            seconds += float(self._rng.uniform(0.0, self.jitter_s))
        return delivered, seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DelayedChannel({self.inner!r}, delay_s={self.delay_s}, jitter_s={self.jitter_s})"


class LossyChannel(Channel):
    """UDP-like transport (lossyMPI analogue): fast, but drops and reorders packets.

    Parameters
    ----------
    drop_rate:
        Independent per-packet drop probability.
    reorder_rate:
        Probability that the surviving packet stream is delivered out of
        order (only affects the ``RANDOM_FILL`` policy, which has no sequence
        numbers; ``NAN_FILL`` carries sequence numbers as §3.3 requires).
    policy:
        Recovery policy applied at the receiving endpoint.
    coordinates_per_packet:
        Packet payload size.
    rng:
        Seed for the channel's wire randomness.  Two named child streams are
        spawned from it: the channel's own drop/reorder stream and the
        packetizer's garbage-fill stream — so how many packets drop can
        never perturb what the garbage looks like, and neither stream is
        shared with any training randomness.
    """

    name = "udp"

    def __init__(
        self,
        *,
        drop_rate: float = 0.0,
        reorder_rate: float = 0.0,
        policy: RecoveryPolicy | str = RecoveryPolicy.RANDOM_FILL,
        coordinates_per_packet: int = 256,
        rng: SeedLike = None,
    ) -> None:
        self.drop_rate = check_probability(drop_rate, "drop_rate")
        self.reorder_rate = check_probability(reorder_rate, "reorder_rate")
        # Omitted rng = deterministic component seed, never fresh entropy
        # (SIM201): drop/reorder/fill draws must replay bit-identically.
        self._wire_rng, fill_rng = spawn_rngs(component_seed(rng, "lossy-channel"), 2)
        self.packetizer = Packetizer(
            coordinates_per_packet, policy=policy, rng=fill_rng
        )

    @property
    def policy(self) -> RecoveryPolicy:
        """The recovery policy applied at the receiving endpoint."""
        return self.packetizer.policy

    def transfer_frame(
        self, frame: WireFrame, cost_model: CostModel
    ) -> Tuple[Optional[WireFrame], float]:
        wire = np.asarray(frame.values, dtype=np.float64).ravel()
        packets = self.packetizer.split(wire)
        # UDP pays the wire time for every packet sent, regardless of drops —
        # there are no retransmissions and no congestion backoff.
        seconds = cost_model.transfer_time(frame.nbytes)

        if frame.indices is not None:
            return self._transfer_sparse(frame, wire, packets), seconds

        if self.drop_rate > 0.0:
            keep_mask = self._wire_rng.random(len(packets)) >= self.drop_rate
            survivors = [p for p, keep in zip(packets, keep_mask) if keep]
        else:
            survivors = packets

        in_order = True
        if self.reorder_rate > 0.0 and len(survivors) > 1:
            if self._wire_rng.random() < self.reorder_rate:
                order = self._wire_rng.permutation(len(survivors))
                survivors = [survivors[i] for i in order]
                in_order = False

        delivered = self.packetizer.reassemble(survivors, wire.size, in_order=in_order)
        return frame.degraded(delivered), seconds

    def _transfer_sparse(
        self, frame: WireFrame, wire: np.ndarray, packets
    ) -> Optional[WireFrame]:
        """Degrade a sparse frame pair-wise: a lost packet loses its pairs.

        On a real wire a top-k packet interleaves ``(index, value)`` pairs,
        so a drop removes both halves together — the surviving indices never
        point at garbage, and coordinates whose pairs died are simply absent
        from the degraded frame (the receiver cannot attribute lost bytes to
        coordinates it never learned).  Reordering is a no-op for pair
        framing: self-describing pairs scatter identically in any order, and
        shared-support frames recover positions from the packet sequence
        tags — so no reorder randomness is drawn.

        The one recovery refinement pair framing enables: with ``NAN_FILL``
        on a *shared-support* frame (random-k) the receiver derives the full
        support from the shared seed and the sequence numbers tell it which
        positions died, so exactly those coordinates are NaN-marked and a
        per-coordinate GAR (``selective-average``) skips them.
        """
        if self.drop_rate > 0.0:
            keep_mask = self._wire_rng.random(len(packets)) >= self.drop_rate
        else:
            keep_mask = np.ones(len(packets), dtype=bool)
        if bool(keep_mask.all()):
            return frame.degraded(wire)
        if self.policy is RecoveryPolicy.DROP_GRADIENT:
            return None
        if self.policy is RecoveryPolicy.NAN_FILL and frame.shared_support:
            values = wire.copy()
            for packet, keep in zip(packets, keep_mask):
                if not keep:
                    values[packet.offset : packet.offset + packet.payload.size] = np.nan
            return frame.degraded(values)
        keep_pairs = np.zeros(wire.size, dtype=bool)
        for packet, keep in zip(packets, keep_mask):
            if keep:
                keep_pairs[packet.offset : packet.offset + packet.payload.size] = True
        indices = np.asarray(frame.indices).ravel()
        return frame.degraded(wire[keep_pairs], indices=indices[keep_pairs])


def build_uplink_map(
    worker_ids: Iterable[int],
    overrides: Optional[Dict[int, Channel]] = None,
    *,
    default: Optional[Channel] = None,
) -> Dict[int, Channel]:
    """One uplink channel per worker id, with overrides taking precedence.

    Workers without an explicit entry share one *default* channel (a fresh
    loss-free :class:`ReliableChannel` unless provided) — sharing is safe
    because the reliable channel is stateless.  Both the lock-step and the
    event-driven trainer resolve their uplinks through this helper, so the
    two modes see identical transports for identical configurations.
    """
    shared_default = default if default is not None else ReliableChannel()
    overrides = overrides or {}
    return {
        int(worker_id): overrides.get(worker_id, shared_default)
        for worker_id in worker_ids
    }


__all__ = [
    "Channel",
    "ReliableChannel",
    "DelayedChannel",
    "LossyChannel",
    "build_uplink_map",
]
