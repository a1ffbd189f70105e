"""Gradient packetization for the lossy (UDP-like) transport.

The lossyMPI transport of the paper sends each gradient as a sequence of UDP
packets, each carrying a contiguous slice of coordinates plus a sequence
number.  Packets can be lost or reordered.  Section 3.3 describes three ways
of coping at the receiving end, all of which are implemented here as
:class:`RecoveryPolicy` values:

``DROP_GRADIENT``
    If any packet of the gradient is missing, the whole gradient is dropped
    (what vanilla averaging must do to stay correct).  The reassembler
    returns ``None``.
``NAN_FILL``
    Lost coordinates are replaced by NaN and the *selective averaging* GAR
    ignores them per coordinate.  Requires sequence numbers so surviving
    packets land at the right offsets.
``RANDOM_FILL``
    Lost coordinates are replaced by arbitrary values (garbage); the robust
    GAR on top tolerates the resulting (at most ``f``) corrupted gradients.
    This policy does not need sequence numbers: if packets additionally
    arrive out of order their payloads land at wrong offsets, which is just
    more garbage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, NetworkError
from repro.utils.random import SeedLike, as_rng, component_seed
from repro.utils.validation import check_positive_int


class RecoveryPolicy(str, enum.Enum):
    """How the receiving endpoint handles missing / out-of-order packets."""

    DROP_GRADIENT = "drop-gradient"
    NAN_FILL = "nan-fill"
    RANDOM_FILL = "random-fill"


@dataclass
class Packet:
    """One UDP-like packet: a contiguous slice of gradient coordinates."""

    sequence: int
    offset: int
    payload: np.ndarray

    def __post_init__(self) -> None:
        if self.sequence < 0 or self.offset < 0:
            raise ConfigurationError("sequence and offset must be non-negative")
        self.payload = np.asarray(self.payload, dtype=np.float64)


class Packetizer:
    """Splits flat gradients into packets and reassembles them.

    Parameters
    ----------
    coordinates_per_packet:
        Number of float coordinates per packet (a 1500-byte MTU carries ~366
        float32 values; the default is rounded to 256 for clarity).
    policy:
        The :class:`RecoveryPolicy` applied at reassembly.
    rng:
        Source of randomness for the ``RANDOM_FILL`` garbage values.
    """

    def __init__(
        self,
        coordinates_per_packet: int = 256,
        *,
        policy: RecoveryPolicy | str = RecoveryPolicy.NAN_FILL,
        rng: SeedLike = None,
    ) -> None:
        self.coordinates_per_packet = check_positive_int(
            coordinates_per_packet, "coordinates_per_packet"
        )
        try:
            self.policy = RecoveryPolicy(policy)
        except ValueError:
            raise ConfigurationError(
                f"unknown recovery policy {policy!r}; available: "
                f"{[member.value for member in RecoveryPolicy]}"
            ) from None
        # Omitted rng = deterministic named stream, never fresh entropy
        # (SIM201); only the RANDOM_FILL policy ever draws from it.
        self._rng = as_rng(component_seed(rng, "packetizer"))

    # ------------------------------------------------------------------ split
    def split(self, gradient: np.ndarray) -> List[Packet]:
        """Split a flat gradient into an ordered list of packets."""
        gradient = np.asarray(gradient, dtype=np.float64).ravel()
        if gradient.size == 0:
            raise NetworkError("cannot packetize an empty gradient")
        packets = []
        for sequence, offset in enumerate(range(0, gradient.size, self.coordinates_per_packet)):
            payload = gradient[offset : offset + self.coordinates_per_packet]
            packets.append(Packet(sequence=sequence, offset=offset, payload=payload.copy()))
        return packets

    def num_packets(self, dim: int) -> int:
        """Number of packets needed for a gradient of dimensionality *dim*."""
        check_positive_int(dim, "dim")
        return -(-dim // self.coordinates_per_packet)

    # -------------------------------------------------------------- reassemble
    def reassemble(
        self, packets: List[Packet], dim: int, *, in_order: bool = True
    ) -> Optional[np.ndarray]:
        """Rebuild a gradient of dimensionality *dim* from surviving *packets*.

        Returns ``None`` when the policy is ``DROP_GRADIENT`` and at least one
        packet is missing.  With ``in_order=False`` and the ``RANDOM_FILL``
        policy, packets are written at the position implied by their *arrival
        order* rather than their sequence number (no sequence numbers on the
        wire), modelling the paper's remark that AggregaThor needs neither
        ordering nor completeness.
        """
        check_positive_int(dim, "dim")
        expected = self.num_packets(dim)
        if len(packets) > expected:
            raise NetworkError(f"received {len(packets)} packets but expected at most {expected}")
        missing = expected - len(packets)

        if self.policy is RecoveryPolicy.DROP_GRADIENT:
            if missing > 0:
                return None
            ordered = sorted(packets, key=lambda p: p.sequence)
            return np.concatenate([p.payload for p in ordered])[:dim]

        if self.policy is RecoveryPolicy.NAN_FILL:
            gradient = np.full(dim, np.nan, dtype=np.float64)
            for packet in packets:
                end = min(packet.offset + packet.payload.size, dim)
                gradient[packet.offset : end] = packet.payload[: end - packet.offset]
            return gradient

        # RANDOM_FILL: start from garbage, then overwrite with whatever arrived.
        # The garbage models raw bytes reinterpreted as floats (what a real
        # receiver sees for a lost/garbled UDP payload): magnitudes are spread
        # over many orders of magnitude, far outside the honest gradient range.
        # A complete delivery overwrites every coordinate, so it draws no
        # garbage at all — a loss-free wire consumes zero fill randomness.
        if missing == 0:
            gradient = np.empty(dim, dtype=np.float64)
        else:
            magnitudes = 10.0 ** self._rng.uniform(0.0, 8.0, size=dim)
            gradient = self._rng.normal(0.0, 1.0, size=dim) * magnitudes
        if in_order:
            for packet in packets:
                end = min(packet.offset + packet.payload.size, dim)
                gradient[packet.offset : end] = packet.payload[: end - packet.offset]
        else:
            # Without sequence numbers the receiver writes packets back to back
            # in arrival order; reordering therefore scrambles coordinates.
            cursor = 0
            for packet in packets:
                end = min(cursor + packet.payload.size, dim)
                gradient[cursor:end] = packet.payload[: end - cursor]
                cursor = end
        return gradient


__all__ = ["RecoveryPolicy", "Packet", "Packetizer"]
