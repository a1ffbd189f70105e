"""Payload-level channel helper shared by the transport tests."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cluster.codec import IdentityCodec, WireCodec, WireFrame
from repro.cluster.cost_model import CostModel
from repro.cluster.network import Channel

_RAW = IdentityCodec()


def frame_of(codec: WireCodec, gradient: np.ndarray) -> WireFrame:
    """The frame *codec* sends for one flat *gradient*: row 0 of a one-row batch."""
    return codec.encode_decode_batch(np.reshape(gradient, (1, -1)))[0].frame(0)


def transfer(
    channel: Channel, payload: np.ndarray, cost_model: CostModel
) -> Tuple[Optional[np.ndarray], float]:
    """Send a bare float vector through *channel* in raw (identity) framing.

    Wraps *payload* in an identity frame, runs ``channel.transfer_frame`` and
    unwraps — the same bytes, RNG draws and degradation as the frame path.
    """
    frame = frame_of(_RAW, payload)
    delivered, seconds = channel.transfer_frame(frame, cost_model)
    if delivered is None:
        return None, seconds
    return np.asarray(delivered.values, dtype=np.float64).copy(), seconds
