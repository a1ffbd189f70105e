"""Payload-level channel helper shared by the transport tests."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cluster.codec import IdentityCodec
from repro.cluster.cost_model import CostModel
from repro.cluster.network import Channel

_RAW = IdentityCodec()


def transfer(
    channel: Channel, payload: np.ndarray, cost_model: CostModel
) -> Tuple[Optional[np.ndarray], float]:
    """Send a bare float vector through *channel* in raw (identity) framing.

    Wraps *payload* in an identity frame, runs ``channel.transfer_frame`` and
    unwraps — the same bytes, RNG draws and degradation as the frame path.
    """
    frame = _RAW.encode(payload)
    delivered, seconds = channel.transfer_frame(frame, cost_model)
    if delivered is None:
        return None, seconds
    return np.asarray(delivered.values, dtype=np.float64).copy(), seconds
