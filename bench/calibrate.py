"""Calibrated seconds: host time divided by an interleaved reference kernel.

The sandbox this benchmark was built on runs the same code at three speeds (a
fixed kernel takes ~1.0x, ~1.5x or ~2.2x), for minutes at a time and in
bursts of 50-600 ms, so raw wall seconds of identical code differ by up to 2x
between back-to-back runs.  Every timing metric is therefore reported in
*calibrated seconds*::

    calibrated = raw * CAL_REF_S / median(kernel slices read around the interval)

i.e. "how long this would have taken on the reference box in its fast state".

The kernel is read as often as the measured code allows.  A session is probed
(:func:`probe`, one ~7 ms slice) at each of its boundaries and after every
step, and each piece is scaled by its own two adjacent slices: at a fixed
seed on a turbulent host this brought the run-to-run spread of the median
session from 6.4 % to 3.9 % (``bulyan_attack_600``) and from 10.3 % to 6.0 %
(``async_quorum_1k``) against one reading before and one after the session.
A child process cannot be probed from outside; a CLI launch is measured against
the timed sessions either side of it instead (:func:`bench.harness.measure`).
A microbenchmark is scaled by the median over two :func:`reading` calls.

An earlier design set aside measurements whose two readings disagreed by more
than 10 %.  On this host that discards half the samples in turbulent minutes
and the median over the survivors was *less* steady (18 % spread against
10 %), so nothing is discarded.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: What one :func:`probe` slice reads on the reference box (2-core sandbox,
#: CPython 3.11, numpy 2.4, one BLAS thread) in its fast state.  A constant, so
#: that calibrated seconds from different hosts and days share one scale.
CAL_REF_S = 0.0070

#: Slices in one :func:`reading`.
SLICES = 7


def probe() -> float:
    """One ~7 ms slice: half interpreter work, half numpy, like the simulator."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(42_000):
        total += i % 7
        table[i & 1023] = total
    matrix = np.arange(40_000, dtype=np.float64).reshape(200, 200) * 1e-4
    for _ in range(10):
        product = matrix @ matrix.T
        product.sort(axis=1)
        total += float(product[0, 0])
    return time.perf_counter() - start


def reading() -> List[float]:
    """:data:`SLICES` slices back to back (~50 ms)."""
    return [probe() for _ in range(SLICES)]


def scale(slices: Sequence[float]) -> float:
    """Factor turning raw seconds into calibrated ones, given the slices read around them.

    The median slice: with the slices of two readings pooled, a burst that
    spoils most of one reading still leaves the scale where the other puts it.
    """
    return CAL_REF_S / statistics.median(slices)
