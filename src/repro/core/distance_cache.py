"""Cross-round pairwise-distance cache for the selection-based GARs.

Every selection GAR (Krum / Multi-Krum / Bulyan / Brute) funnels through one
O(n^2 d) hot path — :func:`repro.core.kernels.pairwise_squared_distances` —
and successive aggregation rounds share inputs: a quorum policy with carried
stragglers re-submits the *byte-identical* gradient rows it deferred, and a
pipelined server can compute distance blocks for early arrivals while it is
otherwise idle waiting for the quorum to fill.  :class:`DistanceCache`
exploits both.  Rows are identified by a content fingerprint, distance pairs
already held by the (simulated) server are **hits** and cost nothing on the
aggregation critical path, and only the pairs involving rows the server has
not seen — typically the quorum-completing arrivals — are **misses** charged
by the cluster cost model.

Bit-stability invariant
-----------------------
The numerical values always come from the audited kernel evaluated on the
full round matrix, never from incrementally assembled BLAS sub-blocks: gemm
results are *shape-dependent in the last ulp* (the dot product of the same
two rows inside a ``(k, d) @ (d, n)`` block and a ``(n, d) @ (d, n)`` full
multiply can differ), so a value-level incremental cache would drift from
the uncached path and break the cache-on/cache-off bit-identity guarantee.
The cache therefore separates the two concerns a simulator must keep apart:

* **values** — served by ``pairwise_squared_distances`` on the exact round
  matrix (with a whole-matrix memo for byte-identical repeat queries, which
  *is* provably safe: a deterministic function of identical input);
* **cost** — fingerprint-level bookkeeping of which pair blocks the
  simulated server already holds, which prices each round at
  O(delta_n * n * d) instead of O(n^2 d).

Round lifecycle (driven by the cluster trainers):

1. :meth:`begin_round` — snapshot the known-row set; reset per-round stats.
2. :meth:`warm` — account the distance blocks of gradients that arrived
   *before* the quorum-completing one: the server computes them while it
   waits, so they are off the critical path (the cost model still charges
   any overlap the wait could not absorb).
3. GAR queries :meth:`distances` — missing pairs are charged as this
   round's effective distance flops.
4. :meth:`end_round` — warm the sync policy's carry pool (those rows will
   re-submit next round byte-identically) and evict everything else: the
   carry pool *is* the cache's retention policy.

Rows containing non-finite values are quarantined exactly as the kernel
quarantines them (infinitely far from everything, never selected): they are
never fingerprint-cached, and their pairs are neither hits nor misses — the
simulated server writes ``inf`` without doing distance work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.kernels import pairwise_squared_distances
from repro.exceptions import ConfigurationError


def row_fingerprint(row: np.ndarray) -> bytes:
    """Content fingerprint of one gradient row (dtype-, shape- and byte-exact).

    Carried stragglers re-enter later pools as the *same* float64 payload, so
    hashing the raw bytes is both sufficient and necessary: any numerical
    difference — even one ulp — must be a different row, or cached distances
    would silently go stale.
    """
    row = np.ascontiguousarray(row, dtype=np.float64)
    digest = hashlib.blake2b(row.tobytes(), digest_size=16)
    return digest.digest()


def row_fingerprints(matrix: np.ndarray) -> List[bytes]:
    """Fingerprints of every row of an ``(n, d)`` matrix, in one pass.

    Bit-identical to ``[row_fingerprint(matrix[i]) for i in range(n)]`` —
    a C-contiguous float64 matrix serialises row-major, so each row's
    digest is taken over its slice of one shared buffer — but the numpy
    side does two calls total (contiguify + serialise) instead of two *per
    row*.  This is what lets a crafted ``(f, d)`` attack payload or a
    full round matrix enter the cache without per-row Python overhead.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigurationError(
            f"row_fingerprints expects an (n, d) matrix, got shape {matrix.shape}"
        )
    stride = matrix.shape[1] * matrix.itemsize
    buf = memoryview(matrix.tobytes())
    return [
        hashlib.blake2b(buf[i * stride : (i + 1) * stride], digest_size=16).digest()
        for i in range(matrix.shape[0])
    ]


@dataclass
class DistanceRoundStats:
    """Per-round cache accounting, surfaced into the step telemetry.

    Rows are counted once per round at first encounter (warm or query):
    a **hit row** was already fingerprint-known when the round began (a
    carried / stale re-submission), a **miss row** is new this round.
    Pairs are counted at GAR query time: a **hit pair** was cached (carried
    from a previous round or warmed while waiting), a **miss pair** had to
    be computed on the aggregation critical path.  ``charged_flops`` is the
    effective distance work of the round (what the cost model bills),
    ``warmed_flops`` the work absorbed by the wait/idle periods.
    """

    rows: int = 0
    hit_rows: int = 0
    miss_rows: int = 0
    quarantined_rows: int = 0
    hit_pairs: int = 0
    miss_pairs: int = 0
    warmed_pairs: int = 0
    charged_flops: float = 0.0
    warmed_flops: float = 0.0
    queries: int = 0


#: Flops accounted per unordered distance pair: one ``d``-length fused
#: multiply-add against each row's cached squared norm — ``2 d`` per pair.
PAIR_FLOPS_PER_COORDINATE = 2.0

#: Flops accounted once per newly observed row: its squared norm (``d``).
#: Together the two conventions make a fully fresh round of ``n`` rows price
#: out at exactly ``n (n - 1) d + n d = n^2 d`` — so a cache round with zero
#: hits charges the same distance share the uncached cost model does
#: (:func:`repro.core.theory.aggregation_flops_distances`).
ROW_FLOPS_PER_COORDINATE = 1.0


class DistanceCache:
    """Fingerprint-keyed pairwise-distance cache with incremental pricing.

    Implements the provider interface consumed by
    :meth:`repro.core.base.GradientAggregationRule._distances` — the single
    method :meth:`distances` — plus the round lifecycle the cluster layer
    drives (:meth:`begin_round` / :meth:`warm` / :meth:`end_round`).

    Parameters
    ----------
    max_rows:
        Hard safety bound on the number of fingerprint-cached rows; the
        oldest rows beyond it are evicted (the carry-pool retention in
        :meth:`end_round` keeps real deployments far below this).
    """

    def __init__(self, *, max_rows: int = 4096) -> None:
        if max_rows < 1:
            raise ConfigurationError(f"max_rows must be >= 1, got {max_rows}")
        self.max_rows = int(max_rows)
        #: Known finite rows, fingerprint -> insertion index (dict = ordered).
        self._rows: Dict[bytes, int] = {}
        self._insertions = 0
        #: Cached unordered pairs, keyed by the sorted fingerprint pair.
        self._pairs: Set[Tuple[bytes, bytes]] = set()
        #: Known-row snapshot taken by :meth:`begin_round`.
        self._round_known: Set[bytes] = set()
        #: Rows already counted towards this round's hit/miss row stats.
        self._round_seen: Set[bytes] = set()
        self._round = DistanceRoundStats()
        #: Completed-round stats (what the trainer writes into telemetry).
        self.last_round: Optional[DistanceRoundStats] = None
        #: Whole-matrix memo: fingerprint tuple of the last query and its
        #: result.  Safe because identical input to a deterministic kernel
        #: yields identical output — unlike BLAS sub-blocks.
        self._memo_key: Optional[Tuple[bytes, ...]] = None
        self._memo_value: Optional[np.ndarray] = None
        # Cumulative counters (monotonic; the cost model diffs them around
        # one aggregation call to find what that call charged).
        self.total_queries = 0
        self.total_charged_flops = 0.0
        self.total_hit_pairs = 0
        self.total_miss_pairs = 0

    # -------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Drop every cached row and pair (checkpoint-restore invalidation)."""
        self._rows = {}
        self._pairs = set()
        self._round_known = set()
        self._round_seen = set()
        self._round = DistanceRoundStats()
        self._memo_key = None
        self._memo_value = None

    def begin_round(self) -> None:
        """Start one aggregation round: snapshot the known rows, reset stats."""
        self._round_known = set(self._rows)
        self._round_seen = set()
        self._round = DistanceRoundStats()

    def warm(self, matrix: np.ndarray) -> float:
        """Account the distance blocks of *matrix* as computed off-path.

        The rows are fingerprinted and every missing norm and pair among
        them (and nothing else — warming is scoped to the given rows) is
        marked cached; the newly accounted flops are returned and
        accumulated into the round's ``warmed_flops``.  Rows and pairs
        already cached cost nothing, so warming the carry pool again next
        round is free.
        """
        return self._warm(matrix)[0]

    def _warm(self, matrix: np.ndarray) -> Tuple[float, List[bytes]]:
        """:meth:`warm`, also returning the finite rows' fingerprints."""
        matrix = np.asarray(matrix, dtype=np.float64)
        fingerprints, finite, new_rows = self._observe_rows(matrix)
        d = int(matrix.shape[1])
        flops = ROW_FLOPS_PER_COORDINATE * d * new_rows
        kept = [fp for fp, ok in zip(fingerprints, finite) if ok]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                pair = self._pair_key(kept[i], kept[j])
                if pair in self._pairs:
                    continue
                self._pairs.add(pair)
                self._round.warmed_pairs += 1
                flops += PAIR_FLOPS_PER_COORDINATE * d
        self._round.warmed_flops += flops
        self._enforce_capacity(protect=set(kept))
        return flops, kept

    def end_round(self, carry_matrix: Optional[np.ndarray] = None) -> DistanceRoundStats:
        """Finish the round: warm the carry pool, evict everything else.

        *carry_matrix* holds the rows the sync policy deferred into the next
        step's pool — the only rows that can re-submit byte-identically, so
        they (and their mutual distance blocks, computed while the server is
        idle) are all the cache retains.  Passing ``None`` (or an empty
        pool) empties the cache, which is exactly right for policies without
        carried state.  Returns the round's stats and publishes them as
        :attr:`last_round`.
        """
        keep: Set[bytes] = set()
        if carry_matrix is not None and len(carry_matrix):
            keep = set(self._warm(carry_matrix)[1])
        self.retain(keep)
        self.last_round = self._round
        return self._round

    def rebuild(self, carry_matrix: Optional[np.ndarray]) -> None:
        """Reconstruct the cache from a restored carry pool (derived state).

        Checkpoints never persist the cache: after a restore the trainer
        rebuilds it from the deserialised carry pool, which reproduces the
        between-round cache state of the uninterrupted run exactly — the
        retention policy guarantees that state is always *precisely* the
        carry pool's rows and their mutual blocks.
        """
        self.reset()
        if carry_matrix is not None and len(carry_matrix):
            self.begin_round()
            self.end_round(carry_matrix)
            self.last_round = None

    def retain(self, fingerprints: Set[bytes]) -> None:
        """Evict every cached row (and pair) outside *fingerprints*."""
        self._rows = {fp: order for fp, order in self._rows.items() if fp in fingerprints}
        self._pairs = {
            pair for pair in self._pairs
            if pair[0] in self._rows and pair[1] in self._rows
        }
        if self._memo_key is not None and not set(self._memo_key) <= set(self._rows):
            self._memo_key = None
            self._memo_value = None

    # --------------------------------------------------------------- provider
    def distances(self, matrix: np.ndarray) -> np.ndarray:
        """Serve the dense ``(n, n)`` squared-distance matrix for *matrix*.

        Values are bit-identical to
        :func:`repro.core.kernels.pairwise_squared_distances` by
        construction; the bookkeeping classifies each finite unordered pair
        as a hit (cached — free) or a miss (charged to this round and then
        cached).  This is the provider entry point the selection GARs call
        through :meth:`repro.core.base.GradientAggregationRule._distances`.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        fingerprints, finite, new_rows = self._observe_rows(matrix)
        d = int(matrix.shape[1])
        norm_flops = ROW_FLOPS_PER_COORDINATE * d * new_rows
        self._round.charged_flops += norm_flops
        self.total_charged_flops += norm_flops
        for i in range(len(fingerprints)):
            if not finite[i]:
                continue
            for j in range(i + 1, len(fingerprints)):
                if not finite[j]:
                    continue
                pair = self._pair_key(fingerprints[i], fingerprints[j])
                if pair in self._pairs:
                    self._round.hit_pairs += 1
                    self.total_hit_pairs += 1
                else:
                    self._pairs.add(pair)
                    self._round.miss_pairs += 1
                    self.total_miss_pairs += 1
                    self._round.charged_flops += PAIR_FLOPS_PER_COORDINATE * d
                    self.total_charged_flops += PAIR_FLOPS_PER_COORDINATE * d
        self._round.queries += 1
        self.total_queries += 1
        self._enforce_capacity(protect={fp for fp, ok in zip(fingerprints, finite) if ok})

        key = tuple(fingerprints)
        if self._memo_key == key and self._memo_value is not None:
            return self._memo_value.copy()
        result = pairwise_squared_distances(matrix)
        self._memo_key = key
        self._memo_value = result.copy()
        return result

    # -------------------------------------------------------------- accessors
    @property
    def known_rows(self) -> int:
        """Number of fingerprint-cached rows."""
        return len(self._rows)

    @property
    def cached_pairs(self) -> int:
        """Number of cached unordered distance pairs."""
        return len(self._pairs)

    # -------------------------------------------------------------- internals
    @staticmethod
    def _pair_key(fp_a: bytes, fp_b: bytes) -> Tuple[bytes, bytes]:
        return (fp_a, fp_b) if fp_a <= fp_b else (fp_b, fp_a)

    def _observe_rows(
        self, matrix: np.ndarray
    ) -> Tuple[List[bytes], List[bool], int]:
        """Fingerprint rows, update row-level round stats, register finite ones.

        Returns the fingerprints, the per-row finite flags, and the number of
        rows registered for the first time by *this* call — the rows whose
        squared norm the simulated server has to compute now.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ConfigurationError(
                f"the distance cache expects an (n, d) matrix, got shape {matrix.shape}"
            )
        finite_rows = np.isfinite(matrix).all(axis=1)
        fingerprints = row_fingerprints(matrix)
        new_rows = 0
        for fp, ok in zip(fingerprints, finite_rows):
            if not ok:
                # Quarantined rows are counted every time they appear: they
                # are never cached, so "seen before" has no meaning for them.
                self._round.rows += 1
                self._round.quarantined_rows += 1
                continue
            if fp not in self._round_seen:
                self._round_seen.add(fp)
                self._round.rows += 1
                if fp in self._round_known:
                    self._round.hit_rows += 1
                else:
                    self._round.miss_rows += 1
            if fp not in self._rows:
                self._rows[fp] = self._insertions
                self._insertions += 1
                new_rows += 1
        return fingerprints, [bool(b) for b in finite_rows], new_rows

    def _enforce_capacity(self, protect: Set[bytes]) -> None:
        """Evict the oldest rows beyond ``max_rows`` (never this round's)."""
        if len(self._rows) <= self.max_rows:
            return
        evictable = sorted(
            (order, fp) for fp, order in self._rows.items() if fp not in protect
        )
        excess = len(self._rows) - self.max_rows
        victims = {fp for _, fp in evictable[:excess]}
        if victims:
            self.retain(set(self._rows) - victims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistanceCache(rows={self.known_rows}, pairs={self.cached_pairs}, "
            f"max_rows={self.max_rows})"
        )


__all__ = [
    "DistanceCache",
    "DistanceRoundStats",
    "row_fingerprint",
    "row_fingerprints",
    "PAIR_FLOPS_PER_COORDINATE",
    "ROW_FLOPS_PER_COORDINATE",
]
