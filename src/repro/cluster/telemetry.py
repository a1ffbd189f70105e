"""Training telemetry: per-step records and derived metrics.

The metrics mirror the paper's evaluation section:

* top-1 cross-accuracy versus simulated time (Figures 3a/3c, 6, 7, 8);
* accuracy versus model updates (Figures 3b/3d);
* throughput in batches (gradients) received per second (Figure 5);
* the latency breakdown between computation + communication and aggregation
  (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import compress
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: Float-valued wire columns of :class:`WorkerTimeline`, in declaration order
#: (the compact history preallocates one array per column).
_WIRE_FLOAT_COLUMNS = (
    "bytes_sent",
    "bytes_received",
    "bytes_received_full",
    "bytes_received_delta",
    "queueing_delay_seconds",
    "compression_error",
)
#: Integer-valued wire columns (fetch counts by downlink framing).
_WIRE_INT_COLUMNS = ("full_fetches", "delta_fetches")

#: Inter-server counter keys of :meth:`TrainingHistory.record_interserver`,
#: in the order :meth:`TrainingHistory.interserver_summary` reports them.
_INTERSERVER_KEYS = (
    "push_local_bytes",
    "push_cross_bytes",
    "fetch_local_bytes",
    "fetch_cross_bytes",
    "gather_bytes",
    "gather_seconds",
    "gather_sessions",
    "replica_sync_bytes",
)


@dataclass
class StepRecord:
    """Timing, loss and aggregation-pipeline information for a single model update.

    The pipeline fields (quorum size, straggler and staleness counters, GAR
    selection diagnostics) default to the fully-synchronous values so records
    written by older code — and the seed trainer's trajectories — are
    unchanged.
    """

    step: int
    sim_time: float
    mean_loss: float
    compute_comm_time: float
    aggregation_time: float
    update_time: float
    gradients_received: int
    #: Delivered gradients discarded for missing the quorum this step.
    dropped_stragglers: int = 0
    #: Delivered gradients deferred into the next step's pool.
    carried_gradients: int = 0
    #: Admitted gradients computed on an older model version.
    stale_gradients: int = 0
    #: Largest staleness (in steps) among the admitted gradients.
    max_staleness: int = 0
    #: Worker ids whose gradients the GAR selected (selection rules only).
    selected_workers: Optional[tuple] = None
    #: Per-admitted-gradient GAR scores, ordered like the aggregated batch.
    selection_scores: Optional[tuple] = None
    #: Encoded uplink bytes of the gradients admitted into this update.
    wire_bytes: float = 0.0
    #: Model-broadcast bytes the server pushed onto the downlink for this
    #: update (full-state and delta frames alike; 0 for histories predating
    #: downlink accounting).
    downlink_bytes: float = 0.0
    #: Distance-cache accounting for this update (all zero when the cache is
    #: off — the default — and in histories predating it).  Rows already
    #: fingerprint-known at round start (carried / stale re-submissions)
    #: count as hits, first-seen rows as misses; pair counts classify the
    #: aggregation query's distance blocks the same way.
    cache_hit_rows: int = 0
    cache_miss_rows: int = 0
    cache_hit_pairs: int = 0
    cache_miss_pairs: int = 0
    #: Effective distance flops charged to this update's aggregation time
    #: (cache misses only — hits and off-path warming are free).
    distance_flops: float = 0.0
    #: Distance flops absorbed by the quorum wait / idle periods (warming
    #: early arrivals and the carry pool).
    overlapped_flops: float = 0.0

    @property
    def step_time(self) -> float:
        """Total simulated duration of the step."""
        return self.compute_comm_time + self.aggregation_time + self.update_time


@dataclass
class EvalRecord:
    """A periodic accuracy evaluation."""

    step: int
    sim_time: float
    accuracy: float


@dataclass
class WorkerTimeline:
    """Per-worker activity accounting for the event-driven engine.

    Each honest worker runs its own fetch → compute → transfer loop; this
    record accumulates what happened to its gradients.  Byzantine workers
    only count submissions (the adversary has no compute/transfer cost).
    """

    worker_id: int
    #: Gradients the worker pushed towards the server.
    rounds_completed: int = 0
    #: Pushed gradients that entered an aggregation batch.
    admitted: int = 0
    #: Pending gradients replaced by a fresher one from the same worker.
    superseded: int = 0
    #: Gradients rejected because their version lag exceeded the bound.
    stale_rejected: int = 0
    #: Gradients the transport dropped in flight.
    channel_dropped: int = 0
    #: Total simulated seconds the worker spent computing.
    compute_seconds: float = 0.0
    #: Total simulated seconds the worker's gradients spent on the wire.
    transfer_seconds: float = 0.0
    #: Encoded bytes the worker pushed onto the uplink.
    bytes_sent: float = 0.0
    #: Bytes of model broadcasts the worker pulled off the downlink.
    bytes_received: float = 0.0
    #: Downlink split: raw full-state broadcast bytes versus codec-encoded
    #: version-delta bytes (they sum to ``bytes_received``).
    bytes_received_full: float = 0.0
    bytes_received_delta: float = 0.0
    #: Downlink fetch counts by framing (full-state resyncs versus deltas).
    full_fetches: int = 0
    delta_fetches: int = 0
    #: Extra seconds the worker's transfers spent waiting for the shared
    #: link (zero unless a contention-aware sharing discipline is active).
    queueing_delay_seconds: float = 0.0
    #: Accumulated L2 norm of the codec's compression error (zero for the
    #: identity codec).
    compression_error: float = 0.0

    def to_dict(self) -> Dict:
        """JSON-serialisable form."""
        return {name: getattr(self, name) for name in _TIMELINE_FIELDS}


#: :class:`WorkerTimeline`'s fields in declaration order: its export keys and
#: the columns of :meth:`TrainingHistory._timeline_columns`.
_TIMELINE_FIELDS = tuple(spec.name for spec in fields(WorkerTimeline))


@dataclass
class TrainingHistory:
    """Accumulated telemetry for a training run."""

    steps: List[StepRecord] = field(default_factory=list)
    evaluations: List[EvalRecord] = field(default_factory=list)
    diverged: bool = False
    divergence_reason: str = ""
    #: Per-worker activity accounting.  The event-driven engine populates the
    #: full round-trip counters; lock-step runs record the wire fields only
    #: (bytes, queueing delay, compression error) — their round counters
    #: stay zero, which keeps seed-era telemetry comparable.
    worker_timelines: Dict[int, WorkerTimeline] = field(default_factory=dict)
    #: Simulated seconds the server spent aggregating + updating.
    server_busy_time: float = 0.0
    #: Histogram of admitted-gradient version lags: ``{lag: count}``.
    version_lag_counts: Dict[int, int] = field(default_factory=dict)
    #: Queueing delay accumulated per link-topology region (``{region: s}``;
    #: all traffic lands under ``"core"`` on the symmetric single pipe).
    region_queueing_seconds: Dict[str, float] = field(default_factory=dict)
    #: Inter-server (parameter-service) counters: per-shard push/fetch byte
    #: splits and the measured shard-gather / replica-sync wire.  Stays empty
    #: on single-server runs — :meth:`interserver_summary` reports all zeros,
    #: which keeps pre-service telemetry comparable.
    interserver_counters: Dict[str, float] = field(default_factory=dict)
    #: Compact wire accounting: per-worker wire activity lands in
    #: preallocated numpy columns instead of one Python object mutation per
    #: worker per step.  Round counters (admissions, supersedes, compute and
    #: transfer seconds) still live on the :class:`WorkerTimeline` objects;
    #: exports merge the two views, so ``to_dict`` output is identical to
    #: the object-per-step path.
    compact: bool = False

    def __post_init__(self) -> None:
        self._wire_row: Dict[int, int] = {}
        self._wire_ids: List[int] = []
        #: ``_wire_row`` as an array indexed by worker id (-1 = no row).
        self._wire_table = np.zeros(0, dtype=np.intp)
        self._wire_cols: Dict[str, np.ndarray] = {}
        self._wire_touched = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------- recording
    def record_step(self, record: StepRecord) -> None:
        """Append one step record."""
        self.steps.append(record)

    def record_evaluation(self, record: EvalRecord) -> None:
        """Append one accuracy evaluation."""
        self.evaluations.append(record)

    def mark_diverged(self, reason: str) -> None:
        """Flag the run as diverged (e.g. non-finite aggregated gradient)."""
        self.diverged = True
        self.divergence_reason = reason

    def timeline_for(self, worker_id: int) -> WorkerTimeline:
        """The (lazily created) activity record of *worker_id*."""
        if worker_id not in self.worker_timelines:
            self.worker_timelines[worker_id] = WorkerTimeline(worker_id=worker_id)
        return self.worker_timelines[worker_id]

    def record_server_busy(self, seconds: float) -> None:
        """Account *seconds* of server aggregation/update work."""
        self.server_busy_time += float(seconds)

    def register_workers(self, worker_ids: Sequence[int]) -> None:
        """Preallocate compact wire columns for *worker_ids* (idempotent).

        A no-op outside compact mode.  Unregistered workers are registered
        lazily by :meth:`record_wire`, so calling this up front only saves
        the incremental growth.
        """
        if not self.compact:
            return
        new_ids = [int(wid) for wid in worker_ids if int(wid) not in self._wire_row]
        if not new_ids:
            return
        if min(new_ids) < 0:
            raise ConfigurationError(
                f"compact wire columns need non-negative worker ids, got {min(new_ids)}"
            )
        for wid in new_ids:
            self._wire_row[wid] = len(self._wire_ids)
            self._wire_ids.append(wid)
        total = len(self._wire_ids)
        grown: Dict[str, np.ndarray] = {}
        for name in _WIRE_FLOAT_COLUMNS:
            column = np.zeros(total, dtype=np.float64)
            old = self._wire_cols.get(name)
            if old is not None:
                column[: old.size] = old
            grown[name] = column
        for name in _WIRE_INT_COLUMNS:
            column = np.zeros(total, dtype=np.int64)
            old = self._wire_cols.get(name)
            if old is not None:
                column[: old.size] = old
            grown[name] = column
        touched = np.zeros(total, dtype=bool)
        touched[: self._wire_touched.size] = self._wire_touched
        self._wire_cols = grown
        self._wire_touched = touched
        ids = np.array(self._wire_ids, dtype=np.intp)
        self._wire_table = np.full(ids.max() + 1, -1, dtype=np.intp)
        self._wire_table[ids] = np.arange(total)

    def record_wire(
        self,
        worker_id: int,
        *,
        bytes_sent: float = 0.0,
        bytes_received: float = 0.0,
        queueing_delay: float = 0.0,
        compression_error: float = 0.0,
        downlink_delta: bool = False,
        region: Optional[str] = None,
    ) -> None:
        """Account one worker's wire activity (bytes, queueing, codec error).

        ``downlink_delta`` classifies received bytes as codec-encoded
        version-delta frames rather than raw full-state broadcasts;
        ``region`` attributes the queueing delay to a link-topology
        bottleneck.
        """
        if self.compact:
            if int(worker_id) not in self._wire_row:
                self.register_workers([worker_id])
            row = self._wire_row[int(worker_id)]
            cols = self._wire_cols
            self._wire_touched[row] = True
            cols["bytes_sent"][row] += float(bytes_sent)
            cols["bytes_received"][row] += float(bytes_received)
            if bytes_received:
                if downlink_delta:
                    cols["bytes_received_delta"][row] += float(bytes_received)
                    cols["delta_fetches"][row] += 1
                else:
                    cols["bytes_received_full"][row] += float(bytes_received)
                    cols["full_fetches"][row] += 1
            cols["queueing_delay_seconds"][row] += float(queueing_delay)
            cols["compression_error"][row] += float(compression_error)
        else:
            timeline = self.timeline_for(worker_id)
            timeline.bytes_sent += float(bytes_sent)
            timeline.bytes_received += float(bytes_received)
            if bytes_received:
                if downlink_delta:
                    timeline.bytes_received_delta += float(bytes_received)
                    timeline.delta_fetches += 1
                else:
                    timeline.bytes_received_full += float(bytes_received)
                    timeline.full_fetches += 1
            timeline.queueing_delay_seconds += float(queueing_delay)
            timeline.compression_error += float(compression_error)
        if region is not None and queueing_delay:
            self.region_queueing_seconds[region] = (
                self.region_queueing_seconds.get(region, 0.0) + float(queueing_delay)
            )

    def record_wire_batch(
        self,
        worker_ids: Sequence[int],
        *,
        bytes_sent: Optional[np.ndarray] = None,
        bytes_received: Optional[np.ndarray] = None,
        queueing_delay: Optional[np.ndarray] = None,
        compression_error: Optional[np.ndarray] = None,
        downlink_delta=False,
        regions: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        """Vectorised :meth:`record_wire` over a fleet of workers at once.

        Each array argument holds one value per entry of *worker_ids*
        (``None`` means all-zero); ``downlink_delta`` may be a scalar or a
        per-worker boolean array (broadcast-codec steps mix full resyncs and
        deltas).  In compact mode the whole batch lands as a handful of
        indexed numpy adds — the rows are one lookup in the id-indexed row
        table, and each region's queueing total one ordered running sum —
        so its Python does not grow with the batch; otherwise it degrades to
        per-worker :meth:`record_wire` calls with identical semantics.
        """
        n = len(worker_ids)

        def _as_array(values: Optional[np.ndarray]) -> np.ndarray:
            if values is None:
                return np.zeros(n, dtype=np.float64)
            return np.asarray(values, dtype=np.float64)

        sent = _as_array(bytes_sent)
        received = _as_array(bytes_received)
        queueing = _as_array(queueing_delay)
        error = _as_array(compression_error)
        delta = np.broadcast_to(np.asarray(downlink_delta, dtype=bool), (n,))
        if not self.compact:
            for i, wid in enumerate(worker_ids):
                self.record_wire(
                    int(wid),
                    bytes_sent=float(sent[i]),
                    bytes_received=float(received[i]),
                    queueing_delay=float(queueing[i]),
                    compression_error=float(error[i]),
                    downlink_delta=bool(delta[i]),
                    region=regions[i] if regions is not None else None,
                )
            return
        ids = np.asarray(worker_ids, dtype=np.intp)
        table = self._wire_table
        if ids.size and (ids.min() < 0 or ids.max() >= table.size or (table[ids] < 0).any()):
            self.register_workers(ids.tolist())
        rows = self._wire_table[ids]
        cols = self._wire_cols
        self._wire_touched[rows] = True
        np.add.at(cols["bytes_sent"], rows, sent)
        np.add.at(cols["bytes_received"], rows, received)
        fetched = received != 0.0
        for kind, mask in (("full", fetched & ~delta), ("delta", fetched & delta)):
            if mask.any():
                np.add.at(cols[f"bytes_received_{kind}"], rows, np.where(mask, received, 0.0))
                np.add.at(cols[f"{kind}_fetches"], rows, mask.astype(np.int64))
        np.add.at(cols["queueing_delay_seconds"], rows, queueing)
        np.add.at(cols["compression_error"], rows, error)
        if regions is not None:
            queued = np.flatnonzero(queueing)
            labels = np.asarray(regions, dtype=object)[queued]
            # Per region, in first-queued order, the total the per-worker
            # ``+=`` loop reaches: cumsum adds left to right.
            for region in dict.fromkeys(labels.tolist()):
                if region is not None:
                    delays = queueing[queued[labels == region]]
                    prior = self.region_queueing_seconds.get(region, 0.0)
                    self.region_queueing_seconds[region] = float(
                        np.cumsum(np.concatenate([[prior], delays]))[-1]
                    )

    def _timeline_columns(self) -> Tuple[List[int], Dict[str, list]]:
        """The merged per-worker timelines as ``(ids, {field: values})``.

        One list per :class:`WorkerTimeline` field, one entry per id.  In
        compact mode the ids are ascending and each wire column is the
        object's counter plus the array-held column, one array add per
        field — the IEEE add the attribute-by-attribute merge performed
        (a worker without a wire row keeps its object's counters).  Outside
        compact mode the columns are read off the objects in the store's
        insertion order, the order :meth:`wire_summary` has always summed.
        """
        timelines = self.worker_timelines
        if self.compact:
            touched = compress(self._wire_ids, self._wire_touched.tolist())
            ids = sorted(set(touched).union(timelines))
        else:
            ids = list(timelines)
        blank = WorkerTimeline(worker_id=-1)
        bases = [timelines.get(wid, blank) for wid in ids]
        columns = {name: list(map(attrgetter(name), bases)) for name in _TIMELINE_FIELDS}
        columns["worker_id"] = ids
        if self.compact:
            rows = np.array([self._wire_row.get(wid, -1) for wid in ids], dtype=np.intp)
            for name, column in self._wire_cols.items():
                merged = np.array(columns[name], dtype=column.dtype)
                np.add(merged, column[rows], out=merged, where=rows >= 0)
                columns[name] = merged.tolist()
        return ids, columns

    def merged_timelines(self) -> Dict[int, WorkerTimeline]:
        """Per-worker timelines with compact wire columns folded back in.

        Outside compact mode this *is* :attr:`worker_timelines`.  In compact
        mode, one timeline per row of :meth:`_timeline_columns` — exactly
        the timelines the object-per-step path would have built.
        """
        if not self.compact:
            return self.worker_timelines
        ids, columns = self._timeline_columns()
        return {wid: WorkerTimeline(*row) for wid, row in zip(ids, zip(*columns.values()))}

    def record_interserver(
        self,
        *,
        push_local_bytes: float = 0.0,
        push_cross_bytes: float = 0.0,
        fetch_local_bytes: float = 0.0,
        fetch_cross_bytes: float = 0.0,
        gather_bytes: float = 0.0,
        gather_seconds: float = 0.0,
        gather_sessions: float = 0.0,
        replica_sync_bytes: float = 0.0,
    ) -> None:
        """Account parameter-service traffic (per-shard splits, gather wire).

        ``push`` / ``fetch`` bytes are classified by whether the sub-frame
        stayed in the worker's own region (``local``) or crossed the WAN to
        a foreign shard (``cross``); the ``gather`` counters measure the
        inter-server sessions replacing the analytic
        ``shard_combine_flops`` term; ``replica_sync_bytes`` are the state
        digests deterministic replicas exchange.
        """
        deltas = {
            "push_local_bytes": push_local_bytes,
            "push_cross_bytes": push_cross_bytes,
            "fetch_local_bytes": fetch_local_bytes,
            "fetch_cross_bytes": fetch_cross_bytes,
            "gather_bytes": gather_bytes,
            "gather_seconds": gather_seconds,
            "gather_sessions": gather_sessions,
            "replica_sync_bytes": replica_sync_bytes,
        }
        for key, value in deltas.items():
            if value:
                self.interserver_counters[key] = (
                    self.interserver_counters.get(key, 0.0) + float(value)
                )

    def record_version_lag_batch(self, lags: Sequence[int]) -> None:
        """Count one round's admitted version lags in a single pass.

        Synchronous rounds are overwhelmingly all-fresh (every lag zero), so
        the common case is one dictionary bump instead of one per gradient.
        New lags join the dictionary in the order they first occur in
        *lags* — its key order is part of the exported document.
        """
        lags = np.asarray(lags, dtype=np.int64)
        values, first, counts = np.unique(lags, return_index=True, return_counts=True)
        for i in np.argsort(first, kind="stable").tolist():
            lag = int(values[i])
            self.version_lag_counts[lag] = self.version_lag_counts.get(lag, 0) + int(counts[i])

    # --------------------------------------------------------------- metrics
    @property
    def num_updates(self) -> int:
        """Number of model updates performed."""
        return len(self.steps)

    @property
    def total_time(self) -> float:
        """Simulated wall-clock of the whole run."""
        return self.steps[-1].sim_time if self.steps else 0.0

    @property
    def final_accuracy(self) -> float:
        """Last recorded accuracy (NaN when no evaluation happened)."""
        return self.evaluations[-1].accuracy if self.evaluations else float("nan")

    @property
    def best_accuracy(self) -> float:
        """Best recorded accuracy (NaN when no evaluation happened)."""
        if not self.evaluations:
            return float("nan")
        return max(e.accuracy for e in self.evaluations)

    @property
    def total_wire_bytes(self) -> float:
        """Encoded uplink bytes admitted into updates over the whole run."""
        return float(sum(r.wire_bytes for r in self.steps))

    @property
    def total_downlink_bytes(self) -> float:
        """Model-broadcast bytes pushed onto the downlink over the whole run."""
        return float(sum(r.downlink_bytes for r in self.steps))

    def bytes_to_accuracy(self, threshold: float) -> Optional[float]:
        """Admitted uplink bytes spent before *threshold* accuracy was reached.

        The wire-efficiency counterpart of :meth:`time_to_accuracy`: at equal
        simulated time-to-accuracy, a sparsifying codec should reach the
        target with several-fold fewer bytes than the identity framing.
        Returns ``None`` when the run never reached the threshold.
        """
        reached = self.time_to_accuracy(threshold)
        if reached is None:
            return None
        return float(
            sum(r.wire_bytes for r in self.steps if r.sim_time <= reached)
        )

    def downlink_bytes_to_accuracy(self, threshold: float) -> Optional[float]:
        """Broadcast bytes spent before *threshold* accuracy was reached.

        The downlink mirror of :meth:`bytes_to_accuracy`: delta broadcasts
        should reach the target having pushed several-fold fewer bytes than
        raw ``4d`` full-state framing.  Returns ``None`` when the run never
        reached the threshold.
        """
        reached = self.time_to_accuracy(threshold)
        if reached is None:
            return None
        return float(
            sum(r.downlink_bytes for r in self.steps if r.sim_time <= reached)
        )

    def wire_summary(self) -> Dict[str, float]:
        """Aggregate wire-substrate counters over the run.

        All-zero byte/queueing figures for histories written before the wire
        substrate existed, which keeps older telemetry comparable.  The
        downlink totals are reported twice: ``downlink_bytes`` sums the
        per-update step records while ``bytes_received`` sums the per-worker
        timelines — the two reconcile whenever both sides were recorded.
        """
        return self._wire_totals(self._timeline_columns()[1])

    def _wire_totals(self, columns: Dict[str, list]) -> Dict[str, float]:
        """:meth:`wire_summary` over :meth:`_timeline_columns`' *columns*.

        Builtin left-to-right ``sum()`` in the columns' order, never the
        pairwise ``np.sum``: the totals keep the bits they have always had.
        """
        totals = {"wire_bytes": self.total_wire_bytes, "downlink_bytes": self.total_downlink_bytes}
        for name in _WIRE_FLOAT_COLUMNS:
            totals[name] = float(sum(columns[name]))
        return totals

    def distance_cache_summary(self) -> Dict[str, float]:
        """Aggregate distance-cache counters over the run.

        All-zero when the cache was off (hit rate 0.0), which keeps older
        telemetry comparable.  ``hit_rate_pairs`` is the fraction of queried
        distance blocks served without critical-path compute.
        """
        hit_rows = sum(r.cache_hit_rows for r in self.steps)
        miss_rows = sum(r.cache_miss_rows for r in self.steps)
        hit_pairs = sum(r.cache_hit_pairs for r in self.steps)
        miss_pairs = sum(r.cache_miss_pairs for r in self.steps)
        total_pairs = hit_pairs + miss_pairs
        return {
            "hit_rows": int(hit_rows),
            "miss_rows": int(miss_rows),
            "hit_pairs": int(hit_pairs),
            "miss_pairs": int(miss_pairs),
            "hit_rate_pairs": hit_pairs / total_pairs if total_pairs else 0.0,
            "distance_flops": float(sum(r.distance_flops for r in self.steps)),
            "overlapped_flops": float(sum(r.overlapped_flops for r in self.steps)),
        }

    def interserver_summary(self) -> Dict[str, float]:
        """Aggregate parameter-service counters over the run (fixed keys).

        All-zero on a one-actor parameter service (it has no inter-server
        wire to book), which keeps single-server telemetry — and the
        ``shards:1`` bit-identity contract — comparable across deployments.
        """
        return {
            key: float(self.interserver_counters.get(key, 0.0))
            for key in _INTERSERVER_KEYS
        }

    def region_queueing_summary(self) -> Dict[str, float]:
        """Per-region queueing delay totals, sorted by region name."""
        return {
            region: self.region_queueing_seconds[region]
            for region in sorted(self.region_queueing_seconds)
        }

    def time_to_accuracy(self, threshold: float) -> Optional[float]:
        """Earliest simulated time at which *threshold* accuracy was reached.

        Returns ``None`` when the run never reached the threshold — the
        quantity behind the paper's 19% / 43% overhead numbers (time to reach
        a reference accuracy, relative to the baseline).
        """
        for record in self.evaluations:
            if record.accuracy >= threshold:
                return record.sim_time
        return None

    def updates_to_accuracy(self, threshold: float) -> Optional[int]:
        """Earliest model-update count at which *threshold* accuracy was reached."""
        for record in self.evaluations:
            if record.accuracy >= threshold:
                return record.step
        return None

    def throughput(self) -> float:
        """Mean gradients received per simulated second (Figure 5 metric)."""
        if not self.steps or self.total_time <= 0:
            return 0.0
        total_gradients = sum(r.gradients_received for r in self.steps)
        return total_gradients / self.total_time

    def sync_summary(self) -> Dict[str, float]:
        """Aggregate synchrony-policy counters over the run.

        All-zero under ``FullSync`` (every gradient waited for, none stale),
        which keeps the summary backwards-comparable with seed telemetry.
        """
        if not self.steps:
            return {
                "dropped_stragglers": 0,
                "carried_gradients": 0,
                "stale_gradients": 0,
                "max_staleness": 0,
                "mean_admitted": 0.0,
            }
        return {
            "dropped_stragglers": int(sum(r.dropped_stragglers for r in self.steps)),
            "carried_gradients": int(sum(r.carried_gradients for r in self.steps)),
            "stale_gradients": int(sum(r.stale_gradients for r in self.steps)),
            "max_staleness": int(max(r.max_staleness for r in self.steps)),
            "mean_admitted": float(np.mean([r.gradients_received for r in self.steps])),
        }

    def server_utilisation(self) -> Dict[str, float]:
        """Busy / idle split of the server over the run.

        Busy time is the simulated aggregation + update work; everything else
        up to :attr:`total_time` is idle (waiting for a quorum to fill).  A
        lock-step run that never called :meth:`record_server_busy` reports
        zeros rather than pretending to know.
        """
        total = self.total_time
        busy = min(self.server_busy_time, total) if total > 0 else 0.0
        return {
            "busy_time": busy,
            "idle_time": max(total - busy, 0.0),
            "busy_fraction": busy / total if total > 0 else 0.0,
            "idle_fraction": (total - busy) / total if total > 0 else 0.0,
        }

    def version_lag_histogram(self) -> Dict[int, int]:
        """Admitted-gradient version lags, ``{lag: count}``, sorted by lag."""
        return {lag: self.version_lag_counts[lag] for lag in sorted(self.version_lag_counts)}

    def worker_round_counts(self) -> Dict[int, int]:
        """Pushed-gradient counts per worker (empty for lock-step runs)."""
        return {
            wid: timeline.rounds_completed
            for wid, timeline in sorted(self.merged_timelines().items())
        }

    def mean_step_time(self) -> float:
        """Mean simulated duration of one model update (time-to-step)."""
        if not self.steps:
            return 0.0
        return float(np.mean([r.step_time for r in self.steps]))

    def latency_breakdown(self) -> Dict[str, float]:
        """Mean per-step latency components (Figure 4 metric)."""
        if not self.steps:
            return {"compute_comm": 0.0, "aggregation": 0.0, "update": 0.0, "total": 0.0}
        compute = float(np.mean([r.compute_comm_time for r in self.steps]))
        aggregation = float(np.mean([r.aggregation_time for r in self.steps]))
        update = float(np.mean([r.update_time for r in self.steps]))
        return {
            "compute_comm": compute,
            "aggregation": aggregation,
            "update": update,
            "total": compute + aggregation + update,
        }

    def to_dict(self) -> Dict:
        """JSON-serialisable summary of the run."""
        ids, columns = self._timeline_columns()
        # Compact ids are already ascending: stream the rows rather than
        # hold a sorted copy of all of them beside the export's dicts.
        rows = zip(ids, zip(*columns.values()))
        if not self.compact:
            rows = sorted(rows)
        return {
            "num_updates": self.num_updates,
            "total_time": self.total_time,
            "final_accuracy": self.final_accuracy,
            "best_accuracy": self.best_accuracy,
            "throughput": self.throughput(),
            "latency_breakdown": self.latency_breakdown(),
            "sync": self.sync_summary(),
            "wire": self._wire_totals(columns),
            "distance_cache": self.distance_cache_summary(),
            "region_queueing": self.region_queueing_summary(),
            "interserver": self.interserver_summary(),
            "server_utilisation": self.server_utilisation(),
            "version_lag_histogram": {
                str(lag): count for lag, count in self.version_lag_histogram().items()
            },
            "worker_timelines": {str(wid): dict(zip(columns, row)) for wid, row in rows},
            "diverged": self.diverged,
            "divergence_reason": self.divergence_reason,
            "evaluations": [
                {"step": e.step, "sim_time": e.sim_time, "accuracy": e.accuracy}
                for e in self.evaluations
            ],
        }


__all__ = ["StepRecord", "EvalRecord", "WorkerTimeline", "TrainingHistory"]
