"""The training engines (the AggregaThor runner analogue).

Two trainers share one engine core (:mod:`repro.cluster.events`, the
versioned :class:`~repro.cluster.server.ParameterServer` behind its
:class:`~repro.cluster.service.ServerFabric`, the telemetry layer) and one
server stage over one :class:`~repro.cluster.sync.ArrivalBatch`
(:meth:`BaseTrainer._aggregate`: open the distance-cache round, then the
fabric validates once, aggregates, prices and gathers;
:meth:`BaseTrainer._close_round`: apply the update, close the cache round,
record the step).  ``single`` is the one-actor fabric, so no stage asks how
many servers there are:

:class:`SynchronousTrainer`
    The paper's lock-step protocol.  One training step flows through four
    pipeline stages, each with exactly one implementation (the per-worker
    loop it replaced is frozen as ``tests/trainer_reference.py`` and must
    agree bit for bit):

    1. **Broadcast + compute** — the server broadcasts the current model to
       every worker; every honest worker computes a gradient estimate on its
       own iid mini-batch, with per-worker compute time accounting for node
       co-location, relative speed, and optional heavy-tailed straggler
       draws.
    2. **Byzantine crafting** — adversary-controlled workers craft their
       gradients, possibly as a function of every honest gradient
       (omniscient adversary), and submit them instantly.
    3. **Transfer** — every gradient travels over that worker's uplink
       channel and becomes one row of the step's
       :class:`~repro.cluster.sync.ArrivalBatch` (its payload a row of one
       ``(m, d)`` matrix, its timing a column entry).
    4. **Synchrony + aggregation** — the configured
       :class:`~repro.cluster.sync.SyncPolicy` drains the batch by
       ``(arrival time, submission order)``, the pop order of
       :class:`~repro.cluster.events.EventQueue`, and decides which arrivals
       the server waits for; the admitted rows are validated once,
       aggregated by the GAR with full diagnostics, and the optimizer update
       is applied.

    With the default ``FullSync`` policy the step is bit-identical to the
    seed implementation's lock-step protocol.

:class:`AsyncTrainer`
    The event-driven server actor.  Each worker runs its own
    fetch → compute → transfer loop as chained events against the server's
    versioned model; the synchrony policy acts as an
    :class:`~repro.cluster.sync.AdmissionPredicate` over the live event
    stream, staleness is measured against real model versions, Byzantine
    workers are event sources that observe honest traffic up to their firing
    time, and rounds overlap — the server aggregates a quorum while slower
    workers are still computing against older versions.
    :class:`~repro.cluster.events.EventLoop` is the only dispatcher: it
    hands every same-time fetch / compute / push / arrive / link run — a
    run of one included — to the one handler of its stage, which schedules
    the next stage as cohorts (one queue entry per same-instant herd, its
    payloads in columns).
    The vocabulary is six event kinds — ``fetch``, ``compute``, ``push``,
    ``arrive``, ``update-done`` and ``link``; the inter-server gather is not
    one of them, its seconds are part of the busy period that ends at
    ``update-done``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.clock import SimulatedClock
from repro.cluster.codec import (
    DeliveredFrames,
    FrameBatch,
    IdentityCodec,
    WireCodec,
    WireFrame,
    decode_frame,
)
from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.deploy import ClusterSpec
from repro.cluster.events import Cohort, Columns, Event, EventLoop, columns_of
from repro.cluster.fleet import FleetState, PendingPool
from repro.cluster.link import LinkFabric, LinkScheduler, LinkTopology
from repro.cluster.network import Channel, build_uplink_map
from repro.cluster.profiler import SimProfiler
from repro.cluster.server import ParameterServer
from repro.cluster.service import ServerFabric, parse_server_topology
from repro.cluster.sync import ArrivalBatch, FullSync, SyncPolicy
from repro.cluster.telemetry import EvalRecord, StepRecord, TrainingHistory
from repro.cluster.worker import (
    ByzantineWorker,
    HonestWorker,
    Worker,
    compute_stacked,
    craft_fleet,
)
from repro.core.kernels import SELECTION_CLOCK
from repro.data.sampler import sample_stacked
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.model import Sequential
from repro.utils.random import SeedLike, as_rng, component_seed

#: Accepted honest-gradient compute modes.  Both compute every worker's own
#: backprop bit for bit; they differ in where the mini-batches come from.
#: ``exact`` draws each from the worker's own stream; ``fleet`` takes a
#: stacked run's from one ``(n, b)`` draw on a fleet-wide stream where the
#: workers share a training set.
COMPUTE_MODES = ("exact", "fleet")

#: The bracket of every profiler section when no profiler runs (reusable).
_NO_SECTION = nullcontext()


@dataclass
class TrainerConfig:
    """Knobs of the training loop.

    Attributes
    ----------
    max_steps:
        Number of model updates to perform.
    eval_every:
        Evaluate accuracy every this many steps (0 disables evaluation).
    target_accuracy:
        Optional early-stop threshold on the evaluation accuracy.
    divergence_threshold:
        Training is declared diverged when the parameter norm exceeds this
        value or the loss becomes non-finite (the fate of vanilla averaging
        under attack).
    """

    max_steps: int = 100
    eval_every: int = 10
    target_accuracy: Optional[float] = None
    divergence_threshold: float = 1e8

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.eval_every < 0:
            raise ConfigurationError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ConfigurationError(
                f"target_accuracy must be in (0, 1], got {self.target_accuracy}"
            )
        if self.divergence_threshold <= 0:
            raise ConfigurationError("divergence_threshold must be positive")


@dataclass
class DownlinkSession:
    """The server's per-worker downlink state for delta broadcasts.

    Attributes
    ----------
    version:
        The model version the worker currently holds.
    replica:
        The parameter vector the worker actually reconstructed from the
        frames sent so far.  The next delta is the current model minus this
        replica, which is downlink error feedback: whatever a lossy
        broadcast codec failed to express last fetch is re-offered, so the
        worker's reconstruction error stays one-step instead of accumulating
        across rounds.  Lossless codecs keep the replica equal to the
        server's model at ``version`` bit for bit.  The server stores no
        past model, so a worker holding a session always gets a delta.
    """

    version: int
    replica: np.ndarray


class BaseTrainer:
    """Shared engine plumbing for the lock-step and event-driven trainers.

    Owns the server, the workers, the cost model, the simulated clock, the
    uplink channel map, the per-worker compute-throughput resolution, the
    server stage (:meth:`_aggregate`, then :meth:`_close_round`),
    evaluation, divergence detection and the outer :meth:`run` loop.  Subclasses implement
    :meth:`run_step` — "advance the simulation until one more model update
    has been applied".

    An honest worker's round trip is four stages, each with one body here —
    fleet rows in, arrays out — that the lock-step step calls over all
    workers and the async run handlers over the run's rows:

    1. :meth:`_frame_fetches` — fetch framing: the snapshot each worker
       reconstructs, its priced downlink bytes, whether it was a delta.
    2. :meth:`_compute_gradients` — compute: the losses and the gradient
       matrix (:meth:`_exact_gradients`: one stacked exact pass on
       the compute mode's mini-batches).
    3. :meth:`_encode_rows` — encode: error feedback against the fleet's
       row store, one batched codec pass: one
       :class:`~repro.cluster.codec.FrameBatch` + decoded + errors.
    4. :meth:`_price_uplinks` — uplink pricing: the rows a channel handed
       back changed or dropped, the solo seconds and their penalty over the
       ideal wire time.  A frame is minted only for a row whose channel is
       not transparent.

    Only what differs sits between them in each engine: how contention is
    resolved (one closed-world ``fabric.simulate`` per step against
    event-driven ``open_many`` sessions), when the adversary crafts, the
    straggler draws (``sample(n)`` once per step against one draw per
    worker in pop order — different stream consumption) and the arrival's
    form (one :class:`~repro.cluster.sync.ArrivalBatch` per step against
    ``arrive`` cohorts carrying ``(version, loss, wire)`` columns).
    """

    def __init__(
        self,
        server: ParameterServer,
        workers: Sequence[Worker],
        cost_model: CostModel,
        *,
        sync_policy: Optional[SyncPolicy] = None,
        straggler_model: Optional[StragglerModel] = None,
        straggler_rng: SeedLike = None,
        uplink_channels: Optional[Dict[int, Channel]] = None,
        cluster: Optional[ClusterSpec] = None,
        codec: Optional[WireCodec] = None,
        broadcast_codec: Optional[WireCodec] = None,
        link_sharing: str = "none",
        link_topology: Optional[LinkTopology] = None,
        error_feedback: bool = True,
        compute_mode: str = "exact",
        fleet_sample_rng: Optional[np.random.Generator] = None,
        profiler: Optional[SimProfiler] = None,
        compact_telemetry: bool = False,
        eval_model: Sequential,
        test_set: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        service: Optional[ServerFabric] = None,
    ) -> None:
        if len(workers) == 0:
            raise ConfigurationError("the cluster needs at least one worker")
        ids = [w.worker_id for w in workers]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate worker ids: {ids}")
        if compute_mode not in COMPUTE_MODES:
            raise ConfigurationError(
                f"compute_mode must be one of {COMPUTE_MODES}, got {compute_mode!r}"
            )
        self.server = server
        self.workers = list(workers)
        #: Worker ids in ``workers`` order and each role's rows in it: a
        #: step's per-worker wire arrays are built and indexed with these.
        #: Cluster membership is fixed at construction, so the role scan is
        #: paid once.
        self._worker_ids = np.array(ids, dtype=np.intp)
        self._honest_rows = np.flatnonzero(
            [isinstance(w, HonestWorker) for w in self.workers]
        )
        self._byzantine_rows = np.flatnonzero(
            [isinstance(w, ByzantineWorker) for w in self.workers]
        )
        self._honest_workers = [self.workers[i] for i in self._honest_rows.tolist()]
        self._byzantine_workers = [self.workers[i] for i in self._byzantine_rows.tolist()]
        self.cost_model = cost_model
        self.clock = SimulatedClock()
        self.uplink_channels = build_uplink_map(ids, uplink_channels)
        self.sync_policy = sync_policy if sync_policy is not None else FullSync()
        self.sync_policy.bind(
            num_workers=len(self.workers), f=server.gar.f,
            min_batch=server.gar.minimum_workers(server.gar.f),
        )
        self.straggler_model = straggler_model
        # Omitted straggler_rng = deterministic named stream, never fresh
        # entropy (SIM201); the builder always passes its dedicated stream,
        # and checkpoints capture/restore this generator either way.
        self._straggler_rng = as_rng(component_seed(straggler_rng, "straggler"))
        self.cluster = cluster
        self.codec = codec if codec is not None else IdentityCodec()
        self.link_sharing = link_sharing
        #: Whether the server's link is a contended shared resource.
        self._contended = link_sharing != "none"
        #: Optional wire topology (per-worker bandwidth/latency, per-region
        #: bottlenecks); ``None`` keeps the symmetric cost-model pipe.
        self.link_topology = link_topology
        if link_topology is not None:
            link_topology.validate_workers(ids)
        self.fabric = LinkFabric(cost_model, link_topology, sharing=link_sharing)
        #: Each honest worker's (static) region, the label of its queueing
        #: delay — resolved only where a contended link can queue.
        self._honest_regions = np.array([
            self.fabric.region_of(wid) for wid in self._worker_ids[self._honest_rows].tolist()
        ], dtype=object) if self._contended else None
        #: Optional downlink codec: when set, model fetches travel as
        #: codec-encoded version deltas against the worker's held state
        #: (``None`` keeps the raw full-state framing of the seed wire).
        self.broadcast_codec = broadcast_codec
        self._downlink: Dict[int, DownlinkSession] = {}
        #: Byzantine submissions bypass the codec: the adversary crafts the
        #: exact vector that reaches the server (arbitrary wire contents).
        self._raw_codec = IdentityCodec()
        #: Error feedback (EF-SGD): each honest worker carries its codec
        #: residual into the next round, so the signal a lossy codec dropped
        #: is re-offered instead of lost — the standard memory-compensation
        #: that lets aggressive sparsification match uncompressed update
        #: counts.  A no-op for the identity codec (zero residual).
        self.error_feedback = bool(error_feedback) and not isinstance(
            self.codec, IdentityCodec
        )
        #: The deployment's architecture: the evaluator's model, and the
        #: one every honest gradient's stacked pass runs.
        self.eval_model = eval_model
        self.test_set = test_set
        self._worker_gflops = self._resolve_worker_gflops()
        #: Distance flops warmed at the previous round's end (the carry
        #: pool's blocks): physically computed after that round's cutoff, so
        #: they bill against the *next* round's wait budget.
        self._warm_debt = 0.0
        self.compute_mode = compute_mode
        #: Dedicated stream for fleet-mode mini-batch draws: one
        #: ``(n, b)`` bounded-integer call replaces n per-worker calls (iid
        #: uniform either way, but not the per-worker streams' indices);
        #: ``None`` (e.g. a hand-built trainer) falls back to per-worker
        #: draws.
        self._fleet_sample_rng = fleet_sample_rng
        #: Optional per-subsystem time accounting (``--profile``).
        self.profiler = profiler
        #: Largest event-queue population observed across the run.
        self.peak_queue_size = 0
        #: Total events dispatched across the run (the benchmark's events/s
        #: numerator).
        self.events_dispatched = 0
        #: SoA mirror of the honest fleet's numeric state (speeds, GFLOP/s)
        #: and the one store of EF-SGD residuals, a row per honest worker;
        #: ``None`` without honest workers.
        honest = self.honest_workers
        self._fleet = (
            FleetState(honest, worker_gflops=self._worker_gflops) if honest else None
        )
        # Every honest gradient is one stacked pass of the evaluator's model
        # over a run of workers: a deployment it cannot serve is refused.
        eval_model.check_stacked()
        if eval_model.num_parameters != server.dim:
            raise ConfigurationError(
                f"the model has {eval_model.num_parameters} parameters but the server "
                f"holds {server.dim}"
            )
        if honest and (self._fleet.batch_sizes != self._fleet.batch_sizes[0]).any():
            raise ConfigurationError(
                "honest workers must share one batch size (their gradients come from one "
                f"stacked pass), got {sorted(set(self._fleet.batch_sizes.tolist()))}"
            )
        #: Forward flops per sample the stacked pass measured (a property of
        #: the architecture); ``None`` until it first runs.
        self._stacked_flops: Optional[float] = None
        #: Which fleet rows' uplink channels are not transparent, or ``None``
        #: when every one is (channels are fixed for the trainer's lifetime,
        #: so the per-step property scan collapses to one array lookup, and
        #: to none on a transparent fleet).
        opaque = np.array(
            [not self.uplink_channels[w.worker_id].is_transparent for w in honest], dtype=bool
        )
        self._uplink_opaque: Optional[np.ndarray] = opaque if opaque.any() else None
        #: The parameter service every server-side stage goes through; a
        #: hand-built trainer hosts the one-actor ``single`` fabric itself.
        if service is None:
            service = ServerFabric(
                server, cost_model, topology=parse_server_topology(None),
                link_topology=link_topology, link_sharing=link_sharing,
            )
        elif service.server is not server:
            raise ConfigurationError(
                "the service fabric wraps a different ParameterServer than the "
                "one this trainer was given"
            )
        self.service = service
        self.history = TrainingHistory(compact=bool(compact_telemetry))
        self.history.register_workers(ids)
        service.bind_history(self.history)

    # ----------------------------------------------------------------- setup
    def _resolve_worker_gflops(self) -> Dict[int, float]:
        """Per-worker compute throughput, accounting for node co-location.

        Every worker must have a node assignment when a cluster spec with
        role assignments is provided — a worker silently falling back to the
        cost-model default would corrupt the timing comparison the spec was
        written for.
        """
        if self.cluster is None or not self.cluster.worker_nodes:
            return {w.worker_id: self.cost_model.worker_gflops for w in self.workers}
        assignments = self.cluster.worker_nodes
        if len(assignments) < len(self.workers):
            unassigned = [w.worker_id for w in self.workers[len(assignments):]]
            raise ConfigurationError(
                f"cluster spec assigns {len(assignments)} worker node(s) but the "
                f"deployment has {len(self.workers)} workers; workers {unassigned} "
                "have no node assignment (extend worker_nodes or drop the cluster spec)"
            )
        counts: Dict[str, int] = {}
        for name in assignments:
            counts[name] = counts.get(name, 0) + 1
        gflops: Dict[int, float] = {}
        for worker, node_name in zip(self.workers, assignments):
            node = self.cluster.node(node_name)
            gflops[worker.worker_id] = node.compute_gflops / counts[node_name]
        return gflops

    @property
    def honest_workers(self) -> List[HonestWorker]:
        """The correct workers."""
        return self._honest_workers

    @property
    def byzantine_workers(self) -> List[ByzantineWorker]:
        """The adversary-controlled workers."""
        return self._byzantine_workers

    def _section(self, name: str):
        """Profiler bracket for subsystem *name*; a no-op without a profiler."""
        if self.profiler is None:
            return _NO_SECTION
        return self.profiler.section(name)

    @contextmanager
    def _gar_section(self):
        """``gar_kernel`` bracket that splits the selection stage out.

        The selection GARs credit :data:`repro.core.kernels.SELECTION_CLOCK`
        around their selection stage.
        Draining the clock after the bracket and re-booking those seconds
        under ``gar_select`` (subtracting them from ``gar_kernel``) keeps
        the two sections disjoint, so the profiler split still sums to the
        wall clock.  The entry drain discards selection time accrued outside
        our brackets (e.g. direct GAR calls elsewhere in the process).
        """
        SELECTION_CLOCK.drain()
        with self._section("gar_kernel"):
            yield
        if self.profiler is not None:
            seconds, calls = SELECTION_CLOCK.drain()
            if calls:
                self.profiler.add("gar_select", seconds, calls=calls)
                self.profiler.add("gar_kernel", -seconds, calls=0)

    # ------------------------------------------------------- wire substrate
    def _update_downlink(
        self, worker_id: int, version: int, replica: np.ndarray
    ) -> None:
        """Move *worker_id*'s downlink session to *version* and *replica*."""
        self._downlink[worker_id] = DownlinkSession(
            version=int(version),
            replica=np.asarray(replica, dtype=np.float64),
        )

    @staticmethod
    def _decode(wire) -> Optional[np.ndarray]:
        """Server-side decode: frames decode, raw arrays pass through."""
        if wire is None:
            return None
        if isinstance(wire, WireFrame):
            return decode_frame(wire)
        return np.asarray(wire, dtype=np.float64)

    # --------------------------------------------------- worker-side stages
    def _frame_fetches(
        self, worker_ids: Sequence[int]
    ) -> Tuple[List[Tuple[int, np.ndarray]], np.ndarray, np.ndarray]:
        """Fetch-framing stage: one model fetch by each of *worker_ids*.

        Returns ``(snapshots, nbytes, is_delta)`` in the given order: the
        ``(version, parameters)`` each worker reconstructs, the priced
        broadcast bytes, and whether a delta frame crossed the wire.
        Without a broadcast codec every fetch is the same raw full-state
        frame, so one parameter snapshot is shared across the workers
        instead of copied once each.  With one, each worker holding a
        downlink session gets a delta frame — the deltas are one
        ``encode_decode_batch`` in the given order, the order sequential
        encodes consume the codec's PRNG in — and every other worker a
        full-state frame.  A worker fetching twice frames its second fetch
        against its first, so the batch is cut before a repeat.
        """
        num = len(worker_ids)
        server = self.server
        version = server.version
        raw_bytes = self.cost_model.gradient_bytes(server.dim)
        with self._section("codec"):
            if self.broadcast_codec is None:
                snapshot = (version, server.parameters)
                return [snapshot] * num, np.full(num, raw_bytes), np.zeros(num, dtype=bool)
            snapshots: List[Tuple[int, np.ndarray]] = [None] * num
            nbytes = np.full(num, raw_bytes)
            deltas = np.zeros(num, dtype=bool)
            #: ``(position, worker id, held replica)`` of the fetches awaiting a delta frame.
            held: List[tuple] = []
            holders = set()
            for i, worker_id in enumerate(worker_ids):
                if worker_id in holders:  # a second fetch frames against the first
                    self._frame_deltas(held, snapshots, nbytes, deltas)
                    held, holders = [], set()
                session = self._downlink.get(worker_id)
                if session is not None:
                    held.append((i, worker_id, session.replica))
                    holders.add(worker_id)
                    continue
                parameters = server.parameters
                self._update_downlink(worker_id, version, parameters)
                snapshots[i] = (version, parameters)
            if held:
                self._frame_deltas(held, snapshots, nbytes, deltas)
        return snapshots, nbytes, deltas

    def _frame_deltas(
        self, held: List[tuple], snapshots: list, nbytes: np.ndarray, deltas: np.ndarray
    ) -> None:
        """Delta-frame the *held* fetches, ``(position, worker id, replica)``, as one batch.

        Each delta is the current model minus the worker's replica (downlink
        error feedback), encoded in the given order; the worker reconstructs
        its replica plus the decoded delta, or the exact model under a
        lossless codec.  Fills the fetches' *snapshots*, *nbytes* and
        *deltas* entries.
        """
        server = self.server
        replicas = np.array([replica for _, _, replica in held])
        frames, decoded = self.broadcast_codec.encode_decode_batch(server.parameters - replicas)
        targets = (
            [server.parameters] * len(held) if self.broadcast_codec.lossless
            else replicas + decoded
        )
        for (i, worker_id, _), reconstruction in zip(held, targets):
            self._update_downlink(worker_id, server.version, reconstruction)
            snapshots[i] = (server.version, reconstruction)
            nbytes[i] = frames.nbytes
            deltas[i] = True

    def _compute_gradients(
        self,
        rows: np.ndarray,
        workers: Sequence[HonestWorker],
        snapshots: Sequence[Tuple[int, np.ndarray]],
        *,
        fleet_draw: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Compute stage: each worker's gradient estimate on its snapshot.

        Returns :meth:`_exact_gradients`' ``(losses, gradients)`` in worker
        order, each worker computing on the parameters it
        reconstructed from its own downlink frame.  The compute mode only
        picks the mini-batches of a stacked pass: under ``"fleet"``, where
        the caller allows a *fleet_draw*, workers sharing one training set
        (their fleet *rows* carry one training-set id) take theirs from one
        ``(n, b)`` draw on the fleet stream; otherwise each sampler draws
        its own.
        """
        with self._section("compute"):
            batch = None
            shared = workers[0].sampler
            if fleet_draw and self.compute_mode == "fleet" and self._fleet_sample_rng is not None:
                sets = self._fleet.training_sets[rows]
                if (sets == sets[0]).all():
                    indices = self._fleet_sample_rng.integers(
                        0, shared.num_samples, size=(len(workers), shared.batch_size)
                    )
                    batch = shared.features[indices], shared.labels[indices]
            return self._exact_gradients(workers, snapshots, batch)

    def _exact_gradients(
        self,
        workers: Sequence[HonestWorker],
        snapshots: Sequence[Tuple[int, np.ndarray]],
        batch: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each worker's gradient on its snapshot and mini-batch: one stacked pass.

        :func:`~repro.cluster.worker.compute_stacked` over the run, on the
        stacked *batch* when one is given — its measured flops price every
        worker from then on.  Without a *batch* the samplers draw
        sequentially in worker order, so every per-worker RNG stream
        advances as if each worker had run alone; a model with Dropout
        draws each worker's masks from that worker's own stream, in worker
        order.
        """
        if batch is None:
            batch = sample_stacked([worker.sampler for worker in workers])
        rngs = [worker.dropout_rng for worker in workers] if self.eval_model.has_dropout else None
        losses, gradients, self._stacked_flops = compute_stacked(
            snapshots, self.eval_model, batch, rngs
        )
        return losses, gradients

    def _encode_rows(
        self, rows: np.ndarray, gradients: np.ndarray
    ) -> Tuple[FrameBatch, np.ndarray, np.ndarray]:
        """Encode stage: the batched codec over the gradients of fleet *rows*.

        Returns ``(batch, decoded, errors)``: the rows' wire frames as one
        :class:`~repro.cluster.codec.FrameBatch`, the server-side
        reconstruction of each (decoding is deterministic, so it doubles
        as the payload of every frame that crosses its channel untouched)
        and the compression-error norms.  Frames are encoded in row order —
        the order sequential encodes would consume the codec PRNG in.
        EF-SGD memory is added only to rows that carry one (a blanket
        ``+ 0.0`` would flip negative zeros) and the new residuals (what the
        frames failed to express) replace it in the fleet's row store.
        """
        with self._section("codec"):
            if self.error_feedback:
                signals = gradients.copy()
                carried = self._fleet.ef_has_memory[rows]
                if carried.any():
                    signals[carried] = (
                        gradients[carried] + self._fleet.ef_memory[rows[carried]]
                    )
            else:
                signals = gradients
            batch, decoded = self.codec.encode_decode_batch(signals)
            if isinstance(self.codec, IdentityCodec):
                return batch, decoded, np.zeros(len(rows))
            residuals = signals - decoded
            # Per-row 1-D norms: each stacked (1, d) @ (d, 1) is the BLAS dot
            # np.linalg.norm applies to one row.  Not einsum: it sums in
            # another order, and its norms differ in the last bits.
            errors = np.sqrt((residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0])
            if self.error_feedback:
                self._fleet.remember_residuals(rows, residuals)
        return batch, decoded, errors

    def _price_uplinks(
        self, rows: np.ndarray, batch: FrameBatch
    ) -> Tuple[Dict[int, Optional[WireFrame]], np.ndarray, np.ndarray, np.ndarray]:
        """Uplink-pricing stage: the *batch* frames of fleet *rows* cross their channels.

        Returns ``(touched, nbytes, seconds, penalty)``: ``batch position →
        what the channel delivered`` for just the rows whose channel handed
        back something other than the frame (a degraded copy, or ``None``
        for a drop — every other row arrives as encoded), the priced frame
        bytes, the channel's solo transfer seconds, and those seconds'
        excess over the ideal wire time — the backoff, delays and jitter
        that ride on top where a contended link's drain replaces the solo
        wire time.  Transparent channels (the reliable loss-free default, no
        randomness by contract) pay exactly the ideal time of the batch's one
        frame size, priced once, and no frame is minted for them (on a fleet
        of them the rows are not even scanned); every other channel keeps
        its own ``transfer_frame`` call on its row's frame — per-channel RNG
        streams are independent, so the split cannot reorder any draws.
        """
        # Every frame of a batch prices at the codec's frame_bytes(dim), so
        # the ideal wire time is priced once.
        nbytes = np.full(len(rows), batch.nbytes)
        touched: Dict[int, Optional[WireFrame]] = {}
        with self._section("link_drain"):
            ideal = self.cost_model.transfer_time(batch.nbytes)
            seconds = np.full(len(rows), ideal)
            if self._uplink_opaque is not None:
                for i in np.flatnonzero(self._uplink_opaque[rows]).tolist():
                    channel = self.uplink_channels[int(self._fleet.worker_ids[rows[i]])]
                    frame = batch.frame(i)
                    wire, seconds[i] = channel.transfer_frame(frame, self.cost_model)
                    if wire is not frame:
                        touched[i] = wire
        return touched, nbytes, seconds, seconds - ideal

    # ---------------------------------------------------------- server stage
    def _aggregate(self, batch: ArrivalBatch):
        """The round's server stage, shared by both engines.

        Opens the distance-cache round, then asks the fabric to validate
        once, aggregate and price the admitted *batch*'s payloads.  The
        optimizer update is :meth:`_close_round`'s: lock-step closes at
        once, the event loop when the server's busy period ends.  Returns
        ``(result, aggregation_seconds, gather_seconds, warmed_flops)``;
        each engine adds the overlap its own wait budget could not absorb
        (:meth:`CostModel.distance_overlap_excess`) in its own association.

        Every admitted gradient that arrived strictly before the latest one
        was sitting in the server while it still waited — a pipelined server
        computes those distance blocks off the critical path.  The warmed
        flops include the previous round's carry-warm debt, which also bills
        against this round's wait (0.0 without a cache).
        """
        if not len(batch):
            raise TrainingError("every gradient was dropped this step; cannot make progress")
        warmed = 0.0
        cache = self.server.distance_cache
        if cache is not None:
            cache.begin_round()
            warmed = self._warm_debt
            self._warm_debt = 0.0
            times = batch.arrival_times
            early = batch.payloads[times < times.max()]
            if early.size:
                warmed += cache.warm(early)
        with self._gar_section():
            result, seconds, gather_seconds = self.service.aggregate(
                batch.worker_ids.tolist(), batch.payloads
            )
        return result, seconds, gather_seconds, warmed

    def _carry_payloads(self) -> Optional[np.ndarray]:
        """The rows that re-submit next round (``None`` = none): the cache's carry."""
        raise NotImplementedError

    def _close_round(
        self, admitted: ArrivalBatch, result, *, sim_time: float, losses: np.ndarray,
        compute_comm_time: float, aggregation_time: float, update_time: float,
        dropped: int, carried: int, downlink_bytes: float,
    ) -> StepRecord:
        """Apply the round's update and record it: both engines' one close.

        *aggregation_time* comes with the gather and the cache overlap
        excess already added, in the engine's own association.  The clock
        moves to *sim_time* only once the server accepted the update, so a
        diverged round leaves it where it was; the update log and the step
        record carry that one instant.  The GAR's selected indices become
        worker ids, the cache round closes against :meth:`_carry_payloads`,
        and the mean loss skips *losses*' non-finite entries.
        """
        step = self.server.step
        worker_ids = admitted.worker_ids.tolist()
        wire_bytes = float(sum(admitted.wire_bytes.tolist()))
        self.server.apply_update(
            result.gradient, sim_time=sim_time, worker_ids=worker_ids, wire_bytes=wire_bytes
        )
        self.clock.advance_to(sim_time)
        selected = scores = None
        if result.selected_indices is not None:
            rows = np.asarray(result.selected_indices, dtype=np.intp)
            selected = tuple(admitted.worker_ids[rows].tolist())
        if result.scores is not None:
            scores = tuple(np.asarray(result.scores, dtype=np.float64).tolist())
        cache_fields = {}
        cache = self.server.distance_cache
        if cache is not None:
            # The carried rows re-submit byte-identically next round, so their
            # blocks are warmed and everything else is evicted: the carry pool
            # *is* the retention policy.  They arrived after the cutoff, so the
            # warmed flops bill as debt against the *coming* round's wait.
            carry = self._carry_payloads()
            if carry is not None:
                self._warm_debt += cache.warm(carry)
            stats = cache.end_round(carry)
            cache_fields = dict(
                cache_hit_rows=stats.hit_rows, cache_miss_rows=stats.miss_rows,
                cache_hit_pairs=stats.hit_pairs, cache_miss_pairs=stats.miss_pairs,
                distance_flops=stats.charged_flops, overlapped_flops=stats.warmed_flops,
            )
        with self._section("telemetry"):
            self.history.record_server_busy(aggregation_time + update_time)
            self.history.record_version_lag_batch(admitted.staleness)
            stale = admitted.staleness[admitted.staleness > 0]
            losses = losses[np.isfinite(losses)]
            record = StepRecord(
                step=step,
                sim_time=sim_time,
                mean_loss=float(np.mean(losses)) if losses.size else float("nan"),
                compute_comm_time=compute_comm_time,
                aggregation_time=aggregation_time,
                update_time=update_time,
                gradients_received=len(admitted),
                dropped_stragglers=dropped,
                carried_gradients=carried,
                stale_gradients=int(stale.size),
                max_staleness=int(stale.max()) if stale.size else 0,
                selected_workers=selected,
                selection_scores=scores,
                wire_bytes=wire_bytes,
                downlink_bytes=downlink_bytes,
                **cache_fields,
            )
            self.history.record_step(record)
        return record

    # ------------------------------------------------------------------ step
    def run_step(self) -> StepRecord:
        """Advance the simulation by one model update; return its telemetry."""
        raise NotImplementedError

    # ------------------------------------------------------------------ eval
    def evaluate(self) -> float:
        """Top-1 cross-accuracy of the server's current model on the test set."""
        if self.test_set is None:
            raise ConfigurationError("no test set configured")
        self.eval_model.set_parameters(self.server.parameters)
        features, labels = self.test_set
        return self.eval_model.accuracy(features, labels)

    def _check_divergence(self, config: TrainerConfig, record: StepRecord) -> bool:
        """Detect parameter blow-up or non-finite loss."""
        params = self.server.parameters
        if not np.isfinite(params).all():
            self.history.mark_diverged("model parameters became non-finite")
            return True
        if np.abs(params).max() > config.divergence_threshold:
            self.history.mark_diverged("model parameter norm exceeded the divergence threshold")
            return True
        if self.history.steps and not np.isfinite(record.mean_loss) and self.honest_workers:
            # A NaN loss from every honest worker means the broadcast model is junk.
            self.history.mark_diverged("training loss became non-finite")
            return True
        return False

    # ------------------------------------------------------------------- run
    def run(
        self,
        config: TrainerConfig,
        *,
        on_step: Optional[Callable[[StepRecord], None]] = None,
    ) -> TrainingHistory:
        """Run the full training loop and return the telemetry history.

        *on_step* is called with the record of every applied update that did
        not diverge, before its periodic evaluation — where a caller snapshots
        or logs mid-run without splitting the run (each ``run`` call closes
        with an evaluation, so chunked calls would change the telemetry).
        """
        for _ in range(config.max_steps):
            try:
                record = self.run_step()
            except TrainingError as exc:
                self.history.mark_diverged(str(exc))
                break
            if self._check_divergence(config, record):
                break
            if on_step is not None:
                on_step(record)
            if config.eval_every and (self.server.step % config.eval_every == 0):
                accuracy = self.evaluate() if self.test_set is not None else float("nan")
                self.history.record_evaluation(
                    EvalRecord(step=self.server.step, sim_time=self.clock.now, accuracy=accuracy)
                )
                if (
                    config.target_accuracy is not None
                    and np.isfinite(accuracy)
                    and accuracy >= config.target_accuracy
                ):
                    break
        # Always finish with one evaluation so short runs report an accuracy.
        if self.test_set is not None and not self.history.diverged:
            if not self.history.evaluations or self.history.evaluations[-1].step != self.server.step:
                self.history.record_evaluation(
                    EvalRecord(step=self.server.step, sim_time=self.clock.now, accuracy=self.evaluate())
                )
        return self.history


class SynchronousTrainer(BaseTrainer):
    """Drives Byzantine-resilient distributed SGD through the lock-step pipeline.

    Parameters
    ----------
    server:
        The parameter server (holds the model, GAR and optimizer).
    workers:
        All workers, honest and Byzantine.
    cost_model:
        Translates compute / communication work into simulated seconds.
    sync_policy:
        The synchrony policy deciding which gradient arrivals each step waits
        for.  Defaults to :class:`~repro.cluster.sync.FullSync` (the paper's
        synchronous protocol, bit-identical to the seed implementation).
    straggler_model:
        Optional per-step heavy-tailed compute slowdown sampling for the
        honest workers; ``None`` (default) keeps the deterministic seed cost
        model.
    straggler_rng:
        Randomness source for the straggler draws (independent of every
        worker / channel / attack stream).
    uplink_channels:
        Optional per-worker-id uplink channel; defaults to a loss-free
        reliable channel for every worker.
    cluster:
        Optional cluster specification; when given, each worker's compute
        throughput is taken from its host node (shared equally between
        co-located workers).
    eval_model:
        The deployment's model: every honest gradient is its stacked pass
        over a run of workers, and accuracy evaluation loads the server's
        parameters into it.
    test_set:
        ``(features, labels)`` used for the top-1 cross-accuracy metric.
    """

    # -------------------------------------------------------------- pipeline
    def _collect_arrivals(
        self, parameters: np.ndarray, step: int, dim: int
    ) -> Tuple[ArrivalBatch, float, np.ndarray, float]:
        """Pipeline stages 1-3: compute, craft, encode + transfer.

        Returns the step's arrival batch (submission order: honest workers,
        then Byzantine workers), the wait floor (when the model broadcast
        finished reaching the last honest worker), the honest losses for the
        step's mean-loss metric, and the step's broadcast (downlink) bytes.

        With ``link_sharing="none"`` every transfer sees the full link and
        the closed-form seed arithmetic is used (bit-identical
        trajectories); under a contention-aware discipline the step's
        broadcasts and pushes are resolved as link sessions on the shared
        egress/ingress (per region bottleneck when a topology is set), and
        each worker's queueing delay is recorded.  Byzantine workers fetch
        the model like everyone else — their gradients are fabricated, their
        fetches are not — so their broadcast sessions contend on the shared
        egress, although only honest completions gate the step's wait floor
        (the adversary never extends the critical path on its own behalf).

        The step is the four :class:`BaseTrainer` worker stages over the
        :class:`~repro.cluster.fleet.FleetState` row order (= honest worker
        order) and is bit-identical to the per-worker loop frozen in
        ``tests/trainer_reference.py``: each elementwise array operation
        produces the floats the per-worker scalar operation would, and each
        stage keeps the stream order its docstring states.
        """
        honest = self.honest_workers
        fleet = self._fleet
        num_honest = len(honest)
        honest_ids = self._worker_ids[self._honest_rows]
        rows = np.arange(num_honest)

        # Downlink framing per fetching worker, in worker-id order (Byzantine
        # ids come first — the deterministic FIFO egress tie-break); the
        # step total is the left-to-right sum over ``workers`` order.
        snapshots, all_fetch_bytes, all_fetch_delta = self._frame_fetches(
            self._worker_ids.tolist()
        )
        downlink_step_bytes = float(sum(all_fetch_bytes.tolist()))
        fetch_bytes = all_fetch_bytes[self._honest_rows]
        with self._section("link_drain"):
            if self._contended and honest:
                # The broadcast is n concurrent sessions on the shared egress,
                # all starting at the step's origin.
                schedule = self.fabric.simulate(
                    np.column_stack(
                        [np.zeros(len(self.workers)), all_fetch_bytes, self._worker_ids]
                    )
                )
                downlink_times = schedule[self._honest_rows, 0]
                downlink_delays = schedule[self._honest_rows, 1]
                byz_delays = schedule[self._byzantine_rows, 1]
                floor = float(downlink_times.max())
            else:
                downlink_times = self.fabric.solo_seconds_batch(honest_ids, fetch_bytes)
                downlink_delays = np.zeros(num_honest)
                byz_delays = np.zeros(len(self._byzantine_rows))
                floor = float(downlink_times.max()) if num_honest else 0.0
        with self._section("telemetry"):
            for row, delay in zip(self._byzantine_rows.tolist(), byz_delays.tolist()):
                worker_id = int(self._worker_ids[row])
                self.history.record_wire(
                    worker_id,
                    bytes_received=all_fetch_bytes[row],
                    queueing_delay=delay,
                    downlink_delta=all_fetch_delta[row],
                    region=self.fabric.region_of(worker_id),
                )
        slowdowns = (
            fleet.sample_slowdowns(self.straggler_model, self._straggler_rng)
            if fleet is not None
            else np.ones(num_honest)
        )

        # Stage 1: honest gradients, priced array-at-a-time at the flops the
        # stacked pass measured.
        loss_array = np.zeros(0)
        honest_matrix = np.zeros((0, dim))
        compute_times = np.zeros(num_honest)
        if honest:
            loss_array, honest_matrix = self._compute_gradients(
                rows, honest, [snapshots[i] for i in self._honest_rows.tolist()]
            )
            compute_times = fleet.compute_times(self.cost_model, self._stacked_flops)
        path_times = downlink_times + compute_times * slowdowns

        # Stage 2: Byzantine gradients (crafted with full knowledge of the
        # honest ones; the adversary never extends the step's critical path).
        # One joint craft call mints all f rows for deterministic attacks.
        with self._section("attack"):
            byzantine_messages = craft_fleet(
                self.byzantine_workers, parameters, honest_matrix, step
            )
        num_byz = len(byzantine_messages)
        byz_matrix = np.array([m.gradient for m in byzantine_messages]).reshape(num_byz, dim)

        # Stage 3: honest frames are encoded before the Byzantine raw
        # frames (the codec PRNG order of sequential encodes), then cross
        # their uplink channels.  ``touched`` maps a batch row to what a
        # channel handed back in place of its frame.
        sent: List[FrameBatch] = []
        touched: Dict[int, Optional[WireFrame]] = {}
        decoded = honest_matrix
        honest_errors = nbytes_honest = solo_honest = penalty = np.zeros(0)
        if honest:
            honest_batch, decoded, honest_errors = self._encode_rows(rows, honest_matrix)
            touched, nbytes_honest, solo_honest, penalty = self._price_uplinks(
                rows, honest_batch
            )
            sent.append(honest_batch)

        # Byzantine submissions: one raw identity batch (the adversary
        # controls its wire bytes outright), per-channel transfer.
        byz_payloads = byz_matrix
        if num_byz:
            byz_batch, byz_payloads = self._raw_codec.encode_decode_batch(byz_matrix)
            sent.append(byz_batch)
            for j, message in enumerate(byzantine_messages):
                frame = byz_batch.frame(j)
                arrived, _ = self.uplink_channels[message.worker_id].transfer_frame(
                    frame, self.cost_model
                )
                if arrived is not frame:
                    touched[num_honest + j] = arrived

        uplink_delays = np.zeros(num_honest)
        with self._section("link_drain"):
            if self._contended and num_honest:
                schedule = self.fabric.simulate(
                    np.column_stack([path_times, nbytes_honest, honest_ids])
                )
                uplink_delays = schedule[:, 1]
                path_times = schedule[:, 0] + penalty
            elif num_honest:
                path_times = path_times + self.fabric.uplink_seconds_batch(
                    honest_ids, nbytes_honest, solo_honest
                )

        # Arrival assembly: one batch row per gradient, honest workers then
        # Byzantine ones.  The matrices the encode stages decoded are the
        # payload blocks — a frame that crossed its channel untouched
        # decodes to its row bit for bit — so only the frames a channel
        # degraded or dropped decode one by one.
        num_rows = num_honest + num_byz
        delivered = np.ones(num_rows, dtype=bool)
        with self._section("codec"):
            payloads = np.concatenate([decoded, byz_payloads]) if num_byz else decoded
            for i, wire in touched.items():
                payload = self._decode(wire)
                if payload is None:
                    delivered[i] = False
                else:
                    payloads[i] = payload
        batch = ArrivalBatch(
            worker_ids=np.concatenate([honest_ids, self._worker_ids[self._byzantine_rows]]),
            steps=np.full(num_rows, step),
            losses=np.concatenate([loss_array, [m.loss for m in byzantine_messages]]),
            payloads=payloads,
            delivered=delivered,
            arrival_times=np.concatenate([path_times, np.zeros(num_byz)]),
            honest=np.arange(num_rows) < num_honest,
            order=np.arange(num_rows),
            wire_bytes=np.concatenate([nbytes_honest, np.zeros(num_byz)]),
            staleness=np.zeros(num_rows, dtype=np.int64),
            gradients=(honest_matrix, byz_matrix),
        )
        with self._section("telemetry"):
            if num_honest:
                self.history.record_wire_batch(
                    honest_ids,
                    bytes_sent=nbytes_honest,
                    bytes_received=fetch_bytes,
                    queueing_delay=downlink_delays + uplink_delays,
                    compression_error=honest_errors,
                    downlink_delta=all_fetch_delta[self._honest_rows],
                    regions=self._honest_regions,
                )
        self.service.account_pushes(batch.worker_ids, sent)
        self.service.account_fetches(self._worker_ids, all_fetch_bytes)

        return batch, floor, loss_array, downlink_step_bytes

    # ------------------------------------------------------------------ step
    def run_step(self) -> StepRecord:
        """Push one step through the aggregation pipeline; return its telemetry."""
        step = self.server.step
        batch, floor, losses, downlink_bytes = self._collect_arrivals(
            self.server.parameters, step, self.server.dim
        )

        # The policy drains the batch in event-queue order — by arrival time,
        # ties broken by submission order, one lexsort — without n Event
        # objects and n heap pops per step.
        with self._section("event_dispatch"):
            decision = self.sync_policy.collect(batch, step, floor=floor)
        self.peak_queue_size = max(self.peak_queue_size, len(batch))
        self.events_dispatched += len(batch)

        # Stage 4: the admitted rows are validated once, aggregated with
        # full diagnostics and the optimizer update applied.  Warming
        # overlaps the quorum wait; charge only the overflow (0.0 without a
        # cache).
        result, seconds, gather_time, warmed_flops = self._aggregate(decision.admitted)
        aggregation_time = (seconds + gather_time) + (
            self.cost_model.distance_overlap_excess(warmed_flops, decision.wait_time)
        )
        update_time = self.cost_model.update_time(self.server.dim)
        return self._close_round(
            decision.admitted, result,
            sim_time=self.clock.now + (decision.wait_time + aggregation_time + update_time),
            losses=losses, compute_comm_time=decision.wait_time,
            aggregation_time=aggregation_time, update_time=update_time,
            dropped=decision.dropped_stragglers, carried=decision.carried,
            downlink_bytes=downlink_bytes,
        )

    def _carry_payloads(self) -> Optional[np.ndarray]:
        """The policy's carry pool: the rows that re-submit next step."""
        pending = self.sync_policy.pending()
        return pending.payloads if len(pending) else None


class AsyncTrainer(BaseTrainer):
    """The event-driven async server actor.

    Every honest worker runs an independent fetch → compute → transfer loop
    as chained events; the server is a pure event consumer that buffers
    admitted arrivals and aggregates whenever the admission predicate's
    quorum fills, while its model version measures each gradient's
    staleness against real model versions.  Rounds overlap: a worker fetches
    the next model the moment it hands its gradient to the transport, so
    slow workers lag behind the version frontier instead of stalling it.

    Parameters (beyond :class:`BaseTrainer`)
    ----------
    sync_policy:
        A quorum-shaped policy (``quorum`` / ``bounded-staleness``) —
        re-expressed as an :class:`~repro.cluster.sync.AdmissionPredicate`
        over the live event stream.  ``full-sync`` has no event-stream form
        and is rejected (run it through :class:`SynchronousTrainer`).
    max_version_lag:
        Hard bound on the admitted version lag; ``None`` defers to the
        policy (``tau`` for bounded staleness, unbounded for plain quorum).
    max_events_per_update:
        Livelock guard: the per-update event budget after which the engine
        declares the run stuck (e.g. a fully lossy transport dropping every
        gradient forever).  ``None`` scales it with the fleet:
        :attr:`EVENTS_PER_WORKER` per worker, at least 20,000.
    """

    #: The default livelock budget per worker and update.  A healthy first
    #: update dispatches a round trip per worker — about 16 events each on a
    #: contended ``fifo`` WAN — so a fixed budget declared a 2,400-worker
    #: fleet livelocked before its first update.
    EVENTS_PER_WORKER = 64

    #: Event kinds of the worker round-trip state machine.
    FETCH, COMPUTE, PUSH, ARRIVE, UPDATE_DONE = (
        "fetch", "compute", "push", "arrive", "update-done",
    )
    #: Link-busy event: a provisional completion on one of the server's
    #: shared pipes.  Rescheduled (old event tombstoned) whenever an
    #: admission changes the contention picture; the pipes completing at one
    #: instant are swept as one run.
    LINK = "link"

    def __init__(
        self,
        server: ParameterServer,
        workers: Sequence[Worker],
        cost_model: CostModel,
        *,
        sync_policy: Optional[SyncPolicy] = None,
        max_version_lag: Optional[int] = None,
        max_events_per_update: Optional[int] = None,
        **kwargs,
    ) -> None:
        if max_events_per_update is None:
            max_events_per_update = max(20_000, self.EVENTS_PER_WORKER * len(workers))
        if max_events_per_update < 1:
            raise ConfigurationError(
                f"max_events_per_update must be >= 1, got {max_events_per_update}"
            )
        super().__init__(server, workers, cost_model, sync_policy=sync_policy, **kwargs)
        self.max_version_lag = max_version_lag
        self.max_events_per_update = int(max_events_per_update)
        # Raises ConfigurationError for policies without an async reading
        # (FullSync): the lock-step protocol cannot drive an event stream.
        self.admission = self.sync_policy.admission(max_version_lag=max_version_lag)
        #: Whether each worker id is honest, as a column to index with ids.
        self._honest_by_id = np.zeros(int(self._worker_ids.max()) + 1, dtype=bool)
        self._honest_by_id[self._worker_ids] = [not w.is_byzantine for w in self.workers]
        #: Each honest worker's fleet row, as a column to index with ids.
        self._row_by_id = np.zeros(len(self._honest_by_id), dtype=np.intp)
        self._row_by_id[self._fleet.worker_ids] = np.arange(self._fleet.num_workers)

        self._loop = EventLoop(clock=self.clock, profiler=self.profiler)
        self._loop.on(self.UPDATE_DONE, self._on_update_done)
        # The fetch → compute → push → arrive chain fires in herds whenever
        # worker paths share a timestamp (homogeneous fleets, uncontended
        # links), and so do the pipes of identical regions: the loop hands
        # every same-time run to its stage's one handler as a cohort, a
        # straggler's run of one included.
        self._loop.on_run(self.FETCH, self._on_fetch_batch)
        self._loop.on_run(self.COMPUTE, self._on_compute_batch)
        self._loop.on_run(self.PUSH, self._on_push_batch)
        self._loop.on_run(self.ARRIVE, self._on_arrive_batch)
        self._loop.on_run(self.LINK, self._sweep_links)

        #: Shared-link schedulers and their pending provisional completion
        #: events, one pipe per direction *and* region bottleneck (keys
        #: ``"down:<region>"`` / ``"up:<region>"``; a symmetric deployment
        #: has the single region ``core``, i.e. exactly the PR-3 pair).
        self._links: Dict[str, LinkScheduler] = {}
        self._link_events: Dict[str, Optional[Event]] = {}
        #: Pipe key → region name (telemetry label of its completions).
        self._link_regions: Dict[str, str] = {}
        #: Worker id → ``(down key, up key, session extras)``, resolved once:
        #: a worker's region and access-link parameters never change, and
        #: every fetch and push routes through them.  The extras dict is
        #: shared by all of a worker's sessions and only ever unpacked.
        self._routes: Dict[int, Tuple[str, str, dict]] = {}
        if self._contended:
            for region in self.fabric.region_names():
                for direction in ("down", "up"):
                    key = f"{direction}:{region}"
                    self._links[key] = self.fabric.scheduler_for(region)
                    self._link_events[key] = None
                    self._link_regions[key] = region
            for worker in self.workers:
                region = self.fabric.region_of(worker.worker_id)
                self._routes[worker.worker_id] = (
                    f"down:{region}", f"up:{region}",
                    self.fabric.session_kwargs(worker.worker_id),
                )

        #: Admission buffer: at most one pending gradient per worker (a
        #: fresher gradient supersedes a staler pending one).  SoA form —
        #: scalar fields in parallel arrays, payloads as rows of one
        #: ``(capacity, d)`` matrix with free-list recycling — so the stale
        #: rescan, the adversary's observation stack and the drain sort are
        #: vectorised; the honest count stays incrementally maintained and
        #: admission bookkeeping stays O(1) per arrival.
        self._pending = PendingPool(
            dim=self.server.dim, capacity=len(self.workers)
        )
        #: Server version the pool was last stale-scanned against.  The
        #: pre-aggregation rescan in :meth:`_maybe_aggregate` only changes
        #: anything when the version moved — every buffered entry was
        #: admit-checked against the current version on arrival and
        #: ``AdmissionPredicate.admit`` is a pure function of the lag — so
        #: repeat scans at the same version are provably no-ops and skipped
        #: (the scan was O(pool) per arrival: quadratic per round at fleet
        #: scale).
        self._pending_checked_version = -1
        self._busy = False
        self._last_update_done = 0.0
        self._byz_fired_version = -1
        self._interval = {"superseded": 0, "channel_dropped": 0, "stale_rejected": 0}
        #: Broadcast bytes pushed since the last completed update (lands in
        #: the next step record's ``downlink_bytes``).
        self._interval_downlink = 0.0

        for worker in self.honest_workers:
            self.history.timeline_for(worker.worker_id)
        self._loop.schedule_many(
            (self.FETCH, 0.0, worker.worker_id, None)
            for worker in self.honest_workers
        )
        for worker in self.byzantine_workers:
            self.history.timeline_for(worker.worker_id)

    # --------------------------------------------------------- shared links
    def _schedule_with_links(self, specs: List[Union[str, tuple]]) -> None:
        """Schedule *specs*, each pipe key among them as that pipe's fresh completion event.

        A key stands for the reschedule the per-event cascade issues at that
        point: the pipe's pending event (if any) is tombstoned, since
        contention moved every projected completion, and a fresh one is
        scheduled at the scheduler's earliest completion under the current
        membership.  Everything goes into one :meth:`EventLoop.schedule_many`
        in the given order — the stamps sequential ``schedule`` calls would
        give, so equal-time pop order is the cascade's.
        """
        with self._section("link_reschedule"):
            now = self.clock.now
            resolved = []
            for spec in specs:
                if type(spec) is str:
                    pending = self._link_events[spec]
                    if pending is not None:
                        pending.cancel()
                        self._link_events[spec] = None
                    target = self._links[spec].next_completion()
                    if target is None:
                        continue
                    spec = (self.LINK, max(target, now), -1, spec)
                resolved.append(spec)
            for event in self._loop.schedule_many(resolved):
                if event.kind == self.LINK:
                    self._link_events[event.payload] = event

    def _sweep_links(self, cohort: Cohort) -> None:
        """Hand on the completed transfers of a same-instant run of link events, in order.

        Each member's payload is its pipe's key.  Each pipe records its
        sessions (one ``record_wire`` each: a pipe hands on few) and
        contributes their hand-offs, then its own reschedule, to one push —
        the order one pipe after another gives, each pipe's pending event
        being the one just popped.
        """
        now = cohort.time
        keys = cohort.payloads
        specs: List[Union[str, tuple]] = []
        record_wire = self.history.record_wire
        for key in keys:
            self._link_events[key] = None
            region = self._link_regions[key]
            for session in self._links[key].pop_completed(now):
                record_wire(
                    session.worker_id, queueing_delay=session.queueing_delay, region=region,
                )
                kind, data = session.payload
                if kind == self.COMPUTE:
                    specs.append((self.COMPUTE, now, session.worker_id, data))
                else:  # an uplink push: the channel penalty rides on top
                    arrival, penalty = data
                    specs.append((self.ARRIVE, now + penalty, session.worker_id, arrival))
            specs.append(key)
        self._schedule_with_links(specs)

    def _ready_at(self, rows: np.ndarray, now: float) -> np.ndarray:
        """When the gradients of fleet *rows* are ready: compute time, one straggler draw each.

        One array expression over the rows; the draws are one
        ``sample(k)`` where that equals k single draws in row order
        (:attr:`StragglerModel.draws_in_sequence`), a ``sample(1)`` per row
        otherwise.
        """
        seconds = self._fleet.compute_times(self.cost_model, self._stacked_flops)[rows]
        model, rng = self.straggler_model, self._straggler_rng
        if model is not None:
            seconds = seconds * (
                model.sample(len(rows), rng) if model.draws_in_sequence
                else np.array([model.sample(1, rng)[0] for _ in range(len(rows))])
            )
        timelines = self.history.worker_timelines
        for worker_id, compute in zip(self._fleet.worker_ids[rows].tolist(), seconds.tolist()):
            timelines[worker_id].compute_seconds += compute
        return now + seconds

    # ------------------------------------------------------------ server side
    def _admit_arrival(
        self, worker_id: int, step: int, loss: float, payload: Optional[np.ndarray],
        wire_bytes: float, now: float,
    ) -> bool:
        """Admission control for one decoded arrival; whether it was buffered.

        Drop a lost wire (*payload* ``None``), reject an over-stale version,
        and let a fresher gradient supersede the worker's buffered one — the
        body the ``arrive`` handler runs for every member that is not plain,
        and the pool's one per-arrival writer (a herd's plain arrivals are
        written in bulk).
        """
        if payload is None:
            self.history.timeline_for(worker_id).channel_dropped += 1
            self._interval["channel_dropped"] += 1
            return False
        lag = self.server.version - step
        if not self.admission.admit(lag):
            self.history.timeline_for(worker_id).stale_rejected += 1
            self._interval["stale_rejected"] += 1
            return False
        existing_step = self._pending.step_of(worker_id)
        if existing_step is not None:
            # One buffered gradient per worker: the fresher model version
            # wins.  A jittered uplink can reorder a worker's rounds in
            # flight, so an older-version gradient arriving late must never
            # evict a fresher buffered one.
            self.history.timeline_for(worker_id).superseded += 1
            self._interval["superseded"] += 1
            if step < existing_step:
                return False
        honest = bool(self._honest_by_id[worker_id])
        self._pending.put(
            worker_id, step=step, payload=payload, arrival_time=now, honest=honest,
            staleness=max(lag, 0), wire_bytes=wire_bytes if honest else 0.0, loss=loss,
        )
        return True

    def _maybe_fire_byzantine(self, now: float) -> float:
        """Byzantine workers inject once enough honest traffic is observable.

        The adversary watches the wire and fires at the last possible moment:
        as soon as the buffered honest gradients could complete a quorum
        together with the ``f`` Byzantine submissions, every Byzantine worker
        crafts a gradient from the honest traffic observed so far and it
        arrives instantly (unbounded compute, arbitrarily fast links),
        stamped with the server's current version so it is never stale.

        Returns how many more buffered honest gradients it takes before the
        adversary can fire: ``inf`` once it has at this version.
        """
        byzantine = self.byzantine_workers
        if not byzantine or self._byz_fired_version >= self.server.version:
            return math.inf
        room = max(1, self.admission.quorum - len(byzantine)) - self._pending.honest_count
        if room > 0:
            return room
        self._byz_fired_version = self.server.version
        observed = self._pending.honest_matrix()
        parameters = self.server.parameters
        with self._section("attack"):
            messages = craft_fleet(byzantine, parameters, observed, self.server.version)
        for worker in byzantine:
            self.history.timeline_for(worker.worker_id).rounds_completed += 1
        self._loop.schedule_many(
            (self.ARRIVE, now, message.worker_id, (message.step, message.loss, message.gradient))
            for message in messages
        )
        return math.inf

    def _maybe_aggregate(self, now: float) -> float:
        """Start an aggregation if the buffer fills a quorum and the server is free.

        Returns how many more buffered gradients it takes before one can
        start: ``inf`` while the server is busy, this aggregation included.
        """
        if self._busy:
            return math.inf
        # Re-check the lag bound against the version the update will apply
        # to: gradients admitted earlier may have aged past the bound while
        # the buffer was filling.  The scan only runs when the version moved
        # since the last one — arrivals are admit-checked against the
        # current version on insert and ``admit`` is pure in the lag, so a
        # same-version rescan deletes nothing and recomputes identical
        # staleness values.
        if self._pending_checked_version != self.server.version:
            self._pending_checked_version = self.server.version
            for worker_id in self._pending.rescan(
                self.server.version, self.admission.admit
            ):
                self.history.timeline_for(worker_id).stale_rejected += 1
                self._interval["stale_rejected"] += 1
        if not self.admission.batch_ready(len(self._pending)):
            return self.admission.quorum - len(self._pending)

        # Deterministic aggregation order: honest workers by id, then
        # Byzantine workers by id — the same shape the lock-step batch has
        # (the pool's drain lexsort reproduces the old dict sort exactly).
        batch = self._pending.drain()
        self._busy = True
        result, aggregation_time, gather_time, warmed_flops = self._aggregate(batch)
        # Early arrivals were warmed while the buffer filled; charge only the
        # overlap the inter-update window could not absorb (0.0 without a
        # cache).
        aggregation_time += self.cost_model.distance_overlap_excess(
            warmed_flops, max(0.0, now - self._last_update_done)
        )
        update_time = self.cost_model.update_time(self.server.dim)
        # The inter-server gather (the shards' distance-block exchange or the
        # replica digest sync, 0.0 with one actor) drains first, then the
        # selection and the optimizer run; the server stays busy throughout.
        # The sum is evaluated left to right: ``now + gather`` is the instant
        # the gather ends.
        self._loop.schedule(
            self.UPDATE_DONE,
            now + gather_time + aggregation_time + update_time,
            payload=(batch, result, aggregation_time + gather_time, update_time, now),
        )
        return math.inf

    def _on_update_done(self, event: Event) -> None:
        """The busy period ended: close the round, then look for the next one."""
        batch, result, aggregation_time, update_time, started = event.payload
        self._close_round(
            batch, result, sim_time=event.time, losses=batch.losses[batch.honest],
            compute_comm_time=max(started - self._last_update_done, 0.0),
            aggregation_time=aggregation_time, update_time=update_time,
            dropped=sum(self._interval.values()), carried=len(self._pending),
            downlink_bytes=self._interval_downlink,
        )
        self._busy = False
        timelines = self.history.worker_timelines
        for worker_id in batch.worker_ids.tolist():
            timelines[worker_id].admitted += 1
        self._interval = {"superseded": 0, "channel_dropped": 0, "stale_rejected": 0}
        self._interval_downlink = 0.0
        self._last_update_done = event.time
        # Arrivals buffered during the busy period may already fill the next
        # quorum — the server never idles while work is waiting.
        self._maybe_aggregate(event.time)

    def _carry_payloads(self) -> Optional[np.ndarray]:
        """The admission buffer: what arrived during the busy period.

        Those gradients enter the next batch byte-identically, so the cache
        warms their blocks (off-path) and evicts everything else.
        """
        return self._pending.payload_matrix()

    # ------------------------------------------------------------------ step
    def run_step(self) -> StepRecord:
        """Dispatch events until one more model update completes."""
        target = self.server.step + 1
        self.events_dispatched += self._loop.run_until(
            lambda: self.server.step >= target,
            max_events=self.max_events_per_update,
        )
        self.peak_queue_size = max(self.peak_queue_size, self._loop.queue.peak_size)
        return self.history.steps[-1]

    # ------------------------------------------------------------ run handlers
    # Each handler below serves one same-time run of events, a run of one
    # included, and is bit-identical to the per-event handlers frozen in
    # ``tests/async_reference.py`` applied in pop order (the
    # :meth:`EventLoop.on_run` contract, held by
    # ``tests/test_async_trainer_parity.py``).  Cancelled-before-dispatch link
    # reschedules are the one elision — only ``peak_queue_size`` can observe it.
    def _open_run_sessions(
        self,
        now: float,
        direction: int,
        worker_ids: Sequence[int],
        nbytes: np.ndarray,
        payloads: Sequence[tuple],
    ) -> Dict[int, str]:
        """Admit a run's transfers on the contended pipes of one *direction*.

        *direction* indexes a worker's route: 0 the downlink pipe, 1 the
        uplink.  Each pipe takes its members as one admission burst — a
        single clock advance and in-order admits (same sessions, same floats
        as n opens).  Returns ``run position → pipe`` for the reschedules
        the caller must issue: the per-event handlers reschedule a pipe
        after every open, but only the one issued by the pipe's last
        toucher survives to dispatch (the next open on the same pipe
        tombstones the earlier ones), so the doomed intermediates are
        skipped and each pipe's one surviving link event must be emitted
        where the per-event push sequence placed it — immediately after the
        run position of its last open.  Each position touches exactly one
        pipe, so inverting ``pipe → last position`` is lossless.
        """
        last_open: Dict[str, int] = {}
        by_pipe: Dict[str, List[tuple]] = {}
        with self._section("link_drain"):
            for i, worker_id in enumerate(worker_ids):
                route = self._routes[worker_id]
                key = route[direction]
                by_pipe.setdefault(key, []).append(
                    (float(nbytes[i]), worker_id, route[2], payloads[i])
                )
                last_open[key] = i
            for key, specs in by_pipe.items():
                self._links[key].open_many(now, specs)
        return {last: key for key, last in last_open.items()}

    def _on_fetch_batch(self, cohort: Cohort) -> None:
        """Fetch stage: each member asks for the model; the reply snapshots the current version.

        The replies are :meth:`_frame_fetches`' downlink framing — raw full
        state, or a codec-encoded delta against the worker's held version
        when a broadcast codec is configured — and each travels over its
        worker's own path (regional bottleneck + access link under a
        topology) to a ``compute`` event carrying ``(version, parameters)``.
        """
        now = cohort.time
        worker_ids = cohort.worker_ids
        snapshots, nbytes, deltas = self._frame_fetches(worker_ids)
        with self._section("telemetry"):
            self.history.record_wire_batch(
                worker_ids, bytes_received=nbytes, downlink_delta=deltas
            )
        self.service.account_fetches(worker_ids, nbytes)
        for fetched in nbytes.tolist():
            self._interval_downlink += fetched
        if self._contended:
            surviving = self._open_run_sessions(
                now, 0, worker_ids, nbytes,
                [(self.COMPUTE, snapshot) for snapshot in snapshots],
            )
            self._schedule_with_links([surviving[i] for i in sorted(surviving)])
            return
        with self._section("link_drain"):
            downlinks = self.fabric.solo_seconds_batch(worker_ids, nbytes)
        self._loop.schedule_cohorts(self.COMPUTE, now + downlinks, worker_ids, snapshots)

    def _on_compute_batch(self, cohort: Cohort) -> None:
        """Compute stage: each member computes a gradient on its snapshot.

        The push carries ``(version, gradient, loss)``.  A run of one draws
        from its own worker's stream whatever the compute mode, so a
        straggler's mini-batches do not depend on whether a peer happened
        to share its instant.
        """
        worker_ids = cohort.worker_ids
        rows = self._row_by_id[worker_ids]
        snapshots = cohort.payloads
        losses, gradients = self._compute_gradients(
            rows, [self._fleet.workers[row] for row in rows.tolist()], snapshots,
            fleet_draw=len(rows) > 1,
        )
        self._loop.schedule_cohorts(
            self.PUSH, self._ready_at(rows, cohort.time), worker_ids,
            Columns([version for version, _ in snapshots], gradients, losses.tolist()),
        )

    def _on_push_batch(self, cohort: Cohort) -> None:
        """Push stage: each member encodes its gradient and hands it to the wire.

        The worker starts its next round at once (a ``fetch`` at the push's
        instant), overlapping its next downlink with this uplink.  The
        arrivals carry ``(version, loss, wire)`` and travel as cohorts too,
        one per arrival time: each
        member's wire is its row of the run's one
        :class:`~repro.cluster.codec.FrameBatch` unless its channel touched
        it (:class:`~repro.cluster.codec.DeliveredFrames`), so a
        transparent uplink mints no frame.  A contended link's sessions keep
        one payload each.
        """
        now = cohort.time
        worker_ids = cohort.worker_ids
        steps, gradients, losses = columns_of(cohort.payloads)
        rows = self._row_by_id[worker_ids]
        batch, _, errors = self._encode_rows(rows, np.asarray(gradients))
        touched, frame_bytes, seconds, penalty = self._price_uplinks(rows, batch)
        delivered = DeliveredFrames(batch, touched)
        with self._section("telemetry"):
            timelines = self.history.worker_timelines
            for wid, transfer in zip(worker_ids, seconds.tolist()):
                timeline = timelines[wid]
                timeline.rounds_completed += 1
                timeline.transfer_seconds += transfer
            self.history.record_wire_batch(
                worker_ids, bytes_sent=frame_bytes, compression_error=errors
            )
        self.service.account_pushes(worker_ids, [batch])
        if self._contended:
            surviving = self._open_run_sessions(
                now, 1, worker_ids, frame_bytes,
                [(self.ARRIVE, ((steps[i], losses[i], delivered[i]), extra))
                 for i, extra in enumerate(penalty.tolist())],
            )
            # The surviving reschedules stay interleaved with the FETCH
            # pushes exactly as the per-event cascade placed them — the
            # relative order stamps decide same-time pop order.
            specs: List[Union[str, tuple]] = []
            for i, wid in enumerate(worker_ids):
                key = surviving.get(i)
                if key is not None:
                    specs.append(key)
                specs.append((self.FETCH, now, wid, None))
            self._schedule_with_links(specs)
            return
        with self._section("link_drain"):
            arrive_at = now + self.fabric.uplink_seconds_batch(worker_ids, frame_bytes, seconds)
        arrivals = Columns(steps, losses, delivered)
        if (arrive_at == now).any():
            # A zero-delay uplink's arrival shares the fetches' instant and
            # pops between them: the members go in the per-event order.
            self._loop.schedule_many(
                spec for i, wid in enumerate(worker_ids) for spec in (
                    (self.ARRIVE, arrive_at[i], wid, arrivals[i]), (self.FETCH, now, wid, None)
                )
            )
            return
        self._loop.schedule_cohorts(self.ARRIVE, arrive_at, worker_ids, arrivals)
        self._loop.schedule_cohorts(self.FETCH, now, worker_ids)

    def _on_arrive_batch(self, cohort: Cohort) -> None:
        """Admission control over one arrive cohort, then the quorum checks.

        A herd's cohort (wires a :class:`~repro.cluster.codec.DeliveredFrames`)
        decodes in one batch, at admission so that arrivals in flight stay
        frames, and is admitted in columns: each stretch of *plain* arrivals
        — delivered, inside the lag bound, not buffered, no worker seen
        earlier in the cohort — is one :meth:`PendingPool.put_many`; every
        other member, each member of a run the queue joined from single
        events, and a straggler's cohort of one (it has no stretch to write
        in bulk) goes through :meth:`_admit_arrival`.  Plainness is decided
        once: the version cannot move inside a cohort (``update-done`` is
        its own event), and the pool only loses entries inside it, to a
        trigger (the buffered mask is recomputed then).

        The two triggers are consulted where the per-event handler's could
        change anything.  The run's first buffered arrival always consults
        them — when the version moved since the last stale rescan, the
        rescan must follow that arrival's ``put`` and precede the next (a
        worker's over-stale buffered entry counts as superseded by the
        first, as stale-rejected from then on).  Each consultation says how
        many more buffered arrivals its trigger needs: until the version
        moves both are pure functions of two counts an admitted arrival
        raises by at most one, so they are no-ops until the nearer one is
        reached, and a stretch ends there.  A trigger that fires mid-run
        (the adversary's same-instant arrivals queue behind the run, the
        server turns busy) only changes the room left for the rest of it.
        """
        now = cohort.time
        worker_ids = cohort.worker_ids
        count = len(worker_ids)
        steps, losses, wires = columns_of(cohort.payloads)
        columnar = type(wires) is DeliveredFrames and count > 1
        with self._section("admission"):
            if columnar:
                payloads, lost = wires.decode()
                wire_bytes = [wires.frames.nbytes] * count
                ids = np.array(worker_ids)
                lags = self.server.version - np.array(steps)
                admit = self.admission.admit
                irregular = lost | ~np.isin(
                    lags, [lag for lag in np.unique(lags).tolist() if admit(lag)]
                )
                first = np.zeros(count, dtype=bool)
                first[np.unique(ids, return_index=True)[1]] = True
                irregular |= ~first
                stops = self._stretch_stops(ids, irregular, 0)
            else:
                wires = [wires[i] for i in range(count)]  # a frames row mints its wire
                payloads = [self._decode(wire) for wire in wires]
                lost = [payload is None for payload in payloads]
                wire_bytes = [w.nbytes if isinstance(w, WireFrame) else 0.0 for w in wires]
        room, start = 1, 0
        while start < count:
            run = min(stops[bisect_left(stops, start)], start + room) - start if columnar else 0
            if run:
                stop = start + run
                with self._section("admission"):
                    honest = self._honest_by_id[ids[start:stop]]
                    self._pending.put_many(
                        worker_ids[start:stop], steps=steps[start:stop],
                        payloads=payloads[start:stop], arrival_time=now, honest=honest,
                        staleness=np.maximum(lags[start:stop], 0),
                        wire_bytes=np.where(honest, wire_bytes[0], 0.0),
                        losses=losses[start:stop],
                    )
                admitted = run
            else:
                stop = start + 1
                arrival = (
                    worker_ids[start], steps[start], losses[start],
                    None if lost[start] else payloads[start], wire_bytes[start], now,
                )
                if self.profiler is None:
                    admitted = self._admit_arrival(*arrival)
                else:
                    # Only the admission body: the triggers below keep their
                    # own sections, which a wider bracket would count twice.
                    with self.profiler.section("admission"):
                        admitted = self._admit_arrival(*arrival)
            start = stop
            if admitted:
                room -= admitted
                if room <= 0:
                    held = len(self._pending)
                    room = min(self._maybe_fire_byzantine(now), self._maybe_aggregate(now))
                    if columnar and len(self._pending) != held:
                        stops = self._stretch_stops(ids, irregular, start)

    def _stretch_stops(self, ids: np.ndarray, irregular: np.ndarray, start: int) -> List[int]:
        """Positions from *start* on that are *irregular* or buffered, then the cohort's length."""
        buffered = self._pending.holds(ids[start:])
        return (np.flatnonzero(irregular[start:] | buffered) + start).tolist() + [len(ids)]


__all__ = [
    "COMPUTE_MODES",
    "TrainerConfig",
    "BaseTrainer",
    "SynchronousTrainer",
    "AsyncTrainer",
    "DownlinkSession",
]
