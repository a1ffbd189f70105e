"""The training engines (the AggregaThor runner analogue).

Two trainers share one engine core (:mod:`repro.cluster.events`, the
versioned :class:`~repro.cluster.server.ParameterServer` behind its
:class:`~repro.cluster.service.ServerFabric`, the telemetry layer) and one
server stage (:meth:`BaseTrainer._aggregate`: open the distance-cache round,
then the fabric validates once, aggregates, prices and gathers).  ``single``
is the one-actor fabric, so no stage asks how many servers there are:

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
       channel and becomes an :class:`~repro.cluster.sync.ArrivalEvent`;
       the step's arrivals are ordered by ``(arrival time, submission
       order)``, the pop order of :class:`~repro.cluster.events.EventQueue`.
    4. **Synchrony + aggregation** — the configured
       :class:`~repro.cluster.sync.SyncPolicy` decides which arrivals the
       server waits for; the admitted batch is validated once, aggregated by
       the GAR with full diagnostics, and the optimizer update is applied.

    With the default ``FullSync`` policy the step is bit-identical to the
    seed implementation's lock-step protocol.

:class:`AsyncTrainer`
    The event-driven server actor.  Each worker runs its own
    fetch → compute → transfer loop as chained events against the server's
    versioned model store; the synchrony policy acts as an
    :class:`~repro.cluster.sync.AdmissionPredicate` over the live event
    stream, staleness is measured against real model versions, Byzantine
    workers are event sources that observe honest traffic up to their firing
    time, and rounds overlap — the server aggregates a quorum while slower
    workers are still computing against older versions.
    :class:`~repro.cluster.events.EventLoop` is the only dispatcher: it
    coalesces same-time fetch / compute / push herds into runs for the
    batched handlers and sends a run of one to the per-event handler.
    The vocabulary is six event kinds — ``fetch``, ``compute``, ``push``,
    ``arrive``, ``update-done`` and ``link``; the inter-server gather is not
    one of them, its seconds are part of the busy period that ends at
    ``update-done``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.clock import SimulatedClock
from repro.cluster.codec import (
    IdentityCodec,
    WireCodec,
    WireFrame,
    decode_frame,
    encode_delta,
)
from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.deploy import ClusterSpec
from repro.cluster.events import Event, EventLoop
from repro.cluster.fleet import FleetState, PendingPool
from repro.cluster.link import LinkFabric, LinkScheduler, LinkTopology
from repro.cluster.message import GradientMessage
from repro.cluster.network import Channel, build_uplink_map
from repro.cluster.profiler import SimProfiler
from repro.cluster.server import ParameterServer
from repro.cluster.service import ServerFabric, parse_server_topology
from repro.cluster.sync import ArrivalEvent, FullSync, SyncPolicy
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
class StepDiagnostics:
    """Aggregation-stage outputs surfaced into the step's telemetry record."""

    aggregation_time: float
    selected_workers: Optional[tuple] = None
    selection_scores: Optional[tuple] = None


@dataclass
class DownlinkSession:
    """The server's per-worker downlink state for delta broadcasts.

    Attributes
    ----------
    version:
        The model version the worker currently holds (pinned in the server's
        version store so the next ``version → current`` delta stays
        computable).
    replica:
        The parameter vector the worker actually reconstructed from the
        frames sent so far.  Deltas are computed against this replica rather
        than the logged vector, which is downlink error feedback: whatever a
        lossy broadcast codec failed to express last fetch is re-offered, so
        the worker's reconstruction error stays one-step instead of
        accumulating across rounds.  Lossless codecs keep the replica equal
        to ``parameters_at(version)`` bit for bit.
    """

    version: int
    replica: np.ndarray


class BaseTrainer:
    """Shared engine plumbing for the lock-step and event-driven trainers.

    Owns the server, the workers, the cost model, the simulated clock, the
    uplink channel map, the per-worker compute-throughput resolution, the
    validation + aggregation + diagnostics stage, evaluation, divergence
    detection and the outer :meth:`run` loop.  Subclasses implement
    :meth:`run_step` — "advance the simulation until one more model update
    has been applied".

    An honest worker's round trip is four stages, each with one body here —
    fleet rows in, arrays out — that the lock-step step calls over all
    workers and the async run handlers over the run's rows:

    1. :meth:`_frame_fetches` — fetch framing: the snapshot each worker
       reconstructs, its priced downlink bytes, whether it was a delta.
    2. :meth:`_compute_gradients` — compute: messages, losses and the
       gradient matrix (:meth:`_exact_gradients`: one stacked exact pass on
       the compute mode's mini-batches, or the replica loop where the model
       cannot be stacked).
    3. :meth:`_encode_rows` — encode: error feedback against the fleet's
       row store, one batched codec pass, frames + decoded + errors.
    4. :meth:`_price_uplinks` — uplink pricing: what each channel
       delivered, its solo seconds and its penalty over the ideal wire time.

    Only what differs sits between them in each engine: how contention is
    resolved (one closed-world ``fabric.simulate`` per step against
    event-driven ``open_many`` sessions), when the adversary crafts, the
    straggler draws (``sample(n)`` once per step against ``sample(1)`` per
    event — different stream consumption) and the arrival's form
    (:class:`~repro.cluster.sync.ArrivalEvent` objects against ``arrive``
    events).  The async per-event handlers are the run-of-one spelling;
    their scalar :meth:`_encode` reads and writes the same row store.
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
        eval_model: Optional[Sequential] = None,
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
        #: Cached role partitions — cluster membership is fixed at
        #: construction, so the per-call isinstance scans the properties
        #: used to run are paid exactly once.
        self._honest_workers_cache: Optional[List[HonestWorker]] = None
        self._byzantine_workers_cache: Optional[List[ByzantineWorker]] = None
        #: Worker ids in ``workers`` order and each role's rows in it: a
        #: step's per-worker wire arrays are built and indexed with these.
        self._worker_ids = np.array(ids, dtype=np.intp)
        self._honest_rows = np.flatnonzero(
            [isinstance(w, HonestWorker) for w in self.workers]
        )
        self._byzantine_rows = np.flatnonzero(
            [isinstance(w, ByzantineWorker) for w in self.workers]
        )
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
        self._honest_regions = [
            self.fabric.region_of(wid) for wid in self._worker_ids[self._honest_rows].tolist()
        ] if self._contended else None
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
        self.eval_model = eval_model
        self.test_set = test_set
        if (eval_model is None) != (test_set is None):
            raise ConfigurationError("eval_model and test_set must be provided together")
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
        #: The model whose layers the stacked exact pass runs
        #: (:func:`~repro.cluster.worker.compute_stacked`), or ``None``
        #: where every honest worker runs its own backprop instead.
        self._stacked_model = self._stacked_pass_model()
        #: Lazily-cached per-honest-worker transparency mask (channels are
        #: fixed for the trainer's lifetime, so the per-step property scan
        #: collapses to one array lookup).
        self._uplink_transparent_cache: Optional[np.ndarray] = None
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

    def _uplink_transparent(self) -> np.ndarray:
        """Boolean mask: honest worker ``i``'s uplink channel is transparent."""
        if self._uplink_transparent_cache is None:
            self._uplink_transparent_cache = np.array(
                [
                    self.uplink_channels[w.worker_id].is_transparent
                    for w in self.honest_workers
                ],
                dtype=bool,
            )
        return self._uplink_transparent_cache

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
        if self._honest_workers_cache is None:
            self._honest_workers_cache = [
                w for w in self.workers if isinstance(w, HonestWorker)
            ]
        return self._honest_workers_cache

    @property
    def byzantine_workers(self) -> List[ByzantineWorker]:
        """The adversary-controlled workers."""
        if self._byzantine_workers_cache is None:
            self._byzantine_workers_cache = [
                w for w in self.workers if isinstance(w, ByzantineWorker)
            ]
        return self._byzantine_workers_cache

    def _stacked_pass_model(self) -> Optional[Sequential]:
        """The architecture the stacked exact pass runs, or ``None`` for the replica loop.

        The evaluator's model (the builder makes it and every replica with
        one factory, so no replica is built to ask), or the first honest
        replica's in a trainer built without one.  A model property decides,
        not a size: ``None`` where the model has no stacked signature (Dropout
        streams, convolutions), where the honest fleet mixes batch sizes, or
        where a replica that exists (hand-passed) has another architecture.
        """
        honest = self.honest_workers
        if not honest or (self._fleet.batch_sizes != self._fleet.batch_sizes[0]).any():
            return None
        model = self.eval_model if self.eval_model is not None else honest[0].model
        signature = model.stacked_signature()
        if signature is None or model.num_parameters != self.server.dim:
            return None
        # An unread factory replica is not in ``vars(w)`` and is not built to compare.
        if any(w.model.stacked_signature() != signature for w in honest if "model" in vars(w)):
            return None
        return model

    def _compute_time(self, worker: HonestWorker, dim: int) -> float:
        """Nominal (pre-straggler) gradient-computation time of *worker*."""
        return self.cost_model.gradient_compute_time(
            dim,
            worker.batch_size,
            gflops=self._worker_gflops[worker.worker_id] * worker.speed,
            flops_per_sample=worker.flops_per_sample(),
        )

    def _section(self, name: str):
        """Profiler bracket for subsystem *name*; a no-op without a profiler."""
        if self.profiler is None:
            return nullcontext()
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
    def _encode_broadcast(self, worker_id: int) -> Tuple[np.ndarray, float, bool]:
        """Downlink framing of one model fetch by *worker_id*.

        Returns ``(parameters, wire_bytes, is_delta)``: the parameter vector
        the worker reconstructs, the priced broadcast bytes, and whether a
        delta frame (rather than raw full state) crossed the wire.

        Without a broadcast codec this is the seed's raw ``4d`` framing of
        the current model.  With one, the server consults the worker's
        :class:`DownlinkSession`: if the held version is still in the
        versioned store, a ``held → current`` delta is codec-encoded
        (against the worker's replica — downlink error feedback); if the
        worker has never fetched or its version was evicted past
        ``retain_versions``, a full-state resync is sent instead.  Lossless
        codecs reconstruct the exact target (a lossless float delta is a
        bitwise diff on a real wire), so the identity broadcast codec stays
        bit-identical to raw framing in both trajectory and priced bytes.
        """
        server = self.server
        raw_bytes = self.cost_model.gradient_bytes(server.dim)
        if self.broadcast_codec is None:
            return server.parameters, raw_bytes, False
        target = server.version
        session = self._downlink.get(worker_id)
        if session is None or not server.has_version(session.version):
            parameters = server.parameters
            self._update_downlink(worker_id, target, parameters)
            return parameters, raw_bytes, False
        delta = server.delta_since(session.version, reference=session.replica)
        frame = encode_delta(
            self.broadcast_codec, delta,
            base_version=session.version, target_version=target,
        )
        if self.broadcast_codec.lossless:
            reconstruction = server.parameters
        else:
            reconstruction = session.replica + decode_frame(frame)
        self._update_downlink(worker_id, target, reconstruction)
        return reconstruction, frame.nbytes, True

    def _update_downlink(
        self, worker_id: int, version: int, replica: np.ndarray
    ) -> None:
        """Move *worker_id*'s downlink session to *version*, re-pinning it."""
        session = self._downlink.get(worker_id)
        if session is None:
            self.server.pin_version(version)
        elif session.version != version:
            self.server.release_version(session.version)
            self.server.pin_version(version)
        self._downlink[worker_id] = DownlinkSession(
            version=int(version),
            replica=np.asarray(replica, dtype=np.float64),
        )

    def _encode(
        self, gradient: np.ndarray, *, honest: bool, worker_id: Optional[int] = None
    ) -> Tuple[WireFrame, float]:
        """Codec stage of the uplink: returns ``(frame, compression_error)``.

        Byzantine gradients take the raw framing — the adversary controls
        its wire bytes outright, so no codec stands between it and the
        server — and report zero compression error.  With error feedback
        the worker's carried residual is added before encoding and the new
        residual (what this frame failed to express) replaces it.
        """
        if not honest:
            return self._raw_codec.encode(gradient), 0.0
        signal = np.asarray(gradient, dtype=np.float64).ravel()
        if self.error_feedback and worker_id is not None:
            row = self._fleet.row_of[worker_id]
            if self._fleet.ef_has_memory[row]:
                signal = signal + self._fleet.ef_memory[row]
        frame = self.codec.encode(signal)
        if isinstance(self.codec, IdentityCodec):
            return frame, 0.0
        residual = signal - decode_frame(frame)
        if self.error_feedback and worker_id is not None:
            self._fleet.remember_residuals(row, residual)
        return frame, float(np.linalg.norm(residual))

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
        instead of copied once each.  With one the framing stays sequential
        in the given order: delta broadcasts consult and mutate per-worker
        sessions and the broadcast codec's PRNG stream.
        """
        num = len(worker_ids)
        version = self.server.version
        with self._section("codec"):
            if self.broadcast_codec is None:
                raw_bytes = self.cost_model.gradient_bytes(self.server.dim)
                snapshot = (version, self.server.parameters)
                return [snapshot] * num, np.full(num, raw_bytes), np.zeros(num, dtype=bool)
            snapshots = []
            nbytes = np.zeros(num)
            deltas = np.zeros(num, dtype=bool)
            for i, worker_id in enumerate(worker_ids):
                parameters, nbytes[i], deltas[i] = self._encode_broadcast(worker_id)
                snapshots.append((version, parameters))
        return snapshots, nbytes, deltas

    def _compute_gradients(
        self,
        workers: Sequence[HonestWorker],
        snapshots: Sequence[Tuple[int, np.ndarray]],
    ) -> Tuple[List[GradientMessage], np.ndarray, np.ndarray]:
        """Compute stage: each worker's gradient estimate on its snapshot.

        Returns :meth:`_exact_gradients`' ``(messages, losses, gradients)``
        in worker order, each worker computing on the parameters it
        reconstructed from its own downlink frame.  The compute mode only
        picks the mini-batches of a stacked pass: under ``"fleet"``,
        workers sharing one training set take theirs from one ``(n, b)``
        draw on the fleet stream; otherwise each sampler draws its own.
        """
        with self._section("compute"):
            batch = None
            shared = workers[0].sampler
            if (
                self.compute_mode == "fleet"
                and self._fleet_sample_rng is not None
                and self._stacked_model is not None
                and all(
                    w.sampler.features is shared.features
                    and w.sampler.labels is shared.labels
                    for w in workers
                )
            ):
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
    ) -> Tuple[List[GradientMessage], np.ndarray, np.ndarray]:
        """What each worker's own backprop returns on its mini-batch, bit for bit.

        One stacked pass over the run (:func:`~repro.cluster.worker.compute_stacked`)
        where the deployment's model can be stacked, so no replica is ever
        built, on the stacked *batch* when one is given; otherwise the
        replica loop, each worker's
        :meth:`~repro.cluster.worker.HonestWorker.compute_gradient` in
        worker order.  Without a *batch* the samplers draw sequentially in
        worker order, so every per-worker RNG stream advances as if each
        worker had run alone.
        """
        if self._stacked_model is not None:
            if batch is None:
                batch = sample_stacked([worker.sampler for worker in workers])
            return compute_stacked(workers, snapshots, self._stacked_model, batch)
        messages = [
            worker.compute_gradient(parameters, version)
            for worker, (version, parameters) in zip(workers, snapshots)
        ]
        losses = np.array([m.loss for m in messages])
        return messages, losses, np.stack([m.gradient for m in messages], axis=0)

    def _encode_rows(
        self, rows: np.ndarray, gradients: np.ndarray
    ) -> Tuple[List[WireFrame], np.ndarray, np.ndarray]:
        """Encode stage: the batched codec over the gradients of fleet *rows*.

        Returns ``(frames, decoded, errors)``: the wire frames, the
        server-side reconstruction of each (``decode_frames`` is
        deterministic, so it doubles as the payload of every frame that
        crosses its channel untouched) and the compression-error norms.
        Frames are encoded in row order — the order sequential encodes
        would consume the codec PRNG in.  EF-SGD memory is added only to
        rows that carry one (a blanket ``+ 0.0`` would flip negative zeros)
        and the new residuals (what the frames failed to express) replace
        it in the fleet's row store.
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
            frames, decoded = self.codec.encode_decode_batch(signals)
            if isinstance(self.codec, IdentityCodec):
                return frames, decoded, np.zeros(len(frames))
            residuals = signals - decoded
            # Per-row 1-D norms: each stacked (1, d) @ (d, 1) is the BLAS dot
            # np.linalg.norm applies to one row.  Not einsum: it sums in
            # another order, and its norms differ in the last bits.
            errors = np.sqrt((residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0])
            if self.error_feedback:
                self._fleet.remember_residuals(rows, residuals)
        return frames, decoded, errors

    def _price_uplinks(
        self, rows: np.ndarray, frames: Sequence[WireFrame]
    ) -> Tuple[List[Optional[WireFrame]], np.ndarray, np.ndarray, np.ndarray]:
        """Uplink-pricing stage: the *frames* of fleet *rows* cross their channels.

        Returns ``(wires, nbytes, seconds, penalty)``: what each channel
        delivered (the frame, a degraded copy, or ``None`` for a drop), the
        priced frame bytes, the channel's solo transfer seconds, and those
        seconds' excess over the ideal wire time — the backoff, delays and
        jitter that ride on top where a contended link's drain replaces the
        solo wire time.  Transparent channels (the reliable loss-free
        default, no randomness by contract) pay exactly the ideal time, one
        batched call; every other channel keeps its own ``transfer_frame``
        call — per-channel RNG streams are independent, so the split cannot
        reorder any draws.
        """
        # Every frame prices at the codec's frame_bytes(dim) — the batch
        # encode stamps one shared value — so the byte vector is a fill.
        nbytes = np.full(len(frames), frames[0].nbytes)
        wires: List[Optional[WireFrame]] = list(frames)
        with self._section("link_drain"):
            ideal = self.cost_model.transfer_time_batch(nbytes)
            seconds = ideal.copy()
            for i in np.flatnonzero(~self._uplink_transparent()[rows]):
                channel = self.uplink_channels[int(self._fleet.worker_ids[rows[i]])]
                wires[i], seconds[i] = channel.transfer_frame(frames[i], self.cost_model)
        return wires, nbytes, seconds, seconds - ideal

    # ---------------------------------------------------------- server stage
    def _aggregate(
        self, worker_ids: Sequence[int], payloads: np.ndarray, arrival_times: np.ndarray
    ):
        """The round's server stage, shared by both engines.

        Opens the distance-cache round, then asks the fabric to validate
        once, aggregate and price the admitted ``(n, d)`` *payloads*.  The
        optimizer update is the caller's: lock-step applies it at once, the
        event loop when the server's busy period ends.  Returns ``(result,
        aggregation_seconds, gather_seconds, warmed_flops)``; each engine
        adds the overlap its own wait budget could not absorb
        (:meth:`CostModel.distance_overlap_excess`) in its own association.

        Every admitted gradient that arrived strictly before the latest one
        was sitting in the server while it still waited — a pipelined server
        computes those distance blocks off the critical path.  The warmed
        flops include the previous round's carry-warm debt, which also bills
        against this round's wait (0.0 without a cache).
        """
        if not len(worker_ids):
            raise TrainingError("every gradient was dropped this step; cannot make progress")
        warmed = 0.0
        cache = self.server.distance_cache
        if cache is not None:
            cache.begin_round()
            warmed = self._warm_debt
            self._warm_debt = 0.0
            early = payloads[arrival_times < arrival_times.max()]
            if early.size:
                warmed += cache.warm(early)
        with self._gar_section():
            result, seconds, gather_seconds = self.service.aggregate(worker_ids, payloads)
        return result, seconds, gather_seconds, warmed

    def _distance_round_end(self, carry: Optional[np.ndarray]):
        """Close the cache round against the carry pool's rows (``None`` = empty).

        Callers hold a distance cache.  The carried rows re-submit
        byte-identically next round, so their blocks are warmed and
        everything else is evicted — the carry pool *is* the retention
        policy.  The newly warmed flops are carried as debt into the next
        round's wait budget (these rows arrived after the cutoff: the
        overlap window for their blocks is the *coming* wait, not the one
        that already passed).  Returns the round's
        :class:`~repro.core.distance_cache.DistanceRoundStats`.
        """
        cache = self.server.distance_cache
        if carry is not None:
            self._warm_debt += cache.warm(carry)
        return cache.end_round(carry)

    @staticmethod
    def _cache_record_fields(stats) -> Dict:
        """Distance-cache telemetry fields for one step record."""
        if stats is None:
            return {}
        return {
            "cache_hit_rows": stats.hit_rows,
            "cache_miss_rows": stats.miss_rows,
            "cache_hit_pairs": stats.hit_pairs,
            "cache_miss_pairs": stats.miss_pairs,
            "distance_flops": stats.charged_flops,
            "overlapped_flops": stats.warmed_flops,
        }

    @staticmethod
    def _diagnostics(
        worker_ids: Sequence[int], result, aggregation_time: float
    ) -> StepDiagnostics:
        """GAR selection diagnostics in telemetry form.

        *worker_ids* is the submission-ordered id of each aggregated row, so
        the GAR's selected indices translate to worker identities.
        """
        selected = (
            tuple(worker_ids[int(i)] for i in result.selected_indices)
            if result.selected_indices is not None
            else None
        )
        scores = (
            tuple(float(s) for s in result.scores) if result.scores is not None else None
        )
        return StepDiagnostics(
            aggregation_time=aggregation_time,
            selected_workers=selected,
            selection_scores=scores,
        )

    # ------------------------------------------------------------------ step
    def run_step(self) -> StepRecord:
        """Advance the simulation by one model update; return its telemetry."""
        raise NotImplementedError

    # ------------------------------------------------------------------ eval
    def evaluate(self) -> float:
        """Top-1 cross-accuracy of the server's current model on the test set."""
        if self.eval_model is None or self.test_set is None:
            raise ConfigurationError("no evaluation model / test set configured")
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
                accuracy = self.evaluate() if self.eval_model is not None else float("nan")
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
        if self.eval_model is not None and not self.history.diverged:
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
        A model replica used for accuracy evaluation (its parameters are
        overwritten before each evaluation).
    test_set:
        ``(features, labels)`` used for the top-1 cross-accuracy metric.
    """

    # -------------------------------------------------------------- pipeline
    def _collect_arrivals(
        self, parameters: np.ndarray, step: int, dim: int
    ) -> Tuple[List[ArrivalEvent], float, List[float], float]:
        """Pipeline stages 1-3: compute, craft, encode + transfer.

        Returns the step's arrival events (submission order: honest workers,
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
        honest_ids = [w.worker_id for w in honest]
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

        # Stage 1: honest gradients, priced array-at-a-time when the stacked
        # pass measured every row's flops.
        honest_messages: List[GradientMessage] = []
        loss_array = np.zeros(0)
        honest_matrix = np.zeros((0, dim))
        compute_times = np.zeros(num_honest)
        if honest:
            honest_messages, loss_array, honest_matrix = self._compute_gradients(
                honest, [snapshots[i] for i in self._honest_rows]
            )
            if self._stacked_model is not None:
                compute_times = fleet.compute_times(
                    self.cost_model, honest[0].flops_per_sample()
                )
            else:
                for index, worker in enumerate(honest):
                    compute_times[index] = self._compute_time(worker, dim)
        path_times = downlink_times + compute_times * slowdowns

        # Stage 2: Byzantine gradients (crafted with full knowledge of the
        # honest ones; the adversary never extends the step's critical path).
        # One joint craft call mints all f rows for deterministic attacks.
        with self._section("attack"):
            byzantine_messages = craft_fleet(
                self.byzantine_workers, parameters, honest_matrix, step
            )

        # Stage 3: honest frames are encoded before the Byzantine raw
        # frames (the codec PRNG order of sequential encodes), then cross
        # their uplink channels.
        honest_frames: List[WireFrame] = []
        delivered_honest: List[Optional[WireFrame]] = []
        decoded = honest_matrix
        honest_errors = nbytes_honest = solo_honest = penalty = np.zeros(0)
        if honest:
            honest_frames, decoded, honest_errors = self._encode_rows(rows, honest_matrix)
            delivered_honest, nbytes_honest, solo_honest, penalty = self._price_uplinks(
                rows, honest_frames
            )

        # Byzantine submissions: raw framing, per-channel transfer.
        byz_frames: List[WireFrame] = []
        byz_delivered: List[Optional[WireFrame]] = []
        for message in byzantine_messages:
            frame, _ = self._encode(message.gradient, honest=False)
            arrived, _ = self.uplink_channels[message.worker_id].transfer_frame(
                frame, self.cost_model
            )
            byz_frames.append(frame)
            byz_delivered.append(arrived)

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

        # Arrival assembly.  When every honest frame crossed its channel
        # untouched (the transparent fast path), the matrix the encode stage
        # already decoded is the payload batch; degraded or dropped frames
        # decode individually.
        frames = honest_frames + byz_frames
        delivered = delivered_honest + byz_delivered
        with self._section("codec"):
            if all(delivered[i] is frames[i] for i in range(num_honest)):
                honest_payloads = [decoded[i] for i in range(num_honest)]
            else:
                honest_payloads = [self._decode(delivered[i]) for i in range(num_honest)]
        events: List[ArrivalEvent] = []
        for order, message in enumerate(honest_messages + byzantine_messages):
            is_honest = order < num_honest
            events.append(
                ArrivalEvent(
                    message=message,
                    payload=honest_payloads[order] if is_honest
                    else self._decode(delivered[order]),
                    arrival_time=float(path_times[order]) if is_honest else 0.0,
                    honest=is_honest,
                    order=order,
                    wire_bytes=frames[order].nbytes if is_honest else 0.0,
                )
            )
        with self._section("telemetry"):
            if honest_messages:
                self.history.record_wire_batch(
                    honest_ids,
                    bytes_sent=nbytes_honest,
                    bytes_received=fetch_bytes,
                    queueing_delay=downlink_delays + uplink_delays,
                    compression_error=honest_errors,
                    downlink_delta=all_fetch_delta[self._honest_rows],
                    regions=self._honest_regions,
                )
        byz_ids = [m.worker_id for m in byzantine_messages]
        self.service.account_pushes(honest_ids + byz_ids, frames)
        self.service.account_fetches(self._worker_ids, all_fetch_bytes)

        return events, floor, loss_array[np.isfinite(loss_array)].tolist(), downlink_step_bytes

    # ------------------------------------------------------------------ step
    def run_step(self) -> StepRecord:
        """Push one step through the aggregation pipeline; return its telemetry."""
        parameters = self.server.parameters
        step = self.server.step
        dim = self.server.dim

        arrivals, floor, losses, downlink_bytes = self._collect_arrivals(
            parameters, step, dim
        )

        # The policy sees the arrivals in event-queue order: by arrival time,
        # ties broken by submission order.  One stable argsort over the
        # arrival times *is* that drain (sort by time, ties by push index),
        # without n Event objects and n heap pops per step.
        with self._section("event_dispatch"):
            order = np.argsort(
                np.array([a.arrival_time for a in arrivals]), kind="stable"
            )
            drained = [arrivals[i] for i in order]
            self.peak_queue_size = max(self.peak_queue_size, len(arrivals))
            self.events_dispatched += len(drained)

        # Stage 4: the admitted batch is validated once, aggregated with
        # full diagnostics and the optimizer update applied.
        decision = self.sync_policy.collect(drained, step, floor=floor)
        admitted = decision.admitted
        worker_ids = [e.message.worker_id for e in admitted]
        payloads = [e.payload for e in admitted]
        result, aggregation_time, gather_time, warmed_flops = self._aggregate(
            worker_ids,
            np.stack(payloads, axis=0) if payloads else np.zeros((0, dim)),
            np.array([e.arrival_time for e in admitted]),
        )
        wire_bytes = float(sum(e.wire_bytes for e in admitted))
        self.server.apply_update(
            result.gradient, worker_ids=worker_ids, wire_bytes=wire_bytes
        )
        # Warming overlaps the quorum wait; charge only the overflow (0.0
        # without a cache).
        aggregation_time = (aggregation_time + gather_time) + (
            self.cost_model.distance_overlap_excess(warmed_flops, decision.wait_time)
        )
        diagnostics = self._diagnostics(worker_ids, result, aggregation_time)
        cache_stats = None
        if self.server.distance_cache is not None:
            carried = [e.payload for e in self.sync_policy.pending_events() if e.delivered]
            cache_stats = self._distance_round_end(
                np.stack(carried, axis=0) if carried else None
            )
        update_time = self.cost_model.update_time(dim)

        compute_comm_time = decision.wait_time
        self.clock.advance(compute_comm_time + aggregation_time + update_time)
        with self._section("telemetry"):
            self.history.record_server_busy(aggregation_time + update_time)
            self.history.record_version_lag_batch(
                [event.staleness for event in admitted]
            )

        record = StepRecord(
            step=step,
            sim_time=self.clock.now,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            compute_comm_time=compute_comm_time,
            aggregation_time=aggregation_time,
            update_time=update_time,
            gradients_received=len(worker_ids),
            dropped_stragglers=decision.dropped_stragglers,
            carried_gradients=decision.carried,
            stale_gradients=decision.stale_admitted,
            max_staleness=decision.max_staleness,
            selected_workers=diagnostics.selected_workers,
            selection_scores=diagnostics.selection_scores,
            wire_bytes=wire_bytes,
            downlink_bytes=downlink_bytes,
            **self._cache_record_fields(cache_stats),
        )
        with self._section("telemetry"):
            self.history.record_step(record)
        return record


class AsyncTrainer(BaseTrainer):
    """The event-driven async server actor.

    Every honest worker runs an independent fetch → compute → transfer loop
    as chained events; the server is a pure event consumer that buffers
    admitted arrivals and aggregates whenever the admission predicate's
    quorum fills, while its versioned model store measures each gradient's
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
        gradient forever).
    """

    #: Event kinds of the worker round-trip state machine.
    FETCH, COMPUTE, PUSH, ARRIVE, UPDATE_DONE = (
        "fetch", "compute", "push", "arrive", "update-done",
    )
    #: Link-busy event: a provisional completion on one of the server's
    #: shared pipes.  Rescheduled (old event tombstoned) whenever an
    #: admission changes the contention picture.
    LINK = "link"

    def __init__(
        self,
        server: ParameterServer,
        workers: Sequence[Worker],
        cost_model: CostModel,
        *,
        sync_policy: Optional[SyncPolicy] = None,
        max_version_lag: Optional[int] = None,
        max_events_per_update: int = 20_000,
        **kwargs,
    ) -> None:
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
        self._workers_by_id = {w.worker_id: w for w in self.workers}

        self._loop = EventLoop(clock=self.clock, profiler=self.profiler)
        self._loop.on_each({
            self.FETCH: self._on_fetch,
            self.COMPUTE: self._on_compute,
            self.PUSH: self._on_push,
            self.ARRIVE: self._on_arrive,
            self.UPDATE_DONE: self._on_update_done,
            self.LINK: self._on_link,
        })
        # The fetch → compute → push → arrive chain fires in herds whenever
        # worker paths share a timestamp (homogeneous fleets, uncontended
        # links): the loop hands each same-time run of two or more to the
        # batched twin and keeps the per-event handler for a run of one.
        self._loop.on_run(self.FETCH, self._on_fetch_batch)
        self._loop.on_run(self.COMPUTE, self._on_compute_batch)
        self._loop.on_run(self.PUSH, self._on_push_batch)
        self._loop.on_run(self.ARRIVE, self._on_arrive_batch)

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
    def _reschedule_link(self, key: str) -> None:
        """Refresh the provisional completion event of one pipe.

        Contention changes every projected completion time, so the previous
        event (if any) is tombstoned and a fresh one is scheduled at the
        scheduler's earliest completion under the current membership.
        """
        with self._section("link_reschedule"):
            pending = self._link_events[key]
            if pending is not None:
                pending.cancel()
                self._link_events[key] = None
            target = self._links[key].next_completion()
            if target is not None:
                self._link_events[key] = self._loop.schedule(
                    self.LINK, max(target, self.clock.now), payload=key
                )

    def _on_link(self, event: Event) -> None:
        """A link session completed: hand its payload to the next stage."""
        key = event.payload
        region = self._link_regions[key]
        self._link_events[key] = None
        specs = []
        for session in self._links[key].pop_completed(event.time):
            self.history.record_wire(
                session.worker_id, queueing_delay=session.queueing_delay,
                region=region,
            )
            kind, data = session.payload
            if kind == self.COMPUTE:
                specs.append((self.COMPUTE, event.time, session.worker_id, data))
            else:  # an uplink push: the channel penalty rides on top
                message, wire, penalty = data
                specs.append(
                    (self.ARRIVE, event.time + penalty, session.worker_id,
                     (message, wire))
                )
        if specs:
            # One bulk insertion for the same-time completion burst (equal
            # order stamps to per-event pushes, so pop order is unchanged).
            self._loop.schedule_many(specs)
        self._reschedule_link(key)

    # ------------------------------------------------------- worker round-trip
    def _on_fetch(self, event: Event) -> None:
        """Worker asks for the model; the reply snapshots the current version.

        The reply is the worker's downlink framing — raw full state, or a
        codec-encoded delta against its held version when a broadcast codec
        is configured — and travels over the worker's own path (regional
        bottleneck + access link under a topology).
        """
        parameters, nbytes, is_delta = self._encode_broadcast(event.worker_id)
        snapshot = (self.server.version, parameters)
        self.history.record_wire(
            event.worker_id, bytes_received=nbytes, downlink_delta=is_delta
        )
        self.service.account_fetches([event.worker_id], [nbytes])
        self._interval_downlink += nbytes
        if self._contended:
            key, _, extras = self._routes[event.worker_id]
            self._links[key].open(
                event.time, nbytes, worker_id=event.worker_id,
                payload=(self.COMPUTE, snapshot), **extras,
            )
            self._reschedule_link(key)
            return
        downlink = self.fabric.solo_seconds(event.worker_id, nbytes)
        self._loop.schedule(
            self.COMPUTE,
            event.time + downlink,
            worker_id=event.worker_id,
            payload=snapshot,
        )

    def _on_compute(self, event: Event) -> None:
        """Worker received the model; compute a gradient on its own batch.

        The worker's own draw, whatever the compute mode: a run of one
        keeps its sampler's stream exact.
        """
        worker = self._workers_by_id[event.worker_id]
        (message,), _, _ = self._exact_gradients([worker], [event.payload])
        slowdown = (
            float(self.straggler_model.sample(1, self._straggler_rng)[0])
            if self.straggler_model is not None
            else 1.0
        )
        compute_time = self._compute_time(worker, self.server.dim) * slowdown
        self.history.timeline_for(worker.worker_id).compute_seconds += compute_time
        self._loop.schedule(
            self.PUSH, event.time + compute_time, worker_id=event.worker_id, payload=message
        )

    def _on_push(self, event: Event) -> None:
        """Worker encodes + hands the gradient to the wire, starts its next round."""
        message: GradientMessage = event.payload
        channel = self.uplink_channels[message.worker_id]
        with self._section("codec"):
            frame, error = self._encode(
                message.gradient, honest=True, worker_id=message.worker_id
            )
        wire, seconds = channel.transfer_frame(frame, self.cost_model)
        timeline = self.history.timeline_for(message.worker_id)
        timeline.rounds_completed += 1
        timeline.transfer_seconds += seconds
        self.history.record_wire(
            message.worker_id, bytes_sent=frame.nbytes, compression_error=error
        )
        self.service.account_pushes([message.worker_id], [frame])
        if self._contended:
            # The session's drain time replaces the solo wire time; the
            # channel's extra penalty (backoff, delays, jitter) rides on top.
            penalty = seconds - self.cost_model.transfer_time(frame.nbytes)
            _, key, extras = self._routes[message.worker_id]
            self._links[key].open(
                event.time, frame.nbytes, worker_id=message.worker_id,
                payload=(self.ARRIVE, (message, wire, penalty)), **extras,
            )
            self._reschedule_link(key)
        else:
            self._loop.schedule(
                self.ARRIVE,
                event.time
                + self.fabric.uplink_seconds(message.worker_id, frame.nbytes, seconds),
                worker_id=message.worker_id, payload=(message, wire),
            )
        # The push is asynchronous: the worker fetches the next model
        # immediately, overlapping its next downlink with this uplink.
        self._loop.schedule(self.FETCH, event.time, worker_id=message.worker_id)

    # ------------------------------------------------------------ server side
    def _admit_arrival(self, event: Event) -> bool:
        """Admission control for one arrival; whether it was buffered.

        Decode, then drop a lost wire, reject an over-stale version, and let
        a fresher gradient supersede the worker's buffered one — the body
        both ``arrive`` handlers run per event, and the pool's one writer.
        """
        message, wire = event.payload
        wire_bytes = wire.nbytes if isinstance(wire, WireFrame) else 0.0
        payload = self._decode(wire)
        timeline = self.history.timeline_for(message.worker_id)
        if payload is None:
            timeline.channel_dropped += 1
            self._interval["channel_dropped"] += 1
            return False
        lag = self.server.version - message.step
        if not self.admission.admit(lag):
            timeline.stale_rejected += 1
            self._interval["stale_rejected"] += 1
            return False
        existing_step = self._pending.step_of(message.worker_id)
        if existing_step is not None:
            # One buffered gradient per worker: the fresher model version
            # wins.  A jittered uplink can reorder a worker's rounds in
            # flight, so an older-version gradient arriving late must never
            # evict a fresher buffered one.
            timeline.superseded += 1
            self._interval["superseded"] += 1
            if message.step < existing_step:
                return False
        worker = self._workers_by_id[message.worker_id]
        self._pending.put(
            message.worker_id,
            step=message.step,
            payload=payload,
            arrival_time=event.time,
            honest=not worker.is_byzantine,
            staleness=max(lag, 0),
            wire_bytes=wire_bytes if not worker.is_byzantine else 0.0,
            loss=message.loss,
        )
        return True

    def _on_arrive(self, event: Event) -> None:
        """Admission control over the live stream, then a quorum check."""
        if self.profiler is None:
            admitted = self._admit_arrival(event)
        else:
            with self.profiler.section("admission"):
                admitted = self._admit_arrival(event)
        if admitted:
            self._maybe_fire_byzantine(event.time)
            self._maybe_aggregate(event.time)

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
            (self.ARRIVE, now, message.worker_id, (message, message.gradient))
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
        result, aggregation_time, gather_time, warmed_flops = self._aggregate(
            [int(w) for w in batch.worker_ids], batch.payloads, batch.arrival_times
        )
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
        """Apply the optimizer update, bump the version, emit telemetry."""
        batch, result, aggregation_time, update_time, started = event.payload
        version = self.server.version
        wire_bytes = float(batch.wire_bytes.sum())
        worker_ids = [int(w) for w in batch.worker_ids]
        self.server.apply_update(
            result.gradient,
            sim_time=event.time,
            worker_ids=worker_ids,
            wire_bytes=wire_bytes,
        )
        self._busy = False
        diagnostics = self._diagnostics(worker_ids, result, aggregation_time)
        # Close the cache round against the admission buffer: gradients that
        # arrived during the busy period are the async carry pool — they will
        # enter the next batch byte-identically, so their blocks are warmed
        # (off-path) and everything else is evicted.
        cache_stats = None
        if self.server.distance_cache is not None:
            cache_stats = self._distance_round_end(self._pending.payload_matrix())

        self.history.record_server_busy(aggregation_time + update_time)
        for worker_id, staleness in zip(worker_ids, batch.staleness):
            self.history.record_version_lag(int(staleness))
            self.history.timeline_for(worker_id).admitted += 1

        losses = batch.losses[batch.honest & np.isfinite(batch.losses)]
        stale = batch.staleness[batch.staleness > 0]
        record = StepRecord(
            step=version,
            sim_time=event.time,
            mean_loss=float(np.mean(losses)) if losses.size else float("nan"),
            compute_comm_time=max(started - self._last_update_done, 0.0),
            aggregation_time=aggregation_time,
            update_time=update_time,
            gradients_received=len(batch),
            dropped_stragglers=self._interval["superseded"]
            + self._interval["channel_dropped"]
            + self._interval["stale_rejected"],
            carried_gradients=len(self._pending),
            stale_gradients=int(stale.size),
            max_staleness=int(stale.max()) if stale.size else 0,
            selected_workers=diagnostics.selected_workers,
            selection_scores=diagnostics.selection_scores,
            wire_bytes=wire_bytes,
            downlink_bytes=self._interval_downlink,
            **self._cache_record_fields(cache_stats),
        )
        self.history.record_step(record)
        self._interval = {"superseded": 0, "channel_dropped": 0, "stale_rejected": 0}
        self._interval_downlink = 0.0
        self._last_update_done = event.time
        # Arrivals buffered during the busy period may already fill the next
        # quorum — the server never idles while work is waiting.
        self._maybe_aggregate(event.time)

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
    # Each handler below serves one same-time run of two or more events and
    # is bit-identical to its per-event twin applied in pop order (the
    # :meth:`EventLoop.on_run` contract; ``tests/test_async_trainer_parity.py``
    # holds it against the same trainer with the run handlers unregistered).
    # Cancelled-before-dispatch link reschedules are the one elision — only
    # ``peak_queue_size`` can observe it.
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

    def _on_fetch_batch(self, events: List[Event]) -> None:
        """Batched :meth:`_on_fetch` over one same-time run of fetches."""
        now = events[0].time
        num = len(events)
        worker_ids = [e.worker_id for e in events]
        snapshots, nbytes, deltas = self._frame_fetches(worker_ids)
        with self._section("telemetry"):
            self.history.record_wire_batch(
                worker_ids, bytes_received=nbytes, downlink_delta=deltas
            )
        self.service.account_fetches(worker_ids, nbytes)
        for i in range(num):
            self._interval_downlink += float(nbytes[i])
        if self._contended:
            surviving = self._open_run_sessions(
                now, 0, worker_ids, nbytes,
                [(self.COMPUTE, snapshot) for snapshot in snapshots],
            )
            for i in sorted(surviving):
                self._reschedule_link(surviving[i])
            return
        with self._section("link_drain"):
            downlinks = self.fabric.solo_seconds_batch(worker_ids, nbytes)
        self._loop.schedule_many(
            (self.COMPUTE, now + float(downlinks[i]), worker_ids[i], snapshots[i])
            for i in range(num)
        )

    def _on_compute_batch(self, events: List[Event]) -> None:
        """Batched :meth:`_on_compute` over one same-time run of computes."""
        workers = [self._workers_by_id[e.worker_id] for e in events]
        messages, _, _ = self._compute_gradients(workers, [e.payload for e in events])
        dim = self.server.dim
        specs = []
        for i, (worker, event) in enumerate(zip(workers, events)):
            slowdown = (
                float(self.straggler_model.sample(1, self._straggler_rng)[0])
                if self.straggler_model is not None
                else 1.0
            )
            compute_time = self._compute_time(worker, dim) * slowdown
            self.history.timeline_for(worker.worker_id).compute_seconds += compute_time
            specs.append(
                (self.PUSH, event.time + compute_time, worker.worker_id, messages[i])
            )
        self._loop.schedule_many(specs)

    def _on_push_batch(self, events: List[Event]) -> None:
        """Batched :meth:`_on_push` over one same-time run of pushes."""
        now = events[0].time
        messages: List[GradientMessage] = [e.payload for e in events]
        worker_ids = [m.worker_id for m in messages]
        rows = np.array([self._fleet.row_of[wid] for wid in worker_ids], dtype=np.intp)
        frames, _, errors = self._encode_rows(
            rows,
            np.stack([np.asarray(m.gradient, dtype=np.float64).ravel() for m in messages]),
        )
        wires, frame_bytes, seconds, penalty = self._price_uplinks(rows, frames)
        with self._section("telemetry"):
            for i, wid in enumerate(worker_ids):
                timeline = self.history.timeline_for(wid)
                timeline.rounds_completed += 1
                timeline.transfer_seconds += float(seconds[i])
            self.history.record_wire_batch(
                worker_ids, bytes_sent=frame_bytes, compression_error=errors
            )
        self.service.account_pushes(worker_ids, frames)
        if self._contended:
            surviving = self._open_run_sessions(
                now, 1, worker_ids, frame_bytes,
                [(self.ARRIVE, arrival) for arrival in zip(messages, wires, penalty.tolist())],
            )
            # The surviving reschedules stay interleaved with the FETCH
            # pushes exactly as the per-event cascade placed them — the
            # relative order stamps decide same-time pop order.
            for i, wid in enumerate(worker_ids):
                key = surviving.get(i)
                if key is not None:
                    self._reschedule_link(key)
                self._loop.schedule(self.FETCH, now, worker_id=wid)
            return
        with self._section("link_drain"):
            uplinks = self.fabric.uplink_seconds_batch(worker_ids, frame_bytes, seconds)
        specs = []
        for i, wid in enumerate(worker_ids):
            specs.append(
                (self.ARRIVE, now + float(uplinks[i]), wid, (messages[i], wires[i]))
            )
            specs.append((self.FETCH, now, wid, None))
        self._loop.schedule_many(specs)

    def _on_arrive_batch(self, events: List[Event]) -> None:
        """:meth:`_on_arrive` over one same-time run of arrivals.

        The admission body replays per event in pop order; the two triggers
        are consulted only where one can fire.  The run's first buffered
        arrival always consults them — when the version moved since the last
        stale rescan, the rescan must follow that arrival's ``put`` and
        precede the next (a worker's over-stale buffered entry counts as
        superseded by the first, as stale-rejected from then on).  Each
        consultation says how many more buffered arrivals its trigger needs:
        until the version moves both are pure functions of two counts an
        admitted arrival raises by at most one, so they are no-ops until the
        nearer one is reached.  A trigger that fires mid-run (the adversary's
        same-instant arrivals queue behind the run, the server turns busy)
        only changes the room left for the rest of it.
        """
        now = events[0].time
        room = 1
        for event in events:
            if self.profiler is None:
                admitted = self._admit_arrival(event)
            else:
                # Only the admission body: the triggers below keep their
                # own sections, which a wider bracket would count twice.
                with self.profiler.section("admission"):
                    admitted = self._admit_arrival(event)
            if admitted:
                room -= 1
                if room <= 0:
                    room = min(
                        self._maybe_fire_byzantine(now), self._maybe_aggregate(now)
                    )


__all__ = [
    "COMPUTE_MODES",
    "TrainerConfig",
    "BaseTrainer",
    "SynchronousTrainer",
    "AsyncTrainer",
    "StepDiagnostics",
    "DownlinkSession",
]
