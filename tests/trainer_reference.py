"""The parent commit's per-worker lock-step trainer, frozen as a reference oracle.

These are the ``vectorized=False`` bodies of ``SynchronousTrainer`` in
``src/repro/cluster/trainer.py`` as they stood before that knob was retired:
the per-worker collect loop, the per-step :class:`EventQueue` drain and the
per-message validation round-trip through ``stack_submissions`` (frozen
below).  They are
O(n) Python calls per step and they are the definition of "bit-identical"
for the array-at-a-time collect path under ``src/``:
``tests/test_trainer_vectorized_parity.py`` trains every scenario of its grid
on both and requires equal (``==``) parameters, clock, telemetry export and
event accounting.  Do not edit the method bodies below.

NOTE (third sanctioned edit, "one server"): ``src/`` no longer gates its
service hooks on ``_service_active`` and spells the server stage once
(``BaseTrainer._aggregate`` + ``ServerFabric.aggregate``), so the three
helpers the lock-step reference used to borrow from the live class —
``_service_active``, ``_distance_round_begin(list)`` and
``_distance_round_end(list)`` — are frozen here as verbatim copies of the
parent's bodies, the ``observe_update`` call
is gone with the fabric's version mirror, and ``_aggregate_and_update`` left
the stage-name assertion (it only exists here now).

NOTE (fourth sanctioned edit, "one spelling per stage"): the lock-step
reference borrows the live scalar ``BaseTrainer._encode`` per worker, and its
error-feedback residual now lives in the fleet's row store
(``FleetState.ef_memory`` / ``ef_has_memory``) instead of a ``_codec_memory``
dict — same floats, bodies here unchanged.  ``as_loop_reference`` now also
asserts that ``_encode`` and the four worker-stage methods the live collect
is made of exist on ``BaseTrainer`` and are not shadowed here.

NOTE (fifth sanctioned edit, "same-instant herds all the way through"):
``arrive`` joined the run kinds, so :func:`as_per_event_reference` asserts
four registered run handlers before clearing them, and
:func:`as_server_stage_reference` unregisters the ``arrive`` run handler,
which spaces its consultations by the room the live triggers return — the
frozen ``_maybe_aggregate`` is the parent's, where arrivals were dispatched
one by one, and returns none; bodies here unchanged.

NOTE (sixth sanctioned edit, "the lock-step step in columns"): the live
policies decide on one ``ArrivalBatch`` per step, so the list-of-``ArrivalEvent``
policies this reference hands its events to are frozen beside it in
``tests/sync_reference.py``; ``ArrivalEvent`` / ``SyncDecision`` come from
there and :func:`as_loop_reference` swaps the trainer's policy for its
frozen twin (same parameters, same binding).  Bodies here unchanged.

NOTE (seventh sanctioned edit, "one gradient path"): ``HonestWorker`` holds
no replica and has no ``compute_gradient`` any more, so the per-worker loop
calls the frozen body in ``tests/replica_reference.py`` on the worker's
replica there (which also stores the replica's measured flops where the live
``_compute_time`` prices them).  Bodies here otherwise unchanged.

NOTE (eighth sanctioned edit, "the server stage spelled once"): both live
engines close a round through ``BaseTrainer._close_round`` and the server
lost its message-list stage, so the helpers the lock-step reference used to
borrow — ``ParameterServer.stack_submissions`` (with the
``validate_submission`` it calls), ``BaseTrainer._diagnostics``,
``BaseTrainer._cache_record_fields`` and ``StepDiagnostics`` — are frozen
here as verbatim copies of the parent's bodies (the two server methods as
functions of the server).  The drained async batch is an ``ArrivalBatch``
(``PendingBatch`` is gone; the annotations say so).  The live lock-step
update log gained its ``sim_time``, so the reference's ``run_step`` stamps
its entry with the clock it just advanced to — the bug fixed in both.

NOTE (ninth sanctioned edit, "the async herd travels in cohorts"): the live
async engine prices a compute cohort in one array expression over the fleet
columns, so ``BaseTrainer._compute_time`` — the per-worker scalar pricing the
per-worker loop here calls — is frozen on :class:`ReferenceSynchronousTrainer`
as a verbatim copy of the parent's body.  The run handlers take one
``Cohort`` and the ``arrive`` payload is ``(version, loss, wire)``;
:func:`as_per_event_reference` still unregisters every run handler, so each
event reaches its per-event handler, which schedules one ``Event`` per push.
Bodies here otherwise unchanged.

NOTE (tenth sanctioned edit, "the contended link in runs"): ``link`` joined
the run kinds — a same-instant run of link events across pipes is swept by
one handler — so :func:`as_per_event_reference` pins five registered run
handlers before clearing them.  Bodies here unchanged.

NOTE (eleventh sanctioned edit, "one async handler per stage"): every async
dispatch reaches one handler per stage, a run of one as a cohort of one, so
the per-event async handlers and the scalar stages only they called left
``src/`` for ``tests/async_reference.py``, and :func:`as_per_event_reference`
moved there with them.  The lock-step reference borrows the frozen scalar
``_encode_broadcast`` / ``_encode`` from its :class:`ScalarWireStages`
(``as_loop_reference`` now asserts they are gone from ``BaseTrainer``) and
prices its solo paths with the frozen ``solo_seconds`` / ``uplink_seconds``
functions of the fabric instead of the retired ``LinkFabric`` methods (two
call sites, same arguments).  :class:`ReferenceAsyncTrainer` extends the
frozen per-event trainer, so ``as_server_stage_reference``'s per-event
``arrive`` handler is the frozen ``_on_arrive``.  Bodies here otherwise
unchanged.

NOTE (twelfth sanctioned edit, "one encode method per codec"): the codecs
lost their scalar ``encode`` and ``src/`` its ``FrameBatch.stack``, so the
per-worker loop frames a Byzantine row with the frozen scalar encode of
``tests/codec_reference.py`` and stacks its frames with the frozen
``stack`` there (two call sites, same arguments).  Bodies here otherwise
unchanged.

The event-driven *server stage* is frozen too: :class:`ReferenceAsyncTrainer` freezes the
parent's ``_maybe_aggregate`` / ``_on_gather`` / ``_aggregate_pending`` /
``_distance_round_begin_batch`` — the quorum fill that schedules a seventh
event kind, ``gather``, ahead of ``update-done`` under a multi-actor
service — and :func:`as_server_stage_reference` re-classes a built
``AsyncTrainer`` onto them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.codec import WireFrame
from repro.cluster.events import Event, EventQueue
from repro.cluster.message import GradientMessage
from repro.cluster.telemetry import StepRecord
from repro.cluster.server import ParameterServer
from repro.cluster.sync import ArrivalBatch
from repro.cluster.trainer import AsyncTrainer, BaseTrainer, SynchronousTrainer
from repro.cluster.worker import craft_fleet
from repro.exceptions import TrainingError
from tests.async_reference import (
    PerEventAsyncTrainer, ScalarWireStages, per_event_handlers,
    solo_seconds as frozen_solo_seconds, uplink_seconds as frozen_uplink_seconds,
)
from tests.codec_reference import encode, stack
from tests.replica_reference import compute_gradient
from tests.sync_reference import ArrivalEvent, SyncDecision, frozen_twin


class _ParentServiceGate:
    """The parent ``BaseTrainer``'s service gate, read by both references."""

    @property
    def _service_active(self) -> bool:
        service = self.service
        return service is not None and not service.is_trivial


def validate_submission(server: ParameterServer, message: GradientMessage) -> None:
    """Reject gradients from unknown workers or with the wrong dimensionality."""
    if server._allowed is not None and message.worker_id not in server._allowed:
        raise TrainingError(
            f"worker {message.worker_id} is not part of the deployed cluster "
            "(hardened server rejects foreign submissions)"
        )
    if message.dim != server.dim:
        raise TrainingError(
            f"gradient dimensionality {message.dim} does not match the model ({server.dim})"
        )


def stack_submissions(server: ParameterServer, messages: Sequence[GradientMessage]) -> np.ndarray:
    """Validate one round of messages and stack them into an ``(n, d)`` matrix.

    Each message is validated exactly once; the resulting float64 matrix
    is ready for :meth:`repro.core.base.GradientAggregationRule.aggregate_validated`,
    so the GAR does not re-validate or re-stack on the hot path.
    """
    if len(messages) == 0:
        raise TrainingError("no gradients arrived this step — cannot aggregate")
    for message in messages:
        validate_submission(server, message)
    return np.stack([m.gradient for m in messages], axis=0)


@dataclass
class StepDiagnostics:
    """Aggregation-stage outputs surfaced into the step's telemetry record."""

    aggregation_time: float
    selected_workers: Optional[tuple] = None
    selection_scores: Optional[tuple] = None


class _ParentStepRecording:
    """The parent ``BaseTrainer``'s step-record helpers."""

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
        selected = None
        if result.selected_indices is not None:
            rows = np.asarray(result.selected_indices, dtype=np.intp)
            selected = tuple(np.asarray(worker_ids)[rows].tolist())
        scores = (
            tuple(np.asarray(result.scores, dtype=np.float64).tolist())
            if result.scores is not None else None
        )
        return StepDiagnostics(
            aggregation_time=aggregation_time,
            selected_workers=selected,
            selection_scores=scores,
        )


class ReferenceSynchronousTrainer(
    _ParentServiceGate, _ParentStepRecording, ScalarWireStages, SynchronousTrainer
):
    """``SynchronousTrainer`` with the parent's per-worker stage bodies."""

    def _compute_time(self, worker, dim: int) -> float:
        """Nominal (pre-straggler) gradient-computation time of *worker*.

        Priced at the forward flops per sample the stacked pass measured,
        so only after a pass has run.
        """
        return self.cost_model.gradient_compute_time(
            dim,
            worker.batch_size,
            gflops=self._worker_gflops[worker.worker_id] * worker.speed,
            flops_per_sample=self._stacked_flops,
        )

    def _distance_round_begin(self, admitted: Sequence[ArrivalEvent]) -> float:
        """Open a cache round and warm the pre-quorum arrivals."""
        cache = self.server.distance_cache
        if cache is None:
            return 0.0
        cache.begin_round()
        warmed = self._warm_debt
        self._warm_debt = 0.0
        delivered = [e for e in admitted if e.delivered]
        if delivered:
            cutoff = max(e.arrival_time for e in delivered)
            early = [e.payload for e in delivered if e.arrival_time < cutoff]
            if early:
                warmed += cache.warm(np.stack(early, axis=0))
        return warmed

    def _distance_round_end(self, pending: Sequence[ArrivalEvent]):
        """Close the cache round against the policy's carry pool."""
        cache = self.server.distance_cache
        if cache is None:
            return None
        rows = [e.payload for e in pending if e.delivered]
        carry = np.stack(rows, axis=0) if rows else None
        if carry is not None:
            self._warm_debt += cache.warm(carry)
        return cache.end_round(carry)

    def _collect_arrivals(
        self, parameters: np.ndarray, step: int, dim: int
    ) -> Tuple[List[ArrivalEvent], float, List[float], float]:
        """Per-worker reference implementation of the collect stage.

        Returns the step's arrival events (submission order: honest workers,
        then Byzantine workers), the wait floor (when the model broadcast
        finished reaching the last honest worker), the honest losses for the
        step's mean-loss metric, and the step's broadcast (downlink) bytes.

        With ``link_sharing="none"`` every transfer sees the full link and
        the closed-form seed arithmetic is used verbatim (bit-identical
        trajectories); under a contention-aware discipline the step's
        broadcasts and pushes are resolved as link sessions on the shared
        egress/ingress (per region bottleneck when a topology is set), and
        each worker's queueing delay is recorded.  Byzantine workers fetch
        the model like everyone else — their gradients are fabricated, their
        fetches are not — so their broadcast sessions contend on the shared
        egress, although only honest completions gate the step's wait floor
        (the adversary never extends the critical path on its own behalf).
        """
        honest = self.honest_workers
        # Downlink framing per fetching worker, in worker-id order (Byzantine
        # ids come first — the deterministic FIFO egress tie-break).  Without
        # a broadcast codec every fetch is the same raw full-state frame, so
        # the step's one parameter snapshot is shared across workers instead
        # of copied n times.
        if self.broadcast_codec is None:
            raw_bytes = self.cost_model.gradient_bytes(dim)
            fetches: Dict[int, Tuple[np.ndarray, float, bool]] = {
                worker.worker_id: (parameters, raw_bytes, False)
                for worker in self.workers
            }
        else:
            fetches = {
                worker.worker_id: self._encode_broadcast(worker.worker_id)
                for worker in self.workers
            }
        downlink_step_bytes = float(sum(f[1] for f in fetches.values()))
        if self._contended and honest:
            # The broadcast is n concurrent sessions on the shared egress.
            jobs = [
                (0.0, fetches[worker.worker_id][1], worker.worker_id)
                for worker in self.workers
            ]
            schedule = {
                worker.worker_id: outcome
                for worker, outcome in zip(self.workers, self.fabric.simulate(jobs))
            }
            downlink_times = [schedule[w.worker_id][0] for w in honest]
            downlink_delays = [schedule[w.worker_id][1] for w in honest]
            byz_delays = {w.worker_id: schedule[w.worker_id][1]
                          for w in self.byzantine_workers}
            floor = max(downlink_times)
        else:
            downlink_times = [
                frozen_solo_seconds(self.fabric, w.worker_id, fetches[w.worker_id][1])
                for w in honest
            ]
            downlink_delays = [0.0] * len(honest)
            byz_delays = {w.worker_id: 0.0 for w in self.byzantine_workers}
            floor = max(downlink_times) if downlink_times else 0.0
        for worker in self.byzantine_workers:
            _, nbytes, is_delta = fetches[worker.worker_id]
            self.history.record_wire(
                worker.worker_id,
                bytes_received=nbytes,
                queueing_delay=byz_delays[worker.worker_id],
                downlink_delta=is_delta,
                region=self.fabric.region_of(worker.worker_id),
            )
        slowdowns = (
            self.straggler_model.sample(len(honest), self._straggler_rng)
            if self.straggler_model is not None
            else np.ones(len(honest))
        )

        # Stage 1: broadcast + honest gradient computation.  Each worker
        # computes on the parameters it reconstructed from its own downlink
        # frame (the exact server state unless a lossy broadcast codec is
        # in play).
        honest_messages: List[GradientMessage] = []
        path_times: List[float] = []
        for index, worker in enumerate(honest):
            message = compute_gradient(self, worker, fetches[worker.worker_id][0], step)
            honest_messages.append(message)
            compute_time = self._compute_time(worker, dim)
            path_times.append(downlink_times[index] + compute_time * float(slowdowns[index]))

        honest_matrix = (
            np.stack([m.gradient for m in honest_messages], axis=0)
            if honest_messages
            else np.zeros((0, dim))
        )

        # Stage 2: Byzantine gradients (crafted with full knowledge of the
        # honest ones; the adversary never extends the step's critical path).
        # One joint craft call mints all f rows for deterministic attacks.
        with self._section("attack"):
            byzantine_messages = craft_fleet(
                self.byzantine_workers, parameters, honest_matrix, step
            )

        # Stage 3: encode, then transfer over each worker's uplink channel.
        # The channel reports the *solo* seconds for the encoded frame; under
        # contention the shared-ingress drain replaces the solo wire time and
        # the channel's extra penalty (backoff, delays, jitter) rides on top.
        num_honest = len(honest_messages)
        frames: List[Optional[WireFrame]] = []
        delivered: List[Optional[WireFrame]] = []
        solo_seconds: List[float] = []
        errors: List[float] = []
        for order, message in enumerate(honest_messages + byzantine_messages):
            channel = self.uplink_channels[message.worker_id]
            # Byzantine gradients take the raw framing: the adversary
            # controls its wire bytes outright.
            if order < num_honest:
                frame, error = self._encode(message.gradient, worker_id=message.worker_id)
            else:
                frame, error = encode(self._raw_codec, message.gradient), 0.0
            arrived, seconds = channel.transfer_frame(frame, self.cost_model)
            frames.append(frame)
            delivered.append(arrived)
            solo_seconds.append(seconds)
            errors.append(error)

        uplink_delays = [0.0] * num_honest
        if self._contended and num_honest:
            schedule = self.fabric.simulate(
                [
                    (path_times[i], frames[i].nbytes, honest[i].worker_id)
                    for i in range(num_honest)
                ]
            )
            for i, (finish, delay) in enumerate(schedule):
                ideal = self.cost_model.transfer_time(frames[i].nbytes)
                penalty = solo_seconds[i] - ideal
                path_times[i] = finish + penalty
                uplink_delays[i] = delay
        else:
            for i in range(num_honest):
                path_times[i] += frozen_uplink_seconds(
                    self.fabric, honest[i].worker_id, frames[i].nbytes, solo_seconds[i]
                )

        events: List[ArrivalEvent] = []
        for order, message in enumerate(honest_messages + byzantine_messages):
            is_honest = order < num_honest
            events.append(
                ArrivalEvent(
                    message=message,
                    payload=self._decode(delivered[order]),
                    arrival_time=path_times[order] if is_honest else 0.0,
                    honest=is_honest,
                    order=order,
                    wire_bytes=frames[order].nbytes if is_honest else 0.0,
                )
            )
            if is_honest:
                _, fetch_bytes, fetch_delta = fetches[message.worker_id]
                self.history.record_wire(
                    message.worker_id,
                    bytes_sent=frames[order].nbytes,
                    bytes_received=fetch_bytes,
                    queueing_delay=downlink_delays[order] + uplink_delays[order],
                    compression_error=errors[order],
                    downlink_delta=fetch_delta,
                    region=self.fabric.region_of(message.worker_id),
                )

        if self._service_active:
            assert self.service is not None
            all_messages = honest_messages + byzantine_messages
            self.service.account_pushes(
                [m.worker_id for m in all_messages],
                [stack(part) for part in (frames[:num_honest], frames[num_honest:])
                 if part],
            )
            self.service.account_fetches(
                [w.worker_id for w in self.workers],
                [fetches[w.worker_id][1] for w in self.workers],
            )
        losses = [m.loss for m in honest_messages if np.isfinite(m.loss)]
        return events, floor, losses, downlink_step_bytes

    def _aggregate_batch(self, admitted: Sequence[ArrivalEvent]):
        """Validate once and aggregate; returns ``(delivered, result, seconds)``.

        Does *not* apply the optimizer update — the lock-step trainer applies
        it immediately, the event loop applies it when the server's busy
        period ends.  With a distance cache attached to the server, the cost
        model prices only the distance blocks the cache actually computed
        this round (the aggregated values stay bit-identical either way).
        """
        delivered = [
            GradientMessage(
                worker_id=e.message.worker_id,
                step=e.message.step,
                gradient=e.payload,
                loss=e.message.loss,
            )
            for e in admitted
        ]
        if not delivered:
            raise TrainingError("every gradient was dropped this step; cannot make progress")
        matrix = stack_submissions(self.server, delivered)
        result, aggregation_time = self.cost_model.aggregation_time_detailed(
            self.server.gar,
            matrix,
            distance_cache=self.server.distance_cache,
            charge_shard_combine=not self._service_active,
        )
        return delivered, result, aggregation_time

    def _aggregate_and_update(
        self, decision: SyncDecision
    ) -> Tuple[List[int], StepDiagnostics, float]:
        """Pipeline stage 4 with the per-message protocol round-trip."""
        admitted = decision.admitted
        delivered, result, aggregation_time = self._aggregate_batch(admitted)
        worker_ids = [m.worker_id for m in delivered]
        if self._service_active:
            assert self.service is not None
            # The flat shard_combine_flops term was suppressed above; the
            # measured inter-server gather wire time replaces it.
            aggregation_time += self.service.gather_seconds(len(worker_ids))
        wire_bytes = float(sum(e.wire_bytes for e in admitted))
        self.server.apply_update(
            result.gradient, worker_ids=worker_ids, wire_bytes=wire_bytes
        )
        return worker_ids, self._diagnostics(worker_ids, result, aggregation_time), wire_bytes

    def run_step(self) -> StepRecord:
        """Push one step through the aggregation pipeline; return its telemetry."""
        parameters = self.server.parameters
        step = self.server.step
        dim = self.server.dim

        arrivals, floor, losses, downlink_bytes = self._collect_arrivals(
            parameters, step, dim
        )

        # Thin driver over the event engine: the step's arrivals are routed
        # through one deterministic event queue and handed to the policy in
        # arrival order (ties broken by submission order, which is exactly
        # the order they are pushed in).
        with self._section("event_dispatch"):
            queue = EventQueue()
            queue.push_many([
                Event(time=arrival.arrival_time, kind="arrive",
                      worker_id=arrival.message.worker_id, payload=arrival)
                for arrival in arrivals
            ])
            drained = [event.payload for event in queue.drain()]
            self.peak_queue_size = max(self.peak_queue_size, queue.peak_size)
            self.events_dispatched += len(drained)

        decision = self.sync_policy.collect(drained, step, floor=floor)
        warmed_flops = self._distance_round_begin(decision.admitted)
        with self._gar_section():
            delivered_ids, diagnostics, wire_bytes = self._aggregate_and_update(decision)
        cache_stats = None
        if self.server.distance_cache is not None:
            # Warming overlaps the quorum wait; charge only the overflow.
            diagnostics.aggregation_time += self.cost_model.distance_overlap_excess(
                warmed_flops, decision.wait_time
            )
            cache_stats = self._distance_round_end(self.sync_policy.pending_events())
        update_time = self.cost_model.update_time(dim)

        compute_comm_time = decision.wait_time
        self.clock.advance(compute_comm_time + diagnostics.aggregation_time + update_time)
        self.server.update_log[-1].sim_time = self.clock.now
        with self._section("telemetry"):
            self.history.record_server_busy(diagnostics.aggregation_time + update_time)
            self.history.record_version_lag_batch(
                [event.staleness for event in decision.admitted]
            )

        record = StepRecord(
            step=step,
            sim_time=self.clock.now,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            compute_comm_time=compute_comm_time,
            aggregation_time=diagnostics.aggregation_time,
            update_time=update_time,
            gradients_received=len(delivered_ids),
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


def as_loop_reference(trainer: SynchronousTrainer) -> SynchronousTrainer:
    """Re-class the lock-step trainer ``build_trainer`` returned onto the frozen bodies."""
    assert type(trainer) is SynchronousTrainer
    # A stage renamed under ``src/`` would leave its override here unreached
    # and the differential grid comparing the live path with itself.
    for stage in ("_collect_arrivals", "run_step"):
        assert stage in SynchronousTrainer.__dict__, stage
    for stage in ("_frame_fetches", "_compute_gradients", "_encode_rows", "_price_uplinks"):
        assert stage in BaseTrainer.__dict__, stage
        assert stage not in ReferenceSynchronousTrainer.__dict__, stage
    for stage in ("_encode_broadcast", "_encode"):
        assert stage not in BaseTrainer.__dict__, stage
    trainer.__class__ = ReferenceSynchronousTrainer
    trainer.sync_policy = frozen_twin(trainer.sync_policy)
    return trainer


class ReferenceAsyncTrainer(_ParentServiceGate, PerEventAsyncTrainer):
    """``AsyncTrainer`` with the parent's event-driven server stage."""

    GATHER = "gather"

    def _maybe_aggregate(self, now: float) -> None:
        """Start an aggregation if the buffer fills a quorum and the server is free."""
        if self._busy:
            return
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
            return

        # Deterministic aggregation order: honest workers by id, then
        # Byzantine workers by id — the same shape the lock-step batch has
        # (the pool's drain lexsort reproduces the old dict sort exactly).
        batch = self._pending.drain()
        self._busy = True
        warmed_flops = self._distance_round_begin_batch(batch)
        with self._gar_section():
            result, aggregation_time = self._aggregate_pending(batch)
        if self.server.distance_cache is not None:
            # Early arrivals were warmed while the buffer filled; charge only
            # the overlap the inter-update window could not absorb.
            budget = max(0.0, now - self._last_update_done)
            aggregation_time += self.cost_model.distance_overlap_excess(
                warmed_flops, budget
            )
        update_time = self.cost_model.update_time(self.server.dim)
        if self._service_active:
            assert self.service is not None
            # Inter-server gather first: the shards' distance-block exchange
            # (or replica digest sync) is a real wire session that must drain
            # before the selection can run.  The server stays busy throughout.
            gather_s = self.service.gather_seconds(len(batch))
            self._loop.schedule(
                self.GATHER,
                now + gather_s,
                payload=(batch, result, aggregation_time, gather_s, update_time, now),
            )
            return
        self._loop.schedule(
            self.UPDATE_DONE,
            now + aggregation_time + update_time,
            payload=(batch, result, aggregation_time, update_time, now),
        )

    def _on_gather(self, event: Event) -> None:
        """Inter-server gather drained: run the selection + optimizer stages.

        Re-emits the standard UPDATE_DONE payload with the gather seconds
        folded into the reported aggregation time, so the step record and
        ``record_server_busy`` account the full busy period exactly as the
        sync path does when it adds :meth:`ServerFabric.gather_seconds`.
        """
        batch, result, aggregation_time, gather_s, update_time, started = event.payload
        self._loop.schedule(
            self.UPDATE_DONE,
            event.time + aggregation_time + update_time,
            payload=(batch, result, aggregation_time + gather_s, update_time, started),
        )

    def _aggregate_pending(self, batch: ArrivalBatch):
        """Validate the drained batch once and aggregate it.

        The pool hands over the payload matrix directly, so validation is
        one batched
        :meth:`~repro.cluster.server.ParameterServer.validate_rows` call.
        Does *not* apply the optimizer update — the event loop applies it
        when the server's busy period ends.  Returns
        ``(result, aggregation_seconds)``.
        """
        if not len(batch):
            raise TrainingError("every gradient was dropped this step; cannot make progress")
        worker_ids = [int(w) for w in batch.worker_ids]
        self.server.validate_rows(worker_ids, batch.payloads)
        result, aggregation_time = self.cost_model.aggregation_time_detailed(
            self.server.gar,
            batch.payloads,
            distance_cache=self.server.distance_cache,
            charge_shard_combine=not self._service_active,
        )
        return result, aggregation_time

    def _distance_round_begin_batch(self, batch: ArrivalBatch) -> float:
        """:meth:`_distance_round_begin` over a drained SoA batch."""
        cache = self.server.distance_cache
        if cache is None:
            return 0.0
        cache.begin_round()
        warmed = self._warm_debt
        self._warm_debt = 0.0
        if len(batch):
            cutoff = batch.arrival_times.max()
            early = batch.payloads[batch.arrival_times < cutoff]
            if early.size:
                warmed += cache.warm(early)
        return warmed


def as_server_stage_reference(trainer: AsyncTrainer) -> AsyncTrainer:
    """Re-class a built ``AsyncTrainer`` onto the parent's server stage.

    The handlers registered at construction stay bound to the live class
    (``_on_update_done`` reaches ``_maybe_aggregate`` through ``self``, so it
    finds the frozen one); ``gather``, which the live vocabulary no longer
    has, needs registering.  Arrivals are dispatched per event, as the
    parent did, to the frozen ``_on_arrive``: the live ``arrive`` run handler
    spaces its consultations by what the live ``_maybe_aggregate`` returns.
    """
    assert type(trainer) is AsyncTrainer
    # A stage renamed under ``src/`` would leave its override here unreached
    # and the differential grid comparing the live path with itself.
    for stage in ("_maybe_aggregate", "_on_update_done"):
        assert stage in AsyncTrainer.__dict__, stage
    trainer.__class__ = ReferenceAsyncTrainer
    trainer._loop.on(ReferenceAsyncTrainer.GATHER, trainer._on_gather)
    del trainer._loop._run_handlers["arrive"]
    trainer._loop.on("arrive", per_event_handlers(trainer, {"arrive"})["arrive"])
    return trainer
