"""The async engine's per-event handlers and scalar wire stages, frozen as a reference oracle.

Before every async dispatch reached one handler per stage, ``AsyncTrainer``
spelt its worker round trip twice: the run handlers (``_on_fetch_batch``,
``_on_compute_batch``, ``_on_push_batch``, ``_on_arrive_batch``,
``_sweep_links``) beside per-event twins that a run of one was dispatched
to.  The twins are frozen here as verbatim copies of their last ``src/``
bodies, together with the scalar stages only they called:

- ``_on_fetch`` / ``_on_compute`` / ``_on_push`` / ``_on_arrive`` /
  ``_on_link``, on :class:`PerEventAsyncTrainer`;
- ``BaseTrainer._encode_broadcast`` (one fetch's downlink framing) and
  ``BaseTrainer._encode`` (one uplink's codec stage), on
  :class:`ScalarWireStages`, which the lock-step reference in
  ``tests/trainer_reference.py`` borrows too;
- ``LinkFabric.solo_seconds`` / ``uplink_seconds``, as :func:`solo_seconds`
  and :func:`uplink_seconds`, functions of the fabric.

Two mechanical edits, no behavioural one: the handlers call the frozen
pricing functions instead of the fabric's methods they were, and
``_on_link`` spells out the one-pipe sweep the live ``_sweep_links`` ran
for it, since the live sweep now takes its run as a cohort.  Everything else
they call — ``_ready_at``, ``_exact_gradients``, ``_admit_arrival``,
``_schedule_with_links``, the triggers — is the live trainer's.

NOTE (one sanctioned edit, "the server keeps the current model only"):
``ParameterServer`` no longer stores past models, so ``_encode_broadcast``
lost its ``has_version`` test (every held version was pinned, so it was
never false) and frames its delta as ``server.parameters - session.replica``
instead of ``delta_since(version, reference=replica)`` — the same floats.

NOTE (second sanctioned edit, "one encode method per codec, one admission
call per link"): the codecs lost their scalar ``encode`` and ``src/`` its
``encode_delta`` and ``FrameBatch.stack``, so ``_encode`` and
``_encode_broadcast`` call the frozen scalar encode of
``tests/codec_reference.py`` (``_encode_broadcast`` framed its delta with
``encode_delta``, whose version tags nothing read), ``_on_push`` stacks its
frame with the frozen ``stack``, and the handlers admit their one session
with ``LinkScheduler.open_many`` of one spec, which equals the ``open`` it
replaced — the same floats.

:func:`as_per_event_reference` re-classes a built ``AsyncTrainer`` onto
:class:`PerEventAsyncTrainer` and swaps its five run handlers for these
per-event ones, so every event is dispatched alone and schedules one
``Event`` per push.  ``tests/test_async_trainer_parity.py`` holds the live
run handlers ``==`` to it: final parameters, clock, telemetry export,
dispatch count and pop sequence.  Do not edit the method bodies below.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cluster.codec import IdentityCodec, WireFrame, decode_frame
from repro.cluster.events import Event
from repro.cluster.link import LinkFabric
from repro.cluster.trainer import AsyncTrainer, BaseTrainer
from tests.codec_reference import encode, stack

#: The kinds the live engine dispatches as runs, each to one run handler.
RUN_KINDS = {"fetch", "compute", "push", "arrive", "link"}


def solo_seconds(fabric: LinkFabric, worker_id: int, nbytes: float) -> float:
    """Uncontended transfer time for *worker_id*'s path.

    The path bandwidth is the minimum of the symmetric cost-model rate,
    the region bottleneck and the worker's access cap; latencies add up
    along the hops.  Without a topology this is exactly
    ``cost_model.transfer_time`` (same float operations).
    """
    if fabric.topology is None:
        return fabric.cost_model.transfer_time(nbytes)
    bandwidth, latency = fabric._pipe(
        fabric.topology.region_map[fabric.region_of(worker_id)]
    )
    cap = fabric.topology.worker_bandwidth_gbps.get(int(worker_id))
    if cap is not None:
        bandwidth = min(bandwidth, cap)
    latency = latency + fabric.topology.worker_latency_s.get(int(worker_id), 0.0)
    return float(nbytes) / (bandwidth * 1e9 / 8.0) + latency


def uplink_seconds(
    fabric: LinkFabric, worker_id: int, nbytes: float, channel_seconds: float
) -> float:
    """Compose a channel's transfer report with the worker's path.

    Channels price their behaviour (Mathis backoff, structural delays,
    jitter) on the symmetric cost model; under a topology the path's
    solo time replaces the cost-model base while the channel's extra
    penalty rides on top.  Without a topology the channel's own figure
    is returned untouched (bit-identical to the seed)."""
    if fabric.topology is None:
        return channel_seconds
    penalty = channel_seconds - fabric.cost_model.transfer_time(nbytes)
    return solo_seconds(fabric, worker_id, nbytes) + penalty


class ScalarWireStages:
    """The per-worker wire stages ``BaseTrainer`` had beside its batched ones."""

    def _encode_broadcast(self, worker_id: int) -> Tuple[np.ndarray, float, bool]:
        """Downlink framing of one model fetch by *worker_id*.

        Returns ``(parameters, wire_bytes, is_delta)``: the parameter vector
        the worker reconstructs, the priced broadcast bytes, and whether a
        delta frame (rather than raw full state) crossed the wire.

        Without a broadcast codec this is the seed's raw ``4d`` framing of
        the current model.  With one, the server consults the worker's
        :class:`DownlinkSession`: if the worker holds one, a
        ``held → current`` delta is codec-encoded (against the worker's
        replica — downlink error feedback); if the worker has never
        fetched, a full-state frame is sent instead.  Lossless
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
        if session is None:  # NOTE: edited since the freeze (module docstring)
            parameters = server.parameters
            self._update_downlink(worker_id, target, parameters)
            return parameters, raw_bytes, False
        delta = server.parameters - session.replica  # NOTE: edited since the freeze
        frame = encode(self.broadcast_codec, delta)  # NOTE: edited since the freeze
        if self.broadcast_codec.lossless:
            reconstruction = server.parameters
        else:
            reconstruction = session.replica + decode_frame(frame)
        self._update_downlink(worker_id, target, reconstruction)
        return reconstruction, frame.nbytes, True

    def _encode(
        self, gradient: np.ndarray, *, worker_id: Optional[int] = None
    ) -> Tuple[WireFrame, float]:
        """Codec stage of one honest uplink: returns ``(frame, compression_error)``.

        With error feedback the worker's carried residual is added before
        encoding and the new residual (what this frame failed to express)
        replaces it.
        """
        signal = np.asarray(gradient, dtype=np.float64).ravel()
        if self.error_feedback and worker_id is not None:
            row = self._fleet.row_of[worker_id]
            if self._fleet.ef_has_memory[row]:
                signal = signal + self._fleet.ef_memory[row]
        frame = encode(self.codec, signal)  # NOTE: edited since the freeze
        if isinstance(self.codec, IdentityCodec):
            return frame, 0.0
        residual = signal - decode_frame(frame)
        if self.error_feedback and worker_id is not None:
            self._fleet.remember_residuals(row, residual)
        return frame, float(np.linalg.norm(residual))


class PerEventAsyncTrainer(ScalarWireStages, AsyncTrainer):
    """``AsyncTrainer`` with its worker round trip dispatched one event at a time."""

    def _on_link(self, event: Event) -> None:
        """A link session completed: hand its payload to the next stage."""
        now, key = event.time, event.payload
        specs = []
        self._link_events[key] = None
        region = self._link_regions[key]
        for session in self._links[key].pop_completed(now):
            self.history.record_wire(
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
            self._links[key].open_many(  # NOTE: edited since the freeze
                event.time, [(nbytes, event.worker_id, extras, (self.COMPUTE, snapshot))],
            )
            self._schedule_with_links([key])
            return
        downlink = solo_seconds(self.fabric, event.worker_id, nbytes)
        self._loop.schedule(
            self.COMPUTE,
            event.time + downlink,
            worker_id=event.worker_id,
            payload=snapshot,
        )

    def _on_compute(self, event: Event) -> None:
        """Worker received the model; compute a gradient on its own batch.

        The worker's own draw, whatever the compute mode: a run of one
        keeps its sampler's stream exact.  The push carries ``(version,
        gradient, loss)``.
        """
        row = self._row_by_id[event.worker_id]
        losses, gradients = self._exact_gradients([self._fleet.workers[row]], [event.payload])
        self._loop.schedule(
            self.PUSH, float(self._ready_at(np.array([row]), event.time)[0]),
            worker_id=event.worker_id,
            payload=(event.payload[0], gradients[0], float(losses[0])),
        )

    def _on_push(self, event: Event) -> None:
        """Worker encodes + hands the gradient to the wire, starts its next round.

        The arrival carries ``(version, loss, wire)``.
        """
        step, gradient, loss = event.payload
        worker_id = event.worker_id
        with self._section("codec"):
            frame, error = self._encode(gradient, worker_id=worker_id)
        wire, seconds = self.uplink_channels[worker_id].transfer_frame(frame, self.cost_model)
        timeline = self.history.timeline_for(worker_id)
        timeline.rounds_completed += 1
        timeline.transfer_seconds += seconds
        self.history.record_wire(worker_id, bytes_sent=frame.nbytes, compression_error=error)
        self.service.account_pushes([worker_id], [stack([frame])])  # NOTE: edited since the freeze
        if self._contended:
            # The session's drain time replaces the solo wire time; the
            # channel's extra penalty (backoff, delays, jitter) rides on top.
            penalty = seconds - self.cost_model.transfer_time(frame.nbytes)
            _, key, extras = self._routes[worker_id]
            self._links[key].open_many(event.time, [  # NOTE: edited since the freeze
                (frame.nbytes, worker_id, extras, (self.ARRIVE, ((step, loss, wire), penalty))),
            ])
            # The push is asynchronous: the worker fetches the next model
            # immediately, overlapping its next downlink with this uplink.
            self._schedule_with_links([key, (self.FETCH, event.time, worker_id, None)])
            return
        self._loop.schedule(
            self.ARRIVE,
            event.time + uplink_seconds(self.fabric, worker_id, frame.nbytes, seconds),
            worker_id=worker_id, payload=(step, loss, wire),
        )
        self._loop.schedule(self.FETCH, event.time, worker_id=worker_id)

    def _on_arrive(self, event: Event) -> None:
        """Admission control over the live stream, then a quorum check."""
        step, loss, wire = event.payload
        arrival = (
            event.worker_id, step, loss, self._decode(wire),
            wire.nbytes if isinstance(wire, WireFrame) else 0.0, event.time,
        )
        if self.profiler is None:
            admitted = self._admit_arrival(*arrival)
        else:
            with self.profiler.section("admission"):
                admitted = self._admit_arrival(*arrival)
        if admitted:
            self._maybe_fire_byzantine(event.time)
            self._maybe_aggregate(event.time)


def per_event_handlers(trainer: PerEventAsyncTrainer, kinds=RUN_KINDS) -> dict:
    """The frozen per-event handler of each of *kinds*, bound to *trainer*."""
    return {kind: getattr(trainer, "_on_" + kind) for kind in kinds}


def as_per_event_reference(trainer: AsyncTrainer) -> AsyncTrainer:
    """Re-class a built ``AsyncTrainer`` onto the frozen per-event handlers.

    Its five run handlers are unregistered and the frozen handler of each
    kind takes its place, so every event is dispatched alone.
    """
    assert type(trainer) is AsyncTrainer
    # A stage renamed under ``src/`` would leave the grid comparing the live
    # path with a different one than it thinks.
    assert set(trainer._loop._run_handlers) == RUN_KINDS
    assert set(trainer._loop._handlers) == {"update-done"}
    for stage in ("_ready_at", "_exact_gradients", "_admit_arrival", "_schedule_with_links"):
        assert stage in AsyncTrainer.__dict__ or stage in BaseTrainer.__dict__, stage
    trainer.__class__ = PerEventAsyncTrainer
    trainer._loop._run_handlers.clear()
    for kind, handler in per_event_handlers(trainer).items():
        trainer._loop.on(kind, handler)
    return trainer


def as_runs_of_one_reference(trainer: AsyncTrainer) -> AsyncTrainer:
    """Re-class a built ``AsyncTrainer`` onto the dispatch rule the twins served.

    A run of two or more still reaches the live run handler; a run of one
    reaches the frozen per-event handler as its lone event.  Where a run
    handler's result depends on the run's length — a ``fleet``-mode compute
    run takes the fleet stream's shared draw — this, not the all-per-event
    reference, is the engine the live one must equal.
    """
    live = dict(trainer._loop._run_handlers)
    as_per_event_reference(trainer)
    frozen = dict(trainer._loop._handlers)
    trainer._loop._handlers = {k: v for k, v in frozen.items() if k not in RUN_KINDS}

    def dispatch(kind):
        run_handler, event_handler = live[kind], frozen[kind]
        return lambda cohort: (
            run_handler(cohort) if len(cohort) > 1 else event_handler(cohort[0])
        )

    for kind in RUN_KINDS:
        trainer._loop.on_run(kind, dispatch(kind))
    return trainer


__all__ = [
    "RUN_KINDS",
    "PerEventAsyncTrainer",
    "ScalarWireStages",
    "as_per_event_reference",
    "as_runs_of_one_reference",
    "per_event_handlers",
    "solo_seconds",
    "uplink_seconds",
]
