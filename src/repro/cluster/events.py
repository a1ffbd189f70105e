"""Discrete-event simulation core for the cluster layer.

The seed trainer drove the simulation round by round: collect every arrival,
ask the synchrony policy for one decision, advance the clock once.  That
lock-step shape makes staleness > 1 impossible by construction and forbids
any overlap between a worker's compute and the server's aggregation.  This
module provides the event-driven alternative: a deterministic priority queue
of timestamped :class:`Event` objects with stable tie-breaking by
``(time, order)``, and an :class:`EventLoop` that owns the
:class:`~repro.cluster.clock.SimulatedClock` and advances it monotonically to
each popped event's timestamp.

Both trainers honour this ordering:

* :class:`~repro.cluster.trainer.SynchronousTrainer` hands each step's
  arrivals to the synchrony policy in ``(arrival time, submission order)``
  order — one stable argsort, which is exactly the order an
  :class:`EventQueue` would pop them in, without building the heap (the
  frozen ``tests/trainer_reference.py`` still drains a real queue and must
  agree bit for bit);
* :class:`~repro.cluster.trainer.AsyncTrainer` runs every worker's
  fetch → compute → transfer loop as chained events on an
  :class:`EventLoop` against the server's versioned model store, letting
  staleness and pipelining emerge naturally.  Its fetch / compute / push
  herds are dispatched as *runs* (see :meth:`EventLoop.on_run`).

Determinism contract: pushing the same events in the same order always pops
them in the same order — ties on ``time`` are broken by the queue's monotone
insertion counter, never by identity or hashing — so two runs with identical
seeds produce identical event orderings, telemetry and final parameters.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.clock import SimulatedClock
from repro.exceptions import ConfigurationError, TrainingError


@dataclass
class Event:
    """One timestamped occurrence in the simulation.

    Attributes
    ----------
    time:
        Absolute simulated time (seconds) at which the event fires.
    kind:
        Dispatch key (e.g. ``"fetch"``, ``"arrive"``); the
        :class:`EventLoop` routes each kind to its registered handler.
    worker_id:
        The worker the event belongs to (``-1`` for server-side events).
    payload:
        Arbitrary event data (a gradient message, an arrival record, ...).
    order:
        Global insertion index stamped by the queue at push time; the
        deterministic tie-break for equal timestamps.
    cancelled:
        Tombstone flag set by :meth:`cancel`.  Cancelled events stay in the
        heap (removal would be O(n)) but are silently skipped at dispatch —
        the mechanism behind reschedulable link-busy events, whose
        provisional completion times move every time the shared link's
        membership changes.
    """

    time: float
    kind: str
    worker_id: int = -1
    payload: Any = None
    order: int = -1
    cancelled: bool = False
    #: The queue currently holding the event (set at push time, cleared once
    #: the event leaves the heap) — lets :meth:`cancel` keep the owning
    #: queue's live/tombstone accounting exact without an O(n) scan.
    _queue: Optional["EventQueue"] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.time = float(self.time)
        if not math.isfinite(self.time) or self.time < 0.0:
            raise ConfigurationError(
                f"event time must be finite and non-negative, got {self.time}"
            )

    def cancel(self) -> None:
        """Mark the event as a tombstone: it will never dispatch."""
        if self.cancelled:
            return
        self.cancelled = True
        queue, self._queue = self._queue, None
        if queue is not None:
            queue._note_cancel()


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Events pop in ``(time, order)`` order, where ``order`` is the global
    insertion counter stamped at push time — so equal-time events always pop
    in the order they were pushed, independent of payload contents.

    Cancelled events stay in the heap as tombstones (eager removal would be
    O(n) each), but the queue tracks them exactly: ``len()`` counts live
    events only, and a cancel that leaves tombstones outnumbering the live
    entries compacts the heap in one O(n) pass — so mass link-reschedule
    cancellations can never bloat it beyond 2x the population that was live
    at the cancel.  The bound is a cancel-time one: a ``pop`` only shrinks the
    heap, so it does not re-run the trigger, and tombstones may outnumber a
    live population that pops have since drained.
    """

    #: Compaction trigger: rebuild once tombstones exceed both this floor and
    #: half the heap (small heaps aren't worth the heapify).
    COMPACT_MIN_TOMBSTONES = 16

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._counter = 0
        self._tombstones = 0
        #: High-water mark of the heap (live + tombstones) over the queue's
        #: lifetime — the benchmark's peak-heap-size metric.
        self.peak_size = 0

    def push(self, event: Event) -> Event:
        """Insert *event*, stamping its tie-break ``order``; returns it."""
        event.order = self._counter
        event._queue = self
        heapq.heappush(self._heap, (event.time, event.order, event))
        self._counter += 1
        if len(self._heap) > self.peak_size:
            self.peak_size = len(self._heap)
        return event

    def push_many(self, events: Sequence[Event]) -> List[Event]:
        """Insert a batch of events; returns them.

        Order stamps are assigned in sequence, so the result is
        indistinguishable from pushing the events one by one — equal-time
        events still pop in the order they appear in *events*.  Pop order is
        a function of the unique ``(time, order)`` keys alone, so k sifts
        and one heapify are interchangeable: a batch small against the heap
        (a link completion burst, a run handler on a straggler-spread fleet)
        sifts each event in, O(k log n), where re-heapifying the whole heap
        would cost O(n) per call; a bulk insertion heapifies once.
        """
        heap = self._heap
        sift = len(events) * len(heap).bit_length() < len(heap)
        for event in events:
            event.order = self._counter
            event._queue = self
            self._counter += 1
            if sift:
                heapq.heappush(heap, (event.time, event.order, event))
            else:
                heap.append((event.time, event.order, event))
        if not sift:
            heapq.heapify(heap)
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)
        return list(events)

    def _note_cancel(self) -> None:
        """One live heap entry became a tombstone; compact when they dominate."""
        self._tombstones += 1
        if (
            self._tombstones > self.COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and re-heapify the survivors (O(n))."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._tombstones = 0

    def pop(self) -> Event:
        """Remove and return the earliest live event (ties by insertion order).

        Cancelled tombstones are discarded on the way; popping a queue that
        holds only tombstones (or nothing) is a :class:`TrainingError` —
        exactly the emptiness :meth:`peek` reports as ``None``.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                event._queue = None
                return event
            self._tombstones -= 1
        raise TrainingError("cannot pop from an empty event queue")

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it (``None`` when empty)."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._tombstones -= 1
        return self._heap[0][2] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest live event (``None`` when empty)."""
        event = self.peek()
        return event.time if event is not None else None

    def drain(self) -> Iterator[Event]:
        """Pop every queued live event in deterministic order."""
        while self.peek() is not None:
            yield self.pop()

    @property
    def pushed(self) -> int:
        """Total number of events ever pushed (the insertion counter)."""
        return self._counter

    @property
    def tombstones(self) -> int:
        """Cancelled entries still occupying heap slots."""
        return self._tombstones

    def __len__(self) -> int:
        # Live events only: tombstones occupy heap slots but will never
        # dispatch, so counting them would contradict pop()'s error contract.
        return len(self._heap) - self._tombstones

    def __bool__(self) -> bool:
        # Truthiness means "something will dispatch": tombstones don't count.
        return self.peek() is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventQueue(live={len(self)}, tombstones={self._tombstones}, "
            f"pushed={self._counter})"
        )


@dataclass
class EventLoop:
    """Pops events in deterministic order and advances the clock to each.

    The loop is the clock's *authority*: simulated time only moves when an
    event fires, via :meth:`SimulatedClock.advance_to`, so no handler can
    observe time running backwards and idle periods cost exactly the gap to
    the next event.

    Handlers are registered per event kind with :meth:`on`; scheduling an
    event in the simulated past is a configuration error (the discrete-event
    contract would silently break).

    A kind may additionally register a *run handler* with :meth:`on_run`.
    :meth:`run_until` then pops the consecutive heap heads sharing the
    first one's ``(time, kind)`` as one run and hands the whole list to the
    run handler; a run of one goes to the kind's per-event handler, chosen
    from the run length alone.  (A run of one keeps its own handler because
    the batched form's numpy call overhead at n = 1 measured 1.8x the wall
    time on a straggler-spread 1,000-worker fleet, where nearly every run
    is a run of one.)  Bit-identity argument: run members are
    consecutive heap heads, and handlers only ever *push* events — every
    new event is stamped with a higher insertion order than the remaining
    run members and can never pop before them (times in the past are
    rejected), so the per-event loop would have dispatched the run back to
    back anyway.  A run handler must therefore replay its kind's per-event
    effects in pop order wherever an RNG stream or float accumulation order
    is observable, and issue its pushes in the sequence the per-event
    handler would (:meth:`schedule_many` stamps orders like sequential
    :meth:`schedule` calls).
    """

    clock: SimulatedClock = field(default_factory=SimulatedClock)
    queue: EventQueue = field(default_factory=EventQueue)
    #: Optional :class:`~repro.cluster.profiler.SimProfiler`: when set, the
    #: queue mechanics of each dispatch (pops, peeks and the clock advance)
    #: are accounted under its ``event_dispatch`` subsystem.
    profiler: Optional[Any] = None

    def __post_init__(self) -> None:
        self._handlers: Dict[str, Callable[[Event], None]] = {}
        self._run_handlers: Dict[str, Callable[[List[Event]], None]] = {}

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register *handler* for events of *kind* (one handler per kind)."""
        existing = self._handlers.get(kind)
        if existing is not None and existing is not handler:
            raise ConfigurationError(f"event kind {kind!r} already has a handler")
        self._handlers[kind] = handler

    def on_each(self, handlers: Dict[str, Callable[[Event], None]]) -> None:
        """Register one handler per kind in a single call.

        Same contract as :meth:`on` for every entry (one handler per kind,
        re-registration of a different handler rejected) — the bulk form the
        trainers use to declare their whole event vocabulary at once.
        """
        for kind, handler in handlers.items():
            self.on(kind, handler)

    def on_run(self, kind: str, handler: Callable[[List[Event]], None]) -> None:
        """Register *handler* for same-``(time, kind)`` runs of two or more.

        Same one-per-kind contract as :meth:`on`.  The kind's per-event
        handler stays registered: it is the run-of-one case.
        """
        existing = self._run_handlers.get(kind)
        if existing is not None and existing is not handler:
            raise ConfigurationError(f"event kind {kind!r} already has a run handler")
        self._run_handlers[kind] = handler

    def schedule(
        self, kind: str, time: float, *, worker_id: int = -1, payload: Any = None
    ) -> Event:
        """Queue a new event at absolute simulated *time* (>= now)."""
        if time < self.clock.now:
            raise ConfigurationError(
                f"cannot schedule {kind!r} at {time:.9f}, before now ({self.clock.now:.9f})"
            )
        return self.queue.push(Event(time=time, kind=kind, worker_id=worker_id, payload=payload))

    def schedule_many(
        self, specs: Iterable[Tuple[str, float, int, Any]]
    ) -> List[Event]:
        """Queue a batch of ``(kind, time, worker_id, payload)`` events at once.

        One validation pass plus one :meth:`EventQueue.push_many` —
        equivalent to calling :meth:`schedule` per spec (same order stamps,
        same pop order) without paying n ``heappush`` calls for a bulk
        insertion such as the async engine's initial per-worker fetch fan-out.
        """
        events = []
        now = self.clock.now
        for kind, time, worker_id, payload in specs:
            if time < now:
                raise ConfigurationError(
                    f"cannot schedule {kind!r} at {time:.9f}, before now ({now:.9f})"
                )
            events.append(
                Event(time=time, kind=kind, worker_id=worker_id, payload=payload)
            )
        return self.queue.push_many(events)

    def _pop_run(self, budget: float) -> List[Event]:
        """Pop the next event (advancing the clock to it) and its run.

        For a kind with a run handler, the consecutive heads sharing the
        event's ``(time, kind)`` follow it, at most *budget* events in all;
        every other kind pops alone.
        """
        queue = self.queue
        event = queue.pop()
        self.clock.advance_to(event.time)
        run = [event]
        if event.kind in self._run_handlers:
            head = queue.peek()
            while (
                len(run) < budget
                and head is not None
                and head.time == event.time
                and head.kind == event.kind
            ):
                run.append(queue.pop())
                head = queue.peek()
        return run

    def _dispatch(self, budget: float) -> List[Event]:
        """Pop one run of at most *budget* events and hand it to its handler."""
        if self.profiler is None:
            run = self._pop_run(budget)
        else:
            with self.profiler.section("event_dispatch"):
                run = self._pop_run(budget)
        event = run[0]
        if len(run) > 1:
            self._run_handlers[event.kind](run)
        else:
            handler = self._handlers.get(event.kind)
            if handler is None:
                raise ConfigurationError(
                    f"no handler registered for event kind {event.kind!r}"
                )
            handler(event)
        return run

    def step(self) -> Event:
        """Pop the next event, advance the clock to it, dispatch its handler."""
        return self._dispatch(1)[0]

    def run_until(
        self, done: Callable[[], bool], *, max_events: Optional[int] = None
    ) -> int:
        """Dispatch events until *done()* holds; returns the number dispatched.

        ``max_events`` guards against livelock (an event loop that keeps
        scheduling work without ever satisfying the predicate — e.g. every
        gradient dropped by a fully lossy transport); it also caps a run,
        so no more than ``max_events`` events are ever popped.
        """
        dispatched = 0
        while not done():
            if not self.queue:
                raise TrainingError(
                    "event queue drained before the stop condition was met"
                )
            if max_events is not None and dispatched >= max_events:
                raise TrainingError(
                    f"event loop dispatched {dispatched} events without satisfying the "
                    "stop condition; the simulation is livelocked (is every gradient "
                    "being dropped or rejected?)"
                )
            budget = math.inf if max_events is None else max_events - dispatched
            dispatched += len(self._dispatch(budget))
        return dispatched


__all__ = ["Event", "EventQueue", "EventLoop"]
