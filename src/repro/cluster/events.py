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
  :class:`EventQueue` would pop them in, without building the queue (the
  frozen ``tests/trainer_reference.py`` still drains a real queue and must
  agree bit for bit);
* :class:`~repro.cluster.trainer.AsyncTrainer` runs every worker's
  fetch → compute → transfer loop as chained events on an
  :class:`EventLoop` against the server's versioned model store, letting
  staleness and pipelining emerge naturally.  Its fetch / compute / push /
  arrive herds are dispatched as *runs* (see :meth:`EventLoop.on_run`).

The queue is keyed by timestamp — a heap of the distinct pending times, and
per time a *bucket* of that instant's events in insertion order — because
the workloads are herds: on a homogeneous fleet a round's 1,000 events of a
kind share one float, and a bucket turns their 1,000 heap pops into one
slice (:meth:`EventQueue.pop_run`).  Insertion order within a bucket is
``(time, order)`` order because order stamps only grow.

Determinism contract: pushing the same events in the same order always pops
them in the same order — ties on ``time`` are broken by the queue's monotone
insertion counter, never by identity or hashing — so two runs with identical
seeds produce identical event orderings, telemetry and final parameters.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Container, Deque, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple, Union,
)

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
        queue (removal would be O(n)) but are silently skipped at dispatch —
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
    #: the event is popped) — lets :meth:`cancel` keep the owning
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

    The queue is keyed by timestamp: a binary heap of the *distinct* pending
    times, and per time a **bucket** holding that instant's events in
    insertion order.  Order stamps are globally monotone, so first-in
    first-out within a bucket *is* ``(time, order)`` order and the pop
    sequence is the one a single heap of ``(time, order, event)`` tuples
    produces (frozen as ``tests/event_queue_reference.py``, held ``==`` by a
    hypothesis state machine); ``0.0`` and ``-0.0`` share a bucket exactly as
    their heap tuples compared equal on time.  A same-instant herd of n
    events then costs one heap operation instead of n, and
    :meth:`pop_run` hands a whole run over as one slice of its bucket.

    A bucket is the lone :class:`Event` itself until a second event arrives
    at its time, and a ``deque`` from then on.  Measured on the
    all-distinct-times mix of ``bench/micro.py::events_mix`` (5.2 ms a pass
    on the single heap, 3.3 ms of it constructing the 6,000 events): a
    ``deque`` per timestamp costs 6.9 ms (+32 %), the promote-on-second-push
    form 5.5 ms (+6 %).

    Cancelled events stay in their bucket as tombstones (eager removal would
    be O(n) each), but the queue tracks them exactly: ``len()`` counts live
    events only, and a cancel that leaves tombstones outnumbering the live
    entries compacts the queue in one O(n) pass — so mass link-reschedule
    cancellations can never bloat it beyond 2x the population that was live
    at the cancel.  The bound is a cancel-time one: a ``pop`` only shrinks the
    queue, so it does not re-run the trigger, and tombstones may outnumber a
    live population that pops have since drained.
    """

    #: Compaction trigger: rebuild once tombstones exceed both this floor and
    #: half the held entries (small queues aren't worth the pass).
    COMPACT_MIN_TOMBSTONES = 16

    def __init__(self) -> None:
        #: Min-heap of the distinct times that have a bucket.
        self._times: List[float] = []
        #: time → that instant's events in push order (see the class note).
        self._buckets: Dict[float, Union[Event, Deque[Event]]] = {}
        self._counter = 0
        self._live = 0
        self._tombstones = 0
        #: High-water mark of the held entries (live + tombstones) over the
        #: queue's lifetime — the benchmark's peak-queue-size metric.
        self.peak_size = 0

    def push(self, event: Event) -> Event:
        """Insert *event*, stamping its tie-break ``order``; returns it."""
        # :meth:`push_many`'s loop body, spelt out: the per-event schedule of
        # a straggler-spread fleet lands here, and going through the batch
        # form cost the all-distinct-times mix 5.2 -> 6.0 ms.
        event.order = self._counter
        event._queue = self
        self._counter += 1
        self._live += 1
        time = event.time
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = event
            heapq.heappush(self._times, time)
        elif type(bucket) is deque:
            bucket.append(event)
        else:
            self._buckets[time] = deque((bucket, event))
        if self._live + self._tombstones > self.peak_size:
            self.peak_size = self._live + self._tombstones
        return event

    def push_many(self, events: Sequence[Event]) -> List[Event]:
        """Insert a batch of events; returns them.

        Order stamps are assigned in sequence, so the result is
        indistinguishable from pushing the events one by one — equal-time
        events still pop in the order they appear in *events*.  Each event
        is one append to its bucket (a heap operation only for a time not
        yet pending), whatever the batch size.
        """
        buckets = self._buckets
        order = self._counter
        for event in events:
            event.order = order
            event._queue = self
            order += 1
            time = event.time
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = event
                heapq.heappush(self._times, time)
            elif type(bucket) is deque:
                bucket.append(event)
            else:
                buckets[time] = deque((bucket, event))
        self._live += order - self._counter
        self._counter = order
        if self._live + self._tombstones > self.peak_size:
            self.peak_size = self._live + self._tombstones
        return list(events)

    def _note_cancel(self) -> None:
        """One live entry became a tombstone; compact when they dominate."""
        self._live -= 1
        self._tombstones += 1
        if (
            self._tombstones > self.COMPACT_MIN_TOMBSTONES
            and self._tombstones > self._live
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and every bucket they emptied (O(n))."""
        buckets: Dict[float, Union[Event, Deque[Event]]] = {}
        for time, bucket in self._buckets.items():
            if type(bucket) is deque:
                live = [event for event in bucket if not event.cancelled]
                if len(live) > 1:
                    buckets[time] = deque(live)
                elif live:
                    buckets[time] = live[0]
            elif not bucket.cancelled:
                buckets[time] = bucket
        self._buckets = buckets
        self._times = list(buckets)
        heapq.heapify(self._times)
        self._tombstones = 0

    def pop(self) -> Event:
        """Remove and return the earliest live event (ties by insertion order).

        Cancelled tombstones are discarded on the way; popping a queue that
        holds only tombstones (or nothing) is a :class:`TrainingError` —
        exactly the emptiness :meth:`peek` reports as ``None``.
        """
        times = self._times
        buckets = self._buckets
        while times:
            event = bucket = buckets[times[0]]
            if type(bucket) is deque:
                event = bucket.popleft()
                if not bucket:
                    del buckets[heapq.heappop(times)]
            else:
                del buckets[heapq.heappop(times)]
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                return event
            self._tombstones -= 1
        raise TrainingError("cannot pop from an empty event queue")

    def pop_run(
        self, budget: float, kinds: Optional[Container[str]] = None
    ) -> List[Event]:
        """Remove and return the earliest live event and its run.

        The run is the live events that follow it with the same ``time`` and
        ``kind`` and nothing live in between, at most *budget* events in all:
        ``pop()``, then ``pop()`` again while under budget and ``peek()``
        shows a head of the same time and kind — taken as one slice of the
        head bucket instead.  A budget of one is exactly :meth:`pop`, and so
        is a head whose kind is not in *kinds* (``None``: every kind runs).
        """
        head = self.peek()
        if head is None:
            raise TrainingError("cannot pop from an empty event queue")
        if budget <= 1 or (kinds is not None and head.kind not in kinds):
            return [self.pop()]
        bucket = self._buckets[self._times[0]]
        if bucket is head:
            head._queue = None
            run = [head]
            exhausted = True
        else:
            kind = head.kind
            run = []
            taken = 0  # bucket entries consumed: the run and the tombstones inside it
            for event in bucket:
                if len(run) >= budget:
                    break
                if not event.cancelled:
                    if event.kind != kind:
                        break
                    event._queue = None
                    run.append(event)
                taken += 1
            self._tombstones -= taken - len(run)
            exhausted = taken == len(bucket)
            if not exhausted:
                for _ in range(taken):
                    bucket.popleft()
        self._live -= len(run)
        if exhausted:
            del self._buckets[heapq.heappop(self._times)]
            if len(run) < budget:
                self.peek()  # under budget, the sequential form peeks at the next bucket
        return run

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it (``None`` when empty).

        Leading tombstones, and the buckets they were all of, are discarded.
        """
        times = self._times
        buckets = self._buckets
        while times:
            event = bucket = buckets[times[0]]
            if type(bucket) is deque:
                event = bucket[0]
                if not event.cancelled:
                    return event
                bucket.popleft()
                if not bucket:
                    del buckets[heapq.heappop(times)]
            elif not event.cancelled:
                return event
            else:
                del buckets[heapq.heappop(times)]
            self._tombstones -= 1
        return None

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
        """Cancelled entries still occupying a bucket slot."""
        return self._tombstones

    def __len__(self) -> int:
        # Live events only: tombstones occupy bucket slots but will never
        # dispatch, so counting them would contradict pop()'s error contract.
        return self._live

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
    :meth:`run_until` then pops the consecutive queue heads sharing the
    first one's ``(time, kind)`` as one run (one :meth:`EventQueue.pop_run`
    slice) and hands the whole list to the run handler; a run of one goes to
    the kind's per-event handler, chosen from the run length alone.  (A run
    of one keeps its own handler because the batched form's numpy call
    overhead at n = 1 measured 1.8x the wall time on a straggler-spread
    1,000-worker fleet, where nearly every run is a run of one.)  The async
    trainer registers all four kinds of the worker round trip — fetch,
    compute, push and arrive.  The ``arrive`` run handler is a loop over the
    per-event admission body, not arrays: a numpy admission path bought
    3-5 % on 1,000-event runs and made the handler 2x slower on the
    4-event runs of a contended WAN fleet.  Bit-identity argument: run
    members are consecutive queue heads, and handlers only ever *push*
    events — every new event is stamped with a higher insertion order than
    the remaining run members and can never pop before them (times in the
    past are rejected), so the per-event loop would have dispatched the run
    back to back anyway.  A run handler must therefore replay its kind's
    per-event effects in pop order wherever an RNG stream or float
    accumulation order is observable, and issue its pushes in the sequence
    the per-event handler would (:meth:`schedule_many` stamps orders like
    sequential :meth:`schedule` calls).
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
        same pop order, same errors).  ``now <= time < inf`` is the whole
        check — the clock never reads below zero, so it subsumes finite and
        non-negative — and with it passed the seven fields are filled
        directly: :class:`Event`'s constructor would re-validate each event
        (a dataclass ``__init__`` and ``__post_init__``, 0.55 us against
        0.17 us).  Nothing is pushed unless every spec is valid.
        """
        events = []
        now = self.clock.now
        for kind, time, worker_id, payload in specs:
            if not now <= time < math.inf:
                if time < now:
                    raise ConfigurationError(
                        f"cannot schedule {kind!r} at {time:.9f}, before now ({now:.9f})"
                    )
                Event(time=time, kind=kind)  # raises: NaN or infinite
            event = object.__new__(Event)
            event.time = float(time)
            event.kind = kind
            event.worker_id = worker_id
            event.payload = payload
            event.order = -1
            event.cancelled = False
            event._queue = None
            events.append(event)
        return self.queue.push_many(events)

    def _pop_run(self, budget: float) -> List[Event]:
        """Pop the next event and its run, advancing the clock to them.

        For a kind with a run handler, the consecutive heads sharing the
        event's ``(time, kind)`` follow it, at most *budget* events in all;
        every other kind pops alone.
        """
        run = self.queue.pop_run(budget, self._run_handlers)
        self.clock.advance_to(run[0].time)
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
