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
  :class:`EventLoop` against the server's versioned model, letting
  staleness and pipelining emerge naturally.  Its fetch / compute / push /
  arrive herds are dispatched as *runs* (see :meth:`EventLoop.on_run`) and
  scheduled as *cohorts* (:meth:`EventLoop.schedule_cohorts`).

The queue is keyed by timestamp — a heap of the distinct pending times, and
per time a *bucket* of that instant's entries in insertion order — because
the workloads are herds: on a homogeneous fleet a round's 1,000 events of a
kind share one float.  A bucket turns their 1,000 heap pops into one run
(:meth:`EventQueue.pop_run`), and a :class:`Cohort` — the 1,000 pushed as one
entry holding their columns — turns their 1,000 event objects into one.
Insertion order within a bucket is ``(time, order)`` order because order
stamps only grow, a cohort of k taking k consecutive ones.

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

import numpy as np

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


def _event(time: float, kind: str, worker_id: int, payload: Any) -> Event:
    """An :class:`Event` of already-validated fields, without the constructor.

    :class:`Event`'s constructor would re-validate the time (a dataclass
    ``__init__`` and ``__post_init__``, 0.55 us against 0.17 us).
    """
    event = object.__new__(Event)
    event.time = time
    event.kind = kind
    event.worker_id = worker_id
    event.payload = payload
    event.order = -1
    event.cancelled = False
    event._queue = None
    return event


def _cohort(time: float, kind: str, worker_ids: List[int], payloads: Any) -> "Cohort":
    """A :class:`Cohort` of already-validated fields, without the constructor (see :func:`_event`)."""
    cohort = object.__new__(Cohort)
    cohort.time = time
    cohort.kind = kind
    cohort.worker_ids = worker_ids
    cohort.payloads = payloads
    cohort.order = -1
    cohort.orders = None
    cohort.times = None
    cohort._start = 0
    return cohort


def _pick(column: Any, index: np.ndarray) -> Any:
    """Entries *index* (an int array) of one payload column, in that order.

    A column is ``None`` (every entry ``None``), a list, an array, or a
    column type that picks by int arrays itself (:class:`Columns`,
    :class:`~repro.cluster.codec.DeliveredFrames`).
    """
    if column is None:
        return None
    if type(column) is list:
        return [column[i] for i in index.tolist()]
    return column[index]


class Columns:
    """A cohort's payloads as parallel columns.

    Member ``i``'s payload is the tuple of every column's ``i``-th entry —
    what the member carries as an :class:`Event` — and an int array picks the
    :class:`Columns` of those members.
    """

    __slots__ = ("columns",)

    def __init__(self, *columns: Any) -> None:
        self.columns = columns

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return tuple(column[index] for column in self.columns)
        return Columns(*(_pick(column, index) for column in self.columns))


def columns_of(payloads: Any) -> tuple:
    """A run's payload columns: a :class:`Columns`' own, else the member tuples transposed."""
    if type(payloads) is Columns:
        return payloads.columns
    return tuple(zip(*payloads))


class Cohort:
    """Events of one kind and one time scheduled together: one queue entry.

    Member ``i`` is the event ``(time, kind, worker_ids[i], payloads[i])``
    with order stamp ``order + i``: the queue stamps a cohort of k with k
    consecutive orders and counts, pops, budgets and peaks it exactly as
    those k events pushed one by one.  *payloads* is ``None`` (every
    member's payload is ``None``), a list or a :class:`Columns`.  A cohort
    is never cancelled.

    Indexing and iteration yield the member events; a run handler reads the
    columns.  A run :meth:`EventQueue.pop_run` joins from several queue
    entries keeps each member's own stamp in ``orders`` and its own time in
    ``times`` (equal floats, but ``0.0`` and ``-0.0`` share an instant).
    """

    __slots__ = (
        "time", "kind", "worker_ids", "payloads", "order", "orders", "times", "_start",
    )
    #: What the queue's tombstone checks read.
    cancelled = False

    def __init__(
        self,
        time: float,
        kind: str,
        worker_ids: List[int],
        payloads: Any = None,
        *,
        order: int = -1,
        orders: Optional[List[int]] = None,
        times: Optional[List[float]] = None,
    ) -> None:
        if not worker_ids:
            raise ConfigurationError("a cohort needs at least one member")
        self.time = float(time)
        if not math.isfinite(self.time) or self.time < 0.0:
            raise ConfigurationError(
                f"event time must be finite and non-negative, got {self.time}"
            )
        self.kind = kind
        self.worker_ids = worker_ids
        self.payloads = payloads
        self.order = order
        self.orders = orders
        self.times = times
        #: Members before this index have been popped.
        self._start = 0

    def __len__(self) -> int:
        return len(self.worker_ids) - self._start

    def __getitem__(self, i: int) -> Event:
        if not 0 <= i < len(self):
            raise IndexError(f"cohort member {i} out of range for {len(self)} members")
        return self._member(self._start + i)

    def __iter__(self) -> Iterator[Event]:
        return (self._member(i) for i in range(self._start, len(self.worker_ids)))

    def _member(self, i: int) -> Event:
        """Member *i* (counted from the first ever pushed) as an :class:`Event`."""
        payloads = self.payloads
        event = _event(
            self.time if self.times is None else self.times[i], self.kind,
            self.worker_ids[i], None if payloads is None else payloads[i],
        )
        event.order = self.order + i if self.orders is None else self.orders[i]
        return event

    def _split(self, count: int) -> "Cohort":
        """Remove the next *count* members; returns them as a cohort of their own.

        The whole of an untouched cohort is the cohort itself (the caller
        drops the entry); any other count is a new cohort over slices.
        """
        start = self._start
        if start == 0 and count == len(self.worker_ids):
            return self
        stop = self._start = start + count
        return Cohort(
            self.time, self.kind, self.worker_ids[start:stop],
            _pick(self.payloads, np.arange(start, stop)), order=self.order + start,
            orders=None if self.orders is None else self.orders[start:stop],
            times=None if self.times is None else self.times[start:stop],
        )


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
    :meth:`pop_run` hands a whole run over as one slice of its bucket.  A
    :class:`Cohort` is one bucket entry for its k members and pops, counts
    and peaks as they would (held ``==`` by the same state machine, which
    feeds the frozen heap each member in turn).

    A bucket is the lone entry itself until a second one arrives at its
    time, and a ``deque`` from then on.  Measured on the
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

    def push_many(self, events: Sequence[Union[Event, Cohort]]) -> Sequence[Union[Event, Cohort]]:
        """Insert a batch of events and cohorts; returns *events*.

        Order stamps are assigned in sequence, a cohort of k taking k, so the
        result is indistinguishable from pushing every member one by one —
        equal-time events still pop in the order they appear in *events*.
        Each entry is one append to its bucket (a heap operation only for a
        time not yet pending), whatever the batch or cohort size.
        """
        buckets = self._buckets
        order = self._counter
        for event in events:
            event.order = order
            if type(event) is Cohort:
                order += len(event.worker_ids)
            else:
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
        return events

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
        exactly the emptiness :meth:`peek` reports as ``None``.  A cohort at
        the head gives up its next member.
        """
        times = self._times
        buckets = self._buckets
        while times:
            event = bucket = buckets[times[0]]
            if type(bucket) is deque:
                event = bucket[0]
                if type(event) is Cohort and len(event) > 1:
                    return self._pop_member(event)
                bucket.popleft()
                if not bucket:
                    del buckets[heapq.heappop(times)]
            elif type(event) is Cohort and len(event) > 1:
                return self._pop_member(event)
            else:
                del buckets[heapq.heappop(times)]
            if type(event) is Cohort:
                return self._pop_member(event)  # its last member: the entry is gone
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                return event
            self._tombstones -= 1
        raise TrainingError("cannot pop from an empty event queue")

    def _pop_member(self, cohort: Cohort) -> Event:
        """Remove the next member of the head *cohort* as an :class:`Event`."""
        event = cohort._member(cohort._start)
        cohort._start += 1
        self._live -= 1
        return event

    def pop_run(
        self, budget: float, kinds: Optional[Container[str]] = None
    ) -> Union[Event, Cohort]:
        """Remove and return the earliest live event and its run.

        The run is the live events that follow it with the same ``time`` and
        ``kind`` and nothing live in between, at most *budget* events in all
        (at least one): ``pop()``, then ``pop()`` again while under budget
        and ``peek()`` shows a head of the same time and kind — taken as
        whole entries of the head bucket instead, a cohort split where the
        budget falls inside it.  The run is one :class:`Cohort`, a run of one
        included: a single entry's members as they were pushed, the members
        of several joined into per-member columns.  A head whose kind is not
        in *kinds* (``None``: every kind runs) is exactly :meth:`pop`'s
        :class:`Event`.
        """
        head = self._head()
        if head is None:
            raise TrainingError("cannot pop from an empty event queue")
        if kinds is not None and head.kind not in kinds:
            return self.pop()
        if budget < 1:
            budget = 1
        bucket = self._buckets[self._times[0]]
        if bucket is head:
            if type(head) is Cohort:
                size = len(head.worker_ids) - head._start
                if size > budget:
                    size = int(budget)
                segments = [head._split(size)]
                exhausted = segments[0] is head or head._start == len(head.worker_ids)
            else:
                size, segments, exhausted = 1, [head], True
        else:
            kind = head.kind
            segments = []  # the run's events and cohort slices, in pop order
            size = 0  # members taken
            taken = 0  # bucket entries consumed: the run's and the tombstones inside it
            for entry in bucket:
                if size >= budget:
                    break
                if entry.cancelled:
                    self._tombstones -= 1
                elif entry.kind != kind:
                    break
                elif type(entry) is Cohort:
                    count = len(entry)
                    if size + count > budget:
                        count = int(budget) - size
                    segments.append(entry._split(count))
                    size += count
                    if len(entry) and segments[-1] is not entry:
                        break  # the budget fell inside it: it stays at the head
                else:
                    segments.append(entry)
                    size += 1
                taken += 1
            exhausted = taken == len(bucket)
            if not exhausted:
                for _ in range(taken):
                    bucket.popleft()
        self._live -= size
        if exhausted:
            del self._buckets[heapq.heappop(self._times)]
            if size < budget:
                self._head()  # under budget, the sequential form peeks at the next bucket
        if len(segments) > 1:
            return self._join(segments)
        run = segments[0]
        if type(run) is Cohort:
            return run
        run._queue = None
        cohort = _cohort(run.time, run.kind, [run.worker_id], [run.payload])
        cohort.order = run.order
        return cohort

    @staticmethod
    def _join(segments: List[Union[Event, Cohort]]) -> Cohort:
        """One cohort of a run taken from several entries, each member's stamp and time kept."""
        events: List[Event] = []
        for segment in segments:
            if type(segment) is Cohort:
                events.extend(segment)
            else:
                segment._queue = None
                events.append(segment)
        first = events[0]
        return Cohort(
            first.time, first.kind, [event.worker_id for event in events],
            [event.payload for event in events], order=first.order,
            orders=[event.order for event in events], times=[event.time for event in events],
        )

    def _head(self) -> Optional[Union[Event, Cohort]]:
        """The earliest live entry (an event or a cohort), or ``None``.

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

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it (``None`` when empty).

        Leading tombstones, and the buckets they were all of, are discarded.
        A cohort at the head shows its next member.
        """
        head = self._head()
        return head[0] if type(head) is Cohort else head

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest live event (``None`` when empty)."""
        head = self._head()
        return head.time if head is not None else None

    def drain(self) -> Iterator[Event]:
        """Pop every queued live event in deterministic order."""
        while self._head() is not None:
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
        return self._head() is not None

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

    A kind registers either a per-event handler with :meth:`on` or a *run
    handler* with :meth:`on_run`, never both: a kind has exactly one
    handler.  For a run kind, every dispatch pops the consecutive queue
    heads sharing the first one's ``(time, kind)`` as one run (one
    :meth:`EventQueue.pop_run`) and hands it over as one :class:`Cohort` —
    a run of one included, whatever the budget, so :meth:`step` and the
    last event of a :meth:`run_until` budget reach the same handler.  The
    async trainer registers all five kinds it dispatches in herds — fetch,
    compute, push, arrive and link — and its run handlers emit cohorts in
    turn (:meth:`schedule_cohorts`), so a same-instant herd of n workers is
    one queue entry per stage, not n events.  A cohort's payloads are
    columns: the ``arrive`` handler decodes its cohort's frames in one batch
    and admits each stretch of plain arrivals with one bulk write, and the
    ``link`` handler sweeps the pipes completing at one instant, its
    hand-offs and reschedules one :meth:`schedule_many` push.
    Bit-identity argument: run members are consecutive queue heads, and
    handlers only ever *push* events — every new event is stamped with a
    higher insertion order than the remaining run members and can never pop
    before them (times in the past are rejected), so dispatching them one
    by one would have run them back to back anyway.  A run handler must
    therefore replay its members' effects in pop order wherever an RNG
    stream or float accumulation order is observable, and issue its pushes
    so that every equal-time pair pops in the order one-by-one dispatch
    would push them (:meth:`schedule_many` stamps orders like sequential
    :meth:`schedule` calls; :meth:`schedule_cohorts` keeps the given order
    among equal times, which is all a stamp decides).
    """

    clock: SimulatedClock = field(default_factory=SimulatedClock)
    queue: EventQueue = field(default_factory=EventQueue)
    #: Optional :class:`~repro.cluster.profiler.SimProfiler`: when set, the
    #: queue mechanics of each dispatch (pops, peeks and the clock advance)
    #: are accounted under its ``event_dispatch`` subsystem.
    profiler: Optional[Any] = None

    def __post_init__(self) -> None:
        self._handlers: Dict[str, Callable[[Event], None]] = {}
        self._run_handlers: Dict[str, Callable[[Cohort], None]] = {}

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register *handler* for events of *kind* (one handler per kind)."""
        existing = self._handlers.get(kind)
        if existing is not None and existing is not handler:
            raise ConfigurationError(f"event kind {kind!r} already has a handler")
        if kind in self._run_handlers:
            raise ConfigurationError(f"event kind {kind!r} already has a run handler")
        self._handlers[kind] = handler

    def on_run(self, kind: str, handler: Callable[[Cohort], None]) -> None:
        """Register *handler* for every same-``(time, kind)`` run, a run of one included.

        Same one-per-kind contract as :meth:`on`, and a kind with a
        per-event handler cannot take a run handler too.
        """
        existing = self._run_handlers.get(kind)
        if existing is not None and existing is not handler:
            raise ConfigurationError(f"event kind {kind!r} already has a run handler")
        if kind in self._handlers:
            raise ConfigurationError(f"event kind {kind!r} already has a handler")
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
        non-negative — and with it passed the fields are filled directly
        (:func:`_event`).  Nothing is pushed unless every spec is valid.
        """
        events = []
        now = self.clock.now
        for kind, time, worker_id, payload in specs:
            if not now <= time < math.inf:
                self._refuse(kind, time)
            events.append(_event(float(time), kind, worker_id, payload))
        return self.queue.push_many(events)

    def schedule_cohorts(
        self, kind: str, times: Any, worker_ids: List[int], payloads: Any = None
    ) -> None:
        """Queue one *kind* event per worker at ``times[i]`` carrying ``payloads[i]``.

        *times* is an array, or one time for every member.  The members
        sharing a time become one :class:`Cohort` in their given order (a
        time held by one member a cohort of one), distinct times in
        increasing order.  Pop order is that of :meth:`schedule_many`
        over the members in the given order: a stamp only breaks ties
        between equal times, and equal-time members keep their relative
        order.  Same refusals as :meth:`schedule_many`; nothing is pushed
        unless every time is valid.
        """
        if type(times) is not np.ndarray or not times.ndim:
            low = high = float(times)
        elif len(worker_ids) == 1:  # one member's time needs no reduction
            low = high = float(times[0])
        else:
            low, high = float(times.min()), float(times.max())
        if not self.clock.now <= low <= high < math.inf:
            for bound in (low, high):
                if not self.clock.now <= bound < math.inf:
                    self._refuse(kind, bound)
        if low == high:
            self.queue.push_many([_cohort(low, kind, worker_ids, payloads)])
            return
        order = np.argsort(times, kind="stable")
        ordered = times[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]]).tolist()
        entries: List[Cohort] = []
        for start, stop in zip(starts, starts[1:] + [len(order)]):
            index = order[start:stop]
            entries.append(_cohort(
                float(ordered[start]), kind, [worker_ids[i] for i in index.tolist()],
                _pick(payloads, index),
            ))
        self.queue.push_many(entries)

    def _refuse(self, kind: str, time: float) -> None:
        """Raise what :meth:`schedule` raises for *time*: in the past, NaN or infinite."""
        if time < self.clock.now:
            raise ConfigurationError(
                f"cannot schedule {kind!r} at {time:.9f}, before now ({self.clock.now:.9f})"
            )
        Event(time=time, kind=kind)  # raises: NaN or infinite

    def _dispatch(self, budget: float) -> Union[Event, Cohort]:
        """Pop one run of at most *budget* events and hand it to its handler.

        For a kind with a run handler, the consecutive heads sharing the
        first event's ``(time, kind)`` follow it, at most *budget* events in
        all, and the run handler takes them as one :class:`Cohort`; every
        other kind pops alone, to its per-event handler.  The queue
        mechanics (the pop and the clock advance) are the profiler's
        ``event_dispatch``.
        """
        if self.profiler is None:
            run = self.queue.pop_run(budget, self._run_handlers)
            self.clock.advance_to(run.time)
        else:
            with self.profiler.section("event_dispatch"):
                run = self.queue.pop_run(budget, self._run_handlers)
                self.clock.advance_to(run.time)
        if type(run) is Cohort:
            self._run_handlers[run.kind](run)
            return run
        handler = self._handlers.get(run.kind)
        if handler is None:
            raise ConfigurationError(f"no handler registered for event kind {run.kind!r}")
        handler(run)
        return run

    def step(self) -> Union[Event, Cohort]:
        """Pop the next event, advance the clock to it, dispatch its handler.

        Returns the event, or for a run kind the cohort of one holding it.
        """
        return self._dispatch(1)

    def run_until(
        self, done: Callable[[], bool], *, max_events: Optional[int] = None
    ) -> int:
        """Dispatch events until *done()* holds; returns the number dispatched.

        ``max_events`` guards against livelock (an event loop that keeps
        scheduling work without ever satisfying the predicate — e.g. every
        gradient dropped by a fully lossy transport); it also caps a run,
        so no more than ``max_events`` events are ever popped.  A cohort
        counts its members.
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
            run = self._dispatch(budget)
            dispatched += len(run.worker_ids) if type(run) is Cohort else 1
        return dispatched


__all__ = ["Event", "Cohort", "Columns", "EventQueue", "EventLoop", "columns_of"]
