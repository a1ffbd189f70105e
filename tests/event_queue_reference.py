"""The parent commit's ``Event`` / ``EventQueue``, frozen verbatim as a reference oracle.

This is the queue half of ``src/repro/cluster/events.py`` as it stood before
the queue was keyed by timestamp: one binary heap of ``(time, order, event)``
tuples, a ``heappop`` through two method calls per dispatched event, and
``push_many``'s choice between k sifts and one heapify.  It is O(log n) per
event however many events share an instant, and it is the definition of
"pop order" for the bucketed queue under ``src/``:
``tests/test_event_queue_property.py`` drives both with the same random
``push`` / ``push_many`` / ``pop`` / ``pop_run`` / ``peek`` / ``cancel`` /
``drain`` sequences and requires equal (``==``) popped ``(time, order, kind,
worker_id)`` sequences, ``len``, ``bool``, ``pushed``, ``tombstones`` and
``peak_size`` after every operation.  The heap has no ``pop_run``: its
reference is :func:`pop_run`, the pop / peek loop ``EventLoop._pop_run`` ran
on this queue.  Do not edit the class bodies below.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence

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


def pop_run(queue: EventQueue, budget: float) -> List[Event]:
    """The head event and the consecutive live heads sharing its ``(time, kind)``.

    ``pop()``, then ``pop()`` again while the run is under *budget* and
    ``peek()`` shows a head of the same time and kind — the parent
    ``EventLoop._pop_run`` loop, with the budget tested before the peek so a
    budget of one is exactly ``pop()``.
    """
    event = queue.pop()
    run = [event]
    while len(run) < budget:
        head = queue.peek()
        if head is None or head.time != event.time or head.kind != event.kind:
            break
        run.append(queue.pop())
    return run


__all__ = ["Event", "EventQueue", "pop_run"]
