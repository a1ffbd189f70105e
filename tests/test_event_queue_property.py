"""Property-based tests for the event queue's tombstone bookkeeping.

The queue keeps cancelled events in the heap as tombstones (eager removal
would be O(n) per cancel) and compacts lazily once they dominate.  That
bookkeeping has to be airtight under *any* interleaving of push / cancel /
pop / peek: a cancelled event must never dispatch, ``len()`` must always
count live events only, and the lazy compaction must keep the heap within a
constant factor of the population that was live at the last cancel.  Hypothesis drives the queue with
random operation sequences against a plain-list shadow model, and — the
state machine at the end — against the single-heap queue it replaced, frozen
as ``tests/event_queue_reference.py``, which is fed every member of a
:class:`~repro.cluster.events.Cohort` push one event at a time.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.events import Cohort, Columns, Event, EventLoop, EventQueue
from repro.exceptions import TrainingError
from tests import event_queue_reference as reference

_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times),
        st.tuples(st.just("push_many"), st.lists(_times, min_size=0, max_size=5)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=2**32)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("peek"), st.none()),
    ),
    max_size=150,
)


def _cancel_time_bound(queue):
    """What ``_note_cancel`` guarantees the moment a cancel returns.

    No compaction means ``tombstones <= floor`` or ``2 * tombstones <= heap``,
    i.e. tombstones are at most the floor or the live count.  It is a
    cancel-time bound by design: ``pop`` never creates a tombstone and only
    shrinks the heap, so it does not re-run the trigger, and the live count
    may later fall below the tombstones it left behind — which can then only
    go down until the next cancel.
    """
    return max(queue.COMPACT_MIN_TOMBSTONES, len(queue))


def _cancel(queue, event, bound):
    """Cancel *event*; the bound in force afterwards (a no-op cancel keeps *bound*)."""
    fresh = not (event.cancelled or event._popped)
    event.cancel()
    if fresh:
        bound = _cancel_time_bound(queue)
        assert queue.tombstones <= bound, "a cancel left the trigger unevaluated"
    return bound


def _live_order(events):
    """The shadow model's dispatch order: live events by (time, order)."""
    return sorted(
        (e for e in events if not e.cancelled and e._popped is False),
        key=lambda e: (e.time, e.order),
    )


@settings(max_examples=120, deadline=None)
@given(ops=_operations)
def test_interleaved_push_cancel_pop_peek_never_yields_a_cancelled_event(ops):
    queue = EventQueue()
    pushed = []  # every event ever pushed, in push order
    bound = queue.COMPACT_MIN_TOMBSTONES  # as of the most recent cancel

    def register(event):
        event._popped = False
        pushed.append(event)

    for name, arg in ops:
        if name == "push":
            register(queue.push(Event(time=arg, kind="test")))
        elif name == "push_many":
            for event in queue.push_many([Event(time=t, kind="test") for t in arg]):
                register(event)
        elif name == "cancel" and pushed:
            # Cancelling an already-popped or already-cancelled event must be
            # a harmless no-op, so the strategy picks from *all* events.
            bound = _cancel(queue, pushed[arg % len(pushed)], bound)
        elif name == "pop":
            live = _live_order(pushed)
            if not live:
                with pytest.raises(TrainingError):
                    queue.pop()
            else:
                event = queue.pop()
                assert not event.cancelled
                assert event is live[0], "pop order diverged from (time, order)"
                event._popped = True
        elif name == "peek":
            live = _live_order(pushed)
            head = queue.peek()
            if not live:
                assert head is None
                assert queue.peek_time() is None
            else:
                assert head is live[0]
                assert not head.cancelled
                assert queue.peek_time() == head.time

        # Invariants, checked after every single operation:
        live = _live_order(pushed)
        assert len(queue) == len(live), "len() must count live events only"
        assert bool(queue) == bool(live)
        assert queue.pushed == len(pushed)
        # Lazy compaction bound: tombstones may linger below the trigger
        # floor, but can never outnumber the population that was live at the
        # most recent cancel (pops in between only ever lower the count).
        assert queue.tombstones <= bound, "tombstones escaped the compaction bound"

    # Drain what's left: every remaining live event, in order, none cancelled.
    remaining = list(queue.drain())
    expected = _live_order(pushed)
    assert remaining == expected
    assert all(not event.cancelled for event in remaining)
    assert len(queue) == 0 and queue.peek() is None


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(_times, min_size=1, max_size=60),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=60),
    seed=st.integers(0, 2**31),
)
def test_mass_cancellation_compacts_the_heap(times, cancel_mask, seed):
    """Cancelling any subset leaves a heap bounded by the live population."""
    queue = EventQueue()
    events = queue.push_many([Event(time=t, kind="test") for t in times])
    cancelled = set()
    for i, event in enumerate(events):
        if cancel_mask[i % len(cancel_mask)]:
            event.cancel()
            cancelled.add(id(event))
    live = [e for e in events if id(e) not in cancelled]
    assert len(queue) == len(live)
    drained = list(queue.drain())
    assert drained == sorted(live, key=lambda e: (e.time, e.order))
    assert queue.tombstones == 0 or queue.peek() is None


@settings(max_examples=100, deadline=None)
@given(
    rounds=st.lists(
        st.tuples(
            st.lists(_times, min_size=0, max_size=30),  # push_many batch
            st.lists(st.integers(0, 2**32), max_size=30),  # cancel picks
            st.integers(0, 8),  # pops
        ),
        min_size=2,
        max_size=10,
    )
)
@example(
    # Found by hypothesis on untouched events.py: the two pops of the last
    # round drain live events after the last cancel, ending on 15 live, 17
    # tombstones — legal under the cancel-time bound, but it broke the
    # ``tombstones <= max(floor, live + 1)`` this test used to assert after pops.
    rounds=[
        ([0.0] + [1.0] * 10 + [0.0] + [1.0] * 4, [0, 3, 4, 5, 6, 7, 12], 0),
        ([0.0] * 9, [310, 322, 13327, 4294967295], 3),
        ([0.0] * 9, [14, 15, 21, 42, 77, 81], 0),
        ([0.0] * 4, [1], 2),
    ]
)
def test_cancel_push_many_interleavings_preserve_order_across_compaction(rounds):
    """Pop order survives lazy compactions triggered mid-sequence.

    The batched async drain leans on exactly this: it cancels elided link
    events and re-inserts follow-ups via ``push_many``, trusting that a
    compaction firing between the two leaves the (time, order) pop sequence
    untouched.  The round sizes here (up to 30 pushes / 30 cancels) push
    tombstone counts across ``COMPACT_MIN_TOMBSTONES`` routinely, so many
    examples exercise the boundary in both directions.
    """
    queue = EventQueue()
    pushed = []
    bound = queue.COMPACT_MIN_TOMBSTONES  # as of the most recent cancel
    for times, cancels, pops in rounds:
        for event in queue.push_many([Event(time=t, kind="test") for t in times]):
            event._popped = False
            pushed.append(event)
        for pick in cancels:
            if pushed:
                bound = _cancel(queue, pushed[pick % len(pushed)], bound)
        for _ in range(pops):
            live = _live_order(pushed)
            if not live:
                break
            event = queue.pop()
            assert event is live[0], "pop order diverged after cancel/push_many"
            event._popped = True
        live = _live_order(pushed)
        assert len(queue) == len(live)
        assert queue.tombstones <= bound  # pops never add a tombstone
    assert list(queue.drain()) == _live_order(pushed)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_push_many_of_any_size_equals_sequential_pushes(data):
    """``push_many`` of any batch size leaves the queue sequential pushes would.

    Batch sizes run from 1 up to several times the live size, with pops
    between the batches.  Against a twin queue fed by sequential ``push``
    calls the order stamps, the high-water mark and the whole pop sequence
    must be equal.
    """
    batched, sequential = EventQueue(), EventQueue()
    for _ in range(data.draw(st.integers(1, 8))):
        size = data.draw(st.integers(1, max(4, 4 * len(batched))))
        times = data.draw(st.lists(_times, min_size=size, max_size=size))
        got = batched.push_many([Event(time=t, kind="test") for t in times])
        want = [sequential.push(Event(time=t, kind="test")) for t in times]
        assert [e.order for e in got] == [e.order for e in want]
        assert batched.peak_size == sequential.peak_size
        assert len(batched) == len(sequential)
        for _ in range(data.draw(st.integers(0, len(batched)))):
            a, b = batched.pop(), sequential.pop()
            assert (a.time, a.order) == (b.time, b.order)
    assert [(e.time, e.order) for e in batched.drain()] == [
        (e.time, e.order) for e in sequential.drain()
    ]


def test_one_event_batches_into_a_large_queue(time_limit):
    """2,000 one-event ``push_many`` calls into a 5,000-entry queue stay cheap.

    On a straggler-spread async fleet nearly every run is a run of one, so a
    one-event batch must cost O(log n), never O(queue) (re-heapifying the
    single heap per call was once a third of that fleet's host time).
    """
    queue = EventQueue()
    queue.push_many([Event(time=float(i % 97), kind="test") for i in range(5000)])
    with time_limit():
        for i in range(2000):
            queue.push_many([Event(time=float(i % 89) + 0.5, kind="test")])
    assert queue.peak_size == len(queue) == 7000
    drained = [(e.time, e.order) for e in queue.drain()]
    assert drained == sorted(drained)


def test_compaction_fires_at_the_boundary_and_preserves_order():
    """Engineered crossing: one cancel trips compaction, order is unchanged.

    ``_note_cancel`` compacts once ``tombstones > COMPACT_MIN_TOMBSTONES``
    and tombstones outnumber half the heap.  With 20 pushed events, the
    17th cancel is the first to satisfy both — the heap must shrink to the
    3 live events on the spot, and a subsequent ``push_many`` of
    earlier-timed events must still pop first.
    """
    queue = EventQueue()
    floor = queue.COMPACT_MIN_TOMBSTONES
    events = queue.push_many(
        [Event(time=10.0 + i, kind="test") for i in range(floor + 4)]
    )
    for event in events[: floor]:
        event.cancel()
    assert queue.tombstones == floor  # at the floor: not yet compacted
    events[floor].cancel()  # trips both conditions
    assert queue.tombstones == 0, "compaction should have fired"
    assert len(queue) == 3
    early = queue.push_many([Event(time=0.5, kind="test"), Event(time=0.25, kind="test")])
    drained = list(queue.drain())
    assert drained == [early[1], early[0]] + list(events[floor + 1 :])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_schedule_cohorts_pops_like_schedule_many_of_its_members(data):
    """A herd grouped by time pops in the order its per-member schedule gives.

    Both loops hold the same queued events (equal-time ones of both kinds
    among them) and then schedule one herd, its times drawn with repeats and
    with ``now`` among them; the cohort side also pushes fewer entries.
    """
    instants = [1.0, 2.0, 2.5, 3.0]
    prior = data.draw(
        st.lists(st.tuples(st.sampled_from(instants), st.sampled_from("ab")), max_size=6)
    )
    size = data.draw(st.integers(1, 12))
    times = data.draw(st.lists(st.sampled_from(instants), min_size=size, max_size=size))
    shared = data.draw(st.booleans())  # one time for every member
    payloads = Columns(list(range(100, 100 + size)), np.arange(size) * 1.5)
    grouped, per_member = EventLoop(), EventLoop()
    for loop in (grouped, per_member):
        loop.clock.advance_to(1.0)
        loop.schedule_many([(kind, time, -1, None) for time, kind in prior])
    grouped.schedule_cohorts(
        "a", times[0] if shared else np.array(times), list(range(size)), payloads
    )
    per_member.schedule_many(
        ("a", times[0] if shared else times[i], i, payloads[i]) for i in range(size)
    )
    assert grouped.queue.pushed == per_member.queue.pushed
    assert len(grouped.queue) == len(per_member.queue)
    assert [(e.time, e.kind, e.worker_id, e.payload) for e in grouped.queue.drain()] == [
        (e.time, e.kind, e.worker_id, e.payload) for e in per_member.queue.drain()
    ]


def _key(event):
    """What must agree between the two queues' events (the sign of zero too)."""
    return (
        event.time, math.copysign(1.0, event.time), event.order, event.kind,
        event.worker_id,
    )


#: Herds: three timestamps, two of which (``0.0`` / ``-0.0``) are one instant.
_herd_times = st.sampled_from([0.0, -0.0, 1.0])
#: All but distinct: the lone-event side of the bucket representation.
_spread_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_specs = st.tuples(st.one_of(_herd_times, _spread_times), st.sampled_from("ab"))


class QueueAgainstFrozenHeap(RuleBasedStateMachine):
    """The bucketed queue and the frozen single heap, fed the same operations.

    Every rule applies one public operation to both and compares what it
    returns; after every rule the observable counters must be equal.  Two
    kinds let a run end inside a herd; cancels pick from every event ever
    pushed, so live, already-cancelled and already-popped events are all hit.
    """

    def __init__(self):
        super().__init__()
        self.live = EventQueue()
        self.frozen = reference.EventQueue()
        self.pushed = []  # (live event, frozen event) in push order
        self.members = []  # (time, kind, worker id) of every cohort-push member

    def _make(self, specs):
        start = len(self.pushed) + len(self.members)
        pairs = [
            (
                Event(time=time, kind=kind, worker_id=start + i),
                reference.Event(time=time, kind=kind, worker_id=start + i),
            )
            for i, (time, kind) in enumerate(specs)
        ]
        self.pushed.extend(pairs)
        return [a for a, _ in pairs], [b for _, b in pairs]

    @rule(spec=_specs)
    def push(self, spec):
        (a,), (b,) = self._make([spec])
        assert self.live.push(a) is a
        self.frozen.push(b)
        assert _key(a) == _key(b)

    @rule(data=st.data())
    def push_many(self, data):
        # From one event to several times the live size (capped: sizes compound).
        size = data.draw(st.integers(1, min(64, max(4, 3 * len(self.live)))))
        herd = data.draw(st.booleans())
        times = _herd_times if herd else _spread_times
        specs = data.draw(
            st.lists(st.tuples(times, st.sampled_from("ab")), min_size=size, max_size=size)
        )
        mine, theirs = self._make(specs)
        got = self.live.push_many(mine)
        want = self.frozen.push_many(theirs)
        assert [_key(e) for e in got] == [_key(e) for e in want]

    @rule(data=st.data())
    def push_cohorts(self, data):
        """Cohorts and events of mixed kinds and times in one ``push_many`` call.

        Herd times make equal-time entries of alternating kinds common — the
        zero-delay interleavings (an ``arrive`` cohort, then a ``fetch`` one,
        at the same instant).  The frozen heap gets every member, in order,
        one ``push`` at a time.
        """
        entries, members = [], []
        for _ in range(data.draw(st.integers(1, 4))):
            time = data.draw(st.one_of(_herd_times, _spread_times))
            kind = data.draw(st.sampled_from("ab"))
            size = data.draw(st.integers(1, 8))
            start = len(self.pushed) + len(self.members) + len(members)
            ids = list(range(start, start + size))
            if data.draw(st.booleans()):
                entries.append(Cohort(time, kind, ids, [f"p{i}" for i in ids]))
            else:
                entries.extend(
                    Event(time=time, kind=kind, worker_id=i, payload=f"p{i}") for i in ids
                )
            members.extend((time, kind, i) for i in ids)
        self.members.extend(members)
        assert self.live.push_many(entries) == entries
        for time, kind, worker_id in members:
            self.frozen.push(
                reference.Event(time=time, kind=kind, worker_id=worker_id, payload=f"p{worker_id}")
            )

    @rule()
    def pop(self):
        if not len(self.frozen):
            with pytest.raises(TrainingError):
                self.frozen.pop()
            with pytest.raises(TrainingError):
                self.live.pop()
        else:
            got, want = self.live.pop(), self.frozen.pop()
            assert _key(got) == _key(want) and got.payload == want.payload

    @rule(
        budget=st.one_of(st.integers(1, 6), st.just(math.inf)),
        kinds=st.sampled_from([None, "a", "b", ""]),
    )
    def pop_run(self, budget, kinds):
        if not len(self.frozen):
            with pytest.raises(TrainingError):
                self.live.pop_run(budget, kinds)
            return
        run = self.live.pop_run(budget, kinds)
        got = [run] if isinstance(run, Event) else list(run)
        alone = kinds is not None and self.frozen.peek().kind not in kinds
        if alone:
            budget = 1  # a kind without a run handler pops alone
        want = reference.pop_run(self.frozen, budget)
        # A run kind's run is one cohort, a run of one included; any other
        # kind pops as its event.
        assert isinstance(run, Event) == alone
        assert [_key(e) for e in got] == [_key(e) for e in want]
        assert [e.payload for e in got] == [e.payload for e in want]
        assert all(e._queue is None for e in got)

    @rule()
    def peek(self):
        head, want = self.live.peek(), self.frozen.peek()
        assert (head is None) == (want is None)
        if head is not None:
            assert _key(head) == _key(want)
        assert self.live.peek_time() == self.frozen.peek_time()

    @precondition(lambda self: self.pushed)
    @rule(pick=st.integers(min_value=0))
    def cancel(self, pick):
        a, b = self.pushed[pick % len(self.pushed)]
        a.cancel()
        b.cancel()
        assert a.cancelled and b.cancelled

    @rule()
    def drain(self):
        assert [_key(e) for e in self.live.drain()] == [
            _key(e) for e in self.frozen.drain()
        ]

    @invariant()
    def counters_agree(self):
        # Before ``bool()``: it peeks, which discards leading tombstones.
        assert self.live.tombstones == self.frozen.tombstones
        assert self.live.peak_size == self.frozen.peak_size
        assert len(self.live) == len(self.frozen)
        assert self.live.pushed == self.frozen.pushed
        assert bool(self.live) == bool(self.frozen)
        assert self.live.tombstones == self.frozen.tombstones


TestQueueAgainstFrozenHeap = QueueAgainstFrozenHeap.TestCase
TestQueueAgainstFrozenHeap.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
