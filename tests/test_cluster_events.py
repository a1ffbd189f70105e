"""Tests for the discrete-event simulation core (repro.cluster.events)."""

import math

import numpy as np
import pytest

from repro.cluster.clock import SimulatedClock
from repro.cluster.events import Event, EventLoop, EventQueue
from repro.exceptions import ConfigurationError, TrainingError


class TestEvent:
    def test_rejects_negative_and_non_finite_times(self):
        with pytest.raises(ConfigurationError):
            Event(time=-1.0, kind="x")
        with pytest.raises(ConfigurationError):
            Event(time=float("nan"), kind="x")
        with pytest.raises(ConfigurationError):
            Event(time=float("inf"), kind="x")


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        for t in (3.0, 1.0, 2.0):
            queue.push(Event(time=t, kind="x"))
        assert [queue.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_equal_times_pop_in_push_order(self):
        queue = EventQueue()
        for index in range(50):
            queue.push(Event(time=1.0, kind="x", payload=index))
        assert [queue.pop().payload for _ in range(50)] == list(range(50))

    def test_push_stamps_monotone_order(self):
        queue = EventQueue()
        first = queue.push(Event(time=5.0, kind="x"))
        second = queue.push(Event(time=0.0, kind="x"))
        assert (first.order, second.order) == (0, 1)
        assert queue.pushed == 2

    def test_pop_empty_raises(self):
        with pytest.raises(TrainingError):
            EventQueue().pop()

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek() is None and queue.peek_time() is None
        assert not queue
        event = queue.push(Event(time=2.5, kind="x"))
        assert queue.peek() is event
        assert queue.peek_time() == 2.5
        assert len(queue) == 1

    def test_drain_is_deterministic(self):
        rng = np.random.default_rng(7)
        times = rng.exponential(1.0, size=40)
        orders = []
        for _ in range(2):
            queue = EventQueue()
            for index, t in enumerate(times):
                queue.push(Event(time=float(t), kind="x", payload=index))
            orders.append([e.payload for e in queue.drain()])
        assert orders[0] == orders[1]

    def test_pop_run_takes_the_head_and_its_same_time_and_kind_followers(self):
        queue = EventQueue()
        queue.push_many(
            [Event(time=1.0, kind=kind, worker_id=i) for i, kind in enumerate("aaabaa")]
        )
        assert [e.worker_id for e in queue.pop_run(math.inf)] == [0, 1, 2]
        assert [e.worker_id for e in queue.pop_run(math.inf, kinds={"a"})] == [3]
        assert [e.worker_id for e in queue.pop_run(1)] == [4]
        assert [e.worker_id for e in queue.pop_run(math.inf, kinds={"a"})] == [5]
        with pytest.raises(TrainingError):
            queue.pop_run(math.inf)


class TestClockAuthority:
    def test_advance_to_is_monotone(self):
        clock = SimulatedClock()
        clock.advance_to(1.5)
        clock.advance_to(1.5)  # no-op jump to the same instant is fine
        assert clock.now == 1.5
        with pytest.raises(ConfigurationError):
            clock.advance_to(1.0)

    def test_loop_advances_clock_to_each_event(self):
        loop = EventLoop()
        seen = []
        loop.on("tick", lambda e: seen.append(loop.clock.now))
        loop.schedule("tick", 0.5)
        loop.schedule("tick", 0.25)
        loop.step()
        loop.step()
        assert seen == [0.25, 0.5]
        assert loop.clock.now == 0.5

    def test_schedule_in_the_past_rejected(self):
        loop = EventLoop()
        loop.on("tick", lambda e: None)
        loop.schedule("tick", 1.0)
        loop.step()
        with pytest.raises(ConfigurationError):
            loop.schedule("tick", 0.5)

    @pytest.mark.parametrize("bad,message", [
        (0.5, r"cannot schedule 'tick' at 0\.500000000, before now \(1\.000000000\)"),
        # The clock never reads below zero, so a negative time is always a
        # time in the past and is reported as one.
        (-1.0, r"cannot schedule 'tick' at -1\.000000000, before now \(1\.000000000\)"),
        (float("nan"), "event time must be finite and non-negative, got nan"),
        (float("inf"), "event time must be finite and non-negative, got inf"),
    ])
    def test_bad_times_are_refused_and_leave_the_queue_untouched(self, bad, message):
        """``schedule`` and ``schedule_many`` refuse alike, before pushing anything.

        The batch puts the bad spec *second*: the valid event before it is
        built but must not be pushed, and the order counter must not move.
        """
        loop = EventLoop()
        loop.on("tick", lambda e: None)
        loop.schedule("tick", 1.0)
        loop.step()
        kept = loop.schedule("tick", 2.0)
        for attempt in (
            lambda: loop.schedule("tick", bad),
            lambda: loop.schedule_many([("tick", 3.0, 1, None), ("tick", bad, 2, None)]),
        ):
            with pytest.raises(ConfigurationError, match=message):
                attempt()
            assert len(loop.queue) == 1 and loop.queue.pushed == 2
            assert loop.queue.peek() is kept
        assert loop.schedule("tick", 3.0).order == 2

    def test_schedule_many_builds_the_events_the_constructor_would(self):
        loop = EventLoop()
        built = loop.schedule_many([("a", 1, 4, "x"), ("b", np.float64(0.5), -1, None)])
        assert built == [
            Event(time=1.0, kind="a", worker_id=4, payload="x", order=0),
            Event(time=0.5, kind="b", order=1),
        ]
        assert all(type(e.time) is float and e._queue is loop.queue for e in built)

    def test_unhandled_kind_rejected(self):
        loop = EventLoop()
        loop.queue.push(Event(time=0.0, kind="mystery"))
        with pytest.raises(ConfigurationError, match="no handler"):
            loop.step()

    def test_duplicate_handler_rejected(self):
        loop = EventLoop()
        loop.on("tick", lambda e: None)
        with pytest.raises(ConfigurationError, match="already has a handler"):
            loop.on("tick", lambda e: 1)


class TestRunUntil:
    def test_runs_until_predicate(self):
        loop = EventLoop()
        counter = {"n": 0}

        def tick(event):
            counter["n"] += 1
            loop.schedule("tick", event.time + 1.0)

        loop.on("tick", tick)
        loop.schedule("tick", 0.0)
        dispatched = loop.run_until(lambda: counter["n"] >= 5)
        assert dispatched == 5
        assert loop.clock.now == 4.0

    def test_drained_queue_raises(self):
        loop = EventLoop()
        loop.on("tick", lambda e: None)
        loop.schedule("tick", 0.0)
        with pytest.raises(TrainingError, match="drained"):
            loop.run_until(lambda: False)

    def test_livelock_guard(self):
        loop = EventLoop()
        loop.on("tick", lambda e: loop.schedule("tick", e.time))
        loop.schedule("tick", 0.0)
        with pytest.raises(TrainingError, match="livelock"):
            loop.run_until(lambda: False, max_events=100)


class TestRunHandlers:
    """``run_until`` coalesces same-``(time, kind)`` heads for ``on_run`` kinds."""

    @staticmethod
    def _recording_loop():
        loop = EventLoop()
        log = []
        loop.on("a", lambda e: log.append(("one", [e.worker_id])))
        loop.on("b", lambda e: log.append(("b", [e.worker_id])))
        loop.on_run("a", lambda run: log.append(("run", [e.worker_id for e in run])))
        return loop, log

    def test_a_run_is_consecutive_equal_time_and_kind_heads_only(self):
        loop, log = self._recording_loop()
        # Pop order: a0 a1 | b2 | a3 (same time, but b2 sits between) | a4 a5 (later).
        for worker_id, (kind, time) in enumerate(
            [("a", 0.0), ("a", 0.0), ("b", 0.0), ("a", 0.0), ("a", 1.0), ("a", 1.0)]
        ):
            loop.schedule(kind, time, worker_id=worker_id)
        dispatched = loop.run_until(lambda: not loop.queue)
        assert dispatched == 6
        assert log == [
            ("run", [0, 1]), ("b", [2]), ("one", [3]), ("run", [4, 5]),
        ]
        assert loop.clock.now == 1.0

    def test_a_run_of_one_reaches_the_per_event_handler(self):
        loop, log = self._recording_loop()
        loop.schedule("a", 0.0, worker_id=7)
        assert loop.run_until(lambda: not loop.queue) == 1
        assert log == [("one", [7])]

    def test_kinds_without_a_run_handler_dispatch_per_event(self):
        loop, log = self._recording_loop()
        for worker_id in range(3):
            loop.schedule("b", 0.0, worker_id=worker_id)
        assert loop.run_until(lambda: not loop.queue) == 3
        assert log == [("b", [0]), ("b", [1]), ("b", [2])]

    def test_same_instant_pushes_join_a_later_run_never_the_current_one(self):
        loop = EventLoop()
        log = []

        def on_run(run):
            log.append([e.worker_id for e in run])
            if len(log) == 1:
                # Scheduled *now*: equal (time, kind) to the run in flight.
                loop.schedule_many(("a", run[0].time, 10 + e.worker_id, None) for e in run)

        loop.on("a", lambda e: log.append([e.worker_id]))
        loop.on_run("a", on_run)
        for worker_id in range(3):
            loop.schedule("a", 0.0, worker_id=worker_id)
        assert loop.run_until(lambda: not loop.queue) == 6
        assert log == [[0, 1, 2], [10, 11, 12]]

    def test_the_budget_caps_a_run(self):
        loop, log = self._recording_loop()
        for worker_id in range(5):
            loop.schedule("a", 0.0, worker_id=worker_id)
        with pytest.raises(TrainingError, match="dispatched 3 events.*livelock"):
            loop.run_until(lambda: False, max_events=3)
        # Exactly max_events were popped; the rest are still queued.
        assert log == [("run", [0, 1, 2])]
        assert len(loop.queue) == 2
        # A budget of one leaves a run of one: the per-event handler.
        with pytest.raises(TrainingError, match="livelock"):
            loop.run_until(lambda: False, max_events=1)
        assert log[-1] == ("one", [3])

    def test_step_always_dispatches_a_single_event(self):
        loop, log = self._recording_loop()
        loop.schedule("a", 0.0, worker_id=0)
        loop.schedule("a", 0.0, worker_id=1)
        assert loop.step().worker_id == 0
        assert log == [("one", [0])]

    def test_cancelled_heads_neither_join_nor_split_a_run(self):
        loop, log = self._recording_loop()
        events = [loop.schedule("a", 0.0, worker_id=i) for i in range(4)]
        events[1].cancel()
        assert loop.run_until(lambda: not loop.queue) == 3
        assert log == [("run", [0, 2, 3])]

    def test_duplicate_run_handler_rejected(self):
        loop = EventLoop()
        loop.on_run("a", print)
        loop.on_run("a", print)  # re-registering the same handler is fine
        with pytest.raises(ConfigurationError, match="already has a run handler"):
            loop.on_run("a", lambda run: None)

    def test_profiler_brackets_one_dispatch_per_run(self):
        from repro.cluster.profiler import SimProfiler

        profiler = SimProfiler()
        loop = EventLoop(profiler=profiler)
        loop.on("a", lambda e: None)
        loop.on_run("a", lambda run: None)
        for worker_id in range(4):
            loop.schedule("a", 0.0, worker_id=worker_id)
        loop.schedule("a", 1.0)
        profiler.start_run()
        assert loop.run_until(lambda: not loop.queue) == 5
        profiler.stop_run()
        assert profiler.to_dict()["subsystems"]["event_dispatch"]["calls"] == 2
