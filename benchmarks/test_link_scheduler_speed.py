"""Link-scheduler microbenchmarks: one pipe, event by event and closed-world.

``LinkScheduler`` keeps sessions that have drained on a min-heap and, under
``fifo``, only ever touches the head of the queue, so a pipe that carries
``n`` sessions costs O(n log n).  The scheduler it replaced — frozen as
``tests/link_reference.py`` — rescanned two plain lists on every call:
O(n) per link event, O(n²) per pipe.  This file drives both the way the
async trainer does (one ``open_many`` herd, then ``next_completion`` /
``pop_completed`` until idle) on the benchmark's WAN pipe: 10 Mbit/s, 20 ms
propagation, 250-byte frames — 0.2 ms of drain each, so about a hundred
sessions are waiting out their latency at any instant.

The closed world — ``simulate``, what the lock-step trainer calls with a whole
step's transfers — resolves ``fair`` / ``none`` jobs on arrays instead of
replaying them through that event API, and keeps ``fifo`` (one session served
at a time: nothing to vectorise) a scalar recurrence.  The last two tests hold
both halves: ``fair`` against the frozen reference's replay, and closed-world
``fifo`` against the event-driven drain of the same sessions in the same run,
which an array step over a one-element served set would fail (~0.45x).

Every assertion is a same-machine wall-clock ratio (min over repeats), never
raw seconds; the absolute sessions/s are printed beside them (ROADMAP 1(d)).
The end-to-end claim is measured by ``bench/run.py``, not here.
"""

from __future__ import annotations

import timeit

import numpy as np

from repro.cluster.link import LinkScheduler
from tests.link_reference import LinkScheduler as ReferenceScheduler


def _drain(scheduler_cls, n: int):
    """Admit *n* sessions at t = 0 and run the pipe idle; returns the arrivals."""
    link = scheduler_cls(bandwidth_gbps=0.01, latency_s=0.02, sharing="fifo")
    link.open_many(0.0, [(250.0, i, {}, None) for i in range(n)])
    arrivals = []
    while link.active_sessions:
        now = link.next_completion()
        arrivals.extend((s.session_id, s.done_time) for s in link.pop_completed(now))
    return arrivals


def _seconds(scheduler_cls, n: int, repeat: int) -> float:
    return min(timeit.repeat(lambda: _drain(scheduler_cls, n), number=1, repeat=repeat))


def test_fifo_drain_scales_near_linearly():
    small = _seconds(LinkScheduler, 500, repeat=5)
    large = _seconds(LinkScheduler, 2000, repeat=5)
    ratio = large / small
    print(f"\nfifo drain: n=500 {small * 1e3:.2f} ms ({500 / small:,.0f} sessions/s), "
          f"n=2000 {large * 1e3:.2f} ms ({2000 / large:,.0f} sessions/s), "
          f"time ratio {ratio:.1f} for 4x the sessions")
    assert ratio <= 7.0, (
        f"4x the sessions cost {ratio:.1f}x the time; the indexed scheduler "
        "measured 3.9x when it landed, the list-scan one 14x"
    )


def test_fifo_drain_is_at_least_10x_the_list_scan_scheduler_at_n_2000():
    # The seconds-long reference arm runs once: the run that is timed also
    # supplies the arrivals the live scheduler is checked against.
    start = timeit.default_timer()
    expected = _drain(ReferenceScheduler, 2000)
    reference_s = timeit.default_timer() - start
    assert _drain(LinkScheduler, 2000) == expected
    live_s = _seconds(LinkScheduler, 2000, repeat=3)
    speedup = reference_s / live_s
    print(f"\nfifo drain n=2000: list-scan {reference_s:.3f} s "
          f"({2000 / reference_s:,.0f} sessions/s), indexed {live_s * 1e3:.2f} ms "
          f"({2000 / live_s:,.0f} sessions/s), {speedup:.0f}x")
    assert speedup >= 10.0, (
        f"the indexed scheduler is only {speedup:.1f}x the list-scan reference "
        "at n=2000; it measured ~90x when it landed"
    )


def test_closed_world_fair_is_at_least_8x_the_replay_at_n_2000():
    # 2,000 of the benchmark's 3,520-byte frames at distinct starts inside
    # 10 ms on its 10 Mbit/s pipe: everything overlaps, so the replay pays
    # O(n) Python per link event.  The reference arm runs once and supplies
    # the expected output.
    starts = np.random.default_rng(3).random(2000) * 0.01
    jobs = [(float(start), 3520.0) for start in starts]
    pipe = dict(bandwidth_gbps=0.01, latency_s=0.02, sharing="fair")
    start = timeit.default_timer()
    expected = ReferenceScheduler(**pipe).simulate(jobs)
    reference_s = timeit.default_timer() - start
    link = LinkScheduler(**pipe)
    assert link.simulate(jobs) == expected
    live_s = min(timeit.repeat(lambda: link.simulate(jobs), number=1, repeat=3))
    speedup = reference_s / live_s
    print(f"\nclosed-world fair n=2000: replay {reference_s:.3f} s "
          f"({2000 / reference_s:,.0f} sessions/s), arrays {live_s * 1e3:.1f} ms "
          f"({2000 / live_s:,.0f} sessions/s), {speedup:.0f}x")
    assert speedup >= 8.0, (
        f"closed-world fair simulate is only {speedup:.1f}x the frozen replay "
        "at n=2000; it measured ~26x when it landed"
    )


def test_closed_world_fifo_keeps_pace_with_the_event_driven_drain():
    jobs = [(0.0, 250.0)] * 2000
    link = LinkScheduler(bandwidth_gbps=0.01, latency_s=0.02, sharing="fifo")
    assert [done for done, _ in link.simulate(jobs)] == [
        done for _, done in sorted(_drain(LinkScheduler, 2000))
    ]
    closed_s = min(timeit.repeat(lambda: link.simulate(jobs), number=1, repeat=5))
    events_s = _seconds(LinkScheduler, 2000, repeat=5)
    ratio = events_s / closed_s
    print(f"\nfifo n=2000: closed-world {closed_s * 1e3:.2f} ms "
          f"({2000 / closed_s:,.0f} sessions/s), event-driven {events_s * 1e3:.2f} ms "
          f"({2000 / events_s:,.0f} sessions/s), rate ratio {ratio:.2f}")
    assert ratio >= 0.6, (
        f"closed-world fifo runs at {ratio:.2f}x the rate of the event-driven "
        "drain of the same sessions; the scalar recurrence measured >= 1x"
    )
