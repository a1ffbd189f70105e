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

Every assertion is a same-machine wall-clock ratio, never raw seconds; the
absolute sessions/s are printed beside them (ROADMAP 1(d)).  Every gate reads
the median of adjacent, order-alternated pair ratios
(``benchmarks/conftest.py::alternated_pairs``), so host load alone cannot fail
it: nine pairs, or three where the frozen reference is seconds long and runs
once a pair, supplying the expected output each time.
The end-to-end claim is measured by ``bench/run.py``, not here.
"""

from __future__ import annotations

import timeit

import numpy as np

from benchmarks.conftest import alternated_pairs
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


def _timed_once(func, results):
    """A pair arm: seconds of one *func* call, whose result joins *results*."""
    def arm():
        start = timeit.default_timer()
        results.append(func())
        return timeit.default_timer() - start
    return arm


def _best_of_three(func):
    """A pair arm: seconds of the best of three adjacent *func* calls."""
    return lambda: min(timeit.repeat(func, number=1, repeat=3))


def test_fifo_drain_scales_near_linearly():
    timings = alternated_pairs(
        lambda: timeit.timeit(lambda: _drain(LinkScheduler, 2000), number=3),
        lambda: timeit.timeit(lambda: _drain(LinkScheduler, 500), number=3),
    )
    ratio = float(np.median([large / small for large, small in timings]))
    large, small = (min(arm) / 3 for arm in zip(*timings))
    print(f"\nfifo drain: n=500 {small * 1e3:.2f} ms ({500 / small:,.0f} sessions/s), "
          f"n=2000 {large * 1e3:.2f} ms ({2000 / large:,.0f} sessions/s), "
          f"median pair time ratio {ratio:.1f} for 4x the sessions")
    assert ratio <= 7.0, (
        f"4x the sessions cost {ratio:.1f}x the time (median of the pair ratios); the "
        "indexed scheduler measured 3.9x when it landed, the list-scan one 14x"
    )


def test_fifo_drain_is_at_least_10x_the_list_scan_scheduler_at_n_2000():
    # The seconds-long reference arm runs once a pair: each timed run also
    # supplies the arrivals the live scheduler is checked against.
    expected = []
    timings = alternated_pairs(
        _timed_once(lambda: _drain(ReferenceScheduler, 2000), expected),
        _best_of_three(lambda: _drain(LinkScheduler, 2000)),
        pairs=3,
    )
    arrivals = _drain(LinkScheduler, 2000)
    assert all(arrivals == found for found in expected)
    speedup = float(np.median([reference_s / live_s for reference_s, live_s in timings]))
    reference_s, live_s = (float(np.median(arm)) for arm in zip(*timings))
    print(f"\nfifo drain n=2000: list-scan {reference_s:.3f} s "
          f"({2000 / reference_s:,.0f} sessions/s), indexed {live_s * 1e3:.2f} ms "
          f"({2000 / live_s:,.0f} sessions/s), median pair ratio {speedup:.0f}x")
    assert speedup >= 10.0, (
        f"the indexed scheduler is only {speedup:.1f}x the list-scan reference "
        f"at n=2000 (median of the pair ratios; pairs {timings}); it measured ~90x "
        "when it landed"
    )


def test_closed_world_fair_is_at_least_8x_the_replay_at_n_2000():
    # 2,000 of the benchmark's 3,520-byte frames at distinct starts inside
    # 10 ms on its 10 Mbit/s pipe: everything overlaps, so the replay pays
    # O(n) Python per link event.  The reference arm runs once and supplies
    # the expected output.
    starts = np.random.default_rng(3).random(2000) * 0.01
    jobs = [(float(start), 3520.0) for start in starts]
    pipe = dict(bandwidth_gbps=0.01, latency_s=0.02, sharing="fair")
    link = LinkScheduler(**pipe)
    expected = []
    timings = alternated_pairs(
        _timed_once(lambda: ReferenceScheduler(**pipe).simulate(jobs), expected),
        _best_of_three(lambda: link.simulate(jobs)),
        pairs=3,
    )
    done = link.simulate(jobs)
    assert all(done == found for found in expected)
    speedup = float(np.median([reference_s / live_s for reference_s, live_s in timings]))
    reference_s, live_s = (float(np.median(arm)) for arm in zip(*timings))
    print(f"\nclosed-world fair n=2000: replay {reference_s:.3f} s "
          f"({2000 / reference_s:,.0f} sessions/s), arrays {live_s * 1e3:.1f} ms "
          f"({2000 / live_s:,.0f} sessions/s), median pair ratio {speedup:.0f}x")
    assert speedup >= 8.0, (
        f"closed-world fair simulate is only {speedup:.1f}x the frozen replay "
        f"at n=2000 (median of the pair ratios; pairs {timings}); it measured ~26x "
        "when it landed"
    )


def test_closed_world_fifo_keeps_pace_with_the_event_driven_drain():
    jobs = [(0.0, 250.0)] * 2000
    link = LinkScheduler(bandwidth_gbps=0.01, latency_s=0.02, sharing="fifo")
    assert [done for done, _ in link.simulate(jobs)] == [
        done for _, done in sorted(_drain(LinkScheduler, 2000))
    ]
    timings = alternated_pairs(
        _best_of_three(lambda: _drain(LinkScheduler, 2000)),
        _best_of_three(lambda: link.simulate(jobs)),
    )
    ratio = float(np.median([events_s / closed_s for events_s, closed_s in timings]))
    events_s, closed_s = (float(np.median(arm)) for arm in zip(*timings))
    print(f"\nfifo n=2000: closed-world {closed_s * 1e3:.2f} ms "
          f"({2000 / closed_s:,.0f} sessions/s), event-driven {events_s * 1e3:.2f} ms "
          f"({2000 / events_s:,.0f} sessions/s), median pair rate ratio {ratio:.2f}")
    assert ratio >= 0.6, (
        f"closed-world fifo runs at {ratio:.2f}x the rate of the event-driven "
        f"drain of the same sessions (median of the pair ratios; pairs {timings}); "
        "the scalar recurrence measured >= 1x"
    )
