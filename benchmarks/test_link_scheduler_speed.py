"""Link-scheduler microbenchmark: one FIFO pipe drained event by event.

``LinkScheduler`` keeps sessions that have drained on a min-heap and, under
``fifo``, only ever touches the head of the queue, so a pipe that carries
``n`` sessions costs O(n log n).  The scheduler it replaced — frozen as
``tests/link_reference.py`` — rescanned two plain lists on every call:
O(n) per link event, O(n²) per pipe.  This file drives both the way the
async trainer does (one ``open_many`` herd, then ``next_completion`` /
``pop_completed`` until idle) on the benchmark's WAN pipe: 10 Mbit/s, 20 ms
propagation, 250-byte frames — 0.2 ms of drain each, so about a hundred
sessions are waiting out their latency at any instant.

Both assertions are same-machine wall-clock ratios (min over repeats), never
raw seconds; the absolute sessions/s are printed beside them (ROADMAP 1(d)).
The end-to-end claim is measured by ``bench/run.py``, not here.
"""

from __future__ import annotations

import timeit

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
