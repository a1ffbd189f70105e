"""Tests for the shared-link contention scheduler (cluster/link.py)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.link import SHARING_MODES, LinkScheduler
from repro.exceptions import ConfigurationError
from tests.link_reference import LinkScheduler as ReferenceScheduler

#: 8 Gbit/s => 1e9 bytes/s: byte counts translate to seconds directly.
GBPS = 8.0
CAP = 1e9


def make(sharing, latency=0.0):
    return LinkScheduler(bandwidth_gbps=GBPS, latency_s=latency, sharing=sharing)


def open_one(link, now, nbytes, *, worker_id=-1, payload=None, **extras):
    """Admit one session through the live scheduler's one admission call."""
    [session] = link.open_many(now, [(nbytes, worker_id, extras, payload)])
    return session


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LinkScheduler(bandwidth_gbps=0, latency_s=0, sharing="none")
        with pytest.raises(ConfigurationError):
            LinkScheduler(bandwidth_gbps=1, latency_s=-1, sharing="none")
        with pytest.raises(ConfigurationError):
            LinkScheduler(bandwidth_gbps=1, latency_s=0, sharing="round-robin")

    def test_sharing_modes_exported(self):
        assert SHARING_MODES == ("none", "fair", "fifo")


class TestNoneSharing:
    """Infinite capacity: the seed closed form, contention-free."""

    def test_solo_transfer_matches_formula(self):
        link = make("none", latency=0.5)
        [(finish, delay)] = link.simulate([(0.0, CAP)])  # 1 second of bytes
        assert finish == pytest.approx(1.5)
        assert delay == 0.0

    def test_concurrent_transfers_do_not_interact(self):
        link = make("none")
        schedule = link.simulate([(0.0, CAP), (0.0, CAP), (0.0, 2 * CAP)])
        assert [f for f, _ in schedule] == pytest.approx([1.0, 1.0, 2.0])
        assert all(d == 0.0 for _, d in schedule)


class TestFairSharing:
    def test_two_equal_transfers_each_take_twice_as_long(self):
        link = make("fair")
        schedule = link.simulate([(0.0, CAP), (0.0, CAP)])
        assert [f for f, _ in schedule] == pytest.approx([2.0, 2.0])
        assert [d for _, d in schedule] == pytest.approx([1.0, 1.0])

    def test_n_way_broadcast_scales_with_n(self):
        for n in (2, 4, 8):
            link = make("fair")
            schedule = link.simulate([(0.0, CAP)] * n)
            assert [f for f, _ in schedule] == pytest.approx([float(n)] * n)

    def test_short_transfer_finishing_frees_bandwidth(self):
        # A 1s and a 3s job: share until the short one drains at t=2
        # (1s of bytes at half rate), then the long one runs alone:
        # remaining 2e9 bytes at full rate -> finishes at t=4.
        link = make("fair")
        schedule = link.simulate([(0.0, CAP), (0.0, 3 * CAP)])
        assert [f for f, _ in schedule] == pytest.approx([2.0, 4.0])

    def test_staggered_arrival(self):
        # Job A (2s of bytes) alone for 1s, then shares with job B (1s of
        # bytes): A has 1e9 left, B 1e9, both at half rate -> both end t=3.
        link = make("fair")
        schedule = link.simulate([(0.0, 2 * CAP), (1.0, CAP)])
        assert [f for f, _ in schedule] == pytest.approx([3.0, 3.0])
        # A ideally took 2s, took 3: one second of queueing; B ideally 1s,
        # took 2: one second of queueing.
        assert [d for _, d in schedule] == pytest.approx([1.0, 1.0])

    def test_latency_rides_on_top_once(self):
        link = make("fair", latency=0.25)
        schedule = link.simulate([(0.0, CAP), (0.0, CAP)])
        assert [f for f, _ in schedule] == pytest.approx([2.25, 2.25])
        assert [d for _, d in schedule] == pytest.approx([1.0, 1.0])


class TestFifoSharing:
    def test_sessions_serialise_in_admission_order(self):
        link = make("fifo")
        schedule = link.simulate([(0.0, CAP), (0.0, CAP), (0.0, CAP)])
        assert [f for f, _ in schedule] == pytest.approx([1.0, 2.0, 3.0])
        assert [d for _, d in schedule] == pytest.approx([0.0, 1.0, 2.0])

    def test_later_arrival_waits_for_backlog(self):
        link = make("fifo")
        schedule = link.simulate([(0.0, 2 * CAP), (0.5, CAP)])
        assert [f for f, _ in schedule] == pytest.approx([2.0, 3.0])
        # The second job started at 0.5 and would solo-finish at 1.5.
        assert schedule[1][1] == pytest.approx(1.5)


class TestSimulateStaggeredJobs:
    """A job that arrives before a later job *starts* used to crash simulate.

    ``simulate`` opens every job first (the clock ends at the last start)
    and then drained with ``pop_completed(next_completion())`` — a target in
    the past — raising "link scheduler cannot move backwards".
    """

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @pytest.mark.parametrize("latency", [0.0, 0.25])
    def test_non_overlapping_jobs_finish_at_their_solo_times(self, sharing, latency):
        link = make(sharing, latency=latency)
        schedule = link.simulate([(0.0, CAP), (5.0, 2 * CAP), (9.0, 0.0)])
        assert [f for f, _ in schedule] == pytest.approx(
            [1.0 + latency, 7.0 + latency, 9.0 + latency]
        )
        assert [d for _, d in schedule] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("sharing", ["fair", "fifo"])
    def test_an_early_finisher_does_not_disturb_a_later_contended_pair(self, sharing):
        link = make(sharing)
        schedule = link.simulate([(0.0, CAP), (5.0, CAP), (5.0, CAP)])
        expected = [1.0, 7.0, 7.0] if sharing == "fair" else [1.0, 6.0, 7.0]
        assert [f for f, _ in schedule] == pytest.approx(expected)
        # Input order is preserved even when the straggler is listed first.
        swapped = link.simulate([(5.0, CAP), (0.0, CAP), (5.0, CAP)])
        assert [f for f, _ in swapped] == pytest.approx(
            [expected[1], expected[0], expected[2]]
        )


class TestEventDrivenApi:
    def test_open_advance_pop_cycle(self):
        link = make("fair")
        a = open_one(link, 0.0, CAP, worker_id=1)
        b = open_one(link, 0.0, CAP, worker_id=2)
        target = link.next_completion()
        assert target == pytest.approx(2.0)
        done = link.pop_completed(target)
        assert {s.worker_id for s in done} == {1, 2}
        assert a.done_time == pytest.approx(2.0)
        assert b.queueing_delay == pytest.approx(1.0)
        assert link.next_completion() is None
        assert link.active_sessions == 0

    def test_admission_delays_projected_completion(self):
        link = make("fair")
        open_one(link, 0.0, CAP)
        assert link.next_completion() == pytest.approx(1.0)
        open_one(link, 0.5, CAP)
        # First session drained half its bytes alone; the rest at half rate.
        assert link.next_completion() == pytest.approx(1.5)

    def test_time_cannot_move_backwards(self):
        link = make("fair")
        open_one(link, 1.0, CAP)
        with pytest.raises(ConfigurationError):
            link.advance(0.5)

    def test_zero_byte_session_completes_after_latency_only(self):
        link = make("fifo", latency=0.125)
        session = open_one(link, 2.0, 0.0)
        [done] = link.pop_completed(link.next_completion())
        assert done is session
        assert done.done_time == pytest.approx(2.125)

    def test_determinism_ties_resolve_by_admission_order(self):
        link = make("none")
        first = open_one(link, 0.0, CAP, worker_id=7)
        second = open_one(link, 0.0, CAP, worker_id=3)
        done = link.pop_completed(link.next_completion())
        assert [s.worker_id for s in done] == [7, 3]
        assert first.session_id < second.session_id

    def test_telemetry_counters(self):
        link = make("fair")
        open_one(link, 0.0, CAP)
        open_one(link, 0.0, 3 * CAP)
        while link.active_sessions:
            link.pop_completed(link.next_completion())
        assert link.sessions_opened == 2
        assert link.sessions_completed == 2
        assert link.bytes_carried == pytest.approx(4 * CAP)


class TestNonFiniteAdmission:
    """NaN/inf reaching the drain arithmetic used to hang or pin the pipe.

    Admitting ``nan`` bytes at 0.0 made every drain horizon NaN, so
    ``advance`` never saw ``step_end >= now`` and span for ever; ``inf``
    bytes held a FIFO head for good.  ``open_many`` refuses them at its one
    admission site and ``simulate`` refuses them alike.
    """

    BAD = (float("nan"), float("inf"), float("-inf"))

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("field", ["now", "nbytes", "rate_cap", "extra_latency_s"])
    def test_open_rejects_non_finite(self, sharing, bad, field):
        link = make(sharing, latency=0.02)
        open_one(link, 0.0, CAP)
        args = {"now": 0.0, "nbytes": CAP, "rate_cap": CAP, "extra_latency_s": 0.0}
        args[field] = bad
        with pytest.raises(ConfigurationError, match=field):
            open_one(
                link, args["now"], args["nbytes"],
                rate_cap=args["rate_cap"], extra_latency_s=args["extra_latency_s"],
            )
        assert link.sessions_opened == 1

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @pytest.mark.parametrize("bad", BAD)
    def test_open_many_and_simulate_reject_non_finite(self, sharing, bad):
        link = make(sharing)
        with pytest.raises(ConfigurationError, match="nbytes"):
            link.open_many(0.0, [(CAP, 0, {}, None), (bad, 1, {}, None)])
        with pytest.raises(ConfigurationError, match="rate_cap"):
            link.open_many(0.0, [(CAP, 0, {"rate_cap": bad}, None)])
        with pytest.raises(ConfigurationError, match="nbytes"):
            link.simulate([(0.0, CAP), (0.0, bad)])
        with pytest.raises(ConfigurationError, match="now"):
            link.simulate([(bad, CAP)])
        with pytest.raises(ConfigurationError, match="extra_latency_s"):
            link.simulate([(0.0, CAP)], session_kwargs=[{"extra_latency_s": bad}])
        with pytest.raises(ConfigurationError, match="rate_cap"):
            link.simulate([(0.0, CAP), (0.0, CAP)], session_kwargs=[{}, {"rate_cap": bad}])

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    def test_simulate_refuses_what_open_refuses(self, sharing):
        link = make(sharing)
        with pytest.raises(ConfigurationError, match="nbytes"):
            link.simulate([(0.0, CAP), (1.0, -1.0)])
        with pytest.raises(ConfigurationError, match="rate_cap"):
            link.simulate([(0.0, CAP)], session_kwargs=[{"rate_cap": 0.0}])
        with pytest.raises(ConfigurationError, match="extra_latency_s"):
            link.simulate([(0.0, CAP)], session_kwargs=[{"extra_latency_s": -0.5}])
        # The fresh link's clock reads 0.0: a job cannot start before it.
        with pytest.raises(ConfigurationError, match="cannot move backwards"):
            link.simulate([(2.0, CAP), (-1.0, CAP)])
        with pytest.raises(ConfigurationError, match="must match jobs"):
            link.simulate([(0.0, CAP)], session_kwargs=[{}, {}])
        with pytest.raises(TypeError):
            link.simulate([(0.0, CAP)], session_kwargs=[{"rate_caps": CAP}])
        assert link.simulate([]) == []
        assert link.sessions_opened == 0  # simulate never touches the live link

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    def test_scheduler_still_drains_after_a_rejected_session(self, sharing):
        link = make(sharing)
        kept = open_one(link, 0.0, CAP)
        with pytest.raises(ConfigurationError):
            open_one(link, 0.0, float("nan"))
        assert link.pop_completed(1.0) == [kept]
        assert link.next_completion() is None


# --------------------------------------------------------------------------
# Differential test against the frozen parent scheduler
# --------------------------------------------------------------------------

#: 0.01 Gbit/s => 1.25e6 bytes/s, the WAN bottleneck of the benchmark.
WAN_GBPS = 0.01
WAN_CAP = 1.25e6

#: Clock offsets of the differential tests: the origin, twelve simulated days
#: and four simulated months.
BASES = (0.0, 2.0**20, 1e7)

# Grids make exact coincidences likely: equal-time bursts (dt = 0), exact
# completion ties (equal sizes; sizes that are whole multiples of the rate),
# zero-byte and sub-epsilon sessions, caps below / at / above the pipe rate.
_dt = st.one_of(
    st.sampled_from([0.0, 0.0, 0.001, 0.02, 0.04, 1.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
_nbytes = st.one_of(
    st.sampled_from([0.0, 1e-7, 1.0, 1250.0, 2500.0, 25000.0, 1.25e6]),
    st.floats(min_value=0.0, max_value=5e6, allow_nan=False),
)
_extras = st.one_of(
    st.just({}),
    st.fixed_dictionaries({
        "rate_cap": st.sampled_from([None, 5e5, 1.25e6, 2e6]),
        "extra_latency_s": st.sampled_from([0.0, 0.01, 0.05]),
    }),
)
_spec = st.tuples(_nbytes, _extras)
#: A closed-world job: how long after the previous job it starts — ``None``
#: for "exactly when the link's state next changes", the coincidence that
#: leaves a residue too small to move the clock — its bytes and its extras.
_job = st.tuples(st.one_of(st.none(), _dt), _nbytes, _extras)
_op = st.one_of(
    st.tuples(st.just("open"), _dt, _spec),
    st.tuples(st.just("open_many"), _dt, st.lists(_spec, min_size=0, max_size=6)),
    st.tuples(st.just("advance"), _dt),
    st.tuples(st.just("pop"), _dt),
    st.tuples(st.just("pop_next")),
)


def _closed_world(base, drawn, kwargs, reverse):
    """``(jobs, session_kwargs)`` of a ``simulate`` call from ``_job`` draws."""
    probe = ReferenceScheduler(**kwargs)
    now, jobs, extras = base, [], []
    for dt, nbytes, extra in drawn:
        due = probe.next_completion() if dt is None else now + dt
        now = now if due is None else max(now, due)
        probe.open(now, nbytes, **extra)
        jobs.append((now, nbytes))
        extras.append(extra)
    if reverse:  # input order is not admission order
        jobs.reverse()
        extras.reverse()
    return jobs, extras


class _Pair:
    """The live scheduler and the frozen reference, driven in lock step."""

    def __init__(self, sharing, latency, start=0.0):
        kwargs = dict(bandwidth_gbps=WAN_GBPS, latency_s=latency, sharing=sharing)
        self.live = LinkScheduler(**kwargs)
        self.ref = ReferenceScheduler(**kwargs)
        self.sessions = []  # (live, reference) for every session ever opened
        self.now = start

    def apply(self, op):
        kind = op[0]
        if kind == "pop_next":
            target = self.ref.next_completion()
            if target is None:
                return
            self.now = max(self.now, target)
            self._pop()
            return
        self.now += op[1]
        if kind == "open":
            nbytes, extras = op[2]
            worker_id = len(self.sessions)
            self.sessions.append((
                open_one(self.live, self.now, nbytes, worker_id=worker_id, **extras),
                self.ref.open(self.now, nbytes, worker_id=worker_id, **extras),
            ))
        elif kind == "open_many":
            first = len(self.sessions)
            specs = [
                (nbytes, first + i, extras, ("payload", first + i))
                for i, (nbytes, extras) in enumerate(op[2])
            ]
            self.sessions.extend(
                zip(self.live.open_many(self.now, specs),
                    self.ref.open_many(self.now, specs))
            )
        elif kind == "advance":
            self.live.advance(self.now)
            self.ref.advance(self.now)
        else:
            self._pop()

    def _pop(self):
        live = self.live.pop_completed(self.now)
        ref = self.ref.pop_completed(self.now)
        assert [s.session_id for s in live] == [s.session_id for s in ref]
        assert [s.queueing_delay for s in live] == [s.queueing_delay for s in ref]

    def check(self):
        assert self.live.next_completion() == self.ref.next_completion()
        for name in ("active_sessions", "sessions_opened", "sessions_completed",
                     "bytes_carried"):
            assert getattr(self.live, name) == getattr(self.ref, name), name
        for live, ref in self.sessions:
            assert vars(live) == vars(ref)  # every dataclass field, bit for bit


class TestAgainstFrozenReference:
    """Every float, id and order equals the pre-index scheduler's (``==``)."""

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @settings(max_examples=300, deadline=None)
    @given(
        latency=st.sampled_from([0.0, 0.02]),
        # At t = 2**20 and 1e7 the clock's ulp (2.3e-10 s, 1.9e-9 s) exceeds
        # the time a small residue needs to drain: the snap-closed branch of
        # ``advance``, and the re-advance to the current instant that lands
        # such a residue instead of spinning on it.
        start=st.sampled_from(BASES),
        ops=st.lists(_op, max_size=30),
    )
    def test_operation_sequences(self, time_limit, sharing, latency, start, ops):
        pair = _Pair(sharing, latency, start)
        with time_limit():
            for op in ops:
                pair.apply(op)
                pair.check()
            # Drain event by event: a drain completion and an arrival per
            # session, and a residue can cost a session one event more.
            for _ in range(4 * len(pair.sessions) + 4):
                if pair.ref.active_sessions == 0:
                    break
                pair.apply(("pop_next",))
                pair.check()
        assert pair.live.active_sessions == 0

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @settings(max_examples=100, deadline=None)
    @given(
        latency=st.sampled_from([0.0, 0.02]),
        base=st.sampled_from(BASES),
        drawn=st.lists(_job, max_size=20),
        reverse=st.booleans(),
        with_extras=st.booleans(),
    )
    def test_simulate(self, time_limit, sharing, latency, base, drawn, reverse, with_extras):
        kwargs = dict(bandwidth_gbps=WAN_GBPS, latency_s=latency, sharing=sharing)

        # Neither side raises — not even when a job completes before a later
        # job starts (both used to rewind the clock and refuse) — and neither
        # spins on a sub-ulp residue at a large clock (both used to).
        with time_limit():
            jobs, extras = _closed_world(base, drawn, kwargs, reverse)
            if not with_extras:
                extras = None
            assert LinkScheduler(**kwargs).simulate(
                jobs, session_kwargs=extras
            ) == ReferenceScheduler(**kwargs).simulate(jobs, session_kwargs=extras)

    def test_queued_fifo_sessions_never_set_next_completion(self):
        # The reference projects an arrival for every session queued behind
        # the FIFO head; each projection is the head's drain completion plus
        # non-negative terms, so it never wins the min — not for queued
        # sessions that carry more latency than the head, and not for one as
        # close to free (2e-6 bytes) as admission lets a draining session be.
        pair = _Pair("fifo", 0.02)
        pair.apply(("open", 0.0, (WAN_CAP, {})))
        pair.apply(("open_many", 0.0, [
            (2500.0, {"rate_cap": None, "extra_latency_s": 0.05}),
            (1250.0, {"rate_cap": 5e5, "extra_latency_s": 0.01}),
            (2e-6, {}),
        ]))
        pair.check()
        assert pair.live.next_completion() == 1.0  # the head's drain, no latency
        while pair.ref.active_sessions:
            pair.apply(("pop_next",))
            pair.check()
        # Arrival order is not admission order once latencies differ.
        assert [s.session_id for s, _ in sorted(
            pair.sessions, key=lambda p: (p[0].done_time, p[0].session_id)
        )] == [0, 3, 2, 1]


class TestOpenManyAgainstSequentialOpens:
    """``open_many`` is the frozen scheduler's ``open`` called once per spec."""

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @settings(max_examples=100, deadline=None)
    @given(
        latency=st.sampled_from([0.0, 0.02]),
        base=st.sampled_from(BASES),
        drawn=st.lists(_job, max_size=6),
        at=st.one_of(st.none(), _dt),
        burst=st.lists(_spec, min_size=0, max_size=6),
    )
    @example(  # the burst starts exactly at the first job's drain horizon
        latency=0.02, base=1e7, drawn=[(0.040484378, 1048576.7579544028, {})],
        at=None, burst=[(0.0, {}), (3520.0, {}), (100.0, {})],
    )
    @example(  # an empty burst while a job drains: no admission, no advance
        latency=0.0, base=0.0, drawn=[(0.0, 1.0, {})], at=0.5, burst=[],
    )
    def test_a_burst_equals_its_opens_one_by_one(
        self, time_limit, sharing, latency, base, drawn, at, burst
    ):
        # At a large clock a re-advance to the current instant can snap a
        # sub-ulp residue closed, so a burst that advanced only once used to
        # leave a residue the sequential opens had landed; and an empty burst
        # used to advance the link that no open had touched.
        kwargs = dict(bandwidth_gbps=WAN_GBPS, latency_s=latency, sharing=sharing)
        one, bulk = ReferenceScheduler(**kwargs), LinkScheduler(**kwargs)
        now, sessions = base, []
        with time_limit():
            for dt, nbytes, extra in drawn:
                due = one.next_completion() if dt is None else now + dt
                now = now if due is None else max(now, due)
                sessions.append((one.open(now, nbytes, **extra),
                                 open_one(bulk, now, nbytes, **extra)))
            due = one.next_completion() if at is None else now + at
            now = now if due is None else max(now, due)
            first = len(sessions)
            specs = [(nbytes, first + i, extra, None) for i, (nbytes, extra) in enumerate(burst)]
            sessions.extend(zip(
                [one.open(now, nbytes, worker_id=worker_id, **extra)
                 for nbytes, worker_id, extra, _ in specs],
                bulk.open_many(now, specs),
            ))
            while True:
                assert one.next_completion() == bulk.next_completion()
                for single, batched in sessions:
                    assert vars(single) == vars(batched)
                if not one.active_sessions:
                    break
                now = max(now, one.next_completion())
                one.pop_completed(now)
                bulk.pop_completed(now)


class TestClosedWorldAgainstEventApi:
    """``simulate`` is pinned to the live event API, not only to the frozen file."""

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @settings(max_examples=100, deadline=None)
    @given(
        latency=st.sampled_from([0.0, 0.02]),
        base=st.sampled_from(BASES),
        drawn=st.lists(_job, max_size=60),
        reverse=st.booleans(),
    )
    def test_simulate_equals_the_live_event_api(
        self, time_limit, sharing, latency, base, drawn, reverse
    ):
        # The drain arithmetic lives twice in src/ — per session behind the
        # event API, on arrays behind ``simulate`` — and this is what keeps
        # the two from drifting: the closed world is, by definition, the jobs
        # opened in (start, index) order on a fresh link that is then popped
        # at each ``next_completion`` until idle.
        kwargs = dict(bandwidth_gbps=WAN_GBPS, latency_s=latency, sharing=sharing)
        with time_limit():
            plain, extras = _closed_world(base, drawn, kwargs, reverse)
            link = LinkScheduler(**kwargs)
            sessions = [None] * len(plain)
            for i in sorted(range(len(plain)), key=lambda i: (plain[i][0], i)):
                sessions[i] = open_one(link, *plain[i], worker_id=i, **extras[i])
            now = max((start for start, _ in plain), default=0.0)
            while link.active_sessions:
                now = max(link.next_completion(), now)
                link.pop_completed(now)
            assert LinkScheduler(**kwargs).simulate(plain, session_kwargs=extras) == [
                (s.done_time, s.queueing_delay) for s in sessions
            ]


class TestLargeClocks:
    """A residue that drains in less than the clock's ulp used to livelock.

    ``remaining / rate`` below the ulp makes ``next_completion()`` name the
    current instant; ``advance(now)`` then skipped the drain because the
    clock would not move, so nothing ever landed.  Every case here span for
    ever in the event API and in ``simulate`` alike; each carries its own
    time limit because ``pytest-timeout`` is not installed locally.
    """

    #: The benchmark's pipe: 10 Mbit/s, 20 ms.
    PIPE = dict(bandwidth_gbps=0.01, latency_s=0.02)

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @pytest.mark.parametrize("start", [1e7, 1e8, 1e9])
    def test_a_single_byte_late_in_a_long_run(self, time_limit, sharing, start):
        kwargs = dict(self.PIPE, sharing=sharing)
        with time_limit():
            schedule = LinkScheduler(**kwargs).simulate([(start, 1.0)])
            assert schedule == ReferenceScheduler(**kwargs).simulate([(start, 1.0)])
        [(finish, delay)] = schedule
        assert start < finish <= start + 0.03 and delay < 1e-6  # float noise at most

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @pytest.mark.parametrize("seed", range(8))
    def test_benchmark_frames_after_twelve_simulated_days(self, time_limit, sharing, seed):
        rng = random.Random(seed)
        jobs = [(2.0**20 + rng.random(), 220.0) for _ in range(5)]
        kwargs = dict(self.PIPE, sharing=sharing)
        with time_limit():
            schedule = LinkScheduler(**kwargs).simulate(jobs)
            assert schedule == ReferenceScheduler(**kwargs).simulate(jobs)
        assert all(start < finish < start + 1.0 for (start, _), (finish, _) in zip(jobs, schedule))

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    def test_a_burst_that_starts_exactly_at_a_drain_horizon(self, time_limit, sharing):
        # The first job's drain horizon is the burst's start, and round-off
        # leaves it a 6e-4-byte residue there.  Opened one at a time, the
        # zero-byte job's successor re-advances to that instant and snaps the
        # residue closed *before* two more sessions halve its fair share —
        # so the closed world may not let the burst join in one piece here.
        horizon = 10000000.879345784
        jobs = [(10000000.040484378, 1048576.7579544028),
                (horizon, 0.0), (horizon, 3520.0), (horizon, 100.0)]
        kwargs = dict(self.PIPE, sharing=sharing)
        with time_limit():
            probe = ReferenceScheduler(**kwargs)
            probe.open(*jobs[0])
            assert probe.next_completion() == horizon
            assert LinkScheduler(**kwargs).simulate(jobs) == ReferenceScheduler(
                **kwargs
            ).simulate(jobs)

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    @pytest.mark.parametrize("base", [2.0**20, 1e7])
    def test_event_loop_goes_idle(self, time_limit, sharing, base):
        # Same-instant bursts and a straggler, drained the way the async
        # trainer drains a link: pop at every next_completion until idle.
        pair = _Pair(sharing, 0.02, base)
        pair.apply(("open_many", 0.0, [
            (220.0, {}), (2500.0, {}), (1.0, {"rate_cap": 5e5, "extra_latency_s": 0.01}),
        ]))
        pair.apply(("open", 0.001, (2.0**20 + 0.37, {})))
        pair.apply(("open_many", 0.02, [(1250.0, {}), (1e-3, {})]))
        with time_limit():
            events = 0
            while pair.ref.active_sessions:
                pair.apply(("pop_next",))
                pair.check()
                events += 1
        assert pair.live.active_sessions == 0
        assert events <= 4 * len(pair.sessions) + 4
        assert all(live.done_time is not None for live, _ in pair.sessions)
