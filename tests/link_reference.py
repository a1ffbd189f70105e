"""The parent commit's ``LinkScheduler``, frozen verbatim as a reference oracle.

This is ``src/repro/cluster/link.py`` as it stood before the scheduler got
indexed containers (in-flight min-heap, head-only FIFO drain): two plain
lists rescanned on every call, the ``[head] + [0.0] * (n - 1)`` FIFO rates
list and the FIFO backlog-projection loop in ``next_completion``.  It is
O(n) per link event and O(n^2) per pipe, and it is the definition of
"bit-identical" for the scheduler under ``src/``:
``tests/test_link_scheduler.py`` drives both with the same random operation
sequences and requires equal (``==``) floats, ids and orders after every
operation, and ``benchmarks/test_link_scheduler_speed.py`` times the live
scheduler against it.  Do not edit the class bodies below (two exceptions so
far, each marked ``NOTE``: a crash fix in ``simulate`` and a livelock fix in
``advance``, both applied identically to both sides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

#: Accepted link-sharing discipline names.
SHARING_MODES = ("none", "fair", "fifo")

#: Byte tolerance below which a session's remaining payload counts as drained
#: (guards the piecewise drain against float round-off).
_DRAIN_EPS = 1e-6


@dataclass
class LinkSession:
    """One transfer occupying the link.

    Attributes
    ----------
    session_id:
        Monotone admission index (the FIFO order and the deterministic
        tie-break for simultaneous completions).
    worker_id:
        The worker on the other end of the pipe (``-1`` when unknown).
    nbytes:
        Total wire size of the transfer (the codec's encoded frame bytes).
    start_time:
        Simulated time the session was admitted.
    solo_seconds:
        What the transfer would cost on an uncontended link
        (``nbytes / capacity + latency`` — the seed closed form).
    remaining:
        Bytes still to drain (mutated by the scheduler).
    drain_done:
        Time the last byte left the sender (set on completion).
    done_time:
        Time the transfer completed at the receiver (``drain_done`` plus the
        propagation latency).
    rate_cap:
        Optional per-session drain-rate ceiling in bytes/s (the sender's own
        access bandwidth); ``None`` means only the pipe's capacity applies.
    extra_latency_s:
        Additional one-way propagation paid by this session on top of the
        scheduler's latency (the sender's access-link latency).
    payload:
        Opaque continuation data the caller wants back at completion (e.g.
        the in-flight message + frame).
    """

    session_id: int
    worker_id: int
    nbytes: float
    start_time: float
    solo_seconds: float
    remaining: float = 0.0
    drain_done: Optional[float] = None
    done_time: Optional[float] = None
    rate_cap: Optional[float] = None
    extra_latency_s: float = 0.0
    payload: object = None

    @property
    def queueing_delay(self) -> float:
        """Extra seconds contention added on top of the solo transfer time."""
        if self.done_time is None:
            raise ConfigurationError("session has not completed yet")
        return max(self.done_time - self.start_time - self.solo_seconds, 0.0)


class LinkScheduler:
    """One direction of the server's link as a schedulable shared resource.

    Parameters
    ----------
    bandwidth_gbps:
        Link capacity in Gbit/s (the same figure the cost model prices
        transfers with).
    latency_s:
        One-way propagation latency, paid once per session after its bytes
        drain.
    sharing:
        The sharing discipline — one of :data:`SHARING_MODES`.
    """

    def __init__(
        self, *, bandwidth_gbps: float, latency_s: float, sharing: str = "none"
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ConfigurationError(f"bandwidth_gbps must be positive, got {bandwidth_gbps}")
        if latency_s < 0:
            raise ConfigurationError(f"latency_s must be non-negative, got {latency_s}")
        if sharing not in SHARING_MODES:
            raise ConfigurationError(
                f"link sharing must be one of {SHARING_MODES}, got {sharing!r}"
            )
        self.bandwidth_gbps = float(bandwidth_gbps)
        self.latency_s = float(latency_s)
        self.sharing = sharing
        self.capacity = bandwidth_gbps * 1e9 / 8.0  # bytes per second
        self._now = 0.0
        #: Sessions still draining bytes, in admission order.
        self._draining: List[LinkSession] = []
        #: Sessions whose bytes drained, waiting out the propagation latency.
        self._in_flight: List[LinkSession] = []
        self._counter = 0
        #: Total sessions admitted / completed and bytes carried (telemetry).
        self.sessions_opened = 0
        self.sessions_completed = 0
        self.bytes_carried = 0.0

    # --------------------------------------------------------------- admission
    def open(
        self,
        now: float,
        nbytes: float,
        *,
        worker_id: int = -1,
        rate_cap: Optional[float] = None,
        extra_latency_s: float = 0.0,
        payload: object = None,
    ) -> LinkSession:
        """Admit a transfer of *nbytes* starting at *now*; returns its session.

        ``rate_cap`` / ``extra_latency_s`` describe the sender's own access
        link (bytes/s ceiling and extra one-way propagation); the session's
        solo time — the contention-free baseline its queueing delay is
        measured against — accounts for both.
        """
        self.advance(now)
        return self._admit(
            now,
            nbytes,
            worker_id=worker_id,
            rate_cap=rate_cap,
            extra_latency_s=extra_latency_s,
            payload=payload,
        )

    def _admit(
        self,
        now: float,
        nbytes: float,
        *,
        worker_id: int = -1,
        rate_cap: Optional[float] = None,
        extra_latency_s: float = 0.0,
        payload: object = None,
    ) -> LinkSession:
        """Validate and enqueue one session; the clock is already at *now*."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be non-negative, got {nbytes}")
        if rate_cap is not None and rate_cap <= 0:
            raise ConfigurationError(f"rate_cap must be positive, got {rate_cap}")
        if extra_latency_s < 0:
            raise ConfigurationError(
                f"extra_latency_s must be non-negative, got {extra_latency_s}"
            )
        solo_rate = self.capacity if rate_cap is None else min(self.capacity, rate_cap)
        session = LinkSession(
            session_id=self._counter,
            worker_id=int(worker_id),
            nbytes=float(nbytes),
            start_time=float(now),
            solo_seconds=float(nbytes) / solo_rate + self.latency_s + float(extra_latency_s),
            remaining=float(nbytes),
            rate_cap=rate_cap,
            extra_latency_s=float(extra_latency_s),
            payload=payload,
        )
        self._counter += 1
        self.sessions_opened += 1
        self.bytes_carried += float(nbytes)
        if session.remaining <= _DRAIN_EPS:
            session.remaining = 0.0
            session.drain_done = float(now)
            self._in_flight.append(session)
        else:
            self._draining.append(session)
        return session

    def open_many(
        self, now: float, specs: Sequence[Tuple[float, int, dict, object]]
    ) -> List[LinkSession]:
        """Admit a same-time burst of transfers with one clock advance.

        *specs* is a sequence of ``(nbytes, worker_id, open_kwargs,
        payload)`` tuples admitted in order.  Equivalent to calling
        :meth:`open` once per spec — admission order, session ids and every
        float are identical — but the piecewise drain to *now* runs once
        for the whole burst instead of once per session (the per-session
        calls after the first are no-op re-advances to the same instant,
        pure call overhead at herd scale).
        """
        self.advance(now)
        sessions = []
        for nbytes, worker_id, kwargs, payload in specs:
            sessions.append(
                self._admit(
                    now, nbytes, worker_id=worker_id, payload=payload, **kwargs
                )
            )
        return sessions

    # ------------------------------------------------------------------ drain
    def _capped(self, session: LinkSession, rate: float) -> float:
        """*rate* limited by the session's own access bandwidth, if any."""
        if session.rate_cap is None:
            return rate
        return min(rate, session.rate_cap)

    def _rates(self) -> List[float]:
        """Current drain rate (bytes/s) of each session in ``self._draining``.

        Per-session rate caps apply on top of the discipline's share.  The
        cap is not work-conserving: bandwidth a capped session leaves on the
        table is not redistributed to its peers (the fluid model of a sender
        whose access link, not the shared pipe, is the constraint).
        """
        n = len(self._draining)
        if n == 0:
            return []
        if self.sharing == "fair":
            share = self.capacity / n
            return [self._capped(s, share) for s in self._draining]
        if self.sharing == "fifo":
            head = self._capped(self._draining[0], self.capacity)
            return [head] + [0.0] * (n - 1)
        # "none": infinite capacity — every session sees the full rate.
        return [self._capped(s, self.capacity) for s in self._draining]

    def advance(self, now: float) -> None:
        """Drain bytes piecewise up to *now*, honouring membership changes.

        Between two consecutive completions the active set (and therefore
        every session's rate) is constant, so the drain is exact: the loop
        jumps from completion to completion until *now* is reached.
        """
        if now < self._now - 1e-12:
            raise ConfigurationError(
                f"link scheduler cannot move backwards: now={now:.9f} < {self._now:.9f}"
            )
        # NOTE: the second line edited since the freeze — the same fix as
        # ``src/repro/cluster/link.py`` (``<=`` was ``<``: a residue draining
        # in less than the clock's ulp was due *now*, the loop never ran for
        # it, and ``pop_completed(next_completion())`` span for ever).
        while self._draining and self._now <= now:
            rates = self._rates()
            # Earliest drain completion under the current membership.
            horizon = min(
                self._now + s.remaining / r
                for s, r in zip(self._draining, rates)
                if r > 0.0
            )
            step_end = min(horizon, now)
            elapsed = step_end - self._now
            finished: List[LinkSession] = []
            for session, rate in zip(self._draining, rates):
                session.remaining -= rate * elapsed
                if session.remaining <= max(_DRAIN_EPS, 1e-12 * session.nbytes):
                    session.remaining = 0.0
                    session.drain_done = step_end
                    finished.append(session)
            if not finished and step_end <= self._now and horizon <= now:
                # A residue so small that remaining / rate underflows below
                # the clock's ulp: time cannot advance, but the session is
                # due within float noise — snap it closed to keep the
                # piecewise loop making progress.
                session = min(
                    (s for s, r in zip(self._draining, rates) if r > 0.0),
                    key=lambda s: (s.remaining, s.session_id),
                )
                session.remaining = 0.0
                session.drain_done = self._now
                finished.append(session)
            for session in finished:
                self._draining.remove(session)
                self._in_flight.append(session)
            self._now = max(self._now, step_end)
            if not finished and step_end >= now:
                break
        self._now = max(self._now, now)

    # ------------------------------------------------------------ completions
    def next_completion(self) -> Optional[float]:
        """Earliest time the link's state observably changes (``None`` if idle).

        Candidates are in-flight arrivals (exact — their drain is done) and
        the *drain* completions of active sessions.  A drain completion may
        deliver nothing to :meth:`pop_completed` (the propagation latency is
        still running), but it is a membership change: every peer's rate —
        and therefore every projected arrival — shifts at that instant, so
        callers must re-query and reschedule there.  Projecting arrivals of
        still-draining sessions at current rates would be unsound under
        heterogeneous per-session latencies: a high-latency session draining
        first *accelerates* a peer's arrival past the old projection.
        """
        candidates = [
            s.drain_done + self.latency_s + s.extra_latency_s for s in self._in_flight
        ]
        rates = self._rates()
        candidates.extend(
            self._now + s.remaining / r
            for s, r in zip(self._draining, rates)
            if r > 0.0
        )
        if self.sharing == "fifo" and len(self._draining) > 1:
            # Queued sessions complete after everything ahead of them drains
            # (each at its own capped rate while it holds the head slot).
            head = self._draining[0]
            backlog = self._now + head.remaining / self._capped(head, self.capacity)
            for session in self._draining[1:]:
                backlog += session.remaining / self._capped(session, self.capacity)
                candidates.append(backlog + self.latency_s + session.extra_latency_s)
        return min(candidates) if candidates else None

    def pop_completed(self, now: float) -> List[LinkSession]:
        """Advance to *now* and return the sessions completed by then.

        Completed sessions get their ``done_time`` stamped and leave the
        scheduler; ties resolve by admission order (deterministic).
        """
        self.advance(now)
        done: List[LinkSession] = []
        still: List[LinkSession] = []
        for session in self._in_flight:
            arrival = session.drain_done + self.latency_s + session.extra_latency_s
            if arrival <= now + 1e-9:
                session.done_time = arrival
                done.append(session)
            else:
                still.append(session)
        self._in_flight = still
        done.sort(key=lambda s: (s.done_time, s.session_id))
        self.sessions_completed += len(done)
        return done

    @property
    def active_sessions(self) -> int:
        """Sessions currently draining or in latency flight."""
        return len(self._draining) + len(self._in_flight)

    # ------------------------------------------------------------- batch mode
    def simulate(
        self,
        jobs: Sequence[Tuple[float, float]],
        *,
        session_kwargs: Optional[Sequence[dict]] = None,
    ) -> List[Tuple[float, float]]:
        """Run ``(start_time, nbytes)`` *jobs* to completion on a fresh link.

        The lock-step trainer uses this closed-world form: all of a step's
        transfers are known up front, so the whole contention schedule can be
        resolved at once.  Returns ``(completion_time, queueing_delay)`` per
        job, in input order.  ``session_kwargs`` optionally supplies one
        per-job dict of :meth:`open` extras (``rate_cap`` /
        ``extra_latency_s``) for heterogeneous senders.
        """
        if session_kwargs is not None and len(session_kwargs) != len(jobs):
            raise ConfigurationError(
                f"session_kwargs must match jobs: {len(session_kwargs)} != {len(jobs)}"
            )
        sim = LinkScheduler(
            bandwidth_gbps=self.bandwidth_gbps,
            latency_s=self.latency_s,
            sharing=self.sharing,
        )
        order = sorted(range(len(jobs)), key=lambda i: (jobs[i][0], i))
        sessions: List[Optional[LinkSession]] = [None] * len(jobs)
        for i in order:
            start, nbytes = jobs[i]
            extras = session_kwargs[i] if session_kwargs is not None else {}
            sessions[i] = sim.open(float(start), float(nbytes), worker_id=i, **extras)
        while sim.active_sessions:
            target = sim.next_completion()
            if target is None:  # pragma: no cover - all sessions zero-rate
                raise ConfigurationError("link simulation stalled with active sessions")
            # NOTE: the one line edited since the freeze — the same fix as
            # ``src/repro/cluster/link.py`` (a job arriving before a later
            # job's start used to rewind the clock and raise here).
            sim.pop_completed(max(target, sim._now))
        return [(s.done_time, s.queueing_delay) for s in sessions]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkScheduler(sharing={self.sharing!r}, "
            f"bandwidth_gbps={self.bandwidth_gbps}, active={self.active_sessions})"
        )
