"""Event-scheduled link contention: the server's shared ingress/egress pipes.

The seed transport priced every transfer with a closed-form per-transfer
formula, so N concurrent model fetches each saw the *full* downlink — the
server's pipe had infinite capacity.  This module models the link as a shared
resource: a :class:`LinkScheduler` owns one direction of the server's
bandwidth, admits byte-sized :class:`LinkSession` objects, and drains them
under a configurable sharing discipline, so a transfer's completion time
*emerges from contention* instead of a formula.

Sharing disciplines
-------------------
``none``
    The seed semantics: every session drains at the full link rate
    regardless of concurrency (infinite capacity).  Completion times are
    bit-identical to the closed-form ``bytes / bandwidth + latency``.
``fair``
    Processor sharing (the fluid limit of per-flow fair queueing): the
    ``n`` active sessions each drain at ``capacity / n``, recomputed at
    every arrival and departure.  A full-sync model broadcast to ``n``
    workers therefore costs ``n`` times the solo transfer — the pipelined
    broadcast cost the ROADMAP calls for.
``fifo``
    Strict store-and-forward: sessions drain one at a time in admission
    order at the full rate; later sessions queue.

All disciplines add the propagation ``latency`` once per session *after* its
bytes finish draining, so ``none`` reproduces the seed formula exactly.
Time only moves through :meth:`LinkScheduler.advance`, which drains
piecewise between membership changes — the discrete-event contract of
:mod:`repro.cluster.events` holds (the event loop advances the scheduler at
every open and completion, never mid-interval).

Complexity
----------
With ``n`` sessions on a pipe, sessions whose bytes have drained wait out
their latency on a min-heap keyed ``(arrival, session_id)``: landing one is
O(log n), :meth:`~LinkScheduler.pop_completed` is O(log n) per session it
returns and O(1) when nothing is due, and reading the earliest arrival is
O(1).  What the draining side costs depends on the discipline:

``fifo``
    Only the head of the queue drains, at a rate fixed by the pipe and its
    own cap, so a drain step and :meth:`~LinkScheduler.next_completion` are
    O(1) and a pipe that carries ``n`` sessions costs O(n log n) in all.
    ``next_completion`` does *not* project the sessions queued behind the
    head: each one's arrival is the head's drain completion plus the
    non-negative drain times and latencies still ahead of it, and float
    addition of non-negative terms is monotone, so such a projection can
    never be the minimum — the head's drain completion already is a
    candidate.
``fair`` / ``none``
    Every arrival and departure changes every session's rate (``fair``) or
    may be any session's completion (``none``), so a drain step and
    ``next_completion`` visit all ``n`` draining sessions: O(n) per link
    event, O(n²) per pipe, one Python iteration per session per event.
    The sessions a step lands leave in one rebuild.

Closed world
    :meth:`~LinkScheduler.simulate` knows every transfer up front (the
    lock-step trainer's case), so it builds no sessions and replays no
    events: it resolves the jobs on structure-of-arrays state and returns
    the very floats the event API would.  A stable argsort of the starts is
    the ``(start, index)`` admission order.  Under ``fair`` / ``none`` the
    draining set is a handful of aligned arrays kept in admission order and
    a piecewise step is the per-session expressions written elementwise
    over them — still O(n) arithmetic per distinct start and per departure,
    but a constant number of array operations instead of a Python loop, and
    sessions that start together or land together cost one step between
    them (a broadcast to 500 workers is one step, not 500).  Two details
    keep it exact.  The arrivals of sessions that have drained stay on a
    min-heap of plain floats, because a caller draining the event API
    advances *to* them while others still drain and a drain step cut at a
    breakpoint rounds differently from an uncut one; they are breakpoints
    and nothing else.  And a same-start burst joins in one piece only when
    no residue can be below the clock's ulp (:meth:`~LinkScheduler.open_many`
    then re-advances to the instant between two admissions, which can snap
    such a residue closed); otherwise it joins one job at a time.  Under ``fifo`` exactly one session is served at a time, so there
    is no set to vectorise over: the closed world is the head-only drain as
    a scalar recurrence on plain floats — an array step over a one-element
    served set measured slower than the per-session replay it would replace.

Heterogeneous links
-------------------
The scheduler is no longer restricted to one symmetric pipe.  Each session
may carry a ``rate_cap`` (its sender's access bandwidth, in bytes/s) and an
``extra_latency_s`` (its sender's access propagation), so a slow worker
drains slowly even on an idle backbone.  On top of that, a
:class:`LinkTopology` groups workers into *regions*, each with its own
shared bottleneck pipe (a WAN uplink): the :class:`LinkFabric` routes every
transfer to its region's scheduler, so ``fair``/``fifo`` contention plays
out per bottleneck instead of on one global pipe.  The server's own NIC is
assumed provisioned above the sum of the regional bottlenecks (the usual
WAN setting: the constraint is the region's uplink, not the datacenter
port), so cross-region transfers never contend with each other.

Topologies are described either programmatically or by a compact profile
string (``--link-profile``): ``"wan:3x10mbit"`` builds three regions with a
10 Mbit/s shared bottleneck each (workers assigned round-robin), and an
optional ``/<latency>`` suffix (``"wan:3x10mbit/40ms"``) adds per-region
propagation.  ``"symmetric"`` (or an empty string) keeps the seed's single
shared pipe.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

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


def _session_extras(
    rate_cap: Optional[float] = None, extra_latency_s: float = 0.0
) -> Tuple[Optional[float], float]:
    """One ``session_kwargs`` entry of :meth:`LinkScheduler.simulate`, unpacked.

    Called as ``_session_extras(**entry)``, so a misspelt key is a
    ``TypeError`` exactly as it is for :meth:`LinkScheduler.open_many`.
    """
    return rate_cap, extra_latency_s


def _require(ok: np.ndarray, requirement: str, values: np.ndarray) -> None:
    """Raise naming the first entry of *values* that fails *requirement*."""
    if not ok.all():
        raise ConfigurationError(f"{requirement}, got {values[~ok][0]}")


def _drain_due(clock: float, until: float, least_drain_s: float) -> bool:
    """Whether draining a link whose clock reads *clock* to *until* can do anything.

    It can whenever the clock has to move.  When it is already there, only a
    residue that drains in less than the clock's ulp is due — it lands
    without the clock moving, which is what keeps ``pop_completed(
    next_completion())`` from spinning on it — and none is that small while
    *least_drain_s*, a lower bound on every draining session's ``remaining /
    rate``, still moves the clock (float division and addition are monotone).
    """
    return clock < until or (clock == until and clock + least_drain_s == clock)


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
        #: What the smallest residue a draining session can hold (more than
        #: ``_DRAIN_EPS`` bytes) takes at the highest rate any session gets.
        self._least_drain_s = _DRAIN_EPS / self.capacity
        self._now = 0.0
        #: Sessions still draining bytes, in admission order (``fifo``
        #: serves the left end and departs it in O(1)).
        self._draining: Deque[LinkSession] = deque()
        #: Sessions whose bytes drained, waiting out the propagation latency:
        #: a min-heap of ``(arrival, session_id, session)``.  The unique
        #: ``session_id`` settles equal arrivals, so the heap never compares
        #: sessions and pops in exactly ``(done_time, session_id)`` order.
        self._in_flight: List[Tuple[float, int, LinkSession]] = []
        self._counter = 0
        #: Total sessions admitted / completed and bytes carried (telemetry).
        self.sessions_opened = 0
        self.sessions_completed = 0
        self.bytes_carried = 0.0

    # --------------------------------------------------------------- admission
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
        """Validate and enqueue one session; the clock is already at *now*.

        The event API's one admission site (every session
        :meth:`open_many` admits passes through it), so its one place that
        rejects non-finite input: a NaN byte count makes every drain horizon
        NaN and :meth:`advance` spin for ever, an infinite one pins its pipe
        for good.  (:meth:`simulate` applies the same rules to whole arrays
        in :meth:`_resolve`.)
        """
        if not math.isfinite(now):
            raise ConfigurationError(f"now must be finite, got {now}")
        if not (math.isfinite(nbytes) and nbytes >= 0):
            raise ConfigurationError(
                f"nbytes must be finite and non-negative, got {nbytes}"
            )
        if rate_cap is not None and not (math.isfinite(rate_cap) and rate_cap > 0):
            raise ConfigurationError(
                f"rate_cap must be finite and positive, got {rate_cap}"
            )
        if not (math.isfinite(extra_latency_s) and extra_latency_s >= 0):
            raise ConfigurationError(
                f"extra_latency_s must be finite and non-negative, got {extra_latency_s}"
            )
        now, nbytes, extra_latency_s = float(now), float(nbytes), float(extra_latency_s)
        solo_rate = self.capacity if rate_cap is None else min(self.capacity, rate_cap)
        session = LinkSession(
            session_id=self._counter,
            worker_id=int(worker_id),
            nbytes=nbytes,
            start_time=now,
            solo_seconds=nbytes / solo_rate + self.latency_s + extra_latency_s,
            remaining=nbytes,
            rate_cap=rate_cap,
            extra_latency_s=extra_latency_s,
            payload=payload,
        )
        self._counter += 1
        self.sessions_opened += 1
        self.bytes_carried += nbytes
        if nbytes <= _DRAIN_EPS:
            self._land(session, now)
        else:
            self._draining.append(session)
        return session

    def _land(self, session: LinkSession, drain_done: float) -> None:
        """The last byte of *session* left at *drain_done*: start its latency."""
        session.remaining = 0.0
        session.drain_done = drain_done
        arrival = drain_done + self.latency_s + session.extra_latency_s
        heapq.heappush(self._in_flight, (arrival, session.session_id, session))

    def open_many(
        self, now: float, specs: Sequence[Tuple[float, int, dict, object]]
    ) -> List[LinkSession]:
        """Admit a same-time burst of transfers; returns their sessions in order.

        *specs* is a sequence of ``(nbytes, worker_id, extras, payload)``
        tuples admitted in order; ``extras`` is the sender's own access link
        (``rate_cap`` in bytes/s, ``extra_latency_s``), which each session's
        solo time — the baseline its queueing delay is measured against —
        accounts for.  A burst equals its specs admitted one at a time, each
        after draining the link to *now* — admission order, session ids and
        every float are identical — but the drain runs once for the whole
        burst, and again between two admissions only at a clock whose ulp
        exceeds the least drain time, where it can snap a residue closed.
        An empty burst leaves the link where it was.
        """
        if not specs:
            return []
        self.advance(now)
        readvance = self._now + self._least_drain_s == self._now
        sessions = []
        for nbytes, worker_id, kwargs, payload in specs:
            if readvance and sessions:
                self.advance(now)
            sessions.append(
                self._admit(
                    now, nbytes, worker_id=worker_id, payload=payload, **kwargs
                )
            )
        return sessions

    # ------------------------------------------------------------------ drain
    def _capped(self, session: LinkSession, rate: float) -> float:
        """*rate* limited by the session's own access bandwidth, if any.

        The cap is not work-conserving: bandwidth a capped session leaves on
        the table is not redistributed to its peers (the fluid model of a
        sender whose access link, not the shared pipe, is the constraint).
        """
        if session.rate_cap is None:
            return rate
        return min(rate, session.rate_cap)

    def _rates(self) -> List[float]:
        """Drain rate (bytes/s) of each draining session under ``fair`` / ``none``."""
        # "none" is infinite capacity: every session sees the full rate.
        share = (
            self.capacity / len(self._draining)
            if self.sharing == "fair"
            else self.capacity
        )
        return [self._capped(s, share) for s in self._draining]

    def advance(self, now: float) -> None:
        """Drain bytes piecewise up to *now*, honouring membership changes.

        Between two consecutive completions the set of sessions being served
        (and therefore every session's rate) is constant, so the drain is
        exact: it jumps from completion to completion until *now* is
        reached.  A jump costs O(1) under ``fifo`` — only the head of the
        queue is served — and O(n) under ``fair`` / ``none``, plus O(log n)
        for every session it lands on the in-flight heap.
        """
        if now < self._now - 1e-12:
            raise ConfigurationError(
                f"link scheduler cannot move backwards: now={now:.9f} < {self._now:.9f}"
            )
        # Most calls have nothing to drain (every admission of a same-time
        # burst re-advances to the same instant): skip the dispatch for them.
        if self._draining and _drain_due(self._now, now, self._least_drain_s):
            if self.sharing == "fifo":
                self._drain_head(now)
            else:
                self._drain_shared(now)
        self._now = max(self._now, now)

    def _drain_head(self, now: float) -> None:
        """``fifo`` drain to *now*: the head at its full rate, one at a time.

        Sessions queued behind the head wait at rate zero, and none of them
        can be due: admission sends a payload at or below the drain
        threshold straight to in-flight.  So a step never has to visit them.
        """
        draining = self._draining
        while draining and _drain_due(self._now, now, self._least_drain_s):
            head = draining[0]
            rate = self._capped(head, self.capacity)
            horizon = self._now + head.remaining / rate
            step_end = min(horizon, now)
            head.remaining -= rate * (step_end - self._now)
            if head.remaining <= max(_DRAIN_EPS, 1e-12 * head.nbytes):
                self._land(draining.popleft(), step_end)
            elif step_end <= self._now and horizon <= now:
                # Too small a residue to move the clock (see _drain_shared).
                self._land(draining.popleft(), self._now)
            elif step_end >= now:
                break
            self._now = max(self._now, step_end)

    def _drain_shared(self, now: float) -> None:
        """``fair`` / ``none`` drain to *now*: every session moves each step."""
        while self._draining and _drain_due(self._now, now, self._least_drain_s):
            rates = self._rates()
            # Earliest drain completion under the current membership.
            horizon = min(
                self._now + s.remaining / r for s, r in zip(self._draining, rates)
            )
            step_end = min(horizon, now)
            elapsed = step_end - self._now
            landed = False
            for session, rate in zip(self._draining, rates):
                session.remaining -= rate * elapsed
                if session.remaining <= max(_DRAIN_EPS, 1e-12 * session.nbytes):
                    self._land(session, step_end)
                    landed = True
            if not landed and step_end <= self._now and horizon <= now:
                # A residue so small that remaining / rate underflows below
                # the clock's ulp: time cannot advance, but the session is
                # due within float noise — snap it closed to keep the
                # piecewise loop making progress.
                self._land(
                    min(self._draining, key=lambda s: (s.remaining, s.session_id)),
                    self._now,
                )
                landed = True
            if landed:  # one rebuild per step, however many sessions landed
                self._draining = deque(
                    [s for s in self._draining if s.drain_done is None]
                )
            self._now = max(self._now, step_end)
            if not landed and step_end >= now:
                break

    # ------------------------------------------------------------ completions
    def next_completion(self) -> Optional[float]:
        """Earliest time the link's state observably changes (``None`` if idle).

        Candidates are the earliest in-flight arrival (exact — its drain is
        done; the top of the heap) and the *drain* completions of the
        sessions being served.  A drain completion may deliver nothing to
        :meth:`pop_completed` (the propagation latency is still running), but
        it is a membership change: every peer's rate — and therefore every
        projected arrival — shifts at that instant, so callers must re-query
        and reschedule there.  Projecting arrivals of still-draining sessions
        at current rates would be unsound under heterogeneous per-session
        latencies: a high-latency session draining first *accelerates* a
        peer's arrival past the old projection.  Sessions queued behind a
        ``fifo`` head contribute nothing: whatever they do happens after the
        head's drain completion, which is already a candidate.  O(1) under
        ``fifo``, O(n) under ``fair`` / ``none``.
        """
        candidates = [self._in_flight[0][0]] if self._in_flight else []
        if self._draining:
            if self.sharing == "fifo":
                head = self._draining[0]
                candidates.append(
                    self._now + head.remaining / self._capped(head, self.capacity)
                )
            else:
                candidates.extend(
                    self._now + s.remaining / r
                    for s, r in zip(self._draining, self._rates())
                )
        return min(candidates) if candidates else None

    def pop_completed(self, now: float) -> List[LinkSession]:
        """Advance to *now* and return the sessions completed by then.

        Completed sessions get their ``done_time`` stamped and leave the
        scheduler in ``(done_time, session_id)`` order — ties resolve by
        admission order (deterministic).  O(log n) per session returned,
        O(1) when nothing is due.
        """
        self.advance(now)
        in_flight = self._in_flight
        done: List[LinkSession] = []
        while in_flight and in_flight[0][0] <= now + 1e-9:
            arrival, _, session = heapq.heappop(in_flight)
            session.done_time = arrival
            done.append(session)
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
        per-job dict of :meth:`open_many` extras (``rate_cap`` /
        ``extra_latency_s``) for heterogeneous senders.

        Every float equals what admitting the jobs one at a time in
        ``(start, index)`` order through :meth:`open_many` on an idle link
        and then looping
        ``pop_completed(next_completion())`` until it is idle again would
        produce, but no session object is built: the jobs are resolved on
        arrays (see *Closed world* in the module docstring).  This
        scheduler's own sessions and counters are not touched.
        """
        if session_kwargs is not None and len(session_kwargs) != len(jobs):
            raise ConfigurationError(
                f"session_kwargs must match jobs: {len(session_kwargs)} != {len(jobs)}"
            )
        table = np.asarray(jobs, dtype=np.float64).reshape(-1, 2)
        rate_caps = np.full(len(table), np.inf)
        extra_latency = np.zeros(len(table))
        for i, extras in enumerate(session_kwargs or ()):
            rate_cap, extra_latency[i] = _session_extras(**extras)
            if rate_cap is not None:
                # ``inf`` means "uncapped" from here on, so an explicit one
                # (or a NaN) has to be refused before it is stored.
                if not (math.isfinite(rate_cap) and rate_cap > 0):
                    raise ConfigurationError(
                        f"rate_cap must be finite and positive, got {rate_cap}"
                    )
                rate_caps[i] = rate_cap
        done, delays = self._resolve(table[:, 0], table[:, 1], rate_caps, extra_latency)
        return list(zip(done.tolist(), delays.tolist()))

    def _resolve(
        self,
        starts: np.ndarray,
        nbytes: np.ndarray,
        rate_caps: np.ndarray,
        extra_latency: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`simulate` on aligned float arrays (``rate_caps``: ``inf`` = none).

        The closed world's one validation site — it refuses what
        :meth:`_admit` refuses — and the one place the solo time, the
        arrival and the queueing delay of a job are derived from the instant
        its last byte drained, which is all the two drain solvers compute.
        """
        _require(np.isfinite(starts), "now must be finite", starts)
        _require(
            np.isfinite(nbytes) & (nbytes >= 0),
            "nbytes must be finite and non-negative", nbytes,
        )
        _require(rate_caps > 0, "rate_cap must be positive", rate_caps)
        _require(
            np.isfinite(extra_latency) & (extra_latency >= 0),
            "extra_latency_s must be finite and non-negative", extra_latency,
        )
        if starts.size == 0:
            return np.empty(0), np.empty(0)
        # Admission order: by start, ties by input position.
        order = np.argsort(starts, kind="stable")
        first = float(starts[order[0]])
        if first < -1e-12:  # the fresh link's clock reads 0.0
            raise ConfigurationError(
                f"link scheduler cannot move backwards: now={first:.9f} < {0.0:.9f}"
            )
        solve = self._closed_fifo if self.sharing == "fifo" else self._closed_shared
        drained = solve(order, starts, nbytes, rate_caps, extra_latency)
        done = drained + self.latency_s + extra_latency
        solo = nbytes / np.minimum(self.capacity, rate_caps) + self.latency_s + extra_latency
        return done, np.maximum(done - starts - solo, 0.0)

    def _closed_shared(
        self,
        order: np.ndarray,
        starts: np.ndarray,
        nbytes: np.ndarray,
        rate_caps: np.ndarray,
        extra_latency: np.ndarray,
    ) -> np.ndarray:
        """``fair`` / ``none``: when each job's last byte drains, array-at-a-time.

        The draining set is four aligned arrays in admission order, and a
        piecewise step is :meth:`_drain_shared`'s expressions written
        elementwise over them, so each float is the one the per-session
        loop computes.  First occurrence of the smallest remainder *is* the
        ``(remaining, session_id)`` tie-break, because the arrays stay in
        admission order.
        """
        fair = self.sharing == "fair"
        capacity, latency, least_drain_s = self.capacity, self.latency_s, self._least_drain_s
        thresholds = np.maximum(_DRAIN_EPS, 1e-12 * nbytes)
        # A payload at or below the drain threshold never drains: it lands at
        # its own start.
        instant = nbytes <= _DRAIN_EPS
        drained = np.where(instant, starts, np.nan)
        now = 0.0
        active = np.empty(0, dtype=np.intp)
        remaining, caps, floors = np.empty(0), np.empty(0), np.empty(0)

        def rates() -> np.ndarray:
            return np.minimum(capacity / active.size if fair else capacity, caps)

        def advance(until: float) -> List[np.ndarray]:
            """Drain piecewise to *until*; returns the jobs landed on the way."""
            nonlocal now, active, remaining, caps, floors
            landed: List[np.ndarray] = []
            while active.size and _drain_due(now, until, least_drain_s):
                rate = rates()
                horizon = float((now + remaining / rate).min())
                step_end = min(horizon, until)
                remaining -= rate * (step_end - now)
                due = remaining <= floors
                when = step_end
                if not np.count_nonzero(due):
                    if step_end <= now and horizon <= until:
                        # Too small a residue to move the clock: snap the
                        # smallest (earliest admitted on a tie) closed.
                        due[remaining.argmin()] = True
                        when = now
                    elif step_end >= until:
                        break
                    else:  # round-off left the horizon's session a residue
                        now = step_end
                        continue
                landed.append(active[due])
                drained[landed[-1]] = when
                keep = ~due
                active, remaining = active[keep], remaining[keep]
                caps, floors = caps[keep], floors[keep]
                now = max(now, step_end)
            now = max(now, until)
            return landed

        # Admission: one drain per distinct start, then the whole burst joins.
        sorted_starts = starts[order]
        cuts = (np.flatnonzero(sorted_starts[1:] != sorted_starts[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [order.size]):
            burst = order[lo:hi]
            start = float(sorted_starts[lo])
            advance(start)
            chunks = [burst]
            if burst.size > 1:
                # Opened one at a time, every job after the first re-advances
                # to the same instant, which can only snap a sub-ulp residue
                # closed — and whether one exists depends on how many
                # sessions share the pipe by then.  So the burst joins in
                # one piece only if no residue can be that small, judged on
                # the smallest remainder there is (the scheduler-wide bound
                # gives up early on a fast pipe); otherwise it joins the way
                # it is opened.
                sizes = nbytes[burst]
                least = min(
                    remaining.min(initial=np.inf),
                    sizes.min(initial=np.inf, where=sizes > _DRAIN_EPS),
                )
                if _drain_due(now, now, least / capacity):
                    chunks = np.split(burst, np.arange(1, burst.size))
            for position, chunk in enumerate(chunks):
                if position:
                    advance(start)
                fresh = chunk[~instant[chunk]]
                active = np.concatenate([active, fresh])
                remaining = np.concatenate([remaining, nbytes[fresh]])
                caps = np.concatenate([caps, rate_caps[fresh]])
                floors = np.concatenate([floors, thresholds[fresh]])

        # Run to completion.  The arrivals of jobs that have drained are
        # advance targets too — a drain step cut at one rounds differently
        # from an uncut one — so they are kept, as plain floats, purely as
        # breakpoints; once nothing drains they cannot matter any more.
        in_flight = (drained + latency + extra_latency)[~np.isnan(drained)].tolist()
        heapq.heapify(in_flight)
        while active.size:
            target = float((now + remaining / rates()).min())
            if in_flight:
                target = min(in_flight[0], target)
            target = max(target, now)
            landed = advance(target)
            if landed and active.size:
                jobs = np.concatenate(landed)
                for arrival in (drained[jobs] + latency + extra_latency[jobs]).tolist():
                    heapq.heappush(in_flight, arrival)
            while in_flight and in_flight[0] <= target + 1e-9:
                heapq.heappop(in_flight)
        return drained

    def _closed_fifo(
        self,
        order: np.ndarray,
        starts: np.ndarray,
        nbytes: np.ndarray,
        rate_caps: np.ndarray,
        extra_latency: np.ndarray,
    ) -> np.ndarray:
        """``fifo``: when each job's last byte drains, as a scalar recurrence.

        Exactly one session is served at a time, so there is no set to
        vectorise over: this is :meth:`_drain_head` on plain floats.
        """
        latency, least_drain_s = self.latency_s, self._least_drain_s
        start, size, extra = starts.tolist(), nbytes.tolist(), extra_latency.tolist()
        rate = np.minimum(self.capacity, rate_caps).tolist()
        remaining = list(size)
        drained = [0.0] * len(size)
        queue: Deque[int] = deque()
        in_flight: List[float] = []  # arrivals, kept only as breakpoints
        now = 0.0

        def land(job: int, when: float) -> None:
            drained[job] = when
            heapq.heappush(in_flight, when + latency + extra[job])

        def advance(until: float) -> None:
            nonlocal now
            while queue and _drain_due(now, until, least_drain_s):
                head = queue[0]
                horizon = now + remaining[head] / rate[head]
                step_end = min(horizon, until)
                remaining[head] -= rate[head] * (step_end - now)
                if remaining[head] <= max(_DRAIN_EPS, 1e-12 * size[head]):
                    land(queue.popleft(), step_end)
                elif step_end <= now and horizon <= until:
                    land(queue.popleft(), now)
                elif step_end >= until:
                    break
                now = max(now, step_end)
            now = max(now, until)

        for job in order.tolist():
            advance(start[job])
            if size[job] <= _DRAIN_EPS:
                land(job, start[job])
            else:
                queue.append(job)
        while queue:
            head = queue[0]
            target = now + remaining[head] / rate[head]
            if in_flight:
                target = min(in_flight[0], target)
            target = max(target, now)
            advance(target)
            while in_flight and in_flight[0] <= target + 1e-9:
                heapq.heappop(in_flight)
        return np.array(drained)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkScheduler(sharing={self.sharing!r}, "
            f"bandwidth_gbps={self.bandwidth_gbps}, active={self.active_sessions})"
        )


# --------------------------------------------------------------------------
# Heterogeneous link topologies
# --------------------------------------------------------------------------

#: Default region name when no topology is configured (one symmetric pipe).
DEFAULT_REGION = "core"

#: Bandwidth-unit suffixes accepted by :func:`parse_link_profile`, in Gbit/s.
_BANDWIDTH_UNITS = {"kbit": 1e-6, "mbit": 1e-3, "gbit": 1.0}

#: Latency-unit suffixes accepted by :func:`parse_link_profile`, in seconds.
_LATENCY_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _parse_bandwidth_gbps(text: str) -> float:
    """``"10mbit"`` → 0.01 (Gbit/s); raises on malformed values."""
    match = re.fullmatch(r"([0-9]*\.?[0-9]+)(kbit|mbit|gbit)", text.strip().lower())
    if match is None:
        raise ConfigurationError(
            f"malformed bandwidth {text!r}; expected e.g. '10mbit', '100kbit', '1gbit'"
        )
    value = float(match.group(1)) * _BANDWIDTH_UNITS[match.group(2)]
    if value <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {text!r}")
    return value


def _parse_latency_s(text: str) -> float:
    """``"40ms"`` → 0.04 (seconds); raises on malformed values."""
    match = re.fullmatch(r"([0-9]*\.?[0-9]+)(us|ms|s)", text.strip().lower())
    if match is None:
        raise ConfigurationError(
            f"malformed latency {text!r}; expected e.g. '40ms', '0.1s'"
        )
    return float(match.group(1)) * _LATENCY_UNITS[match.group(2)]


@dataclass(frozen=True)
class RegionLink:
    """One region's shared bottleneck pipe towards the parameter server.

    Attributes
    ----------
    name:
        Region identifier (telemetry key for per-region queueing).
    bandwidth_gbps:
        The bottleneck's capacity; ``None`` inherits the cost model's
        symmetric bandwidth (no regional constraint).
    latency_s:
        Extra one-way propagation of the regional hop, added on top of the
        cost model's base latency.
    """

    name: str
    bandwidth_gbps: Optional[float] = None
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("region name must be non-empty")
        if self.bandwidth_gbps is not None and self.bandwidth_gbps <= 0:
            raise ConfigurationError(
                f"region bandwidth_gbps must be positive, got {self.bandwidth_gbps}"
            )
        if self.latency_s < 0:
            raise ConfigurationError(
                f"region latency_s must be non-negative, got {self.latency_s}"
            )


@dataclass
class LinkTopology:
    """Per-worker link characteristics plus per-region shared bottlenecks.

    Attributes
    ----------
    regions:
        The regional bottleneck pipes (at least one).
    worker_regions:
        ``worker_id → region name`` for every worker in the deployment.
    worker_bandwidth_gbps:
        Optional per-worker access-bandwidth ceilings (a slow NIC / DSL
        uplink); applied as a rate cap inside the region's scheduler and to
        solo transfer times.
    worker_latency_s:
        Optional per-worker extra one-way access latency.
    """

    regions: Tuple[RegionLink, ...]
    worker_regions: Dict[int, str] = field(default_factory=dict)
    worker_bandwidth_gbps: Dict[int, float] = field(default_factory=dict)
    worker_latency_s: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.regions = tuple(self.regions)
        if not self.regions:
            raise ConfigurationError("a link topology needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate region names: {names}")
        # Built once: region lookups sit on the per-transfer hot path.
        self._region_map = {region.name: region for region in self.regions}
        known = set(names)
        for worker_id, region in self.worker_regions.items():
            if region not in known:
                raise ConfigurationError(
                    f"worker {worker_id} is assigned to unknown region {region!r} "
                    f"(regions: {sorted(known)})"
                )
        for worker_id, bandwidth in self.worker_bandwidth_gbps.items():
            if bandwidth <= 0:
                raise ConfigurationError(
                    f"worker {worker_id} bandwidth_gbps must be positive, got {bandwidth}"
                )
        for worker_id, latency in self.worker_latency_s.items():
            if latency < 0:
                raise ConfigurationError(
                    f"worker {worker_id} latency_s must be non-negative, got {latency}"
                )
        # The per-worker route table, also built once: sorted worker ids and,
        # aligned with them, the region's position in ``regions``, the access
        # bandwidth (``inf`` = uncapped) and the access latency.
        ids = sorted(self.worker_regions)
        position = {name: index for index, name in enumerate(names)}
        self._route_ids = np.array(ids, dtype=np.intp)
        self._route_regions = np.array(
            [position[self.worker_regions[w]] for w in ids], dtype=np.intp
        )
        self._route_gbps = np.array(
            [self.worker_bandwidth_gbps.get(w, np.inf) for w in ids], dtype=np.float64
        )
        self._route_latency = np.array(
            [self.worker_latency_s.get(w, 0.0) for w in ids], dtype=np.float64
        )

    @property
    def region_map(self) -> Dict[str, RegionLink]:
        """Mapping from region name to its spec (cached at construction)."""
        return self._region_map

    def routes(
        self, worker_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array form of :meth:`region_of` plus each worker's access link.

        Returns, aligned with *worker_ids*: the position of the worker's
        region in ``regions``, its access bandwidth in Gbit/s (``inf`` when
        it has no cap) and its extra access latency in seconds.
        """
        worker_ids = np.asarray(worker_ids, dtype=np.intp)
        known = self._route_ids
        rows = np.minimum(np.searchsorted(known, worker_ids), known.size - 1)
        missing = worker_ids[known[rows] != worker_ids] if known.size else worker_ids
        if missing.size:
            raise ConfigurationError(
                f"worker {missing[0]} has no region assignment in the link topology"
            )
        return self._route_regions[rows], self._route_gbps[rows], self._route_latency[rows]

    def region_of(self, worker_id: int) -> str:
        """The region *worker_id*'s transfers are routed through."""
        try:
            return self.worker_regions[int(worker_id)]
        except KeyError as exc:
            raise ConfigurationError(
                f"worker {worker_id} has no region assignment in the link topology"
            ) from exc

    def validate_workers(self, worker_ids: Sequence[int]) -> None:
        """Require a region assignment for every deployed worker."""
        missing = sorted(int(w) for w in worker_ids if int(w) not in self.worker_regions)
        if missing:
            raise ConfigurationError(
                f"link topology assigns no region to workers {missing}; every "
                "deployed worker needs one (extend worker_regions or drop the topology)"
            )


def parse_link_profile(profile: Optional[str], num_workers: int) -> Optional[LinkTopology]:
    """Build a :class:`LinkTopology` from a compact ``--link-profile`` string.

    Grammar
    -------
    ``"symmetric"`` (or ``None`` / ``""``)
        No topology: the seed's single symmetric pipe.
    ``"wan:<R>x<BW>[/<LAT>]"``
        ``R`` regions named ``region0..region{R-1}``, each a shared
        bottleneck of bandwidth ``BW`` (``kbit``/``mbit``/``gbit`` suffix)
        with optional extra one-way latency ``LAT`` (``us``/``ms``/``s``
        suffix).  Workers are assigned round-robin: worker ``i`` lands in
        region ``i % R``, so Byzantine ids (which come first) spread across
        regions the same way honest ids do.
    """
    if profile is None:
        return None
    text = str(profile).strip().lower()
    if text in ("", "symmetric"):
        return None
    match = re.fullmatch(r"wan:(\d+)x([^/]+)(?:/(.+))?", text)
    if match is None:
        raise ConfigurationError(
            f"malformed link profile {profile!r}; expected 'symmetric' or "
            "'wan:<regions>x<bandwidth>[/<latency>]', e.g. 'wan:3x10mbit/40ms'"
        )
    num_regions = int(match.group(1))
    if num_regions < 1:
        raise ConfigurationError(
            f"link profile {profile!r} needs at least one region"
        )
    if num_regions > num_workers:
        raise ConfigurationError(
            f"link profile {profile!r} declares {num_regions} regions for only "
            f"{num_workers} workers; at least one worker per region is required"
        )
    bandwidth = _parse_bandwidth_gbps(match.group(2))
    latency = _parse_latency_s(match.group(3)) if match.group(3) else 0.0
    regions = tuple(
        RegionLink(name=f"region{i}", bandwidth_gbps=bandwidth, latency_s=latency)
        for i in range(num_regions)
    )
    worker_regions = {
        worker_id: f"region{worker_id % num_regions}" for worker_id in range(num_workers)
    }
    return LinkTopology(regions=regions, worker_regions=worker_regions)


class LinkFabric:
    """Routes transfers onto the right pipe of a (possibly WAN) topology.

    One fabric serves both trainers: it owns the mapping from a worker to
    its bottleneck pipe, the per-session access-link parameters, and the
    closed-world multi-pipe contention resolution the lock-step trainer
    uses.  Without a topology it degenerates to the single symmetric pipe of
    the cost model — solo times delegate to
    :meth:`~repro.cluster.cost_model.CostModel.transfer_time` verbatim, so
    the seed arithmetic (and its bit-identical trajectories) is preserved.
    """

    def __init__(self, cost_model, topology: Optional[LinkTopology] = None,
                 *, sharing: str = "none") -> None:
        if sharing not in SHARING_MODES:
            raise ConfigurationError(
                f"link sharing must be one of {SHARING_MODES}, got {sharing!r}"
            )
        self.cost_model = cost_model
        self.topology = topology
        self.sharing = sharing

    # ------------------------------------------------------------- routing
    def region_names(self) -> Tuple[str, ...]:
        """Names of the bottleneck pipes (one per region; ``core`` if none)."""
        if self.topology is None:
            return (DEFAULT_REGION,)
        return tuple(region.name for region in self.topology.regions)

    def region_of(self, worker_id: int) -> str:
        """The pipe *worker_id*'s transfers contend on."""
        if self.topology is None:
            return DEFAULT_REGION
        return self.topology.region_of(worker_id)

    def session_kwargs(self, worker_id: int) -> dict:
        """Per-session :meth:`LinkScheduler.open_many` extras for *worker_id*."""
        if self.topology is None:
            return {}
        cap = self.topology.worker_bandwidth_gbps.get(int(worker_id))
        extra = self.topology.worker_latency_s.get(int(worker_id), 0.0)
        return {
            "rate_cap": None if cap is None else cap * 1e9 / 8.0,
            "extra_latency_s": float(extra),
        }

    def _pipe(self, region: RegionLink) -> Tuple[float, float]:
        """``(bandwidth_gbps, latency_s)`` of *region*'s bottleneck pipe.

        The server's NIC (the cost model's symmetric rate) caps the region's
        bandwidth; the region's propagation adds to the base latency.
        """
        bandwidth = self.cost_model.bandwidth_gbps
        if region.bandwidth_gbps is not None:
            bandwidth = min(bandwidth, region.bandwidth_gbps)
        return bandwidth, self.cost_model.latency_s + region.latency_s

    def scheduler_for(self, region: str) -> LinkScheduler:
        """A fresh scheduler for one direction of *region*'s bottleneck."""
        bandwidth = self.cost_model.bandwidth_gbps
        latency = self.cost_model.latency_s
        if self.topology is not None:
            spec = self.topology.region_map.get(region)
            if spec is None:
                raise ConfigurationError(f"unknown region {region!r}")
            bandwidth, latency = self._pipe(spec)
        return LinkScheduler(
            bandwidth_gbps=bandwidth, latency_s=latency, sharing=self.sharing
        )

    # --------------------------------------------------------------- pricing
    def solo_seconds_batch(self, worker_ids: Sequence[int], nbytes: np.ndarray) -> np.ndarray:
        """Uncontended transfer times of *nbytes* on the paths of aligned *worker_ids*.

        A worker's path bandwidth is the minimum of the symmetric cost-model
        rate, its region's bottleneck and its access cap; latencies add up
        along the hops.  Without a topology every path is the symmetric pipe,
        so the whole batch is one ``transfer_time_batch`` call (exactly
        ``cost_model.transfer_time`` per entry).  With one, each worker's
        min-bandwidth / summed-latency path comes from the route table and
        the pricing is ``nbytes / path_rate + path_latency`` elementwise.
        """
        if self.topology is None:
            return self.cost_model.transfer_time_batch(nbytes)
        nbytes = np.asarray(nbytes, dtype=np.float64)
        regions, access_gbps, access_latency = self.topology.routes(worker_ids)
        pipe_gbps, pipe_latency = np.array(
            [self._pipe(region) for region in self.topology.regions]
        ).T
        bandwidth = np.minimum(pipe_gbps[regions], access_gbps)
        return nbytes / (bandwidth * 1e9 / 8.0) + (pipe_latency[regions] + access_latency)

    def uplink_seconds_batch(
        self,
        worker_ids: Sequence[int],
        nbytes: np.ndarray,
        channel_seconds: np.ndarray,
    ) -> np.ndarray:
        """Compose the channels' transfer reports with the workers' paths.

        Channels price their behaviour (Mathis backoff, structural delays,
        jitter) on the symmetric cost model; under a topology each path's
        solo time replaces the cost-model base while the channel's extra
        penalty rides on top, elementwise.  Without a topology the channels'
        own figures pass through untouched (the seed contract).
        """
        channel_seconds = np.asarray(channel_seconds, dtype=np.float64)
        if self.topology is None:
            return channel_seconds
        nbytes = np.asarray(nbytes, dtype=np.float64)
        penalty = channel_seconds - self.cost_model.transfer_time_batch(nbytes)
        return self.solo_seconds_batch(worker_ids, nbytes) + penalty

    # ------------------------------------------------------------ batch mode
    def simulate(self, jobs: Sequence[Tuple[float, float, int]]) -> np.ndarray:
        """Resolve ``(start_time, nbytes, worker_id)`` *jobs* across all pipes.

        *jobs* is anything ``np.asarray`` turns into an ``(n, 3)`` float
        table — a list of tuples or the array itself.  Each worker's route
        (region, access cap, access latency) comes from the table resolved
        once per topology; the jobs of one region are selected by mask
        (regions never contend with each other) and resolved closed-world on
        that region's bottleneck by :meth:`LinkScheduler.simulate`'s array
        core.  Returns an ``(n, 2)`` array in input order: column 0 the
        completion time, column 1 the queueing delay — so ``len()`` is the
        number of jobs and iterating yields ``(finish, delay)`` pairs.
        """
        table = np.asarray(jobs, dtype=np.float64).reshape(-1, 3)
        if self.topology is None:  # one symmetric pipe, nobody capped
            regions = np.zeros(len(table), dtype=np.intp)
            rate_caps, access_latency = np.full(len(table), np.inf), np.zeros(len(table))
        else:
            regions, access_gbps, access_latency = self.topology.routes(table[:, 2])
            rate_caps = access_gbps * 1e9 / 8.0
        schedule = np.empty((len(table), 2))
        for position, region in enumerate(self.region_names()):
            mask = regions == position
            if mask.any():
                done, delays = self.scheduler_for(region)._resolve(
                    table[mask, 0], table[mask, 1], rate_caps[mask], access_latency[mask]
                )
                schedule[mask, 0] = done
                schedule[mask, 1] = delays
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        regions = ",".join(self.region_names())
        return f"LinkFabric(sharing={self.sharing!r}, regions=[{regions}])"


__all__ = [
    "LinkScheduler",
    "LinkSession",
    "SHARING_MODES",
    "DEFAULT_REGION",
    "RegionLink",
    "LinkTopology",
    "LinkFabric",
    "parse_link_profile",
]
