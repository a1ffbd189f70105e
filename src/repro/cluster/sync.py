"""Pluggable synchrony policies for the aggregation pipeline.

The seed trainer was hard-wired fully synchronous: every step blocked on the
slowest worker's compute + communication path, so straggler- and loss-prone
deployments (the paper's Figure 8 setting) paid worst-case latency by
construction.  This module turns that choice into a policy object consumed by
:class:`~repro.cluster.trainer.SynchronousTrainer`:

``FullSync``
    The paper's synchronous protocol — wait for every worker, bit-identical
    to the seed trainer's behaviour.

``Quorum(q)``
    Aggregate as soon as the first ``q >= n - f`` gradients arrive.  Late
    ("straggler") gradients are either dropped or carried into the next
    step's pool with staleness >= 1 and their residual lateness, at the
    operator's choice.

``BoundedStaleness(tau)``
    Staleness-bounded (SSP-style) synchrony: the server aggregates once a
    quorum is present, late gradients are carried — but no gradient may run
    more than ``tau`` steps behind, so the server waits for any gradient
    whose staleness would otherwise exceed the bound.

Resilience caveat (documented, deliberate): the adversary is assumed
arbitrarily fast, so Byzantine gradients arrive at time zero and are always
inside the quorum.  A quorum of ``q`` gradients containing up to ``f``
Byzantine ones therefore needs ``q >= minimum_workers(f)`` for the deployed
GAR, which the server's cardinality check enforces on every batch.  Where the
first batch is at most ``q`` rows — the lock-step ``quorum`` policy and the
event-driven engine — a smaller quorum is refused up front; lock-step
``bounded-staleness`` is not, because it admits every arrival up to the cutoff
(ties at the ``q``-th arrival, ``tau``-forced gradients) and can exceed ``q``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Type

import numpy as np

from repro.cluster.message import GradientMessage
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_non_negative_int, check_positive_int, make_registered

#: Event-time tie-break: events are processed in submission order (honest
#: workers by id, then Byzantine workers), which keeps every policy
#: deterministic for equal arrival times.


@dataclass
class ArrivalEvent:
    """One gradient's journey to the server within a step.

    Attributes
    ----------
    message:
        The gradient message as computed/crafted by the worker.  Its ``step``
        field records the model version the gradient was computed on, which is
        what staleness is measured against.
    payload:
        What survived the uplink channel (``None`` when the transport dropped
        the whole gradient — the event still carries its timing).
    arrival_time:
        Seconds after the step's model broadcast at which the gradient reaches
        the server.  Byzantine gradients arrive at time zero (the threat model
        grants the adversary unbounded compute and arbitrarily fast links).
    honest:
        Whether the sender is an honest worker (Byzantine arrivals never
        extend a synchronous step's critical path).
    staleness:
        Age of the gradient in steps at admission time; stamped by the policy.
    order:
        Submission index within the step (honest workers by id, then
        Byzantine workers).  Admitted batches are restored to submission
        order before aggregation so that the GAR's floating-point reduction
        order — and hence the trajectory — never depends on arrival jitter;
        carried gradients sort before fresh ones.
    wire_bytes:
        Encoded uplink bytes the gradient cost on the wire (0 for Byzantine
        submissions — the threat model's adversary pays nothing — and for
        events recorded before the codec stage existed).
    """

    message: GradientMessage
    payload: Optional[np.ndarray]
    arrival_time: float
    honest: bool
    staleness: int = 0
    order: int = 0
    wire_bytes: float = 0.0

    @property
    def delivered(self) -> bool:
        """Whether the gradient's payload actually reached the server."""
        return self.payload is not None


@dataclass
class SyncDecision:
    """What the policy decided for one step.

    Attributes
    ----------
    admitted:
        Events whose payloads enter the GAR this step, in admission order.
    wait_time:
        Simulated seconds between the model broadcast and the moment the
        server starts aggregating (the step's compute + communication time).
    dropped_stragglers:
        Delivered gradients discarded because they missed the quorum.
    carried:
        Delivered gradients deferred into the next step's pool.
    stale_admitted:
        Admitted gradients with staleness >= 1.
    max_staleness:
        Largest staleness among the admitted gradients.
    """

    admitted: List[ArrivalEvent]
    wait_time: float
    dropped_stragglers: int = 0
    carried: int = 0
    stale_admitted: int = 0
    max_staleness: int = 0


def _stamp_staleness(events: List[ArrivalEvent], step: int) -> None:
    for event in events:
        event.staleness = max(step - event.message.step, 0)


def _honest_horizon(events: List[ArrivalEvent], floor: float) -> float:
    """Latest honest arrival (delivered or not) — the full-synchrony wait."""
    times = [e.arrival_time for e in events if e.honest]
    return max(times) if times else floor


def _by_arrival(events: List[ArrivalEvent]) -> List[ArrivalEvent]:
    """Events sorted by arrival time, ties broken by submission order."""
    return sorted(events, key=lambda e: (e.arrival_time, e.order))


def _in_submission_order(events: List[ArrivalEvent]) -> List[ArrivalEvent]:
    """Restore the deterministic batch order the GAR aggregates in."""
    return sorted(events, key=lambda e: e.order)


#: Order offset applied to carried events so they sort before fresh ones.
CARRY_ORDER_OFFSET = 10**6


@dataclass(frozen=True)
class AdmissionPredicate:
    """A synchrony policy re-expressed over the live (async) event stream.

    The lock-step protocol asks a policy one question per round ("which of
    these arrivals do I wait for?").  The event-driven server asks two
    questions continuously instead, and this object answers both:

    * :meth:`admit` — may a gradient computed ``version_lag`` model versions
      ago still enter the aggregation buffer?
    * :meth:`batch_ready` — does the buffer hold enough admitted gradients to
      aggregate now?

    Attributes
    ----------
    quorum:
        Buffer size that triggers an aggregation.
    max_version_lag:
        Largest tolerated version lag (``None`` = unbounded).  Gradients
        whose lag exceeds the bound are rejected at admission *and* purged
        from the buffer right before aggregation, so the bound holds against
        the version the batch is actually applied to.
    """

    quorum: int
    max_version_lag: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive_int(self.quorum, "quorum")
        if self.max_version_lag is not None:
            check_non_negative_int(self.max_version_lag, "max_version_lag")

    def admit(self, version_lag: int) -> bool:
        """Whether a gradient *version_lag* versions old may still be aggregated."""
        return self.max_version_lag is None or version_lag <= self.max_version_lag

    def batch_ready(self, pending: int) -> bool:
        """Whether *pending* admitted gradients suffice to aggregate."""
        return pending >= self.quorum


def _carry_event(event: ArrivalEvent, wait: float) -> ArrivalEvent:
    """Defer *event* into the next step's pool.

    A carried gradient keeps its residual lateness: it becomes available
    ``arrival - wait`` seconds into the next step (clamped at zero), which
    preserves arrival-rate conservation — the server can never admit
    gradients faster than the workers produce them.  It also ages by one
    step and sorts before fresh submissions.
    """
    event.arrival_time = max(0.0, event.arrival_time - wait)
    event.order -= CARRY_ORDER_OFFSET
    return event


class SyncPolicy(abc.ABC):
    """Decides, each step, which gradients the server waits for.

    A policy is bound to one trainer via :meth:`bind` (which receives the
    cluster dimensions and validates the policy's parameters against them)
    and consumes one list of :class:`ArrivalEvent` per step via
    :meth:`collect`.  Policies may be stateful (carried gradients); state is
    cleared by :meth:`reset`.
    """

    #: Registry name, set by :func:`register_sync_policy`.
    name: str = "sync"

    def __init__(self) -> None:
        self._num_workers: Optional[int] = None
        self._f: int = 0

    def bind(self, *, num_workers: int, f: int, min_batch: int = 1) -> None:
        """Attach the policy to a cluster of *num_workers* tolerating *f*.

        *min_batch* is the fewest rows the deployed aggregation rule accepts
        (``gar.minimum_workers(f)``); quorum policies refuse a quorum below
        it wherever the batch cannot exceed the quorum.  Rebinding clears
        any carried state: pending gradients belong to the previous
        trainer's run and must never leak into a new one.
        """
        if num_workers < 1:
            raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
        if f < 0:
            raise ConfigurationError(f"f must be non-negative, got {f}")
        self._num_workers = int(num_workers)
        self._f = int(f)
        self.reset()

    def reset(self) -> None:
        """Drop carried state (e.g. when reusing a policy across runs)."""

    def pending_events(self) -> List[ArrivalEvent]:
        """The carried-gradient pool awaiting the next step (empty if stateless).

        Exposed so the cluster layer can key derived state — notably the
        distance cache's retention — to exactly the rows that will re-submit
        next step; mutating the returned list does not affect the policy.
        """
        return []

    # -------------------------------------------------------- admission view
    def admission(self, *, max_version_lag: Optional[int] = None) -> AdmissionPredicate:
        """This policy as an :class:`AdmissionPredicate` for the async engine.

        Only quorum-shaped policies have an event-stream reading; the
        lock-step ``full-sync`` protocol raises (run it through the
        synchronous trainer instead).
        """
        raise ConfigurationError(
            f"sync policy {self.name!r} has no event-stream (async) form; "
            "use the synchronous trainer, or pick a quorum-based policy "
            "(quorum / bounded-staleness) for --mode async"
        )

    # --------------------------------------------------------- checkpointing
    def state_dict(self) -> Dict:
        """Serialisable carried state (empty for stateless policies)."""
        return {}

    def load_state_dict(self, state: Dict) -> None:
        """Restore carried state captured by :meth:`state_dict`."""
        if state:
            raise ConfigurationError(
                f"sync policy {self.name!r} is stateless but the checkpoint carries "
                f"pending state ({sorted(state)}); was it written by a different policy?"
            )

    @abc.abstractmethod
    def collect(self, events: List[ArrivalEvent], step: int, *, floor: float) -> SyncDecision:
        """Decide which of this step's *events* are admitted and when.

        *floor* is the minimum wait (the model-broadcast time), used when a
        step has no honest arrivals to wait on.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: Global name -> class registry (the ``--sync-policy`` analogue).
SYNC_POLICY_REGISTRY: Dict[str, Type[SyncPolicy]] = {}


def register_sync_policy(name: str) -> Callable[[Type[SyncPolicy]], Type[SyncPolicy]]:
    """Class decorator registering a synchrony policy under *name*."""

    def decorator(cls: Type[SyncPolicy]) -> Type[SyncPolicy]:
        existing = SYNC_POLICY_REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ConfigurationError(
                f"sync policy name {name!r} already registered by {existing!r}"
            )
        cls.name = name
        SYNC_POLICY_REGISTRY[name] = cls
        return cls

    return decorator


def make_sync_policy(name: str, **kwargs) -> SyncPolicy:
    """Instantiate a registered synchrony policy by name.

    *kwargs* must be parameters of that policy's constructor: an option the
    policy does not take (``quorum`` for ``full-sync``, ``tau`` for
    ``quorum``, ``stragglers`` for ``bounded-staleness``) is a
    :class:`ConfigurationError` naming the parameters it does take, so an
    operator's option is never accepted and then ignored.
    """
    return make_registered(SYNC_POLICY_REGISTRY, "sync policy", name, kwargs)


def available_sync_policies() -> List[str]:
    """Names of all registered synchrony policies, sorted."""
    return sorted(SYNC_POLICY_REGISTRY)


@register_sync_policy("full-sync")
class FullSync(SyncPolicy):
    """The paper's synchronous protocol: wait for every worker.

    The wait covers every honest compute + communication path — including
    paths whose payload the transport ultimately dropped, exactly as the seed
    trainer accounted time — so trajectories are bit-identical to the
    pre-pipeline implementation.
    """

    def collect(self, events: List[ArrivalEvent], step: int, *, floor: float) -> SyncDecision:
        _stamp_staleness(events, step)
        # The trainer now hands events in deterministic *arrival* order (it
        # drains them from the event queue); restoring submission order keeps
        # the aggregation batch — and hence the floating-point trajectory —
        # bit-identical to the seed protocol.
        admitted = _in_submission_order([e for e in events if e.delivered])
        return SyncDecision(admitted=admitted, wait_time=_honest_horizon(events, floor))


class QuorumBasedPolicy(SyncPolicy):
    """Shared plumbing for policies that stop waiting at a quorum of arrivals.

    Handles the quorum argument validation, its bind-time resolution against
    the cluster's resilience floor ``n - f`` (non-destructively, so one
    instance can be rebound to clusters of different sizes), the pending-pool
    bookkeeping for carried gradients, and the per-step pool merge.
    """

    def __init__(self, quorum: Optional[int] = None) -> None:
        super().__init__()
        self.quorum = None if quorum is None else check_positive_int(quorum, "quorum")
        self._effective_quorum: Optional[int] = None
        self._min_batch = 1
        self._pending: List[ArrivalEvent] = []

    @property
    def effective_quorum(self) -> Optional[int]:
        """The quorum resolved at bind time (``None`` before binding)."""
        return self._effective_quorum

    def bind(self, *, num_workers: int, f: int, min_batch: int = 1) -> None:
        super().bind(num_workers=num_workers, f=f, min_batch=min_batch)
        resilience_floor = num_workers - f
        resolved = max(resilience_floor, 1) if self.quorum is None else self.quorum
        if resolved < resilience_floor:
            raise ConfigurationError(
                f"quorum={resolved} admits fewer than n - f = {resilience_floor} "
                f"gradients (n={num_workers}, f={f}); stragglers could be outvoted "
                "by the adversary"
            )
        if resolved > num_workers:
            raise ConfigurationError(
                f"quorum={resolved} exceeds the cluster size n={num_workers}"
            )
        self._effective_quorum = resolved
        self._min_batch = int(min_batch)

    def _check_min_batch(self) -> None:
        """Refuse a quorum below the aggregation rule's minimum batch.

        Called only where the first batch is at most the quorum — ``Quorum.bind``
        (``collect`` admits ``delivered[:q]``) and :meth:`admission` (the
        event-driven server aggregates the moment ``q`` are buffered) —
        so step 0 would fail the rule's cardinality check.
        """
        if self._effective_quorum < self._min_batch:
            raise ConfigurationError(
                f"quorum={self._effective_quorum} is below the {self._min_batch} "
                f"gradients the aggregation rule needs to tolerate f={self._f}: "
                "the first batch is at most the quorum, so no step could complete "
                f"(raise the quorum to at least {self._min_batch} or lower f)"
            )

    def reset(self) -> None:
        self._pending = []

    def pending_events(self) -> List[ArrivalEvent]:
        return list(self._pending)

    def admission(self, *, max_version_lag: Optional[int] = None) -> AdmissionPredicate:
        quorum = self._effective_quorum
        if quorum is None:
            raise ConfigurationError(
                f"{type(self).__name__}.admission called before bind()"
            )
        self._check_min_batch()
        return AdmissionPredicate(quorum=quorum, max_version_lag=max_version_lag)

    # --------------------------------------------------------- checkpointing
    def state_dict(self) -> Dict:
        """The carried-gradient pool in serialisable form.

        Both the sender's original gradient and the (possibly transport-
        degraded) delivered payload are kept, so a restored pool aggregates
        exactly what the interrupted run would have.
        """
        return {
            "pending": [
                {
                    "worker_id": e.message.worker_id,
                    "step": e.message.step,
                    "loss": e.message.loss,
                    "gradient": np.asarray(e.message.gradient, dtype=np.float64),
                    "payload": np.asarray(e.payload, dtype=np.float64),
                    "arrival_time": e.arrival_time,
                    "honest": e.honest,
                    "staleness": e.staleness,
                    "order": e.order,
                }
                for e in self._pending
            ]
        }

    def load_state_dict(self, state: Dict) -> None:
        self._pending = [
            ArrivalEvent(
                message=GradientMessage(
                    worker_id=int(entry["worker_id"]),
                    step=int(entry["step"]),
                    gradient=np.asarray(entry["gradient"], dtype=np.float64),
                    loss=float(entry["loss"]),
                ),
                payload=np.asarray(entry["payload"], dtype=np.float64),
                arrival_time=float(entry["arrival_time"]),
                honest=bool(entry["honest"]),
                staleness=int(entry["staleness"]),
                order=int(entry["order"]),
            )
            for entry in state.get("pending", [])
        ]

    def _pool_step(self, events: List[ArrivalEvent], step: int):
        """Merge pending + fresh events; return ``(pool, delivered, quorum)``."""
        quorum = self._effective_quorum
        if quorum is None:
            raise ConfigurationError(
                f"{type(self).__name__}.collect called before bind()"
            )
        pool = self._pending + list(events)
        self._pending = []
        _stamp_staleness(pool, step)
        delivered = _by_arrival([e for e in pool if e.delivered])
        return pool, delivered, quorum


@register_sync_policy("quorum")
class Quorum(QuorumBasedPolicy):
    """Aggregate as soon as the first ``q`` gradients have arrived.

    Parameters
    ----------
    quorum:
        Number of gradients to wait for; ``None`` resolves to the resilience
        floor ``n - f`` at bind time.  Explicit values below ``n - f`` are
        rejected — admitting fewer gradients would let ``f`` Byzantine
        workers dominate the batch.
    stragglers:
        What happens to delivered gradients that miss the quorum:
        ``"drop"`` discards them, ``"carry"`` defers them into the next
        step's pool, where they arrive with their residual lateness
        (``arrival - wait``, see :func:`_carry_event`) and staleness >= 1,
        so a badly late gradient can miss the next quorum too.  The carry
        queue holds at most one pending gradient per worker — a newer late
        gradient supersedes a staler pending one, and the superseded
        gradient counts as dropped — since a quorum of ``q < n`` admits
        fewer gradients per step than the ``n`` workers produce and an
        unbounded backlog would otherwise build up.
    """

    STRAGGLER_MODES = ("drop", "carry")

    def __init__(self, quorum: Optional[int] = None, stragglers: str = "drop") -> None:
        super().__init__(quorum)
        if stragglers not in self.STRAGGLER_MODES:
            raise ConfigurationError(
                f"stragglers must be one of {self.STRAGGLER_MODES}, got {stragglers!r}"
            )
        self.stragglers = stragglers

    def bind(self, *, num_workers: int, f: int, min_batch: int = 1) -> None:
        super().bind(num_workers=num_workers, f=f, min_batch=min_batch)
        self._check_min_batch()

    def collect(self, events: List[ArrivalEvent], step: int, *, floor: float) -> SyncDecision:
        pool, delivered, quorum = self._pool_step(events, step)

        if len(delivered) < quorum:
            # Not enough survivors to fill the quorum: the server waits out
            # every honest path before concluding nothing more is coming.
            admitted, late = delivered, []
            wait = _honest_horizon(pool, floor)
        else:
            admitted = delivered[:quorum]
            wait = max((e.arrival_time for e in admitted), default=floor)
            late = delivered[quorum:]

        dropped = carried = 0
        if self.stragglers == "carry":
            # One pending slot per worker: the newest late gradient wins,
            # superseded ones are shed as drops (keeps the queue bounded).
            newest: Dict[int, ArrivalEvent] = {}
            for event in late:
                previous = newest.get(event.message.worker_id)
                if previous is None or event.message.step >= previous.message.step:
                    if previous is not None:
                        dropped += 1
                    newest[event.message.worker_id] = event
                else:
                    dropped += 1
            self._pending = [_carry_event(e, wait) for e in newest.values()]
            carried = len(self._pending)
        else:
            dropped = len(late)

        admitted = _in_submission_order(admitted)
        stale = [e.staleness for e in admitted if e.staleness > 0]
        return SyncDecision(
            admitted=admitted,
            wait_time=wait,
            dropped_stragglers=dropped,
            carried=carried,
            stale_admitted=len(stale),
            max_staleness=max(stale, default=0),
        )


@register_sync_policy("bounded-staleness")
class BoundedStaleness(QuorumBasedPolicy):
    """Staleness-bounded synchrony (the SSP protocol shape).

    The server aggregates as soon as ``quorum`` gradients (fresh or carried)
    are present; later gradients are carried into the next step's pool rather
    than dropped.  The bound: no gradient may be aggregated — or kept
    waiting — more than ``tau`` steps after the model version it was computed
    on, so the server explicitly waits for any gradient whose carry would
    exceed the bound.  ``tau = 0`` degenerates to waiting for every delivered
    gradient (full synchrony over the delivered set).
    """

    def __init__(self, tau: int = 1, quorum: Optional[int] = None) -> None:
        super().__init__(quorum)
        self.tau = check_non_negative_int(tau, "tau")

    def admission(self, *, max_version_lag: Optional[int] = None) -> AdmissionPredicate:
        lag = self.tau if max_version_lag is None else max_version_lag
        return super().admission(max_version_lag=lag)

    def collect(self, events: List[ArrivalEvent], step: int, *, floor: float) -> SyncDecision:
        pool, delivered, quorum = self._pool_step(events, step)

        if len(delivered) < quorum:
            wait = _honest_horizon(pool, floor)
            admitted, late = delivered, []
        else:
            # Natural cutoff: the quorum-th arrival.  The staleness bound can
            # push the cutoff later: a gradient carried once more would have
            # staleness (step + 1 - message.step), and if that exceeds tau the
            # server must absorb it *this* step.
            wait = delivered[quorum - 1].arrival_time
            for event in delivered[quorum:]:
                if step + 1 - event.message.step > self.tau:
                    wait = max(wait, event.arrival_time)
            admitted = [e for e in delivered if e.arrival_time <= wait]
            late = [e for e in delivered if e.arrival_time > wait]

        for event in late:
            _carry_event(event, wait)
        self._pending = late

        admitted = _in_submission_order(admitted)
        stale = [e.staleness for e in admitted if e.staleness > 0]
        return SyncDecision(
            admitted=admitted,
            wait_time=wait,
            carried=len(late),
            stale_admitted=len(stale),
            max_staleness=max(stale, default=0),
        )


__all__ = [
    "AdmissionPredicate",
    "ArrivalEvent",
    "SyncDecision",
    "SyncPolicy",
    "QuorumBasedPolicy",
    "FullSync",
    "Quorum",
    "BoundedStaleness",
    "SYNC_POLICY_REGISTRY",
    "register_sync_policy",
    "make_sync_policy",
    "available_sync_policies",
]
