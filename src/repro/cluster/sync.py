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

A lock-step step reaches its policy as one :class:`ArrivalBatch` — the
step's arrivals in columns, its payloads one ``(m, d)`` matrix — and the
policy decides on arrays: the ``(arrival_time, order)`` drain is one
``np.lexsort``, the admitted batch is a row selection the GAR aggregates as
it is, and the carry pool is itself a batch.  The list-of-events policies
this replaced are frozen in ``tests/sync_reference.py``.

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
from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_non_negative_int, check_positive_int, make_registered


#: The per-row columns of an :class:`ArrivalBatch`, in field order.
_COLUMNS = (
    "worker_ids", "steps", "losses", "payloads", "delivered", "arrival_times",
    "honest", "order", "wire_bytes", "staleness",
)


@dataclass(eq=False)
class ArrivalBatch:
    """One step's gradient arrivals at the server, one row per gradient.

    Structure of arrays: entry ``i`` of every column describes the same
    gradient, so a step of ``m`` arrivals is a dozen arrays, not ``m``
    objects.  The event-driven server's drained admission buffer is one
    too (:meth:`~repro.cluster.fleet.PendingPool.drain`), so both engines
    close a round on the same type.

    Attributes
    ----------
    worker_ids, steps, losses:
        The sender, the model version the gradient was computed on (what
        staleness is measured against) and the sender's reported loss (NaN
        for Byzantine senders).
    payloads, delivered:
        The ``(m, d)`` matrix of what survived each uplink channel, and
        whether anything did: a dropped gradient still has its timing, but
        its payload row holds nothing.
    arrival_times:
        Seconds after the step's model broadcast at which each gradient
        reaches the server; Byzantine gradients arrive at time zero (the
        threat model's adversary is arbitrarily fast).
    honest:
        Whether the sender is honest (Byzantine arrivals never extend a
        synchronous step's critical path).
    order:
        Submission index within the step (honest workers by id, then
        Byzantine workers).  Arrivals drain by ``(arrival_time, order)`` and
        an admitted batch aggregates in ``order``, so the GAR's reduction
        order — hence the trajectory — never depends on arrival jitter;
        carried gradients sort before fresh ones.
    wire_bytes:
        Encoded uplink bytes each gradient cost (0 for Byzantine senders:
        the adversary pays nothing).
    staleness:
        Age of each gradient in steps at admission; stamped by the policy.
    gradients:
        The senders' own gradients, as row blocks stacked in row order (the
        honest matrix, then the crafted rows): a carried row is
        checkpointed as it was sent.  :meth:`take` leaves them behind.
    """

    worker_ids: np.ndarray
    steps: np.ndarray
    losses: np.ndarray
    payloads: np.ndarray
    delivered: np.ndarray
    arrival_times: np.ndarray
    honest: np.ndarray
    order: np.ndarray
    wire_bytes: np.ndarray
    staleness: np.ndarray
    gradients: Tuple[np.ndarray, ...] = ()

    def __len__(self) -> int:
        return len(self.worker_ids)

    @classmethod
    def empty(cls) -> "ArrivalBatch":
        """No arrivals (an empty carry pool)."""
        return cls(*(np.zeros((0, 0) if name == "payloads" else 0) for name in _COLUMNS))

    def take(self, index: np.ndarray) -> "ArrivalBatch":
        """The rows at *index*, in that order, without the senders' gradients."""
        return ArrivalBatch(*(getattr(self, name)[index] for name in _COLUMNS))

    def gradient_rows(self, index: np.ndarray) -> np.ndarray:
        """The senders' gradients of the rows at *index*."""
        blocks = self.gradients
        return (blocks[0] if len(blocks) == 1 else np.concatenate(blocks))[index]

    @staticmethod
    def concat(first: "ArrivalBatch", second: "ArrivalBatch") -> "ArrivalBatch":
        """*first*'s rows, then *second*'s (an empty side costs no copy)."""
        if not len(first):
            return second
        if not len(second):
            return first
        return ArrivalBatch(
            *(np.concatenate([getattr(first, n), getattr(second, n)]) for n in _COLUMNS),
            gradients=first.gradients + second.gradients,
        )


#: A checkpointed pending row's keys, in :meth:`QuorumBasedPolicy.state_dict` order.
_PENDING_KEYS = (
    "worker_id", "step", "loss", "gradient", "payload", "arrival_time", "honest",
    "staleness", "order", "wire_bytes",
)

#: Order offset applied to carried rows so they sort before fresh ones.
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


@dataclass
class SyncDecision:
    """What the policy decided for one step.

    Attributes
    ----------
    admitted:
        The rows whose payloads enter the GAR this step, in submission
        order.
    wait_time:
        Simulated seconds between the model broadcast and the moment the
        server starts aggregating (the step's compute + communication time).
    dropped_stragglers:
        Delivered gradients discarded because they missed the quorum.
    carried:
        Delivered gradients deferred into the next step's pool.
    """

    admitted: ArrivalBatch
    wait_time: float
    dropped_stragglers: int = 0
    carried: int = 0


def _first_max(times: np.ndarray, sequence: np.ndarray, default: float) -> float:
    """``max`` over ``times[sequence]`` as Python takes it: the first maximum.

    ``-0.0 == 0.0``, so which of two tied zeros is "the" maximum decides the
    sign bit of the wait; ``np.argmax`` keeps the first, as ``max`` does.
    """
    if not sequence.size:
        return default
    values = times[sequence]
    return float(values[np.argmax(values)])


def _stamp_and_drain(pool: ArrivalBatch, step: int) -> Tuple[np.ndarray, np.ndarray]:
    """Stamp each row's staleness; return the drain and its delivered rows.

    The drain is the event queue's pop order — by arrival time, ties broken
    by submission order — as one stable lexsort.
    """
    pool.staleness = np.maximum(step - pool.steps, 0)
    drain = np.lexsort((pool.order, pool.arrival_times))
    return drain, drain[pool.delivered[drain]]


def _honest_horizon(pool: ArrivalBatch, sequence: np.ndarray, floor: float) -> float:
    """Latest honest arrival (delivered or not) — the full-synchrony wait."""
    return _first_max(pool.arrival_times, sequence[pool.honest[sequence]], floor)


def _admitted(pool: ArrivalBatch, index: np.ndarray) -> ArrivalBatch:
    """The rows at *index*, restored to submission order: the GAR's batch.

    The identity selection (every row, already in order — a full-sync step
    where everything arrived) hands *pool* over as it is.
    """
    index = index[np.argsort(pool.order[index], kind="stable")]
    if index.size == len(pool) and (index == np.arange(index.size)).all():
        return pool
    return pool.take(index)


def _quorum_decision(
    pool: ArrivalBatch, index: np.ndarray, wait: float, *, dropped: int = 0, carried: int = 0
) -> SyncDecision:
    """A quorum policy's decision: admit the rows at *index*."""
    return SyncDecision(
        admitted=_admitted(pool, index),
        wait_time=wait,
        dropped_stragglers=dropped,
        carried=carried,
    )


def _carry(pool: ArrivalBatch, rows: np.ndarray, wait: float) -> ArrivalBatch:
    """Defer the *rows* of *pool* into the next step's pool.

    A carried gradient keeps its residual lateness: it becomes available
    ``arrival - wait`` seconds into the next step (clamped at zero), which
    preserves arrival-rate conservation — the server can never admit
    gradients faster than the workers produce them.  It also ages by one
    step and sorts before fresh submissions.  It keeps the sender's
    gradient, for the checkpoint.
    """
    if not rows.size:
        return ArrivalBatch.empty()
    carried = pool.take(rows)
    residual = carried.arrival_times - wait
    # max(0.0, residual) as Python takes it: 0.0 unless strictly later.
    carried.arrival_times = np.where(residual > 0.0, residual, 0.0)
    carried.order = carried.order - CARRY_ORDER_OFFSET
    carried.gradients = (pool.gradient_rows(rows),)
    return carried


class SyncPolicy(abc.ABC):
    """Decides, each step, which gradients the server waits for.

    A policy is bound to one trainer via :meth:`bind` (which receives the
    cluster dimensions and validates the policy's parameters against them)
    and consumes one :class:`ArrivalBatch` per step via :meth:`collect`.
    Policies may be stateful (carried gradients); state is cleared by
    :meth:`reset`.
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

    def pending(self) -> ArrivalBatch:
        """The carried-gradient pool awaiting the next step (empty if stateless).

        Exposed so the cluster layer can key derived state — notably the
        distance cache's retention — to exactly the rows that will re-submit
        next step.  Every pending row was delivered.  Read it, do not
        mutate it: it is the policy's own pool.
        """
        return ArrivalBatch.empty()

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
    def collect(self, batch: ArrivalBatch, step: int, *, floor: float) -> SyncDecision:
        """Decide which of this step's arrivals are admitted and when.

        *batch* holds the step's arrivals in any row order: the server
        drains them by ``(arrival_time, order)`` itself.  *floor* is the
        minimum wait (the model-broadcast time), used when a step has no
        honest arrivals to wait on.
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

    def collect(self, batch: ArrivalBatch, step: int, *, floor: float) -> SyncDecision:
        drain, delivered = _stamp_and_drain(batch, step)
        # Restoring submission order keeps the aggregation batch — and hence
        # the floating-point trajectory — bit-identical to the seed protocol.
        return SyncDecision(
            admitted=_admitted(batch, delivered),
            wait_time=_honest_horizon(batch, drain, floor),
        )


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
        self._pending = ArrivalBatch.empty()

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

        Called wherever a batch may hold as few as the quorum — ``Quorum.bind``
        (``collect`` admits ``delivered[:q]``), ``BoundedStaleness.bind`` with
        ``tau >= 1`` (the cutoff may fall at the quorum-th arrival) and
        :meth:`admission` (the event-driven server aggregates the moment ``q``
        are buffered) — so some step would fail the rule's cardinality check.
        """
        if self._effective_quorum < self._min_batch:
            raise ConfigurationError(
                f"quorum={self._effective_quorum} is below the {self._min_batch} "
                f"gradients the aggregation rule needs to tolerate f={self._f}: "
                "the first batch is at most the quorum, so no step could complete "
                f"(raise the quorum to at least {self._min_batch} or lower f)"
            )

    def reset(self) -> None:
        self._pending = ArrivalBatch.empty()

    def pending(self) -> ArrivalBatch:
        return self._pending

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
        pool = self._pending
        if not len(pool):
            return {"pending": []}
        columns = (
            pool.worker_ids.tolist(), pool.steps.tolist(), pool.losses.tolist(),
            list(pool.gradient_rows(np.arange(len(pool)))), list(pool.payloads),
            pool.arrival_times.tolist(), pool.honest.tolist(), pool.staleness.tolist(),
            pool.order.tolist(), pool.wire_bytes.tolist(),
        )
        return {"pending": [dict(zip(_PENDING_KEYS, row)) for row in zip(*columns)]}

    def load_state_dict(self, state: Dict) -> None:
        entries = state.get("pending", [])
        if not entries:
            self._pending = ArrivalBatch.empty()
            return

        def column(key, dtype):
            return np.array([entry[key] for entry in entries], dtype=dtype)

        def rows(key):
            return np.stack([np.asarray(e[key], dtype=np.float64) for e in entries])

        self._pending = ArrivalBatch(
            worker_ids=column("worker_id", np.int64),
            steps=column("step", np.int64),
            losses=column("loss", np.float64),
            payloads=rows("payload"),
            delivered=np.ones(len(entries), dtype=bool),
            arrival_times=column("arrival_time", np.float64),
            honest=column("honest", bool),
            order=column("order", np.int64),
            # An archive written before the pool kept its wire bytes restores
            # them as 0.0.
            wire_bytes=np.array(
                [entry.get("wire_bytes", 0.0) for entry in entries], dtype=np.float64
            ),
            staleness=column("staleness", np.int64),
            gradients=(rows("gradient"),),
        )

    def _pool_step(self, batch: ArrivalBatch, step: int):
        """Merge pending + fresh rows; return ``(pool, sequence, delivered, quorum)``.

        *sequence* is the order the pool is scanned for its honest horizon:
        the pending rows as the pool holds them, then the fresh ones as
        they drained.
        """
        quorum = self._effective_quorum
        if quorum is None:
            raise ConfigurationError(
                f"{type(self).__name__}.collect called before bind()"
            )
        carried = len(self._pending)
        pool = ArrivalBatch.concat(self._pending, batch)
        self._pending = ArrivalBatch.empty()
        drain, delivered = _stamp_and_drain(pool, step)
        sequence = np.concatenate([np.arange(carried), drain[drain >= carried]])
        return pool, sequence, delivered, quorum


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
        (``arrival - wait``, see :func:`_carry`) and staleness >= 1,
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

    def collect(self, batch: ArrivalBatch, step: int, *, floor: float) -> SyncDecision:
        pool, sequence, delivered, quorum = self._pool_step(batch, step)

        if delivered.size < quorum:
            # Not enough survivors to fill the quorum: the server waits out
            # every honest path before concluding nothing more is coming.
            admitted, late = delivered, delivered[:0]
            wait = _honest_horizon(pool, sequence, floor)
        else:
            admitted = delivered[:quorum]
            wait = _first_max(pool.arrival_times, admitted, floor)
            late = delivered[quorum:]

        carried = 0
        if self.stragglers == "carry":
            # One pending slot per worker: the newest late gradient wins (on
            # equal steps the later arrival), superseded ones are shed as
            # drops (keeps the queue bounded).  The pool keeps the workers in
            # the order of their first late arrival.
            workers = pool.worker_ids[late]
            position = np.arange(late.size)
            by_worker = np.lexsort((position, pool.steps[late], workers))
            last = np.ones(late.size, dtype=bool)
            last[:-1] = workers[by_worker][1:] != workers[by_worker][:-1]
            _, first_seen = np.unique(workers, return_index=True)
            newest = late[by_worker[last][np.argsort(first_seen, kind="stable")]]
            self._pending = _carry(pool, newest, wait)
            carried = int(newest.size)
        dropped = int(late.size) - carried
        return _quorum_decision(pool, admitted, wait, dropped=dropped, carried=carried)


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

    def bind(self, *, num_workers: int, f: int, min_batch: int = 1) -> None:
        super().bind(num_workers=num_workers, f=f, min_batch=min_batch)
        # tau = 0 admits every delivered gradient each step; a larger bound
        # may close a step at the quorum-th arrival.
        if self.tau >= 1:
            self._check_min_batch()

    def admission(self, *, max_version_lag: Optional[int] = None) -> AdmissionPredicate:
        lag = self.tau if max_version_lag is None else max_version_lag
        return super().admission(max_version_lag=lag)

    def collect(self, batch: ArrivalBatch, step: int, *, floor: float) -> SyncDecision:
        pool, sequence, delivered, quorum = self._pool_step(batch, step)
        times = pool.arrival_times

        if delivered.size < quorum:
            wait = _honest_horizon(pool, sequence, floor)
            admitted, late = delivered, delivered[:0]
        else:
            # Natural cutoff: the quorum-th arrival.  The staleness bound can
            # push the cutoff later: a gradient carried once more would have
            # staleness (step + 1 - its step), and if that exceeds tau the
            # server must absorb it *this* step.
            beyond = delivered[quorum:]
            forced = beyond[step + 1 - pool.steps[beyond] > self.tau]
            wait = _first_max(times, np.concatenate([delivered[quorum - 1:quorum], forced]), floor)
            admitted = delivered[times[delivered] <= wait]
            late = delivered[times[delivered] > wait]

        self._pending = _carry(pool, late, wait)
        return _quorum_decision(pool, admitted, wait, carried=int(late.size))


__all__ = [
    "AdmissionPredicate",
    "ArrivalBatch",
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
