"""Structure-of-arrays state for simulating large worker fleets.

The per-worker hot paths — compute-time pricing, straggler draws, EF-SGD
memory updates, byte accounting — were all written as Python loops over
worker objects, which is fine at the paper's 19 workers and hopeless at the
ROADMAP's 1k–10k.  This module keeps the worker *objects* as the API surface
(they still own samplers, Dropout mask streams and identities; no worker
holds a model) but mirrors the numeric per-worker state into contiguous numpy arrays, so each fleet-wide operation
is one vectorised call instead of ``n`` Python ones.

Two pieces live here:

:class:`FleetState`
    The SoA mirror: worker ids, speeds, effective GFLOP/s, batch sizes, the
    most recent straggler draw, and the EF-SGD error-feedback store: one
    ``(n, d)`` residual matrix plus a has-memory mask, the only place a
    worker's codec residual lives.  Every encode path indexes it by fleet
    row — the lock-step codec stage over all rows, the async run handlers
    over the run's rows — and
    checkpoints read and write it as ``{worker_id: residual}`` through
    :meth:`FleetState.state_dict` / :meth:`FleetState.load_state_dict`.

:class:`PendingPool`
    The async trainer's admission buffer in SoA form: at most one pending
    gradient per worker, scalar fields in parallel arrays and payloads as
    rows of one ``(capacity, d)`` matrix with free-list row recycling, so
    the stale rescan, the Byzantine observation stack and the drain-to-batch
    sort are single vectorised calls instead of per-entry dict traversals.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.sync import ArrivalBatch
from repro.cluster.worker import HonestWorker
from repro.exceptions import ConfigurationError
from repro.nn.model import Sequential


class FleetState:
    """Contiguous numpy mirror of the honest fleet's numeric per-worker state.

    Parameters
    ----------
    workers:
        The honest workers, in trainer order (the order every per-worker
        loop iterates in — array row ``i`` is ``workers[i]`` everywhere).
    worker_gflops:
        Per-worker base GFLOP/s map (the trainer's heterogeneous hardware
        assignment), keyed by worker id.
    """

    #: Mirrors of what the worker objects were built with, a draw that
    #: :meth:`sample_slowdowns` replaces before every read, and a cache of
    #: :meth:`compute_times` keyed by what it priced: a resumed run rebuilds
    #: them, only the error-feedback store is state.
    _CHECKPOINT_EXEMPT = (
        "workers", "speeds", "batch_sizes", "training_sets", "slowdowns",
        "_times", "_times_flops",
    )

    def __init__(
        self,
        workers: Sequence[HonestWorker],
        *,
        worker_gflops: Dict[int, float],
    ) -> None:
        if len(workers) == 0:
            raise ConfigurationError("FleetState needs at least one honest worker")
        self.workers: List[HonestWorker] = list(workers)
        self.num_workers = len(self.workers)
        self.worker_ids = np.array([w.worker_id for w in self.workers], dtype=np.intp)
        self.row_of: Dict[int, int] = {
            int(wid): i for i, wid in enumerate(self.worker_ids)
        }
        self.speeds = np.array([w.speed for w in self.workers], dtype=np.float64)
        self.batch_sizes = np.array(
            [w.batch_size for w in self.workers], dtype=np.float64
        )
        #: Each row's training set: the index of its sampler's (features,
        #: labels) objects among the fleet's distinct pairs.  A fleet-mode
        #: run whose rows share one draws its mini-batches in one call.
        sets: Dict[Tuple[int, int], int] = {}
        self.training_sets = np.array([
            sets.setdefault((id(w.sampler.features), id(w.sampler.labels)), len(sets))
            for w in self.workers
        ], dtype=np.intp)
        # Effective throughput: the cost model's per-worker hardware draw
        # scaled by the worker's persistent speed multiplier.
        self.gflops = (
            np.array(
                [worker_gflops[w.worker_id] for w in self.workers], dtype=np.float64
            )
            * self.speeds
        )
        #: Most recent straggler slowdown draw (ones before the first step).
        self.slowdowns = np.ones(self.num_workers, dtype=np.float64)
        #: EF-SGD residual rows (allocated by the first store or restore) and
        #: which of them hold a residual yet: read ``ef_memory[rows]`` only
        #: where the mask is set.
        self.ef_memory: Optional[np.ndarray] = None
        self.ef_has_memory = np.zeros(self.num_workers, dtype=bool)
        #: :meth:`compute_times`' last answer and the flops it priced (NaN,
        #: which equals nothing, before the first).
        self._times: Optional[np.ndarray] = None
        self._times_flops = math.nan

    # ------------------------------------------------------------- timing
    def compute_times(self, cost_model: CostModel, flops_per_sample: float) -> np.ndarray:
        """Nominal per-worker gradient-computation seconds, in one pass.

        Elementwise over the fleet arrays with the exact arithmetic of
        :meth:`CostModel.gradient_compute_time`'s measured-FLOPs branch, so
        each entry is bit-identical to the per-worker scalar call.  The
        fleet's throughputs and batch sizes are fixed, so the answer is
        kept until the flops change (a read-only array: index it, do not
        write it).
        """
        if flops_per_sample != self._times_flops:
            if not flops_per_sample > 0:
                raise ConfigurationError(
                    f"fleet compute-time pricing needs measured flops_per_sample > 0, "
                    f"got {flops_per_sample}"
                )
            flops = 3.0 * flops_per_sample * self.batch_sizes
            self._times = flops / (self.gflops * 1e9)
            self._times.flags.writeable = False
            self._times_flops = flops_per_sample
        return self._times

    def sample_slowdowns(
        self, straggler_model: Optional[StragglerModel], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw (and remember) this step's straggler multipliers for the fleet."""
        if straggler_model is None:
            self.slowdowns = np.ones(self.num_workers, dtype=np.float64)
        else:
            self.slowdowns = straggler_model.sample(self.num_workers, rng)
        return self.slowdowns

    # ------------------------------------------------------- error feedback
    def remember_residuals(self, rows, residuals: np.ndarray) -> None:
        """Replace the EF residuals of *rows* (one fleet row, or an index array)."""
        if self.ef_memory is None:
            self.ef_memory = np.zeros((self.num_workers, np.shape(residuals)[-1]))
        self.ef_memory[rows] = residuals
        self.ef_has_memory[rows] = True

    def state_dict(self) -> Dict[int, np.ndarray]:
        """The EF store as ``{worker_id: residual copy}``, rows that hold one only."""
        return {
            int(self.worker_ids[row]): self.ef_memory[row].copy()
            for row in np.flatnonzero(self.ef_has_memory)
        }

    def load_state_dict(self, memory: Dict[int, np.ndarray], dim: int) -> None:
        """Replace the EF store with *memory*; absent workers carry nothing."""
        self.ef_has_memory[:] = False
        for worker_id, residual in memory.items():
            flat = np.asarray(residual, dtype=np.float64).ravel()
            if flat.size != dim:
                raise ConfigurationError(
                    f"error-feedback memory for worker {int(worker_id)} has size "
                    f"{flat.size}, expected {dim}"
                )
            self.remember_residuals(self.row_of[int(worker_id)], flat)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FleetState(n={self.num_workers})"


class FleetComputeKernel:
    """Every worker's ``(losses, gradients)`` on one shared snapshot.

    Exists only for ``bench/micro.py``'s import: the trainer's one gradient
    path is :func:`~repro.cluster.worker.compute_stacked`, and no code in
    ``src/`` calls this.
    """

    def __init__(self, model: Sequential) -> None:
        self.model = model

    def compute(
        self, parameters: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.model.stacked_loss_and_gradients([parameters] * len(x), x, y)[:2]


class PendingPool:
    """SoA admission buffer: at most one pending gradient per worker.

    Replaces the dict-of-:class:`~repro.cluster.sync.ArrivalEvent` buffer
    the async trainer used to keep.  Scalar per-entry fields (worker id,
    model step, arrival time, staleness, wire bytes, reported loss, honest
    flag) live in parallel numpy arrays; decoded payloads occupy rows of a
    single ``(capacity, d)`` matrix.  A free list recycles rows as entries
    supersede, reject or drain, and the arrays grow geometrically, so the
    steady state allocates nothing per arrival.  Admission bookkeeping
    stays O(1): insert/overwrite is one dict probe plus row writes, a
    stretch of distinct new entries is one column write
    (:meth:`put_many`), and the honest-entry count is maintained
    incrementally for the Byzantine fire check.

    Semantics are bit-identical to the dict buffer: the stale rescan calls
    the same pure ``admit(lag)`` predicate once per *distinct* lag, and
    :meth:`drain` sorts by ``(not honest, worker_id)`` exactly as the old
    ``sorted(...)`` did (worker ids are unique, so the stable lexsort is
    the same permutation).
    """

    def __init__(self, dim: int, capacity: int = 64) -> None:
        if dim < 1:
            raise ConfigurationError(f"dim must be positive, got {dim}")
        capacity = max(1, int(capacity))
        self.dim = int(dim)
        self._slot_of: Dict[int, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._honest_count = 0
        self._worker_ids = np.zeros(capacity, dtype=np.int64)
        self._steps = np.zeros(capacity, dtype=np.int64)
        self._arrival_times = np.zeros(capacity, dtype=np.float64)
        self._staleness = np.zeros(capacity, dtype=np.int64)
        self._wire_bytes = np.zeros(capacity, dtype=np.float64)
        self._losses = np.zeros(capacity, dtype=np.float64)
        self._honest = np.zeros(capacity, dtype=bool)
        self._payloads = np.zeros((capacity, self.dim), dtype=np.float64)

    # ------------------------------------------------------------- capacity
    def _grow(self) -> None:
        """Double every array; freshly minted rows join the free list."""
        old = self._payloads.shape[0]
        new = old * 2
        for name in (
            "_worker_ids",
            "_steps",
            "_arrival_times",
            "_staleness",
            "_wire_bytes",
            "_losses",
            "_honest",
        ):
            array = getattr(self, name)
            grown = np.zeros(new, dtype=array.dtype)
            grown[:old] = array
            setattr(self, name, grown)
        payloads = np.zeros((new, self.dim), dtype=np.float64)
        payloads[:old] = self._payloads
        self._payloads = payloads
        self._free.extend(range(new - 1, old - 1, -1))

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._slot_of)

    @property
    def honest_count(self) -> int:
        """Honest entries currently buffered (incrementally maintained)."""
        return self._honest_count

    def step_of(self, worker_id: int) -> Optional[int]:
        """The buffered entry's model step, or ``None`` if absent."""
        slot = self._slot_of.get(worker_id)
        if slot is None:
            return None
        return int(self._steps[slot])

    def _active_slots(self) -> np.ndarray:
        return np.fromiter(
            self._slot_of.values(), dtype=np.intp, count=len(self._slot_of)
        )

    # ------------------------------------------------------------ mutation
    def put(
        self,
        worker_id: int,
        *,
        step: int,
        payload: np.ndarray,
        arrival_time: float,
        honest: bool,
        staleness: int,
        wire_bytes: float,
        loss: float,
    ) -> None:
        """Insert or overwrite the worker's buffered gradient (O(1))."""
        slot = self._slot_of.get(worker_id)
        if slot is None:
            if not self._free:
                self._grow()
            slot = self._free.pop()
            self._slot_of[worker_id] = slot
            self._worker_ids[slot] = worker_id
            if honest:
                self._honest_count += 1
        self._steps[slot] = step
        self._arrival_times[slot] = arrival_time
        self._staleness[slot] = staleness
        self._wire_bytes[slot] = wire_bytes
        self._losses[slot] = loss
        self._honest[slot] = honest
        self._payloads[slot] = payload

    def put_many(
        self, worker_ids: Sequence[int], *, steps: Sequence[int], payloads: np.ndarray,
        arrival_time: float, honest: np.ndarray, staleness: np.ndarray,
        wire_bytes: np.ndarray, losses: Sequence[float],
    ) -> None:
        """:meth:`put` of each of *worker_ids* in order, as column writes.

        The ids must be distinct and absent from the pool.  Slots come off
        the free list in the order those puts would pop them, growing each
        time it runs dry.
        """
        count = len(worker_ids)
        slots: List[int] = []
        while len(slots) < count:
            if not self._free:
                self._grow()
            cut = max(len(self._free) - (count - len(slots)), 0)
            slots.extend(reversed(self._free[cut:]))
            del self._free[cut:]
        self._slot_of.update(zip(worker_ids, slots))
        rows = np.array(slots, dtype=np.intp)
        self._worker_ids[rows] = worker_ids
        self._steps[rows] = steps
        self._arrival_times[rows] = arrival_time
        self._staleness[rows] = staleness
        self._wire_bytes[rows] = wire_bytes
        self._losses[rows] = losses
        self._honest[rows] = honest
        self._payloads[rows] = payloads
        self._honest_count += int(np.count_nonzero(honest))

    def holds(self, worker_ids: np.ndarray) -> np.ndarray:
        """Whether each of *worker_ids* has a buffered entry."""
        held = np.fromiter(self._slot_of, dtype=np.int64, count=len(self._slot_of))
        return np.isin(worker_ids, held)

    def _release(self, worker_id: int, slot: int) -> None:
        del self._slot_of[worker_id]
        self._free.append(slot)
        if self._honest[slot]:
            self._honest_count -= 1

    def rescan(self, version: int, admit: Callable[[int], bool]) -> List[int]:
        """Re-check the lag bound against *version*; returns rejected ids.

        ``admit`` is a pure predicate of the lag, so it is evaluated once
        per distinct lag in the pool instead of once per entry; survivors'
        staleness is refreshed to ``max(lag, 0)`` in one vectorised write.
        """
        slots = self._active_slots()
        if slots.size == 0:
            return []
        lags = version - self._steps[slots]
        admitted_lags = np.array(
            [lag for lag in np.unique(lags) if admit(int(lag))], dtype=np.int64
        )
        keep = np.isin(lags, admitted_lags)
        rejected: List[int] = []
        for slot in slots[~keep]:
            worker_id = int(self._worker_ids[slot])
            self._release(worker_id, int(slot))
            rejected.append(worker_id)
        kept = slots[keep]
        self._staleness[kept] = np.maximum(lags[keep], 0)
        return rejected

    # -------------------------------------------------------------- reads
    def honest_matrix(self) -> np.ndarray:
        """Honest payload rows, sorted by worker id (the adversary's view)."""
        slots = self._active_slots()
        honest = slots[self._honest[slots]]
        order = np.argsort(self._worker_ids[honest], kind="stable")
        return self._payloads[honest[order]]

    def payload_matrix(self) -> Optional[np.ndarray]:
        """All buffered payload rows (any order), or ``None`` when empty.

        The distance cache keys rows by content fingerprint, so the carry
        warm is order-insensitive; rows come out sorted by worker id for
        determinism all the same.
        """
        slots = self._active_slots()
        if slots.size == 0:
            return None
        order = np.argsort(self._worker_ids[slots], kind="stable")
        return self._payloads[slots[order]]

    def drain(self) -> ArrivalBatch:
        """Empty the pool into one batch in deterministic aggregation order.

        Honest workers by id, then Byzantine workers by id — worker ids are
        unique so the stable lexsort reproduces the dict buffer's
        ``sorted(..., key=(not honest, worker_id))`` permutation exactly.
        Every drained row was delivered, and its ``order`` is its drain
        position.
        """
        slots = self._active_slots()
        ids = self._worker_ids[slots]
        order = np.lexsort((ids, np.logical_not(self._honest[slots])))
        sel = slots[order]
        batch = ArrivalBatch(
            worker_ids=ids[order],
            steps=self._steps[sel],
            losses=self._losses[sel],
            payloads=self._payloads[sel],
            delivered=np.ones(sel.size, dtype=bool),
            arrival_times=self._arrival_times[sel],
            honest=self._honest[sel],
            order=np.arange(sel.size),
            wire_bytes=self._wire_bytes[sel],
            staleness=self._staleness[sel],
        )
        self._slot_of.clear()
        self._honest_count = 0
        capacity = self._payloads.shape[0]
        self._free = list(range(capacity - 1, -1, -1))
        return batch


__all__ = [
    "FleetState",
    "FleetComputeKernel",
    "PendingPool",
]
