"""State machine for the async admission buffer, ``PendingPool``.

The pool is driven the way ``AsyncTrainer._admit_arrival`` and
``_maybe_aggregate`` drive it — fresh puts, supersedes guarded by
``step_of``, stale rescans and drains — against a plain dict model of what
it must hold.  After every rule the pool's counts, its reads and its
capacity are checked against the model; a drain must hand back an
``ArrivalBatch`` in ``(not honest, worker_id)`` order with every column the
model predicts.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.fleet import PendingPool
from repro.cluster.sync import ArrivalBatch

DIM = 3
WORKERS = 10
INITIAL_CAPACITY = 2


def _honest(worker_id: int) -> bool:
    """Worker ids divisible by three are Byzantine (a fixed role, as in a cluster)."""
    return worker_id % 3 != 0


class PendingPoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = PendingPool(dim=DIM, capacity=INITIAL_CAPACITY)
        self.model = {}
        self.capacity = INITIAL_CAPACITY
        self.version = 0
        self.clock = 0.0
        self.serial = 0

    def _entry(self, worker_id, step):
        self.serial += 1
        self.clock += 0.5
        honest = _honest(worker_id)
        return dict(
            step=step,
            payload=np.full(DIM, float(self.serial)),
            arrival_time=self.clock,
            honest=honest,
            staleness=max(self.version - step, 0),
            wire_bytes=8.0 * self.serial if honest else 0.0,
            loss=0.25 * self.serial if honest else float("nan"),
        )

    def _put(self, worker_id, entry):
        if worker_id not in self.model and len(self.model) == self.capacity:
            self.capacity *= 2
        self.pool.put(worker_id, **entry)
        self.model[worker_id] = entry

    @rule(worker_id=st.integers(0, WORKERS - 1), lag=st.integers(0, 3))
    def arrive(self, worker_id, lag):
        """An arrival, fresh or superseding: the admission rule of the async engine."""
        step = max(self.version - lag, 0)
        existing = self.pool.step_of(worker_id)
        held = self.model.get(worker_id)
        assert existing == (None if held is None else held["step"])
        if existing is not None and step < existing:
            # A late older-step arrival never evicts the fresher entry.
            return
        self._put(worker_id, self._entry(worker_id, step))

    @rule()
    def advance_version(self):
        self.version += 1

    @rule(bound=st.integers(0, 3))
    def rescan(self, bound):
        rejected = self.pool.rescan(self.version, lambda lag: lag <= bound)
        expected = sorted(
            w for w, e in self.model.items() if self.version - e["step"] > bound
        )
        assert sorted(rejected) == expected
        for worker_id in expected:
            del self.model[worker_id]
        for entry in self.model.values():
            entry["staleness"] = max(self.version - entry["step"], 0)

    @precondition(lambda self: self.model)
    @rule()
    def drain(self):
        batch = self.pool.drain()
        assert isinstance(batch, ArrivalBatch)
        ids = sorted(self.model, key=lambda w: (not _honest(w), w))
        rows = [self.model[w] for w in ids]
        assert batch.worker_ids.tolist() == ids
        assert batch.steps.tolist() == [e["step"] for e in rows]
        assert batch.staleness.tolist() == [e["staleness"] for e in rows]
        assert batch.arrival_times.tolist() == [e["arrival_time"] for e in rows]
        assert batch.wire_bytes.tolist() == [e["wire_bytes"] for e in rows]
        assert batch.honest.tolist() == [e["honest"] for e in rows]
        np.testing.assert_array_equal(batch.losses, [e["loss"] for e in rows])
        np.testing.assert_array_equal(batch.payloads, np.stack([e["payload"] for e in rows]))
        assert batch.delivered.dtype == bool and batch.delivered.all()
        assert batch.order.tolist() == list(range(len(ids)))
        assert batch.gradients == ()
        self.model.clear()

    @invariant()
    def counts_and_capacity(self):
        assert len(self.pool) == len(self.model)
        assert self.pool.honest_count == sum(e["honest"] for e in self.model.values())
        # Freed slots are reused: the pool grows only when every slot is live.
        assert self.pool._payloads.shape[0] == self.capacity

    @invariant()
    def reads(self):
        honest = sorted(w for w, e in self.model.items() if e["honest"])
        expected = [self.model[w]["payload"] for w in honest]
        np.testing.assert_array_equal(
            self.pool.honest_matrix(), np.stack(expected) if expected else np.zeros((0, DIM))
        )
        matrix = self.pool.payload_matrix()
        if not self.model:
            assert matrix is None
        else:
            np.testing.assert_array_equal(
                matrix, np.stack([self.model[w]["payload"] for w in sorted(self.model)])
            )


PendingPoolMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestPendingPool = PendingPoolMachine.TestCase
