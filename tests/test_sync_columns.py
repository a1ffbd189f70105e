"""The columnar synchrony policies against their frozen list-of-events twins.

``src/repro/cluster/sync.py`` decides on one :class:`ArrivalBatch` per step —
a lexsort drain, row selections, a carry pool that is itself a batch.
``tests/sync_reference.py`` freezes the policies it replaced, which sorted
``ArrivalEvent`` objects.  Each example below drives a live policy and its
frozen twin through three consecutive ``collect`` calls on the same
arrivals — the frozen one in event-queue order, as the frozen trainer hands
them, the live one in submission order — checkpoints and restores both
between the second and the third, and requires ``==`` on everything a
decision and a pool hold: admitted ids in order, payload bytes, the wait's
bits (``-0.0`` included), every count, the pending pool and ``state_dict()``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builder import build_trainer
from repro.cluster.cost_model import StragglerModel
from repro.cluster.message import GradientMessage
from repro.cluster.sync import ArrivalBatch, BoundedStaleness, FullSync, Quorum
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import gaussian_blobs
from tests import sync_reference as frozen

DIM = 3
#: Ties on purpose: equal times, both zeros, and the Byzantine instant.
TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@st.composite
def _steps(draw):
    """Three steps of arrivals from one fleet, plus the policy to run."""
    num_honest = draw(st.integers(1, 7))
    num_byz = draw(st.integers(0, 3))
    m = num_honest + num_byz
    f = draw(st.integers(0, m // 3))
    quorum = draw(st.one_of(st.none(), st.integers(m - f, m)))
    kind = draw(st.sampled_from(["full-sync", "drop", "carry", "tau"]))
    tau = draw(st.sampled_from([0, 1, 3]))
    # Worker ids: the same fleet every step, so a worker can have a carried
    # row and a fresh one in one pool.
    ids = draw(st.permutations(range(20)))[:m]
    steps = []
    for step in range(3):
        rows = []
        for i in range(m):
            honest = i < num_honest
            rows.append(dict(
                worker_id=ids[i],
                # Stale steps: a row may have been computed on an older model.
                step=max(step - draw(st.sampled_from([0, 0, 0, 1, 2])), 0),
                loss=draw(st.floats(-2.0, 2.0)) if honest else float("nan"),
                time=draw(TIMES) if honest else draw(st.sampled_from([0.0, -0.0])),
                delivered=draw(st.booleans()) or draw(st.booleans()),
                wire_bytes=float(draw(st.integers(0, 64))) if honest else 0.0,
                payload=[draw(st.floats(-4.0, 4.0)) for _ in range(DIM)],
                gradient=[draw(st.floats(-4.0, 4.0)) for _ in range(DIM)],
                honest=honest,
            ))
        steps.append(rows)
    return dict(m=m, f=f, quorum=quorum, kind=kind, tau=tau, steps=steps)


def _policies(case):
    kind, quorum = case["kind"], case["quorum"]
    if kind == "full-sync":
        live = FullSync()
    elif kind in ("drop", "carry"):
        live = Quorum(quorum=quorum, stragglers=kind)
    else:
        live = BoundedStaleness(tau=case["tau"], quorum=quorum)
    live.bind(num_workers=case["m"], f=case["f"])
    return live, frozen.frozen_twin(live)


def _live_batch(rows) -> ArrivalBatch:
    """The step in submission order, as the lock-step trainer builds it."""
    payloads = np.array([r["payload"] for r in rows])
    payloads[[not r["delivered"] for r in rows]] = np.nan  # never read
    return ArrivalBatch(
        worker_ids=np.array([r["worker_id"] for r in rows]),
        steps=np.array([r["step"] for r in rows]),
        losses=np.array([r["loss"] for r in rows]),
        payloads=payloads,
        delivered=np.array([r["delivered"] for r in rows]),
        arrival_times=np.array([r["time"] for r in rows]),
        honest=np.array([r["honest"] for r in rows]),
        order=np.arange(len(rows)),
        wire_bytes=np.array([r["wire_bytes"] for r in rows]),
        staleness=np.zeros(len(rows), dtype=np.int64),
        gradients=(np.array([r["gradient"] for r in rows]).reshape(len(rows), DIM),),
    )


def _frozen_events(rows):
    """The step in event-queue order, as the frozen trainer drains it."""
    events = [
        frozen.ArrivalEvent(
            message=GradientMessage(
                worker_id=r["worker_id"], step=r["step"],
                gradient=np.array(r["gradient"]), loss=r["loss"],
            ),
            payload=np.array(r["payload"]) if r["delivered"] else None,
            arrival_time=r["time"],
            honest=r["honest"],
            order=order,
            wire_bytes=r["wire_bytes"],
        )
        for order, r in enumerate(rows)
    ]
    return sorted(events, key=lambda e: (e.arrival_time, e.order))


def _assert_rows_equal(events, batch, *, gradients: bool) -> None:
    assert len(batch) == len(events)
    assert batch.worker_ids.tolist() == [e.message.worker_id for e in events]
    assert batch.steps.tolist() == [e.message.step for e in events]
    assert [_bits(x) for x in batch.losses.tolist()] == [_bits(e.message.loss) for e in events]
    assert [_bits(x) for x in batch.arrival_times.tolist()] == [
        _bits(e.arrival_time) for e in events
    ]
    assert batch.honest.tolist() == [e.honest for e in events]
    assert batch.order.tolist() == [e.order for e in events]
    assert batch.staleness.tolist() == [e.staleness for e in events]
    assert batch.wire_bytes.tolist() == [e.wire_bytes for e in events]
    assert batch.delivered.all() and all(e.delivered for e in events)
    if events:
        assert batch.payloads.tobytes() == np.stack([e.payload for e in events]).tobytes()
        if gradients:
            rows = batch.gradient_rows(np.arange(len(batch)))
            assert rows.tobytes() == np.stack([e.message.gradient for e in events]).tobytes()


def _assert_state_equal(live: dict, reference: dict) -> None:
    assert list(live) == list(reference)
    assert len(live.get("pending", [])) == len(reference.get("pending", []))
    for ours, theirs in zip(live.get("pending", []), reference.get("pending", [])):
        assert list(ours) == list(theirs)
        for key, value in theirs.items():
            mine = ours[key]
            if isinstance(value, np.ndarray):
                assert mine.dtype == value.dtype and mine.tobytes() == value.tobytes(), key
            elif isinstance(value, float):
                assert type(mine) is float and _bits(mine) == _bits(value), key
            else:
                assert type(mine) is type(value) and mine == value, key


def _run_case(case) -> None:
    live, reference = _policies(case)
    for step, rows in enumerate(case["steps"]):
        if step == 2:
            # Checkpoint both pools and resume each into a fresh twin.
            state, frozen_state = live.state_dict(), reference.state_dict()
            _assert_state_equal(state, frozen_state)
            live, reference = _policies(case)
            live.load_state_dict(state)
            reference.load_state_dict(frozen_state)
        ours = live.collect(_live_batch(rows), step, floor=0.125)
        theirs = reference.collect(_frozen_events(rows), step, floor=0.125)

        assert type(ours.wait_time) is float
        assert _bits(ours.wait_time) == _bits(theirs.wait_time)
        for count in ("dropped_stragglers", "carried"):
            assert getattr(ours, count) == getattr(theirs, count), count
        # The live decision carries no stale counts: the round close derives
        # them from the admitted staleness column.  The frozen full-sync
        # never counted them (a lock-step full-sync batch is all fresh; only
        # this test hands it older steps).
        stale = ours.admitted.staleness[ours.admitted.staleness > 0]
        if case["kind"] != "full-sync":
            assert (stale.size, int(stale.max()) if stale.size else 0) == (
                theirs.stale_admitted, theirs.max_staleness
            )
        _assert_rows_equal(theirs.admitted, ours.admitted, gradients=False)
        _assert_rows_equal(reference.pending_events(), live.pending(), gradients=True)
        _assert_state_equal(live.state_dict(), reference.state_dict())


@settings(max_examples=150, deadline=None)
@given(case=_steps())
def test_live_policies_decide_what_the_frozen_event_lists_decide(case):
    _run_case(case)


def _case(kind, m, f, quorum, steps, *, tau=1):
    """A hand-built case: *steps* lists ``(time, step)`` per worker per step."""
    return dict(m=m, f=f, quorum=quorum, kind=kind, tau=tau, steps=[
        [
            dict(worker_id=i, step=row_step, loss=0.5 * i, time=time, delivered=True,
                 wire_bytes=8.0, payload=[float(i + 10 * s)] * DIM,
                 gradient=[float(-i - 10 * s)] * DIM, honest=True)
            for i, (time, row_step) in enumerate(rows)
        ]
        for s, rows in enumerate(steps)
    ])


@pytest.mark.parametrize("case", [
    # Worker 2 is late at step 0 and again at step 1 with a gradient on the
    # same (stale) model: on equal steps the later arrival — the fresh row —
    # takes the pending slot and the carried one counts as dropped.
    _case("carry", 3, 1, 2, [
        [(0.1, 0), (0.2, 0), (5.0, 0)],
        [(0.1, 1), (0.2, 1), (9.0, 0)],
        [(0.1, 2), (0.2, 2), (0.3, 2)],
    ]),
    # Two late workers, the higher id first: the pool keeps first-late order.
    _case("carry", 6, 2, 4, [
        [(0.1, 0), (0.1, 0), (0.1, 0), (0.1, 0), (2.0, 0), (1.0, 0)],
        [(0.1, 1), (0.1, 1), (0.1, 1), (0.1, 1), (3.0, 1), (2.5, 1)],
        [(0.1, 2)] * 6,
    ]),
    # tau = 1 forces the once-carried gradient in at the next step.
    _case("tau", 4, 1, 3, [
        [(0.1, 0), (0.2, 0), (0.3, 0), (4.0, 0)],
        [(0.1, 1), (0.2, 1), (0.3, 1), (9.0, 1)],
        [(0.1, 2), (0.2, 2), (0.3, 2), (0.4, 2)],
    ]),
], ids=["equal-steps-later-wins", "first-late-order", "tau-forced"])
def test_named_carry_cases(case):
    _run_case(case)


def test_the_drain_takes_the_first_of_two_tied_zeros():
    """``max`` keeps the first maximum: in drain order, ``-0.0`` (order 0) wins."""
    rows = [
        dict(worker_id=i, step=0, loss=0.0, time=time, delivered=True, wire_bytes=0.0,
             payload=[0.0] * DIM, gradient=[0.0] * DIM, honest=True)
        for i, time in enumerate([-0.0, 0.0])
    ]
    live = FullSync()
    live.bind(num_workers=2, f=0)
    decision = live.collect(_live_batch(rows), 0, floor=1.0)
    assert _bits(decision.wait_time) == _bits(-0.0)
    assert decision.admitted.worker_ids.tolist() == [0, 1]


def test_an_all_delivered_full_sync_step_admits_the_batch_as_it_is():
    """No copy of the ``(m, d)`` payloads when every row is admitted in order."""
    rows = [
        dict(worker_id=i, step=0, loss=0.0, time=float(3 - i), delivered=True,
             wire_bytes=8.0, payload=[float(i)] * DIM, gradient=[0.0] * DIM, honest=True)
        for i in range(3)
    ]
    batch = _live_batch(rows)
    live = FullSync()
    live.bind(num_workers=3, f=0)
    decision = live.collect(batch, 0, floor=0.0)
    assert decision.admitted is batch
    assert decision.wait_time == 3.0


# ------------------------------------------------------------ mint contract
@pytest.mark.parametrize("policy", [
    {},
    {"sync_policy": "quorum", "sync_kwargs": {"stragglers": "carry"},
     "straggler_model": StragglerModel("pareto")},
], ids=["full-sync", "quorum-carry"])
def test_a_lock_step_step_mints_one_batch_and_no_honest_message(monkeypatch, policy):
    """Two steps: one trainer-built ``ArrivalBatch`` each, at most f messages.

    The honest gradients travel as rows of the stacked pass's matrix; only
    the adversary's crafted rows are still messages.  The policies' own
    batches (pool merge, admitted rows, carry pool) are a fixed handful per
    step, the same at 12 workers as at 48.
    """
    minted, built = [], []
    trusted = GradientMessage.trusted.__func__
    post_init = GradientMessage.__post_init__
    batch_init = ArrivalBatch.__init__

    def counting_trusted(cls, worker_id, *args, **kwargs):
        minted.append(worker_id)
        return trusted(cls, worker_id, *args, **kwargs)

    def counting_post_init(self):
        minted.append(self.worker_id)
        post_init(self)

    def counting_init(self, *columns, **named):
        batch_init(self, *columns, **named)
        built.append(len(self))

    monkeypatch.setattr(GradientMessage, "trusted", classmethod(counting_trusted))
    monkeypatch.setattr(GradientMessage, "__post_init__", counting_post_init)
    monkeypatch.setattr(ArrivalBatch, "__init__", counting_init)

    per_size = []
    for num_workers in (12, 48):
        trainer = build_trainer(
            model="logistic", model_kwargs={"input_dim": 10, "num_classes": 5},
            dataset=gaussian_blobs(num_train=400, num_classes=5, dim=10, rng=3),
            gar="median", num_workers=num_workers, num_byzantine=2, declared_f=2,
            attack="sign-flip", batch_size=4, seed=7, **policy,
        )
        minted.clear()
        built.clear()
        history = trainer.run(TrainerConfig(max_steps=2, eval_every=0))
        honest_ids = {w.worker_id for w in trainer.honest_workers}
        assert not honest_ids & set(minted), minted
        assert len(minted) <= 2 * len(trainer.byzantine_workers)
        # The trainer's batch is the one with a row per worker.
        assert built.count(num_workers) == 2, built
        per_size.append(len(built))
        if policy:
            assert history.sync_summary()["carried_gradients"] > 0
    assert per_size[0] == per_size[1], per_size
