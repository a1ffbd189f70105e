"""An async herd's step builds no per-worker event and no per-worker frame.

The async counterpart of ``tests/test_step_call_count.py``: on a
homogeneous fleet every stage of a round — fetch, compute, push, arrive —
fires at one instant for every worker, and travels as one
:class:`~repro.cluster.events.Cohort` per stage instead of one
:class:`~repro.cluster.events.Event` per worker.  So, from the second step
on, the number of ``Event`` objects one ``run_step`` builds is the same at
50 and at 500 workers, and a transparent uplink never mints a ``WireFrame``:
the ``arrive`` cohort carries the push's ``FrameBatch`` rows and decodes
them in one batch at admission — so an arrival in flight holds its sparse
frame row, never a dense gradient row.  Admission is in bulk too: no
per-arrival ``PendingPool.put``, one ``put_many`` per stretch of arrivals
between two trigger consultations.  On a contended four-region WAN the
pipes of the four regions complete together, and one ``link`` dispatch
sweeps them.
"""

import gc
import sys

from repro.cluster import build_trainer
from repro.cluster import events
from repro.cluster.codec import DeliveredFrames, WireFrame
from repro.data.datasets import load_dataset

#: Every way an ``Event`` is built: the validating constructor and the
#: queue's fast path (members popped off a cohort, singletons of a herd).
_EVENT_CODE = {events.Event.__init__.__code__, events._event.__code__}


def _counted_step(trainer):
    """``(Event builds, WireFrame inits, events dispatched)`` of one ``run_step``."""
    counts = {"events": 0, "frames": 0}

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code in _EVENT_CODE:
                counts["events"] += 1
            elif (
                frame.f_code.co_name == "__init__"
                and type(frame.f_locals.get("self")) is WireFrame
            ):
                counts["frames"] += 1

    # A cyclic collection mid-step would run other tests' finalizers and
    # callbacks under the profiler: collect first, then keep it out.
    gc.collect()
    gc.disable()
    dispatched = trainer.events_dispatched
    sys.setprofile(profile)
    try:
        trainer.run_step()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts["events"], counts["frames"], trainer.events_dispatched - dispatched


def _herd(num_workers):
    dataset = load_dataset("blobs", num_train=400, num_test=50, num_classes=5, dim=10, rng=0)
    return build_trainer(
        dataset=dataset, model="logistic", model_kwargs={"input_dim": 10, "num_classes": 5},
        num_workers=num_workers, num_byzantine=0, declared_f=0, gar="median",
        batch_size=2, mode="async", sync_policy="quorum", codec="top-k", codec_k=8,
        compute_mode="fleet", compact_telemetry=True, seed=5,
    )


def _steps(num_workers):
    trainer = _herd(num_workers)
    trainer.run_step()  # the first step dispatches the initial fetch herd
    return [_counted_step(trainer) for _ in range(3)]


def test_an_async_herd_steps_event_count_does_not_depend_on_the_fleet_size():
    small, large = _steps(50), _steps(500)
    assert [built for built, _, _ in small] == [built for built, _, _ in large]
    assert [frames for _, frames, _ in small + large] == [0] * 6
    # The herd did run: each step dispatched a round trip per worker or more.
    assert all(n >= 4 * 50 for _, _, n in small) and all(n >= 4 * 500 for _, _, n in large)


def test_arrivals_in_flight_carry_frame_rows_not_dense_gradients():
    """What an ``arrive`` cohort held while in flight: k = 8 values a row of d = 55."""
    trainer = _herd(50)
    handler = trainer._loop._run_handlers["arrive"]
    carried = []

    def spy(cohort):
        carried.append(cohort.payloads)
        handler(cohort)

    trainer._loop._run_handlers["arrive"] = spy
    for _ in range(3):
        trainer.run_step()
    assert carried
    for payloads in carried:
        steps, losses, wires = payloads.columns
        assert type(steps) is list and type(losses) is list
        assert isinstance(wires, DeliveredFrames) and not wires.touched
        assert wires.frames.values.shape == (len(steps), 8) and trainer.server.dim == 55


def _admission_calls(num_workers):
    """Per ``arrive`` cohort of three steady steps: ``(members, put, put_many, consultations)``."""
    trainer = _herd(num_workers)
    trainer.run_step()
    handler = trainer._loop._run_handlers["arrive"]
    pool = trainer._pending
    put, put_many, aggregate = pool.put, pool.put_many, trainer._maybe_aggregate
    cohorts, current = [], []

    def counting(name, call):
        def spy(*args, **kwargs):
            if current:  # inside an arrive handler
                current[0][name] += 1
            return call(*args, **kwargs)
        return spy

    def spy_handler(cohort):
        current.append({"members": len(cohort), "put": 0, "put_many": 0, "consulted": 0})
        handler(cohort)
        cohorts.append(tuple(current.pop().values()))

    pool.put, pool.put_many = counting("put", put), counting("put_many", put_many)
    # Each consultation asks both triggers; the adversary's check returns at
    # once in an honest fleet, so the quorum check counts them.
    trainer._maybe_aggregate = counting("consulted", aggregate)
    trainer._loop._run_handlers["arrive"] = spy_handler
    for _ in range(3):
        trainer.run_step()
    return cohorts


def test_an_async_herd_admits_each_arrive_cohort_in_bulk_writes():
    """No per-arrival ``put``: one ``put_many`` per stretch between trigger consultations."""
    small, large = _admission_calls(50), _admission_calls(500)
    for cohorts, num_workers in ((small, 50), (large, 500)):
        assert sum(members for members, _, _, _ in cohorts) >= 3 * num_workers
        for members, put, put_many, consulted in cohorts:
            assert put == 0
            assert 1 <= put_many <= consulted + 1
    # The bulk writes do not grow with the fleet.
    assert [calls[1:] for calls in small] == [calls[1:] for calls in large]


def _link_dispatches(num_workers):
    """Per steady step of a contended ``fifo`` herd: ``[link dispatches, link events]``."""
    dataset = load_dataset("blobs", num_train=400, num_test=50, num_classes=5, dim=10, rng=0)
    trainer = build_trainer(
        dataset=dataset, model="logistic", model_kwargs={"input_dim": 10, "num_classes": 5},
        num_workers=num_workers, num_byzantine=0, declared_f=0, gar="median",
        batch_size=2, mode="async", sync_policy="quorum", codec="top-k", codec_k=8,
        link_profile="wan:4x10mbit/20ms", link_sharing="fifo", compact_telemetry=True, seed=5,
    )
    trainer.run_step()
    sweep = trainer._loop._run_handlers["link"]
    counts = []

    def on_run(cohort):
        counts[-1][0] += 1
        counts[-1][1] += len(cohort)
        sweep(cohort)

    trainer._loop._run_handlers["link"] = on_run
    for _ in range(3):
        counts.append([0, 0])
        trainer.run_step()
    return counts


def test_a_contended_herd_sweeps_its_pipes_in_one_link_dispatch_per_instant():
    """Four identical regions: their pipes complete together and one dispatch sweeps them.

    Every link dispatch of a steady step takes the completions of the four
    regions' pipes at its instant, at 40 workers as at 80 — dispatched one
    by one, the same events would take four dispatches.
    """
    for counts in (_link_dispatches(40), _link_dispatches(80)):
        assert all(events == 4 * dispatches > 0 for dispatches, events in counts), counts
