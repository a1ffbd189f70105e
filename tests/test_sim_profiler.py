"""The profiler's split must reconstruct the step in both trainer modes.

The per-subsystem breakdown is the instrument the perf matrix reads, so
its arithmetic has to be trustworthy: section seconds sum to
``accounted_s``, ``accounted_s + unaccounted_s`` reconstructs the wall
clock, shares live in [0, 1] and sum to one, and only canonical subsystem
names appear.  The sections also bracket *disjoint* stages, so the
accounted total can never exceed the measured wall clock (beyond timer
granularity).  Both the lock-step and the async event-stream trainers are
driven under a live profiler, including the regime-specific brackets:
``attack`` under an active adversary and ``link_reschedule`` on contended
async links.  Each benchmark workload (``bench/workloads.py``) at smoke scale
must keep most of its run inside the brackets and fire the bucket its regime
exists to price.
"""

from __future__ import annotations

import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.profiler import SUBSYSTEMS, SimProfiler
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import gaussian_blobs

from bench import harness, layers
from bench.workloads import WORKLOADS


def _profiled_run(**overrides):
    profiler = SimProfiler()
    kwargs = dict(
        model="logistic",
        model_kwargs={"input_dim": 10, "num_classes": 5},
        dataset=gaussian_blobs(num_train=400, num_classes=5, dim=10, rng=3),
        gar="median",
        num_workers=12,
        num_byzantine=3,
        attack="sign-flip",
        batch_size=4,
        learning_rate=0.05,
        seed=11,
        profiler=profiler,
    )
    kwargs.update(overrides)
    trainer = build_trainer(**kwargs)
    profiler.start_run()
    try:
        trainer.run(TrainerConfig(max_steps=4, eval_every=0))
    finally:
        profiler.stop_run()
    return profiler.to_dict()


def _assert_split_is_coherent(split):
    assert set(split["subsystems"]) <= set(SUBSYSTEMS)
    seconds = [s["seconds"] for s in split["subsystems"].values()]
    assert all(value >= 0.0 for value in seconds)
    assert sum(seconds) == pytest.approx(split["accounted_s"])
    assert split["accounted_s"] + split["unaccounted_s"] == pytest.approx(
        split["wall_clock_s"]
    )
    # Disjoint brackets: the accounted total cannot exceed the wall clock
    # (small slack for perf_counter granularity around tiny sections).
    assert split["accounted_s"] <= split["wall_clock_s"] * 1.05 + 1e-4
    shares = [s["share"] for s in split["subsystems"].values()]
    assert all(0.0 <= share <= 1.0 for share in shares)
    if split["accounted_s"] > 0:
        assert sum(shares) == pytest.approx(1.0)


def test_sync_split_sums_to_the_wall_clock():
    split = _profiled_run()
    _assert_split_is_coherent(split)
    # The lock-step round always exercises the core brackets.
    for name in ("event_dispatch", "codec", "gar_kernel", "telemetry", "compute"):
        assert split["subsystems"][name]["calls"] > 0, name
    assert split["subsystems"]["attack"]["calls"] > 0


def test_async_split_sums_to_the_wall_clock():
    split = _profiled_run(
        mode="async",
        sync_policy="quorum",
        link_profile="wan:2x10mbit/5ms",
        link_sharing="fair",
    )
    _assert_split_is_coherent(split)
    for name in ("event_dispatch", "codec", "gar_kernel", "compute"):
        assert split["subsystems"][name]["calls"] > 0, name
    # Contended fair-shared links must reschedule in-flight transfers.
    assert split["subsystems"]["link_reschedule"]["calls"] > 0


def test_sync_gar_select_split_fires_for_selection_gars():
    """Selection GARs book their selection stage under ``gar_select``.

    The trainer drains the rules' shared selection clock after each
    ``gar_kernel`` bracket and re-books the seconds, so the split must
    stay coherent (sections disjoint, sums to the wall clock) and the
    re-booking may never drive ``gar_kernel`` negative.
    """
    split = _profiled_run(gar="bulyan", num_workers=15)
    _assert_split_is_coherent(split)
    assert split["subsystems"]["gar_select"]["calls"] > 0
    assert split["subsystems"]["gar_select"]["seconds"] >= 0.0
    assert split["subsystems"]["gar_kernel"]["seconds"] >= 0.0


def test_async_gar_select_split_fires_for_selection_gars():
    split = _profiled_run(gar="multi-krum", mode="async", sync_policy="quorum")
    _assert_split_is_coherent(split)
    assert split["subsystems"]["gar_select"]["calls"] > 0
    assert split["subsystems"]["gar_kernel"]["seconds"] >= 0.0


def test_median_books_no_gar_select_time():
    """Non-selection GARs never touch the selection clock."""
    split = _profiled_run(gar="median")
    assert "gar_select" not in split["subsystems"]


#: The buckets a benchmark workload's regime exists to price.
REGIME_BUCKETS = {
    "async_quorum_1k": ("admission",),
    "wan_delta_fifo_400": ("link_reschedule",),
    "bulyan_attack_600": ("attack", "gar_select"),
}
#: The region-sharded workload, whose inter-server gather must be measured.
SHARDED = sorted(
    name for name, workload in WORKLOADS.items()
    if workload.trainer.get("server_topology") == "region-sharded"
)


#: Profiled sessions per workload.  The smoke runs last milliseconds, so one
#: descheduling of the process can swamp a single session's share; a
#: bracket that misses work misses it in every session.
PROFILED_SESSIONS = 3


@pytest.fixture(scope="module")
def profiled_workload():
    """Profiled smoke sessions per workload, shared by the tests below.

    A warm-up session comes first, so first-call costs are not counted
    against the brackets.  Returns the workload, then one
    ``(session, split, history)`` per profiled session.
    """
    runs = {}

    def run(name):
        if name not in runs:
            workload = WORKLOADS[name].scaled("smoke")
            harness.run_session(workload, 7)
            sessions = []
            for _ in range(PROFILED_SESSIONS):
                profiler = SimProfiler()
                session, _, history = harness.run_session(
                    workload, 7, profiler=profiler,
                    around_run=lambda: layers.profiled_run(profiler),
                )
                sessions.append((session, profiler.to_dict(), history))
            runs[name] = (workload, sessions)
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_split_covers_the_run(name, profiled_workload):
    """The brackets cover most of each workload's run.

    What they miss (arrival assembly, the event handlers' glue) must stay a
    minority; the async engine keeps more glue outside the brackets than the
    lock-step round loop does, hence its looser floor.
    """
    workload, sessions = profiled_workload(name)
    for session, split, _ in sessions:
        assert session.failures == [] and session.sim_time > 0
        _assert_split_is_coherent(split)
    floor = 0.5 if workload.lock_step else 0.35
    shares = [split["accounted_s"] / split["wall_clock_s"] for _, split, _ in sessions]
    assert max(shares) > floor, shares


@pytest.mark.parametrize("name", sorted(set(REGIME_BUCKETS) | set(SHARDED)))
def test_benchmark_workload_fires_its_regime_bucket(name, profiled_workload):
    """Each specialised subsystem shows up in the workload built to price it."""
    _, sessions = profiled_workload(name)
    buckets = REGIME_BUCKETS.get(name, ())
    for _, split, history in sessions:
        for bucket in buckets:
            assert split["subsystems"][bucket]["calls"] > 0, bucket
        if "gar_select" in buckets:
            assert split["subsystems"]["gar_kernel"]["seconds"] > 0
        if name in SHARDED:
            assert history.interserver_summary()["gather_bytes"] > 0
