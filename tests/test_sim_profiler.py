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
async links.
"""

from __future__ import annotations

import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.profiler import SUBSYSTEMS, SimProfiler
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import gaussian_blobs


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
