"""Fleet-scale scenario grid: accounting, budgets and profiler split.

Speed claims do not live here.  They are made with the repository benchmark
(``bench/run.py`` + ``bench/compare.py``, ``BENCHMARK.json``): whole runs of
the simulator as shipped, in absolute host-calibrated numbers, ten
alternating parent/change pairs.  This file used to gate each scenario's
``optimised / legacy`` wall-clock ratio against floors and a committed
baseline (``benchmarks/baselines/BENCH_simulator.json``).  Those gates are
gone for two reasons: they needed a ``legacy`` arm — the per-worker collect
loop, the per-event async drain and the per-candidate selection loops — kept
alive in ``src/`` behind ``vectorized=False`` / ``gar_selection="loop"``
for no other consumer, and they failed intermittently on host noise with no
code change.  The retired paths now live under ``tests/`` as frozen
reference oracles held by ``==`` differential grids.

What remains is host-insensitive and not covered by ``bench/``, asserted on
one single-arm run of the seven ``fleet_scale`` scenarios:

* lock-step rounds dispatch exactly ``num_workers * max_steps`` events with
  a peak queue of ``num_workers`` (closed form);
* the :class:`~repro.cluster.profiler.SimProfiler` split is arithmetically
  coherent and its scenario-specific buckets fire where they should;
* ``sync_10k`` — 10,000 lock-step workers — stays inside its absolute
  wall-clock and tracemalloc budgets (loose multiples of the measured
  numbers: they catch hangs, quadratic blowups and per-entry Python object
  pools, not percent-level drift);
* the region-sharded service reports a measured inter-server ledger.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.profiler import SUBSYSTEMS
from repro.experiments import fleet_scale

from benchmarks.conftest import events_per_second, run_once

SCENARIO_NAMES = sorted(fleet_scale.SCENARIOS)


@pytest.fixture(scope="module")
def bench_payload():
    """One full-scale run of the grid shared by every assertion below.

    One timed repeat per scenario: nothing below reads the spread, and the
    only timing gate (``sync_10k``) is a 60 s ceiling on a sub-second run.
    """
    return fleet_scale.run_fleet_scale(repeats=1)


@pytest.mark.timeout(600)
def test_grid_trains_every_scenario(benchmark, bench_payload):
    # The standard scenario at smoke scale under pytest-benchmark, so the
    # suite's timing report carries a fleet row; the assertions use the
    # shared full-scale payload.
    run_once(
        benchmark,
        fleet_scale.run_scenario,
        fleet_scale.smoke_scenarios(["sync_fleet"])["sync_fleet"],
        repeats=1,
        profile_split=False,
    )
    print("\n" + fleet_scale.format_results(bench_payload))
    assert sorted(bench_payload["scenarios"]) == SCENARIO_NAMES
    for name, node in bench_payload["scenarios"].items():
        assert np.isfinite(node["final_mean_loss"]), name
        assert node["final_sim_time"] > 0, name


@pytest.mark.timeout(600)
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_event_accounting_matches_the_closed_form(name, bench_payload):
    node = bench_payload["scenarios"][name]
    scenario = node["scenario"]
    if scenario.get("extra", {}).get("mode") != "async":
        # Lock-step rounds have a closed-form event budget; the async
        # stream's count depends on the quorum schedule.
        assert node["events_dispatched"] == scenario["num_workers"] * scenario["max_steps"]
        assert node["peak_queue_size"] == scenario["num_workers"]
    assert node["events_per_s"] == pytest.approx(events_per_second(node))


@pytest.mark.timeout(600)
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_profile_split_accounts_for_the_step(name, bench_payload):
    node = bench_payload["scenarios"][name]
    split = node["subsystems"]
    assert set(split["subsystems"]) <= set(SUBSYSTEMS)
    shares = [s["share"] for s in split["subsystems"].values()]
    assert all(0.0 <= share <= 1.0 for share in shares)
    # The sections partition the profiled run: seconds sum to accounted_s,
    # and accounted + unaccounted reconstructs the wall clock exactly.
    total = sum(s["seconds"] for s in split["subsystems"].values())
    assert total == pytest.approx(split["accounted_s"])
    assert split["accounted_s"] + split["unaccounted_s"] == pytest.approx(
        split["wall_clock_s"]
    )
    # The brackets cover the hot loop (async admission included, in its
    # own ``admission`` bucket); whatever they miss (arrival assembly, the
    # event handlers' glue) must stay a minority of the run.  The async
    # engine keeps more glue outside the brackets than the lock-step round
    # loop does, hence the looser floor.
    floor = 0.5 if node["scenario"].get("extra", {}).get("mode") != "async" else 0.35
    assert split["accounted_s"] > floor * split["wall_clock_s"]


@pytest.mark.timeout(600)
def test_sync_10k_stays_inside_the_absolute_budgets(bench_payload):
    """The 10k-worker scenario is gated on raw seconds and bytes.

    The budgets are loose multiples of the measured numbers (so a slow
    container cannot flake) and exist to catch hangs, quadratic blowups and
    per-entry Python object pools sneaking back into the SoA hot paths at
    scale.
    """
    node = bench_payload["scenarios"]["sync_10k"]
    budget = node["scenario"]["budget"]
    wall = node["wall_clock_s"]["min"]
    assert wall <= budget["wall_s"], (
        f"sync_10k wall clock {wall:.2f}s exceeds the {budget['wall_s']}s budget"
    )
    peak = node["peak_heap_bytes"]
    assert peak <= budget["heap_bytes"], (
        f"sync_10k peak heap {peak} bytes exceeds the "
        f"{budget['heap_bytes']}-byte tracemalloc ceiling"
    )


@pytest.mark.timeout(600)
def test_scenario_specific_buckets_fire(bench_payload):
    """Each specialised subsystem shows up in the regime built to price it."""
    scenarios = bench_payload["scenarios"]
    wan_split = scenarios["wan_delta"]["subsystems"]["subsystems"]
    assert wan_split["link_reschedule"]["calls"] > 0, (
        "fair-shared WAN links should reschedule in-flight transfers"
    )
    async_split = scenarios["async_quorum"]["subsystems"]["subsystems"]
    assert async_split["admission"]["calls"] > 0, (
        "every async arrival should pass through the admission bracket"
    )
    bulyan_split = scenarios["bulyan_attack"]["subsystems"]["subsystems"]
    assert bulyan_split["attack"]["calls"] > 0, (
        "the Byzantine crafting bracket should fire under an active attack"
    )
    assert bulyan_split["gar_kernel"]["seconds"] > 0
    assert bulyan_split["gar_select"]["calls"] > 0, (
        "Bulyan's selection stage should be split out under gar_select"
    )
    inter = scenarios["sharded_wan"]["interserver"]
    assert inter["gather_bytes"] > 0, (
        "the region-sharded service should measure its inter-server gather"
    )
