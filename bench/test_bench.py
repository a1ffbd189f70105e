"""Tests of the benchmark's own machinery (collected by the tier-1 suite).

The smoke runs use ``--scale smoke`` workloads (<= 60 workers, 2 steps) with
the repeat counts turned down: they check what is emitted and that every
output check passes, never how long anything took.
"""

from __future__ import annotations

import json
import math
import re
import time

import pytest

from bench import calibrate, compare, harness, layers, micro
from bench.harness import ROOT
from bench.metrics import benchmark_document
from bench.trace import LAYERS, Tracer, wrapped_attributes
from bench.workloads import WORKLOADS, cli_args

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def document():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_is_the_metric_table(document):
    assert document == benchmark_document()


def test_benchmark_json_meets_the_contract(document):
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["bench"]
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(e for e in document["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in document["end_to_end"])
    assert len(json.dumps(document)) < 64 * 1024


# ---------------------------------------------------------------- smoke runs
@pytest.fixture
def quick(monkeypatch):
    """One timed session, one CLI launch, one call per microbenchmark."""
    monkeypatch.setattr(harness, "MIN_SESSIONS", 1)
    monkeypatch.setattr(layers, "CLI_LAUNCHES", 1)

    def once(work, call, budget_s):
        start = time.perf_counter()
        call()
        return work / (time.perf_counter() - start)

    monkeypatch.setattr(micro, "rate", once)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_the_declared_metrics(name, quick, document):
    workload = WORKLOADS[name].scaled("smoke")
    assert workload.num_workers <= 60 and workload.steps == 2
    for result, declared in (
        (harness.measure(workload, 1, 0.0), document["end_to_end"]),
        (layers.trace_workload(workload, 1, 0.0), document["per_layer"]),
    ):
        assert result["failures"] == [] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [entry["name"] for entry in declared]
        for entry in declared:
            emitted = result["metrics"][entry["name"]]
            assert emitted["unit"] == entry["unit"]
            assert math.isfinite(emitted["value"])
        if not result["traced"]:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert wrapped_attributes() == []


def test_no_retired_flag_is_passed():
    for workload in WORKLOADS.values():
        arguments = cli_args(workload, 3, "out.json")
        assert "--seed" in arguments and "--output" in arguments
        assert "--no-vectorized" not in arguments and "--gar-selection" not in arguments
        assert "vectorized" not in workload.trainer and "gar_selection" not in workload.trainer


# --------------------------------------------------------------- calibration
def test_calibrated_seconds_arithmetic():
    reference = calibrate.CAL_REF_S
    # A host twice as slow as the reference halves every raw second.
    assert calibrate.scale([2 * reference, 2 * reference]) == pytest.approx(0.5)
    assert 3.0 * calibrate.scale([reference]) == pytest.approx(3.0)
    assert calibrate.scale([reference, 3 * reference]) == pytest.approx(0.5)
    # A burst that spoils most of one reading leaves the pooled median alone.
    before = [1.5 * reference] * 4 + [reference] * 3
    after = [reference] * 7
    assert calibrate.scale(before + after) == pytest.approx(1.0)
    assert len(calibrate.reading()) == calibrate.SLICES
    total = harness.Timing(1.0, 0.5) + harness.Timing(2.0, 1.5)
    assert total == harness.Timing(3.0, 2.0)


def test_a_session_is_timed_piece_by_piece():
    workload = WORKLOADS["bulyan_attack_600"].scaled("smoke")
    session, _, _ = harness.run_session(workload, 1, step_probes=True)
    assert len(session.steps) == workload.steps
    assert len(session.probes) == 5 + workload.steps  # four boundaries, every step
    assert session.wall.raw == pytest.approx(
        session.load.raw + session.build.raw + session.run.raw + session.export.raw
    )
    assert sum(step.raw for step in session.steps) <= session.run.raw
    assert session.failures == []
    again, _, _ = harness.run_session(workload, 1)
    assert again.sim_digest == session.sim_digest
    assert len(again.probes) == 5
    other, _, _ = harness.run_session(workload, 2)
    assert other.sim_digest != session.sim_digest


# -------------------------------------------------------------------- spans
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_arithmetic_on_a_synthetic_nest():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        middle()

    leaf = tracer.wrap(leaf, "kernels", "kernels.leaf")
    middle = tracer.wrap(middle, "gar", "gar.middle")
    outer = tracer.wrap(outer, "trainer", "trainer.outer")
    tracer.reset()
    clock.now += 0.25  # the session's own code
    outer()
    with tracer.span("telemetry", "telemetry.export"):
        clock.now += 4.0
    shot = tracer.snapshot()

    table = shot.by_function()
    assert table["kernels.leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0, "units": 0}
    assert table["gar.middle"]["total_s"] == 5.5 and table["gar.middle"]["self_s"] == 1.5
    assert table["trainer.outer"]["total_s"] == 8.5 and table["trainer.outer"]["self_s"] == 3.0
    assert shot.duration == 12.75 and shot.root_self_s == 0.25
    by_layer = shot.by_layer()
    assert set(by_layer) == set(LAYERS)
    assert sum(row["self_s"] for row in by_layer.values()) + shot.root_self_s == shot.duration
    assert shot.cells["kernels.leaf"] == {"gar": (2, 4.0, 4.0, 0)}
    assert [(s[0], s[3]) for s in shot.spans] == [
        ("kernels.leaf", "gar.middle"), ("kernels.leaf", "gar.middle"),
        ("gar.middle", "trainer.outer"), ("trainer.outer", "session"),
        ("telemetry.export", "session"),
    ]


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def broken():
        clock.now += 1.0
        raise ValueError("boom")

    wrapped = tracer.wrap(broken, "codec", "codec.broken")
    with pytest.raises(ValueError):
        wrapped()
    assert len(tracer.stack) == 1
    assert tracer.snapshot().by_function()["codec.broken"]["self_s"] == 1.0


def test_install_then_uninstall_leaves_nothing_wrapped():
    import repro.core.bulyan
    import repro.core.kernels

    original = repro.core.kernels.pairwise_squared_distances
    tracer = Tracer()
    assert tracer.install() > 100
    try:
        held = wrapped_attributes()
        assert "repro.core.kernels.pairwise_squared_distances" in held
        # The rules import the kernels by name: those globals are rebound too.
        assert repro.core.bulyan.bulyan_select is repro.core.kernels.bulyan_select
        assert "repro.core.bulyan.bulyan_select" in held
        assert "repro.cluster.events.EventQueue.pop" in held
        assert "repro.cluster.events.EventQueue.peek" not in held  # an accessor
    finally:
        tracer.uninstall()
    assert wrapped_attributes() == []
    assert repro.core.kernels.pairwise_squared_distances is original


# ------------------------------------------------------------------ compare
def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, [1.02, 1.03, 1.01, 1.02], "lower", 0.10)[1] == "within"
    assert compare.verdict(steady, [1.30, 1.31, 1.29, 1.30], "lower", 0.10)[1] == "worse"
    assert compare.verdict(steady, [0.70, 0.71, 0.69, 0.70], "lower", 0.10)[1] == "better"
    assert compare.verdict(steady, [0.70, 0.71, 0.69, 0.70], "higher", 0.10)[1] == "worse"
    noisy = [0.8, 1.0, 1.2, 1.4]
    assert compare.verdict(noisy, [0.9, 1.1, 1.3, 1.5], "lower", 0.10)[1] == "unresolved"
    assert compare.verdict(noisy, [0.4, 0.5, 0.6, 0.7], "lower", 0.10)[1] == "better"
    worse_by, word = compare.verdict([2.0], [2.0], "lower", 0.001)
    assert (worse_by, word) == (0.0, "within")
