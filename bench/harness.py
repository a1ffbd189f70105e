"""Sessions, output checks and the untraced end-to-end measurement.

**A session** is what a user of the simulator does: ``gc.collect()`` →
``load_dataset`` → ``build_trainer`` → ``trainer.run`` →
``json.dumps(history.to_dict())``, timed from outside at the four boundaries,
with a two-``perf_counter`` shim bound on that trainer instance's ``run_step``
for per-step samples.  The loop is closed: one session at a time, one thread.

:func:`measure` runs one workload for ``--seconds``: a warm-up session, then
timed sessions until the time is spent.  The calibration kernel
(:mod:`bench.calibrate`) is read at every boundary and step of every session,
so every timing is in calibrated seconds.  Raw seconds are kept beside them
and never gated.  :func:`run_cli` launches the same deployment through
``python -m repro.runner``; the traced run times it (:mod:`bench.layers`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cluster import builder
from repro.cluster.trainer import TrainerConfig
from repro.data import datasets

from bench import THREAD_PINS, calibrate
from bench.metrics import END_TO_END
from bench.workloads import Workload, cli_args

ROOT = Path(__file__).resolve().parent.parent

#: A run reports medians over at least this many timed sessions, however
#: short ``--seconds`` is.
MIN_SESSIONS = 5


class Timing(NamedTuple):
    """Raw host seconds and the same interval in calibrated seconds."""

    raw: float
    cal: float

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.raw + other.raw, self.cal + other.cal)


@dataclass
class Session:
    """Timings and simulated outputs of one session."""

    load: Timing
    build: Timing
    run: Timing
    export: Timing
    steps: List[Timing]
    #: Every calibration slice read during the session, in order.
    probes: List[float]
    sim_time: float
    wire_bytes: float
    final_loss: float
    final_accuracy: float
    diverged: bool
    events_dispatched: int
    peak_queue: int
    doc_bytes: int
    doc_digest: str
    sim_digest: str
    failures: List[str] = field(default_factory=list)
    #: What the tracer recorded, when one was passed (taken at the last boundary).
    trace: Optional[object] = None

    @property
    def setup(self) -> Timing:
        return self.load + self.build

    @property
    def wall(self) -> Timing:
        return self.load + self.build + self.run + self.export


def run_session(workload: Workload, seed: int, *, step_probes: bool = False,
                profiler=None, tracer=None, around_run: Callable = nullcontext):
    """Run one session; returns ``(session, trainer, history)``.

    The calibration slice is read at each of the four boundaries and, with
    *step_probes*, after every step (outside the timed intervals); each piece
    is scaled by its own two adjacent readings.  ``load_dataset`` and
    ``build_trainer`` are looked up on their modules at call time, so an
    installed tracer's rebinding reaches them.  *around_run* makes a context
    manager entered around ``trainer.run`` only.
    """
    gc.collect()
    if tracer is not None:
        tracer.reset()
    clock = time.perf_counter
    probes = [calibrate.probe()]

    def timing(raw: float) -> Timing:
        """*raw* seconds just measured, scaled by the last reading and a new one."""
        probes.append(calibrate.probe())
        return Timing(raw, raw * calibrate.scale(probes[-2:]))

    kwargs = dict(workload.dataset)
    name = kwargs.pop("name")
    start = clock()
    dataset = datasets.load_dataset(name, rng=seed, **kwargs)
    load = timing(clock() - start)
    start = clock()
    trainer = builder.build_trainer(
        dataset=dataset, seed=seed, profiler=profiler, **workload.trainer
    )
    build = timing(clock() - start)

    steps: List[Timing] = []
    run_step = trainer.run_step

    def timed_step():
        begun = clock()
        record = run_step()
        raw = clock() - begun
        steps.append(timing(raw) if step_probes else Timing(raw, raw))
        return record

    trainer.run_step = timed_step
    config = TrainerConfig(
        max_steps=workload.steps, eval_every=workload.eval_every or workload.steps
    )
    before_run = len(probes)
    start = clock()
    with around_run():
        history = trainer.run(config)
    # What trainer.run did besides stepping (evaluation), probe time taken out.
    rest = clock() - start - sum(step.raw for step in steps) - sum(probes[before_run:])
    if step_probes:
        run = sum(steps, timing(rest))
    else:
        run = timing(rest + sum(step.raw for step in steps))
        steps = [Timing(step.raw, step.raw * run.cal / run.raw) for step in steps]
    start = clock()
    with tracer.span("telemetry", "telemetry.json_dumps") if tracer else nullcontext():
        document = json.dumps(history.to_dict(), sort_keys=True)
    export = timing(clock() - start)
    recorded = tracer.snapshot() if tracer else None

    wire = history.wire_summary()
    inter = history.interserver_summary()
    session = Session(
        load=load,
        build=build,
        run=run,
        export=export,
        steps=steps,
        probes=probes,
        sim_time=history.total_time,
        wire_bytes=wire["bytes_sent"] + wire["bytes_received"]
        + inter["gather_bytes"] + inter["replica_sync_bytes"],
        final_loss=history.steps[-1].mean_loss if history.steps else float("nan"),
        final_accuracy=history.final_accuracy,
        diverged=history.diverged,
        events_dispatched=trainer.events_dispatched,
        peak_queue=trainer.peak_queue_size,
        doc_bytes=len(document),
        doc_digest=hashlib.sha256(document.encode()).hexdigest(),
        sim_digest=hashlib.sha256(
            document.encode() + trainer.server.parameters.tobytes()
        ).hexdigest(),
        trace=recorded,
    )
    session.failures = check_session(workload, session, history)
    return session, trainer, history


def check_session(workload: Workload, session: Session, history) -> List[str]:
    """What is wrong with this session's outputs (empty when nothing is)."""
    failures = []
    if session.diverged:
        failures.append(f"diverged: {history.divergence_reason}")
    if not math.isfinite(session.final_loss):
        failures.append(f"final loss {session.final_loss!r} is not finite")
    if len(history.steps) != workload.steps:
        failures.append(f"{len(history.steps)} steps ran, expected {workload.steps}")
    if workload.lock_step:
        expected = workload.num_workers * workload.steps
        if session.events_dispatched != expected:
            failures.append(
                f"dispatched {session.events_dispatched} events, expected {expected}"
            )
        if session.peak_queue != workload.num_workers:
            failures.append(
                f"peak queue {session.peak_queue}, expected {workload.num_workers}"
            )
    if workload.trainer.get("server_topology") == "region-sharded":
        wire = history.wire_summary()
        inter = history.interserver_summary()
        if inter["gather_sessions"] <= 0:
            failures.append("region-sharded service recorded no gather session")
        pushed = inter["push_local_bytes"] + inter["push_cross_bytes"]
        fetched = inter["fetch_local_bytes"] + inter["fetch_cross_bytes"]
        if (wire["bytes_sent"], wire["bytes_received"]) != (pushed, fetched) or (
            wire["bytes_sent"], wire["bytes_received"]
        ) != (wire["wire_bytes"], wire["downlink_bytes"]):
            failures.append(
                f"wire ledger does not reconcile: sent {wire['bytes_sent']} / admitted "
                f"{wire['wire_bytes']} / pushed {pushed}; received "
                f"{wire['bytes_received']} / downlink {wire['downlink_bytes']} / "
                f"fetched {fetched}"
            )
    if workload.accuracy_floor and not session.final_accuracy >= workload.accuracy_floor:
        failures.append(
            f"final accuracy {session.final_accuracy} is below {workload.accuracy_floor}"
        )
    return failures


@dataclass
class Outcome:
    """Operations attempted, operations that failed a check, and why."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {text}" for text in problems]


# ----------------------------------------------------------------- the CLI
def run_cli(workload: Workload, seed: int, scratch: str) -> Tuple[float, Optional[str], str]:
    """One ``python -m repro.runner`` launch: ``(raw seconds, digest, error)``.

    Interpreter start, imports, flag validation, the session and the JSON
    file are all inside the timed region — what the user waits for.
    """
    output = os.path.join(scratch, "summary.json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "repro.runner", *cli_args(workload, seed, output)]
    start = time.perf_counter()
    done = subprocess.run(
        command, cwd=scratch, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=150,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        return elapsed, None, f"runner exited {done.returncode}: {done.stderr[-300:]}"
    with open(output) as handle:
        summary = json.load(handle)
    os.remove(output)
    summary.pop("configuration", None)
    document = json.dumps(summary, sort_keys=True)
    return elapsed, hashlib.sha256(document.encode()).hexdigest(), ""


# ------------------------------------------------------------ measurement
def host_block(slices: List[float]) -> Dict:
    """Where and how the numbers were taken, given every calibration slice read."""
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "cal_ref_s": calibrate.CAL_REF_S,
        "calibration_s": {
            "median": statistics.median(slices),
            "min": min(slices),
            "max": max(slices),
            "count": len(slices),
        },
    }


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail_percentile(values: List[float]) -> Tuple[str, float]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for label, q in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90)):
        if len(values) * (1.0 - q) >= 10:
            return label, percentile(values, q)
    return "max", max(values)


def metric(value: float, unit: str, samples: Optional[List[float]] = None) -> Dict:
    return {"value": value, "unit": unit,
            "samples": samples if samples is not None else [value]}


def measure(workload: Workload, seed: int, seconds: float) -> Dict:
    """Run *workload* untraced for *seconds*; returns the result document."""
    outcome = Outcome()
    warm, _, _ = run_session(workload, seed)
    outcome.record("warm-up", warm.failures)
    started = time.perf_counter()
    sessions: List[Session] = []
    while len(sessions) < MIN_SESSIONS or time.perf_counter() - started < seconds:
        session, _, _ = run_session(workload, seed, step_probes=True)
        sessions.append(session)
        problems = list(session.failures)
        if session.sim_digest != warm.sim_digest:
            problems.append(
                f"sim_digest {session.sim_digest[:12]} differs from the warm-up's "
                f"{warm.sim_digest[:12]} at the same seed"
            )
        outcome.record(f"session {len(sessions)}", problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    walls = [s.wall.cal for s in sessions]
    setups = [s.setup.cal for s in sessions]
    steps = [step.cal for s in sessions for step in s.steps]
    rates = [1.0 / statistics.median(step.cal for step in s.steps) for s in sessions]
    measured = {
        "session_wall_s": (statistics.median(walls), walls),
        "steps_per_s": (1.0 / statistics.median(steps), rates),
        "setup_s": (statistics.median(setups), setups),
        "peak_rss_mb": (peak_rss_mb, None),
        "sim_time_s": (warm.sim_time, None),
        "wire_mb": (warm.wire_bytes / 1e6, None),
    }
    end_to_end = {
        name: metric(measured[name][0], unit, measured[name][1])
        for name, unit, _, _ in END_TO_END
    }
    tail_label, tail = tail_percentile(steps)
    detail = {
        "sessions": len(sessions),
        "step_samples": len(steps),
        "step_ms_p50": statistics.median(steps) * 1e3,
        f"step_ms_{tail_label}": tail * 1e3,
        "raw_session_wall_s": statistics.median(s.wall.raw for s in sessions),
        "phase_s": {
            phase: statistics.median(getattr(s, phase).cal for s in sessions)
            for phase in ("load", "build", "run", "export")
        },
        "doc_kb": warm.doc_bytes / 1e3,
        "final_accuracy": warm.final_accuracy,
        "final_loss": warm.final_loss,
        "events_dispatched": warm.events_dispatched,
    }
    slices = [slice_s for s in sessions for slice_s in s.probes]
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": False,
        "host": host_block(slices),
        "metrics": end_to_end,
        "detail": detail,
        "sim_digest": warm.sim_digest,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
    }
