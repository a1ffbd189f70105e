"""Shared fixtures for the benchmark suite.

Every benchmark reproduces one table or figure of the paper at the scaled-down
"ci" profile (11 workers, f=2, a small model — same structure as the paper's
19-worker / f=4 deployment) and prints the corresponding rows/series.  Pass
``--benchmark-only -s`` to see the printed tables.  The paper-scale profile
can be selected with the ``REPRO_PROFILE=paper`` environment variable (expect
long runtimes).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import get_profile


def pytest_configure(config):
    # The CI smoke job runs the benchmarks under pytest-timeout; registering
    # the marker here keeps local runs (without the plugin) warning-free.
    config.addinivalue_line(
        "markers", "timeout(seconds): abort the test after this many seconds "
        "(enforced when pytest-timeout is installed)"
    )


@pytest.fixture(scope="session")
def profile():
    """The experiment profile used by every benchmark (ci by default)."""
    name = os.environ.get("REPRO_PROFILE", "ci")
    overrides = {}
    if name == "ci":
        overrides = {"max_steps": 40, "eval_every": 10}
    return get_profile(name, **overrides)


@pytest.fixture(scope="session")
def dataset(profile):
    """The profile's dataset, generated once per session."""
    return profile.make_dataset()


def run_once(benchmark, func, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def events_per_second(summary: dict) -> float:
    """Throughput of one fleet-scale scenario node.

    Dispatched events per wall-clock second (best repeat): proportional to
    host speed for a fixed scenario — reported for orientation, never gated.
    """
    return float(summary["events_dispatched"]) / float(summary["wall_clock_s"]["min"])
