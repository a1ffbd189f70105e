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
from typing import Callable, List, Tuple

import pytest

from repro.experiments.config import get_profile


def pytest_configure(config):
    # Tier-1 runs the benchmarks under pytest-timeout; registering the
    # marker here keeps local runs (without the plugin) warning-free.
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


def alternated_pairs(
    first: Callable[[], float], second: Callable[[], float], pairs: int = 9
) -> List[Tuple[float, float]]:
    """``(first(), second())`` timings taken in adjacent pairs, the order alternating.

    A wall-clock ratio gate reads the median of the per-pair ratios: both arms
    of a ratio see the same host speed, and one pair caught in a host slowdown
    or burst cannot decide it (a minimum over each arm's repeats can: the
    arms' best repeats may come from different minutes of a shared host).
    """
    timings = []
    for pair in range(pairs):
        if pair % 2:
            second_s = second()
            first_s = first()
        else:
            first_s = first()
            second_s = second()
        timings.append((first_s, second_s))
    return timings
