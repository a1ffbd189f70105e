"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest
from hypothesis import settings

from repro.data.datasets import gaussian_blobs

# Tier-1 is the same run every time: every property test draws its examples
# from the test's own source, not from a per-run seed (explicit ``@settings``
# on a test inherit this).  The random search stays one option away, through
# hypothesis's own flag: ``pytest --hypothesis-profile=default``.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def honest_gradients(rng) -> np.ndarray:
    """11 honest gradient estimates of a common true gradient (d=20)."""
    true_gradient = np.linspace(-1.0, 1.0, 20)
    return true_gradient[None, :] + 0.1 * rng.standard_normal((11, 20))


@pytest.fixture
def true_gradient() -> np.ndarray:
    """The underlying true gradient matching :func:`honest_gradients`."""
    return np.linspace(-1.0, 1.0, 20)


@pytest.fixture
def tiny_dataset():
    """A small, easily learnable classification dataset."""
    return gaussian_blobs(
        num_train=300, num_test=80, num_classes=3, dim=8, separation=3.0, noise=0.8, rng=0
    )


@pytest.fixture
def tiny_model_kwargs():
    """Model kwargs matching :func:`tiny_dataset` for the 'mlp' factory."""
    return {"input_dim": 8, "hidden": (12,), "num_classes": 3}


@contextlib.contextmanager
def _time_limit(seconds: float = 10.0):
    """Raise ``TimeoutError`` in the enclosed block once *seconds* have passed.

    ``pytest-timeout`` is installed in CI only, so a test that exercises a
    loop which used to livelock carries its own guard: without one a
    regression holds a local tier-1 run for ever (and a CI run for its whole
    15-minute budget).  An outer ``SIGALRM`` timer — ``pytest-timeout`` uses
    the same signal — is put back on the way out.
    """

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds:g} s: livelock?")

    handler = signal.signal(signal.SIGALRM, expired)
    outer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *outer)
        signal.signal(signal.SIGALRM, handler)


@pytest.fixture(scope="session")
def time_limit():
    """The :func:`_time_limit` context manager (``with time_limit(): ...``).

    Session-scoped, so hypothesis tests may take it: the guard is armed per
    example, inside the test body.
    """
    return _time_limit
