"""Tests for optimizers and learning-rate schedules."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.optim import (
    SGD,
    Adadelta,
    Adagrad,
    Adam,
    ExponentialDecay,
    FixedSchedule,
    InverseTimeDecay,
    MomentumSGD,
    PolynomialDecay,
    RMSprop,
    StepDecay,
    make_optimizer,
    make_schedule,
)
from repro.optim.base import OPTIMIZER_REGISTRY


ALL_OPTIMIZERS = ["sgd", "momentum", "adam", "rmsprop", "adagrad", "adadelta"]


class TestRegistry:
    def test_expected_optimizers_registered(self):
        assert set(ALL_OPTIMIZERS) <= set(OPTIMIZER_REGISTRY)

    def test_make_optimizer_unknown(self):
        with pytest.raises(ConfigurationError):
            make_optimizer("lbfgs")

    @pytest.mark.parametrize("name", ALL_OPTIMIZERS)
    def test_factory_builds_each(self, name):
        optimizer = make_optimizer(name)
        assert optimizer.name == name


class TestSGD:
    def test_single_step_matches_formula(self):
        optimizer = SGD(learning_rate=0.1)
        new = optimizer.step(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        np.testing.assert_allclose(new, [0.9, 2.1])

    def test_inputs_not_modified(self):
        params = np.ones(3)
        grad = np.ones(3)
        SGD(learning_rate=0.5).step(params, grad)
        np.testing.assert_array_equal(params, np.ones(3))
        np.testing.assert_array_equal(grad, np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SGD().step(np.ones(3), np.ones(4))

    def test_invalid_learning_rate(self):
        with pytest.raises(ConfigurationError):
            SGD(learning_rate=0.0)

    def test_step_count_increments(self):
        optimizer = SGD(learning_rate=0.1)
        optimizer.step(np.ones(2), np.ones(2))
        optimizer.step(np.ones(2), np.ones(2))
        assert optimizer.step_count == 2


class TestMomentum:
    def test_velocity_accumulates(self):
        optimizer = MomentumSGD(learning_rate=1.0, momentum=0.5)
        p = np.zeros(1)
        p1 = optimizer.step(p, np.ones(1))           # v = 1, update = 1
        p2 = optimizer.step(p1, np.ones(1))          # v = 1.5, update = 1.5
        assert p1[0] == pytest.approx(-1.0)
        assert p2[0] == pytest.approx(-2.5)

    def test_invalid_momentum(self):
        with pytest.raises(ConfigurationError):
            MomentumSGD(momentum=1.0)

    def test_nesterov_differs_from_plain(self):
        plain = MomentumSGD(learning_rate=0.1, momentum=0.9)
        nesterov = MomentumSGD(learning_rate=0.1, momentum=0.9, nesterov=True)
        g = np.ones(3)
        p = np.zeros(3)
        assert not np.allclose(plain.step(p, g), nesterov.step(p, g))


class TestAdaptive:
    @pytest.mark.parametrize("cls", [Adam, RMSprop, Adagrad, Adadelta])
    def test_descends_convex_quadratic(self, cls):
        """All adaptive optimizers should minimise f(x) = ||x||^2 quickly."""
        optimizer = cls()
        x = np.full(5, 10.0)
        for _ in range(500):
            x = optimizer.step(x, 2 * x)
        assert np.linalg.norm(x) < np.linalg.norm(np.full(5, 10.0))

    def test_adam_bias_correction_first_step(self):
        optimizer = Adam(learning_rate=0.1)
        new = optimizer.step(np.zeros(1), np.array([1.0]))
        # With bias correction the first step has magnitude ~= learning rate.
        assert abs(new[0]) == pytest.approx(0.1, rel=1e-3)

    def test_rmsprop_normalises_scale(self):
        optimizer = RMSprop(learning_rate=0.01)
        big = optimizer.step(np.zeros(1), np.array([1e6]))
        optimizer2 = RMSprop(learning_rate=0.01)
        small = optimizer2.step(np.zeros(1), np.array([1e-6]))
        # Step magnitude is insensitive to the raw gradient scale (epsilon
        # slightly dampens the tiny-gradient case).
        assert abs(big[0]) == pytest.approx(abs(small[0]), rel=0.05)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            Adam(beta1=1.0)
        with pytest.raises(ConfigurationError):
            RMSprop(decay=-0.1)
        with pytest.raises(ConfigurationError):
            Adagrad(eps=0.0)
        with pytest.raises(ConfigurationError):
            Adadelta(rho=2.0)


class TestSchedules:
    def test_fixed(self):
        assert FixedSchedule(0.1)(0) == 0.1
        assert FixedSchedule(0.1)(1000) == 0.1

    def test_polynomial_endpoints(self):
        schedule = PolynomialDecay(1.0, 0.1, decay_steps=10)
        assert schedule(0) == pytest.approx(1.0)
        assert schedule(10) == pytest.approx(0.1)
        assert schedule(100) == pytest.approx(0.1)

    def test_exponential_decay(self):
        schedule = ExponentialDecay(1.0, 0.5, decay_steps=10)
        assert schedule(10) == pytest.approx(0.5)
        assert schedule(20) == pytest.approx(0.25)

    def test_step_decay(self):
        schedule = StepDecay(1.0, factor=0.1, every=5)
        assert schedule(4) == pytest.approx(1.0)
        assert schedule(5) == pytest.approx(0.1)
        assert schedule(10) == pytest.approx(0.01)

    def test_inverse_time_satisfies_robbins_monro_shape(self):
        schedule = InverseTimeDecay(1.0, decay_rate=1.0)
        assert schedule(0) == 1.0
        assert schedule(9) == pytest.approx(0.1)

    def test_monotone_non_increasing(self):
        for schedule in (
            PolynomialDecay(1.0, 0.0, 50),
            ExponentialDecay(1.0, 0.9, 10),
            StepDecay(1.0),
            InverseTimeDecay(1.0),
        ):
            values = [schedule(t) for t in range(100)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_make_schedule(self):
        schedule = make_schedule("exponential", initial=1.0, decay_rate=0.5, decay_steps=5)
        assert isinstance(schedule, ExponentialDecay)
        with pytest.raises(ConfigurationError):
            make_schedule("cosine")

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PolynomialDecay(0.0, 0.0, 10)
        with pytest.raises(ConfigurationError):
            ExponentialDecay(1.0, 0.5, 0)
        with pytest.raises(ConfigurationError):
            StepDecay(1.0, every=0)

    def test_optimizer_accepts_schedule(self):
        optimizer = SGD(learning_rate=PolynomialDecay(1.0, 0.0, 2))
        p = np.zeros(1)
        p = optimizer.step(p, np.ones(1))   # lr 1.0
        p = optimizer.step(p, np.ones(1))   # lr 0.5
        p = optimizer.step(p, np.ones(1))   # lr 0.0
        assert p[0] == pytest.approx(-1.5)
