"""Tests for the analytic results of Appendix B (repro.core.theory)."""

import math

import pytest

from repro.core import Bulyan, MultiKrum, theory
from repro.exceptions import ConfigurationError, ResilienceConditionError


class TestResilienceConditions:
    # The bounds are each rule's own ``minimum_workers``; the paper's values
    # stay pinned here.
    def test_multi_krum_minimum_workers(self):
        assert MultiKrum.minimum_workers(0) == 3
        assert MultiKrum.minimum_workers(4) == 11
        assert MultiKrum.minimum_workers(8) == 19

    def test_bulyan_minimum_workers(self):
        assert Bulyan.minimum_workers(0) == 3
        assert Bulyan.minimum_workers(4) == 19

    def test_multi_krum_max_byzantine_matches_paper_deployment(self):
        # 19 workers: up to 8 for Multi-Krum (the Figure 8 setting).
        assert MultiKrum.max_byzantine(19) == 8

    def test_bulyan_max_byzantine_matches_paper_deployment(self):
        # 19 workers: up to 4 for Bulyan (the default f of the evaluation).
        assert Bulyan.max_byzantine(19) == 4

    def test_max_selection_weak(self):
        # m_tilde = n - f - 2.
        assert theory.max_selection_weak(19, 4) == 13
        assert theory.max_selection_weak(11, 2) == 7

    def test_max_selection_strong(self):
        # m_tilde = n - 2f - 2.
        assert theory.max_selection_strong(19, 4) == 9

    def test_max_selection_invalid_raises(self):
        with pytest.raises(ResilienceConditionError):
            theory.max_selection_weak(4, 3)
        with pytest.raises(ResilienceConditionError):
            theory.max_selection_strong(7, 3)


class TestEtaAndAlpha:
    def test_eta_positive_and_growing_with_f(self):
        base = theory.eta(19, 0)
        assert base > 0
        assert theory.eta(19, 4) > base

    def test_eta_formula_matches_manual_computation(self):
        n, f = 19, 4
        m = n - f - 2
        expected = math.sqrt(2 * (n - f + (f * m + f * f * (m + 1)) / (n - 2 * f - 2)))
        assert theory.eta(n, f) == pytest.approx(expected)

    def test_eta_requires_n_greater_than_2f_plus_2(self):
        with pytest.raises(ResilienceConditionError):
            theory.eta(10, 4)

    def test_alpha_bound_valid_case(self):
        alpha = theory.alpha_bound(19, 4, d=100, sigma=0.001, gradient_norm=1.0)
        assert 0 <= alpha < math.pi / 2

    def test_alpha_bound_violated_variance(self):
        with pytest.raises(ResilienceConditionError):
            theory.alpha_bound(19, 4, d=10_000, sigma=1.0, gradient_norm=1.0)

    def test_resilience_condition_holds(self):
        assert theory.resilience_condition_holds(19, 4, 100, 0.001, 1.0)
        assert not theory.resilience_condition_holds(19, 4, 10_000, 1.0, 1.0)


class TestSlowdownAndCosts:
    def test_slowdown_ratio_weak_vs_strong(self):
        weak = theory.slowdown_ratio(19, 4, strong=False)
        strong = theory.slowdown_ratio(19, 4, strong=True)
        assert 0 < strong < weak <= 1.0
        assert weak == pytest.approx(math.sqrt(13 / 19))
        assert strong == pytest.approx(math.sqrt(9 / 19))

    def test_convergence_steps_decrease_with_samples(self):
        assert theory.convergence_steps_estimate(100) < theory.convergence_steps_estimate(10)

    def test_convergence_steps_invalid(self):
        with pytest.raises(ResilienceConditionError):
            theory.convergence_steps_estimate(0)

    def test_aggregation_flops_ordering(self):
        n, f, d = 19, 4, 1_000_000
        avg = theory.aggregation_flops_average(n, d)
        mk = theory.aggregation_flops_multi_krum(n, d)
        bulyan = theory.aggregation_flops_bulyan(n, f, d)
        assert avg < mk < bulyan

    def test_aggregation_flops_quadratic_in_n(self):
        d = 1000
        assert theory.aggregation_flops_multi_krum(20, d) == pytest.approx(
            4 * theory.aggregation_flops_multi_krum(10, d)
        )

    def test_bulyan_flops_decrease_with_f(self):
        # Larger declared f -> fewer selection iterations -> cheaper Bulyan
        # (the Figure 5a counter-intuitive observation).
        d = 100_000
        assert theory.aggregation_flops_bulyan(19, 4, d) < theory.aggregation_flops_bulyan(19, 1, d)

    def test_attack_cost_regression(self):
        cost = theory.attack_cost_regression(100, 10**9, 1e-9)
        assert cost == pytest.approx(1e20)
        with pytest.raises(ResilienceConditionError):
            theory.attack_cost_regression(10, 10, 0.0)

    def test_brute_flops_dominate_multi_krum_for_same_n_d(self):
        # Regression (PR-5): Brute was priced at the Multi-Krum O(n^2 d)
        # bound even though it enumerates C(n, n - f) subsets.
        for n, f in [(7, 0), (11, 2), (15, 3), (19, 4), (25, 12)]:
            for d in (10, 10_000):
                assert theory.aggregation_flops_brute(n, f, d) > (
                    theory.aggregation_flops_multi_krum(n, d)
                ), (n, f, d)

    def test_brute_flops_track_the_subset_enumeration(self):
        n, d = 15, 100
        # The subset-scan term alone: total minus distances minus the
        # winning-subset average.
        for f in (1, 3, 5):
            s = n - f
            scan = (
                theory.aggregation_flops_brute(n, f, d)
                - theory.aggregation_flops_distances(n, d)
                - s * d
            )
            assert scan == pytest.approx(math.comb(n, s) * s * (s - 1) / 2)
        # f = 0 enumerates exactly one subset.
        assert theory.aggregation_flops_brute(n, 0, d) == pytest.approx(
            theory.aggregation_flops_distances(n, d) + n * (n - 1) / 2 + n * d
        )

    def test_brute_flops_invalid(self):
        with pytest.raises(ResilienceConditionError):
            theory.aggregation_flops_brute(3, 3, 10)

    def test_distance_flops_match_multi_krum_bound(self):
        assert theory.aggregation_flops_distances(19, 1000) == (
            theory.aggregation_flops_multi_krum(19, 1000)
        )

    def test_shard_combine_flops(self):
        assert theory.shard_combine_flops(10, 500, 1) == 0.0
        assert theory.shard_combine_flops(10, 500, 4) == pytest.approx(3 * (100 + 500))
        with pytest.raises(ConfigurationError):
            theory.shard_combine_flops(10, 500, 0)
