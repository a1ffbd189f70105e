"""Tests for the GAR base class, registry and factory."""

import numpy as np
import pytest

from repro.core import GAR_REGISTRY, available_gars, make_gar
from repro.core.base import AggregationResult, GradientAggregationRule, register_gar
from repro.exceptions import AggregationError, ConfigurationError, ResilienceConditionError


EXPECTED_GARS = {
    "average",
    "selective-average",
    "median",
    "trimmed-mean",
    "krum",
    "multi-krum",
    "bulyan",
    "geometric-median",
    "meamed",
    "phocas",
}


def test_registry_contains_all_builtin_rules():
    assert EXPECTED_GARS.issubset(set(available_gars()))


def test_make_gar_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown GAR"):
        make_gar("does-not-exist")


def test_make_gar_passes_kwargs():
    gar = make_gar("multi-krum", f=3)
    assert gar.f == 3


def test_registry_names_match_class_attribute():
    for name, cls in GAR_REGISTRY.items():
        assert cls.name == name


def test_resilience_levels_valid():
    for cls in GAR_REGISTRY.values():
        assert cls.resilience in ("none", "weak", "strong")


def test_negative_f_rejected():
    for name in EXPECTED_GARS:
        with pytest.raises(ConfigurationError):
            make_gar(name, f=-1)


def test_non_integer_f_rejected():
    with pytest.raises(ConfigurationError):
        make_gar("multi-krum", f=1.5)


def test_call_is_aggregate(honest_gradients):
    gar = make_gar("average")
    np.testing.assert_allclose(gar(honest_gradients), gar.aggregate(honest_gradients))


def test_register_duplicate_name_rejected():
    class Dummy(GradientAggregationRule):
        resilience = "none"

        def _aggregate(self, matrix):
            return AggregationResult(gradient=matrix.mean(axis=0))

    with pytest.raises(ConfigurationError):
        register_gar("average")(Dummy)


def test_register_invalid_resilience_rejected():
    class Bad(GradientAggregationRule):
        resilience = "super-strong"

        def _aggregate(self, matrix):
            return AggregationResult(gradient=matrix.mean(axis=0))

    with pytest.raises(ConfigurationError):
        register_gar("bad-rule-xyz")(Bad)


def test_aggregate_wrong_output_shape_detected():
    class Broken(GradientAggregationRule):
        resilience = "none"

        def _aggregate(self, matrix):
            return AggregationResult(gradient=matrix.mean(axis=0)[:-1])

    with pytest.raises(AggregationError):
        Broken().aggregate(np.ones((3, 5)))


def test_max_byzantine_inverse_of_minimum_workers():
    from repro.core import Bulyan, MultiKrum

    assert MultiKrum.max_byzantine(19) == 8
    assert MultiKrum.max_byzantine(2 * 4 + 3) == 4
    assert Bulyan.max_byzantine(19) == 4
    assert Bulyan.max_byzantine(4 * 2 + 3) == 2


def test_cardinality_check_raises_for_too_few_workers(honest_gradients):
    gar = make_gar("multi-krum", f=8)  # needs 19 workers, we provide 11
    with pytest.raises(ResilienceConditionError):
        gar.aggregate(honest_gradients)


@pytest.mark.parametrize("name", sorted(GAR_REGISTRY))
def test_every_rule_enforces_its_own_minimum_workers(name):
    # ``minimum_workers`` is the one statement of a rule's bound: a round of
    # exactly that many rows aggregates, one row fewer is refused.
    rng = np.random.default_rng(7)
    for f in (1, 2):
        gar = make_gar(name, f=f)
        n = type(gar).minimum_workers(f)
        assert gar.aggregate(rng.normal(size=(n, 6))).shape == (6,)
        refusal = f"requires at least {n} workers, got {n - 1}"
        with pytest.raises(ResilienceConditionError, match=refusal):
            gar.aggregate(rng.normal(size=(n - 1, 6)))


def test_detailed_result_fields(honest_gradients):
    result = make_gar("multi-krum", f=2).aggregate_detailed(honest_gradients)
    assert isinstance(result, AggregationResult)
    assert result.gradient.shape == (honest_gradients.shape[1],)
    assert result.selected_indices is not None
    assert result.scores is not None and result.scores.shape == (honest_gradients.shape[0],)
