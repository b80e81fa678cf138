"""Tests for the adaptive-gain extension experiment (reduced size)."""

from __future__ import annotations

import pytest

from repro.experiments.adaptive_gain import run_adaptive_gain


@pytest.fixture(scope="module")
def result():
    return run_adaptive_gain(n_frames_per_condition=4, scale=0.2, seed=1)


class TestAdaptiveGain:
    def test_every_fixed_pipeline_fails_somewhere(self, result):
        assert result.shape_checks()["every_fixed_pipeline_fails_somewhere"]

    def test_adaptive_never_worst(self, result):
        assert result.shape_checks()["adaptive_never_worst"]

    def test_render_lists_all_pipelines(self, result):
        text = result.render()
        for name in ("adaptive", "fixed day model", "fixed dark pipeline"):
            assert name in text

    def test_counts_consistent(self, result):
        for score in result.scores:
            assert sum(score.total.values()) == result.n_frames

    def test_render_prints_measured_reconfiguration_cost(self, result):
        # One dusk -> dark reconfiguration, costing the frames the drive
        # measured rather than a configured blind window.
        assert result.drops_per_reconfiguration >= 1.0
        assert (
            f"{result.drops_per_reconfiguration:g} vehicle frames dropped per reconfiguration"
            in result.render()
        )
