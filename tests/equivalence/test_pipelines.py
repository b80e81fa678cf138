"""Differential tests: batched pipeline scans vs per-window references.

For every sliding-window pipeline (day/dusk HOG+SVM, pedestrian HOG+SVM,
dark DBN) the batched hot path and the per-window reference path are run on
the same frames — rendered scenes across lighting conditions and seeds plus
randomised planes — and their detections, scores, and class grids are
asserted byte-identical, not merely close.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.lighting import LightingCondition, lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene
from repro.features.hog import HogConfig
from repro.ml.linear import LinearModel
from repro.pipelines.base import ScratchBuffers
from repro.pipelines.dark import DarkConfig, DarkVehicleDetector
from repro.pipelines.day_dusk import DayDuskConfig, HogSvmVehicleDetector
from repro.pipelines.pedestrian import PedestrianConfig, PedestrianDetector

pytestmark = pytest.mark.equivalence


def assert_detections_identical(batched, reference):
    """Detections must match in count, geometry, payload, and score bits."""
    assert len(batched) == len(reference)
    for a, b in zip(batched, reference):
        assert a.rect == b.rect
        assert a.kind == b.kind
        assert a.extra == b.extra
        assert np.float64(a.score).tobytes() == np.float64(b.score).tobytes()


def scene_frame(condition: LightingCondition, seed: int):
    config = SceneConfig(
        height=120, width=210, n_vehicles=2, n_oncoming=1, vehicle_fill=(0.1, 0.2), seed=seed
    )
    return render_scene(config, lighting_for_condition(condition)).rgb


def detector_pair(model, threshold: float = 0.0):
    config = DayDuskConfig(decision_threshold=threshold)
    return (
        HogSvmVehicleDetector(replace(config, batched=True), model),
        HogSvmVehicleDetector(replace(config, batched=False), model),
    )


class TestDayDusk:
    @pytest.mark.parametrize("condition", [LightingCondition.DAY, LightingCondition.DUSK])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_detect_identical_on_scenes(self, condition_models, condition, seed):
        model = condition_models[condition.value]
        batched, reference = detector_pair(model, threshold=-0.25)
        frame = scene_frame(condition, seed)
        assert_detections_identical(batched.detect(frame), reference.detect(frame))

    @pytest.mark.parametrize("seed", [1, 9])
    def test_multiscale_identical(self, condition_models, seed):
        batched, reference = detector_pair(condition_models["day"], threshold=-0.25)
        frame = scene_frame(LightingCondition.DAY, seed)
        assert_detections_identical(
            batched.detect_multiscale(frame, max_levels=3),
            reference.detect_multiscale(frame, max_levels=3),
        )

    def test_scan_scores_bitwise(self, condition_models):
        # Below the detection API: the raw scan must agree score by score
        # even for windows no detection survives from.
        from repro.imaging.color import luminance

        batched, reference = detector_pair(condition_models["dusk"], threshold=-np.inf)
        plane = luminance(scene_frame(LightingCondition.DUSK, 3))
        boxes_b, scores_b = batched._scan_plane(plane, ScratchBuffers())
        boxes_r, scores_r = reference._scan_plane(plane, ScratchBuffers())
        assert boxes_b.shape == boxes_r.shape
        assert boxes_b.tobytes() == boxes_r.tobytes()
        assert scores_b.tobytes() == scores_r.tobytes()

    @given(
        h=st.integers(min_value=64, max_value=120),
        w=st.integers(min_value=64, max_value=120),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=10, deadline=None)
    def test_detect_identical_on_arbitrary_frames(self, h, w, seed):
        rng = np.random.default_rng(seed)
        dim = HogConfig(window=(64, 64)).feature_length
        model = LinearModel(weights=rng.normal(size=dim), bias=0.0)
        batched, reference = detector_pair(model, threshold=-0.5)
        frame = rng.random((h, w, 3))
        assert_detections_identical(batched.detect(frame), reference.detect(frame))

    def test_scratch_buffers_stable_across_frames(self, condition_models):
        # Repeated frames reuse the pooled buffers; results must not drift.
        batched, reference = detector_pair(condition_models["day"], threshold=-0.25)
        for seed in (0, 1, 0):
            frame = scene_frame(LightingCondition.DAY, seed)
            assert_detections_identical(batched.detect(frame), reference.detect(frame))


class TestPedestrian:
    @pytest.fixture(scope="class")
    def pedestrian_pair(self):
        rng = np.random.default_rng(5)
        dim = HogConfig(window=(64, 32)).feature_length
        model = LinearModel(weights=rng.normal(size=dim), bias=0.05)
        config = PedestrianConfig(decision_threshold=-0.3)
        return (
            PedestrianDetector(replace(config, batched=True), model),
            PedestrianDetector(replace(config, batched=False), model),
        )

    @pytest.mark.parametrize("seed", [2, 11, 23])
    def test_detect_identical(self, pedestrian_pair, seed):
        batched, reference = pedestrian_pair
        frame = np.random.default_rng(seed).random((96, 160, 3))
        assert_detections_identical(batched.detect(frame), reference.detect(frame))

    def test_detect_identical_on_scene(self, pedestrian_pair):
        batched, reference = pedestrian_pair
        frame = scene_frame(LightingCondition.DAY, 4)
        assert_detections_identical(batched.detect(frame), reference.detect(frame))


class TestDark:
    @pytest.fixture(scope="class")
    def dark_pair(self, dark_detector):
        reference = DarkVehicleDetector(
            replace(dark_detector.config, batched=False),
            dbn=dark_detector.dbn,
            matcher=dark_detector.matcher,
        )
        return dark_detector, reference

    def test_dbn_grid_identical_on_scene(self, dark_pair, dark_frame):
        batched, reference = dark_pair
        mask = batched.preprocess(dark_frame.rgb)
        grid_b = batched.dbn_grid(mask)
        grid_r = reference.dbn_grid(mask)
        assert grid_b.shape == grid_r.shape
        assert np.array_equal(grid_b, grid_r)

    @pytest.mark.parametrize("seed", [0, 13])
    def test_dbn_grid_identical_on_random_masks(self, dark_pair, seed):
        batched, reference = dark_pair
        mask = np.random.default_rng(seed).random((40, 70)) < 0.12
        assert np.array_equal(batched.dbn_grid(mask), reference.dbn_grid(mask))

    @pytest.mark.parametrize("shape", [(8, 30), (30, 8), (9, 9), (10, 11), (31, 17), (17, 64)])
    def test_dbn_grid_identical_on_odd_masks(self, dark_pair, shape):
        # The reference finds occupied windows from a full copy of every
        # window, so this pins the batched path's separable OR as well.
        batched, reference = dark_pair
        mask = np.random.default_rng(sum(shape)).random(shape) < 0.08
        mask[-1, -1] = True  # a lit pixel only the last row/column of windows sees
        grid_b, grid_r = batched.dbn_grid(mask), reference.dbn_grid(mask)
        assert grid_b.shape == grid_r.shape
        assert np.array_equal(grid_b, grid_r)

    def test_dbn_grid_chunk_size_irrelevant(self, dark_detector, dark_frame):
        # The chunked hot path must not depend on dbn_batch, only on bytes.
        mask = dark_detector.preprocess(dark_frame.rgb)
        small = DarkVehicleDetector(
            replace(dark_detector.config, dbn_batch=7),
            dbn=dark_detector.dbn,
            matcher=dark_detector.matcher,
        )
        assert np.array_equal(dark_detector.dbn_grid(mask), small.dbn_grid(mask))

    @pytest.mark.parametrize("seed", [99, 101])
    def test_detect_identical_on_scenes(self, dark_pair, seed):
        batched, reference = dark_pair
        frame = scene_frame(LightingCondition.DARK, seed)
        assert_detections_identical(batched.detect(frame), reference.detect(frame))

    def test_trace_class_grids_identical(self, dark_pair, dark_frame):
        from repro.pipelines.dark import DarkStageTrace

        batched, reference = dark_pair
        trace_b, trace_r = DarkStageTrace(), DarkStageTrace()
        batched.detect(dark_frame.rgb, trace=trace_b)
        reference.detect(dark_frame.rgb, trace=trace_r)
        assert np.array_equal(trace_b.class_grid, trace_r.class_grid)
        assert trace_b.pairs == trace_r.pairs


class TestConfigDefaults:
    def test_batched_is_default_everywhere(self):
        assert DayDuskConfig().batched is True
        assert PedestrianConfig().batched is True
        assert DarkConfig().batched is True
