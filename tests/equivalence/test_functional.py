"""Differential tests: a routed drive, batched vs reference detectors.

A seeded sunset drive crosses day -> dusk -> dark, with a retried partial
reconfiguration; :meth:`DriveReport.vehicle_pipelines` names the pipeline
the vehicle partition ran each frame through.  Batched and reference
detectors share the same trained models and run over the same routes;
every detection, down to its score bits, must be identical.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.spec import DriveSpec
from repro.core.system import run_drive_spec
from repro.datasets.lighting import lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene
from repro.pipelines.dark import DarkVehicleDetector
from repro.pipelines.day_dusk import DayDuskConfig, HogSvmVehicleDetector

from tests.equivalence.test_pipelines import assert_detections_identical

pytestmark = pytest.mark.equivalence

SPEC = DriveSpec(trace="sunset", duration_s=5.0, fault_scenario="pr_timeout")
FRAMES_PER_ROUTE = 3


def routed_frames(seed: int, routes_wanted=("day", "dusk", "dark", None)):
    """``(route, rgb)`` for a few frames of each route, spread over the drive."""
    report = run_drive_spec(SPEC)
    routes = report.vehicle_pipelines()
    frames = []
    for wanted in routes_wanted:
        indices = [i for i, route in enumerate(routes) if route == wanted]
        assert indices, f"drive has no {wanted!r} frames"
        step = max(1, len(indices) // FRAMES_PER_ROUTE)
        for i in indices[::step][:FRAMES_PER_ROUTE]:
            config = SceneConfig(
                height=120,
                width=210,
                n_vehicles=2,
                n_oncoming=1,
                vehicle_fill=(0.1, 0.2),
                seed=seed * 10_000 + i,
            )
            lighting = lighting_for_condition(report.frames[i].condition)
            frames.append((routes[i], render_scene(config, lighting).rgb))
    return frames


def make_pipelines(condition_models, dark_detector, batched: bool, multiscale: bool = False):
    """Route name -> detect callable, every stage on the chosen path."""
    hog = HogSvmVehicleDetector(DayDuskConfig(batched=batched))
    # Same trained stages, path flag set — detectors are cheap shells
    # around their models.
    dark = DarkVehicleDetector(
        replace(dark_detector.config, batched=batched),
        dbn=dark_detector.dbn,
        matcher=dark_detector.matcher,
    )
    pipelines = {"dark": dark.detect}
    for model in ("day", "dusk"):
        detector = hog.with_model(condition_models[model])
        pipelines[model] = detector.detect_multiscale if multiscale else detector.detect
    return pipelines


def assert_routed_identical(batched, reference, frames):
    for route, rgb in frames:
        if route is None:
            continue  # the partition skipped the frame: no pipeline runs
        assert_detections_identical(batched[route](rgb), reference[route](rgb))


class TestAdaptiveDrive:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_frame_records_identical_across_conditions(
        self, condition_models, dark_detector, seed
    ):
        batched = make_pipelines(condition_models, dark_detector, batched=True)
        reference = make_pipelines(condition_models, dark_detector, batched=False)
        assert_routed_identical(batched, reference, routed_frames(seed))

    def test_batched_flag_reaches_all_pipelines(self, condition_models, dark_detector):
        # Guards the suite against comparing the hot path with itself.
        for batched in (True, False):
            pipelines = make_pipelines(condition_models, dark_detector, batched)
            for detect in pipelines.values():
                assert detect.__self__.config.batched is batched
        reference = make_pipelines(condition_models, dark_detector, batched=False)
        assert reference["dark"].__self__.dbn is dark_detector.dbn  # same trained stages

    def test_multiscale_drive_identical(self, condition_models, dark_detector):
        batched = make_pipelines(condition_models, dark_detector, True, multiscale=True)
        reference = make_pipelines(condition_models, dark_detector, False, multiscale=True)
        # Day and dusk routes: the pyramid levels are the multiscale path.
        assert_routed_identical(batched, reference, routed_frames(3, ("day", "dusk")))
