"""Functional routing: DriveReport.vehicle_pipelines routes pixels by the drive.

The SoC model decides which image and SVM model the vehicle partition
runs each frame through; these tests pin the per-frame routes against a
probe of the partition's state at every submitted frame, and check the
routes drive the right software pipeline.
"""

from __future__ import annotations

import pytest

from repro.adaptive.policy import CONFIG_FOR_CONDITION
from repro.adaptive.sensor import LuxTrace
from repro.core.spec import DriveSpec, frames_digest
from repro.core.system import AdaptiveDetectionSystem, SystemConfig, run_drive_spec
from repro.datasets.lighting import DARK_LIGHTING, LightingCondition
from repro.datasets.scene import SceneConfig, render_scene
from repro.faults.plan import FaultSite
from repro.pipelines.day_dusk import HogSvmVehicleDetector

# The perfbench adaptive drive: sunset, 5 s, first reconfiguration stalls
# past the watchdog and is retried.
BENCH_SPEC = DriveSpec(trace="sunset", duration_s=5.0, fault_scenario="pr_timeout")


def probed_drive(spec: DriveSpec):
    """Run ``spec`` while recording, per frame, what the partition held.

    The probe wraps ``submit_frame``: at each vehicle submission it reads
    the loaded image and SVM model, and whether the frame was accepted and
    its ingress DMA left un-aborted.  A tick whose pedestrian frame arrives
    with no vehicle submission before it was flushed.
    """
    system = AdaptiveDetectionSystem.from_spec(spec)
    soc, plan = system.soc, system.fault_plan
    submit = soc.submit_frame
    routes: list[str | None] = []
    pending: list[str | None] = [None]

    def probe(which, *args, **kwargs):
        if which == "pedestrian":
            routes.append(pending[0])
            pending[0] = None
            return submit(which, *args, **kwargs)
        loaded = "dark" if soc.vehicle.configuration == "dark" else soc.vehicle_model
        fired = len(plan.events) if plan is not None else 0
        accepted = submit(which, *args, **kwargs)
        aborted = plan is not None and any(
            e.site is FaultSite.DMA_ERROR and e.target == soc.veh_in_dma.name
            for e in plan.events[fired:]
        )
        pending[0] = loaded if accepted and not aborted else None
        return accepted

    soc.submit_frame = probe
    trace = spec.build_trace()
    report = system.run_drive(trace, spec.duration_s, spec.build_sensor(trace, plan))
    return report, routes


def constant_drive(condition: LightingCondition, lux: float, duration_s: float = 2.0):
    system = AdaptiveDetectionSystem(SystemConfig(initial_condition=condition))
    return system.run_drive(LuxTrace(((0.0, lux), (duration_s, lux))))


class TestOracle:
    @pytest.mark.parametrize("scenario", ["pr_timeout", "detector_crash"])
    def test_routes_match_probe(self, scenario):
        spec = DriveSpec(trace="sunset", duration_s=5.0, fault_scenario=scenario)
        report, probed = probed_drive(spec)
        routes = report.vehicle_pipelines()
        assert routes == probed
        assert len(routes) == report.n_frames
        assert {"day", "dusk", "dark", None} <= set(routes)

    def test_probe_leaves_drive_untouched(self):
        report, _ = probed_drive(BENCH_SPEC)
        assert frames_digest(report.frames) == frames_digest(run_drive_spec(BENCH_SPEC).frames)

    def test_flushed_frames_route_nowhere(self):
        report = run_drive_spec(
            DriveSpec(trace="sunset", duration_s=5.0, fault_scenario="detector_crash")
        )
        flushed = [
            i for i, f in enumerate(report.frames)
            if any(label.startswith("degrade:detector-flush") for label in f.faults)
        ]
        assert flushed
        routes = report.vehicle_pipelines()
        assert all(routes[i] is None for i in flushed)

    def test_aborted_ingress_routes_nowhere(self):
        spec = DriveSpec(trace="sunset", duration_s=20.0, fault_scenario="flaky_dma")
        report, probed = probed_drive(spec)
        routes = report.vehicle_pipelines()
        assert routes == probed
        aborted = [
            i for i, f in enumerate(report.frames)
            if f.vehicle_accepted and any("dma-error@dma-veh-mm2s" in x for x in f.faults)
        ]
        assert aborted
        assert all(routes[i] is None for i in aborted)

    def test_skipped_frames_are_the_drops_the_drive_counts(self):
        report = run_drive_spec(BENCH_SPEC)
        assert report.vehicle_pipelines().count(None) == report.vehicle_dropped


class TestBoot:
    def test_dark_start_runs_dark(self):
        report = constant_drive(LightingCondition.DARK, 0.8, duration_s=10.0)
        assert report.frames_degraded == 0
        assert report.reconfigurations == []
        assert set(report.vehicle_pipelines()) == {"dark"}

    def test_dusk_start_runs_dusk_model(self):
        report = constant_drive(LightingCondition.DUSK, 60.0)
        assert set(report.vehicle_pipelines()) == {"dusk"}

    def test_dark_start_resumes_on_dusk_model(self):
        system = AdaptiveDetectionSystem(SystemConfig(initial_condition=LightingCondition.DARK))
        report = system.run_drive(LuxTrace(((0.0, 0.8), (1.0, 0.8), (1.1, 60.0), (4.0, 60.0))))
        routes = report.vehicle_pipelines()
        assert routes[0] == "dark" and routes[-1] == "dusk"
        assert "day" not in routes

    def test_day_start_frame_cores_unchanged(self):
        # Booting in the initial condition must not move a default drive.
        report = run_drive_spec(DriveSpec(trace="sunset", duration_s=20.0))
        assert frames_digest(report.frames) == (
            "3015e81dd5764ecfb3b31a290f49057f106fbce95c858e0c52462b3738735f13"
        )


class TestRouting:
    def test_day_routes_to_hog(self):
        report = constant_drive(LightingCondition.DAY, 30000.0)
        assert set(report.vehicle_pipelines()) == {"day"}

    def test_dark_routes_to_dbn_pipeline(self):
        # Darkness arrives; after the blind window the dark pipeline runs.
        report = constant_drive(LightingCondition.DUSK, 1.0)
        routes = report.vehicle_pipelines()
        assert routes[0] == "dusk"
        assert None in routes
        assert routes[-1] == "dark"

    def test_pipeline_for_condition(self):
        # A drive that stays in one condition runs that condition's pipeline.
        lux = {LightingCondition.DAY: 30000.0, LightingCondition.DUSK: 60.0,
               LightingCondition.DARK: 0.8}
        for condition in LightingCondition:
            routes = constant_drive(condition, lux[condition]).vehicle_pipelines()
            assert set(routes) == {condition.value}

    def test_configuration_mapping(self):
        for condition in LightingCondition:
            system = AdaptiveDetectionSystem(SystemConfig(initial_condition=condition))
            assert system.soc.vehicle.configuration == CONFIG_FOR_CONDITION[condition].value
            assert system.soc.pr.reports == []


class TestSwitching:
    def test_dusk_to_dark_has_blind_window(self):
        report = constant_drive(LightingCondition.DUSK, 1.0)
        routes = report.vehicle_pipelines()
        blind = [i for i, route in enumerate(routes) if route is None]
        assert blind and len(blind) == report.vehicle_dropped
        assert all(report.frames[i].reconfiguring for i in blind)
        assert routes[blind[-1] + 1] == "dark"

    def test_day_dusk_swap_is_free(self):
        report = constant_drive(LightingCondition.DAY, 100.0)
        routes = report.vehicle_pipelines()
        assert routes[0] == "day" and routes[-1] == "dusk"
        assert None not in routes
        assert report.reconfigurations == []

    def test_results_history_accumulates(self):
        report = constant_drive(LightingCondition.DAY, 30000.0, duration_s=0.06)
        assert report.n_frames == 3
        assert report.vehicle_pipelines() == ["day"] * 3


class TestEndToEnd:
    def test_dark_frame_detected_by_routed_pipeline(self, condition_models, dark_detector):
        pipelines = {
            "day": HogSvmVehicleDetector().with_model(condition_models["day"]).detect,
            "dusk": HogSvmVehicleDetector().with_model(condition_models["dusk"]).detect,
            "dark": dark_detector.detect,
        }
        route = constant_drive(LightingCondition.DARK, 1.0, 0.1).vehicle_pipelines()[0]
        frame = render_scene(
            SceneConfig(height=180, width=330, n_vehicles=1, vehicle_fill=(0.1, 0.16), seed=9),
            DARK_LIGHTING,
        )
        detections = pipelines[route](frame.rgb)
        assert detections
        assert any(d.rect.iou(frame.vehicle_boxes[0]) > 0.2 for d in detections)
