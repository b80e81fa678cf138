"""Pipeline injection site: detector exceptions and fail-safe degradation."""

from __future__ import annotations

import pytest

from repro.core.spec import DriveSpec
from repro.core.system import run_drive_spec

pytestmark = pytest.mark.faults


class TestFunctionalDegradation:
    def test_injected_exception_degrades_not_crashes(self):
        # A burst of vehicle detector exceptions mid-drive: each costs its
        # frame (no pipeline runs on it), the drive completes, the stream
        # resumes, and the pedestrian partition never notices.
        report = run_drive_spec(
            DriveSpec(trace="sunset", duration_s=10.0, fault_scenario="detector_crash")
        )
        flushed = [
            i for i, f in enumerate(report.frames)
            if any(label.startswith("degrade:detector-flush") for label in f.faults)
        ]
        routes = report.vehicle_pipelines()
        assert len(flushed) == 10
        assert all(routes[i] is None for i in flushed)
        assert routes[flushed[-1] + 1] is not None
        assert report.pedestrian_dropped == 0
