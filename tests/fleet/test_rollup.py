"""Rollup folding, schema validation, artefact round trips, rendering."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError
from repro.fleet.cli import main as fleet_main
from repro.fleet.outcome import DriveOutcome
from repro.fleet.rollup import (
    FLEET_SCHEMA,
    FLEET_SCHEMA_VERSION,
    build_rollup,
    deterministic_view,
    load_rollup,
    render_rollup,
    validate_rollup,
    write_rollup,
)

pytestmark = pytest.mark.fleet


def make_outcome(
    name: str,
    status: str = "ok",
    frames: int = 50,
    violations: int = 0,
    wall_ms: float = 10.0,
) -> DriveOutcome:
    if status != "ok":
        return DriveOutcome(spec={"name": name}, status=status, error="boom")
    return DriveOutcome(
        spec={"name": name},
        status="ok",
        frames_digest="0" * 64,
        summary={
            "frames": frames,
            "vehicle_dropped": 1,
            "frames_with_faults": 2,
            "frames_degraded": 0,
            "degradations": 0,
            "failed_reconfigurations": 0,
        },
        verdict={
            "state": "degraded" if violations else "ok",
            "violations": violations,
            "violations_by_slo": {"slo:detection-health": violations} if violations else {},
            "transitions": 0,
            "triggers": violations,
            "incidents": 0,
        },
        metrics=[
            {"kind": "counter", "name": "drive_frames", "labels": {}, "value": frames},
        ],
        wall={
            "metrics": [
                {
                    "kind": "counter",
                    "name": "frame_deadline_misses_total",
                    "labels": {},
                    "value": 1,
                },
                {
                    "kind": "histogram",
                    "name": "frame_wall_ms",
                    "labels": {},
                    "bounds": [1.0, 100.0],
                    "bucket_counts": [0, frames, 0],
                    "count": frames,
                    "sum": wall_ms * frames,
                    "min": wall_ms,
                    "max": wall_ms,
                },
            ],
            "wall_s": 0.5,
            "worker_id": 0,
        },
    )


def make_rollup() -> dict:
    return build_rollup(
        [
            make_outcome("a", violations=2),
            make_outcome("b"),
            make_outcome("c", status="crashed"),
        ],
        rejected=[DriveOutcome(spec={"name": "d"}, status="rejected", error="queue full")],
        events_by_kind={"fleet.submit": 3, "fleet.reject": 1},
        elapsed_s=2.0,
    )


@pytest.fixture()
def rollup() -> dict:
    return make_rollup()


#: Arbitrary JSON-shaped values to write under a ``wall`` key.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


class TestBuildRollup:
    def test_status_and_rejection_counts(self, rollup):
        assert rollup["schema"] == FLEET_SCHEMA
        assert rollup["schema_version"] == FLEET_SCHEMA_VERSION
        assert rollup["fleet"] == {
            "drives": 3,
            "ok": 2,
            "by_status": {"ok": 2, "crashed": 1},
            "rejected": 1,
        }
        assert len(rollup["outcomes"]) == 4

    def test_frame_totals_sum_over_ok_drives(self, rollup):
        assert rollup["frames"]["frames"] == 100
        assert rollup["frames"]["vehicle_dropped"] == 2
        assert rollup["frames"]["frames_with_faults"] == 4

    def test_health_aggregation(self, rollup):
        health = rollup["health"]
        assert health["monitored_drives"] == 2
        assert health["by_state"] == {"degraded": 1, "ok": 1}
        assert health["slo_violations"] == 2
        assert health["slo_violations_by_slo"] == {"slo:detection-health": 2}
        assert health["breach_rate"] == pytest.approx(0.5)

    def test_latency_histograms_merge(self, rollup):
        latency = rollup["wall"]["latency_ms"]
        assert latency["count"] == 100
        assert latency["percentiles"]["p50"] == pytest.approx(10.0, abs=5.0)

    def test_metrics_merge_and_stay_deterministic(self, rollup):
        names = {s["name"] for s in rollup["metrics"]}
        assert names == {"drive_frames"}  # wall series stay under each outcome's wall
        assert rollup["metrics"][0]["value"] == 100

    def test_wall_section(self, rollup):
        wall = rollup["wall"]
        assert wall["elapsed_s"] == 2.0
        assert wall["drives_per_s"] == pytest.approx(1.5)
        assert wall["drive_wall_s"] == pytest.approx(1.0)
        assert wall["events_by_kind"] == {"fleet.submit": 3, "fleet.reject": 1}
        assert wall["config"] == {}
        for key in ("latency_ms", "config", "events_by_kind"):
            assert key not in rollup

    def test_rejected_list_must_carry_rejected_statuses(self):
        with pytest.raises(FleetError, match="rejected"):
            build_rollup([], rejected=[make_outcome("x")])


class TestDeterministicView:
    def test_wall_and_scheduling_keys_are_stripped(self, rollup):
        view = deterministic_view(rollup)
        assert "wall" not in view
        assert "quality" not in view
        assert len(view["outcomes"]) == len(rollup["outcomes"])
        for outcome in view["outcomes"]:
            assert "wall" not in outcome
            assert "quality" not in outcome

    @settings(max_examples=50, deadline=None)
    @given(rollup_wall=json_values, outcome_wall=json_values, index=st.integers(0, 3))
    def test_wall_contents_never_change_the_view(self, rollup_wall, outcome_wall, index):
        rollup = make_rollup()
        before = json.dumps(deterministic_view(rollup), sort_keys=True)
        rollup["wall"] = rollup_wall
        rollup["outcomes"][index]["wall"] = outcome_wall
        assert json.dumps(deterministic_view(rollup), sort_keys=True) == before
        outcome = rollup["outcomes"][index]
        assert deterministic_view(outcome) == deterministic_view(
            {**outcome, "wall": {"metrics": [], "wall_s": 1.0}}
        )

    def test_deterministic_sections_survive(self, rollup):
        view = deterministic_view(rollup)
        assert view["fleet"] == rollup["fleet"]
        assert view["health"] == rollup["health"]
        assert view["frames"] == rollup["frames"]


class TestValidation:
    def test_good_rollup_validates(self, rollup):
        validate_rollup(rollup)

    def test_missing_keys_rejected(self, rollup):
        del rollup["health"]
        with pytest.raises(FleetError, match="missing"):
            validate_rollup(rollup)

    def test_wrong_schema_rejected(self, rollup):
        rollup["schema"] = "repro.fleet/other"
        with pytest.raises(FleetError, match="schema"):
            validate_rollup(rollup)

    def test_future_schema_version_rejected(self, rollup):
        rollup["schema_version"] = FLEET_SCHEMA_VERSION + 1
        with pytest.raises(FleetError, match="version"):
            validate_rollup(rollup)

    def test_unknown_status_rejected(self, rollup):
        rollup["fleet"]["by_status"]["winning"] = 1
        with pytest.raises(FleetError, match="status"):
            validate_rollup(rollup)

    def test_unknown_event_kind_rejected(self, rollup):
        rollup["wall"]["events_by_kind"]["fleet.party"] = 1
        with pytest.raises(FleetError, match="event kind"):
            validate_rollup(rollup)

    def test_v2_rollup_with_top_level_latency_rejected(self, rollup, tmp_path, capsys):
        # The v2 layout kept latency_ms, config and events_by_kind at the
        # top level; a v3 reader refuses it on the version, before shape.
        v2 = {key: value for key, value in rollup.items() if key != "wall"}
        v2.update(
            schema_version=2,
            latency_ms=rollup["wall"]["latency_ms"],
            config={},
            events_by_kind={},
            wall={"elapsed_s": 2.0, "drives_per_s": 1.5},
        )
        with pytest.raises(FleetError, match="schema_version 2; this build reads version 3"):
            validate_rollup(v2)
        path = tmp_path / "FLEET_v2.json"
        path.write_text(json.dumps(v2))
        assert fleet_main(["report", str(path)]) == 2
        assert "schema_version 2" in capsys.readouterr().err


class TestArtefacts:
    def test_write_then_load_round_trips(self, rollup, tmp_path):
        path = write_rollup(rollup, tmp_path / "FLEET_test.json")
        assert load_rollup(path) == rollup

    def test_load_rejects_unreadable_files(self, tmp_path):
        missing = tmp_path / "FLEET_missing.json"
        with pytest.raises(FleetError, match="cannot load"):
            load_rollup(missing)
        bad = tmp_path / "FLEET_bad.json"
        bad.write_text("{not json")
        with pytest.raises(FleetError, match="cannot load"):
            load_rollup(bad)

    def test_render_mentions_the_headlines(self, rollup):
        text = render_rollup(rollup)
        assert "drives: 3" in text
        assert "rejected=1" in text
        assert "breach_rate=0.500" in text
        assert "p50=" in text
