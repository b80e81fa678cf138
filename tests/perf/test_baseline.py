"""BENCH_*.json snapshots: schema round trip and the compare gate."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.perf.baseline import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    build_snapshot,
    compare,
    load_snapshot,
    results_from_snapshot,
)
from repro.perf.runner import BenchResult, RunnerConfig
from repro.perf.stats import SampleStats
from repro.ratchet import write_snapshot

pytestmark = pytest.mark.perf


def _result(name, median_ms, mad_ms=0.01, group="test", kind="micro"):
    return BenchResult(
        name=name,
        group=group,
        kind=kind,
        stats=SampleStats(
            n=5,
            median=median_ms,
            mad=mad_ms,
            cv=mad_ms / median_ms,
            mean=median_ms,
            min=median_ms - mad_ms,
            max=median_ms + mad_ms,
        ),
        samples_ms=[median_ms] * 5,
        notes={"workload_digest": "deadbeef"},
    )


class TestSnapshotRoundTrip:
    def test_write_then_load_preserves_results(self, tmp_path):
        path = tmp_path / "BENCH_base.json"
        results = [_result("a_ms", 1.0), _result("b_ms", 2.0)]
        doc = build_snapshot(
            results,
            label="base",
            runner=RunnerConfig(seed=3),
            span_rollups={"n_spans": 7},
        )
        write_snapshot(str(path), doc)
        loaded = load_snapshot(str(path))
        assert loaded["schema"] == SCHEMA_NAME
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["label"] == "base"
        assert loaded["runner"]["seed"] == 3
        assert loaded["span_rollups"] == {"n_spans": 7}
        assert set(loaded["machine"]) >= {"platform", "python", "numpy", "cpus"}
        rehydrated = results_from_snapshot(loaded)
        assert rehydrated == {"a_ms": results[0], "b_ms": results[1]}

    def test_written_file_is_stable_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_snapshot(str(path), build_snapshot([_result("a_ms", 1.0)], label="x"))
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["benchmarks"]["a_ms"]["stats"]["median"] == 1.0


class TestSnapshotValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_snapshot(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_snapshot(str(path))

    def test_wrong_schema_name(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ConfigurationError, match="not a bench baseline"):
            load_snapshot(str(path))

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps({"schema": SCHEMA_NAME, "schema_version": 99, "benchmarks": {}})
        )
        with pytest.raises(ConfigurationError, match="schema_version"):
            load_snapshot(str(path))

    def test_missing_benchmarks_table(self, tmp_path):
        path = tmp_path / "hollow.json"
        path.write_text(
            json.dumps({"schema": SCHEMA_NAME, "schema_version": SCHEMA_VERSION})
        )
        with pytest.raises(ConfigurationError, match="benchmarks table"):
            load_snapshot(str(path))


class TestCompare:
    def _baseline(self, *results):
        return build_snapshot(list(results), label="base")

    def test_identical_runs_unchanged(self):
        results = [_result("a_ms", 1.0), _result("b_ms", 2.0)]
        report = compare(self._baseline(*results), results)
        assert not report.has_regressions
        assert {e.status for e in report.entries} == {"unchanged"}

    def test_significant_slowdown_regresses(self):
        report = compare(
            self._baseline(_result("a_ms", 1.0)), [_result("a_ms", 1.5)]
        )
        assert report.has_regressions
        entry = report.entries[0]
        assert entry.status == "regressed"
        assert report.fields_of(entry)["rel_change"] == pytest.approx(0.5)

    def test_slowdown_within_noise_floor_passes(self):
        # 50% slower on paper, but the MADs are as large as the gap.
        report = compare(
            self._baseline(_result("a_ms", 1.0, mad_ms=0.4)),
            [_result("a_ms", 1.5, mad_ms=0.4)],
        )
        assert [e.status for e in report.entries] == ["unchanged"]

    def test_speedup_marked_improved_not_failing(self):
        report = compare(
            self._baseline(_result("a_ms", 2.0)), [_result("a_ms", 1.0)]
        )
        assert [e.status for e in report.entries] == ["improved"]
        assert not report.has_regressions

    def test_new_and_missing_benchmarks(self):
        report = compare(
            self._baseline(_result("gone_ms", 1.0)), [_result("fresh_ms", 1.0)]
        )
        statuses = {e.name: e.status for e in report.entries}
        assert statuses == {"gone_ms": "missing", "fresh_ms": "new"}
        assert not report.has_regressions

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError, match="threshold"):
            compare(self._baseline(), [], threshold_rel=-0.1)

    def test_text_report_reads_like_lint_output(self):
        report = compare(
            self._baseline(_result("slow_ms", 1.0), _result("same_ms", 1.0)),
            [_result("slow_ms", 2.0), _result("same_ms", 1.0)],
            current_label="pr",
        )
        text = report.render_text()
        assert "'pr' vs baseline 'base'" in text
        assert "slow_ms: regressed (1.000 -> 2.000 ms, +100.0%)" in text
        assert "same_ms" not in text  # unchanged entries stay quiet
        assert "1 regressed" in text
        assert text.splitlines()[-1].endswith("FAILED (significant slowdowns found)")

    def test_json_report_shape(self):
        report = compare(
            self._baseline(_result("a_ms", 1.0)), [_result("a_ms", 1.0)]
        )
        doc = json.loads(report.render_json())
        assert doc["tool"] == "repro-bench-compare"
        assert doc["has_regressions"] is False
        assert doc["counts"]["unchanged"] == 1
        assert doc["entries"][0]["name"] == "a_ms"
