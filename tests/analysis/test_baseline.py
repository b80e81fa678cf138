"""The ratcheting baseline: path normalization, compare semantics, and
the round trip through ``LINT_BASELINE.json``."""

import json

import pytest

from repro.analysis.baseline import (
    baseline_key,
    collect_counts,
    compare_baseline,
    load_baseline,
    normalize_path,
    render_comparison,
    write_baseline,
)
from repro.analysis.core import Violation
from repro.errors import ConfigurationError
from repro.ratchet import Report

pytestmark = pytest.mark.analysis


def v(path="src/repro/fleet/worker.py", rule="fork-queue-timeout", line=1):
    return Violation(rule_id=rule, path=path, line=line, col=1, message="m")


class TestNormalization:
    def test_relative_and_absolute_paths_agree(self):
        assert normalize_path("src/repro/fleet/worker.py") == normalize_path(
            "/root/repo/src/repro/fleet/worker.py"
        )

    def test_rebased_at_last_src_component(self):
        assert (
            normalize_path("/home/src/checkout/src/repro/a.py") == "src/repro/a.py"
        )

    def test_paths_without_src_pass_through(self):
        assert normalize_path("tests/analysis/x.py") == "tests/analysis/x.py"

    def test_key_includes_rule(self):
        assert baseline_key(v()) == "src/repro/fleet/worker.py::fork-queue-timeout"


class TestCompare:
    def test_identical_counts_ok(self):
        violations = [v(line=1), v(line=2)]
        baseline = collect_counts(violations)
        comparison = compare_baseline(violations, baseline)
        assert not comparison.has_regressions
        assert comparison.regressions == []
        assert comparison.improvements == []

    def test_new_finding_regresses(self):
        baseline = collect_counts([v(line=1)])
        comparison = compare_baseline([v(line=1), v(line=2)], baseline)
        assert comparison.has_regressions
        key = baseline_key(v())
        assert [(e.name, e.current, e.baseline) for e in comparison.regressions] == [
            (key, 2, 1)
        ]

    def test_new_file_regresses(self):
        comparison = compare_baseline([v(path="src/repro/new.py")], {})
        assert comparison.has_regressions

    def test_fixed_finding_improves_but_passes(self):
        baseline = collect_counts([v(line=1), v(line=2)])
        comparison = compare_baseline([v(line=1)], baseline)
        assert not comparison.has_regressions
        assert [(e.name, e.baseline, e.current) for e in comparison.improvements] == [
            (baseline_key(v()), 2, 1)
        ]

    def test_render_lists_new_findings(self):
        comparison = compare_baseline([v()], {})
        text = render_comparison(comparison, [v()])
        assert "NEW FINDINGS" in text
        assert "fork-queue-timeout" in text

    def test_render_clean(self):
        text = render_comparison(Report([]), [])
        assert "ok" in text


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "LINT_BASELINE.json"
        violations = [v(line=1), v(line=2), v(rule="export-hygiene")]
        write_baseline(path, violations)
        assert load_baseline(path) == collect_counts(violations)
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.analysis/baseline"
        assert document["version"] == 1

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no lint baseline"):
            load_baseline(tmp_path / "nope.json")

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something/else", "counts": {}}')
        with pytest.raises(ConfigurationError, match="not a lint baseline"):
            load_baseline(path)

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="unreadable"):
            load_baseline(path)
