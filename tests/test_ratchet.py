"""The shared ratchet: snapshot I/O, the compare loop, the report, and the
three gates built on it (bench, quality, lint)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import ratchet
from repro.analysis.cli import main as lint_main
from repro.errors import ConfigurationError, QualityError
from repro.perf.cli import main as bench_main
from repro.quality.baseline import load_snapshot as load_quality
from repro.quality.baseline import write_snapshot as write_quality
from repro.quality.cli import main as quality_main

REPO = Path(__file__).resolve().parents[1]

SCHEMA = ratchet.Schema(
    name="test-ratchet",
    version=3,
    table="entries",
    label="test baseline",
    error=QualityError,
    create_hint="make-one",
)


def judge_numbers(base: float, cur: float) -> str:
    """Lower is better; a tie is the same."""
    if cur > base:
        return "worse"
    return "better" if cur < base else "same"


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


class TestStatuses:
    def test_severity_order(self):
        assert ratchet.STATUSES == ("regressed", "missing", "new", "improved", "unchanged")

    def test_text_lists_most_severe_first(self):
        entries = ratchet.compare(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
            {"a": 0.5, "b": 1.0, "d": 2.0, "e": 1.0},
            judge_numbers,
        )
        lines = ratchet.Report(entries, tool="t").render_text().splitlines()[1:-2]
        assert [line.split(":")[0].strip() for line in lines] == ["d", "c", "e", "a"]


class TestCompare:
    def test_union_of_keys_sorted_by_name(self):
        entries = ratchet.compare({"b": 1, "gone": 1}, {"b": 1, "fresh": 1}, judge_numbers)
        assert [(e.name, e.status) for e in entries] == [
            ("b", "unchanged"),
            ("fresh", "new"),
            ("gone", "missing"),
        ]

    def test_new_and_missing_are_reported_not_failing(self):
        report = ratchet.Report(ratchet.compare({"gone": 1}, {"fresh": 1}, judge_numbers))
        assert report.counts() == {
            "regressed": 0, "missing": 1, "new": 1, "improved": 0, "unchanged": 0
        }
        assert not report.has_regressions
        missing, new = sorted(report.entries, key=lambda e: e.status)
        assert (missing.baseline, missing.current) == (1, None)
        assert (new.baseline, new.current) == (None, 1)

    def test_judge_supplied_by_caller_decides_shared_keys(self):
        calls = []

        def judge(base, cur):
            calls.append((base, cur))
            return {"x": "worse", "y": "better"}.get(cur, "same")

        report = ratchet.Report(
            ratchet.compare({"k1": "a", "k2": "a", "k3": "a"}, {"k1": "x", "k2": "y", "k3": "z"},
                            judge)
        )
        assert calls == [("a", "x"), ("a", "y"), ("a", "z")]
        assert [e.name for e in report.regressions] == ["k1"]
        assert [e.name for e in report.improvements] == ["k2"]
        assert report.has_regressions

    def test_judge_must_answer_worse_better_or_same(self):
        with pytest.raises(KeyError):
            ratchet.compare({"k": 1}, {"k": 2}, lambda base, cur: "regressed")


class TestReport:
    def report(self, baseline, current, **kwargs):
        return ratchet.Report(
            ratchet.compare(baseline, current, judge_numbers),
            tool="demo compare",
            title="now vs then",
            unit="things",
            failure="it got slower",
            meta={"baseline": "then"},
            fields_of=lambda e: {"before": e.baseline, "after": e.current},
            detail_of=lambda f: f"{f['before']} -> {f['after']}",
            **kwargs,
        )

    def test_text_render(self):
        text = self.report({"a": 1, "b": 1, "c": 1}, {"a": 2, "b": 1, "c": 0}).render_text()
        assert text.splitlines() == [
            "demo compare: now vs then",
            "  a: regressed (1 -> 2)",
            "  c: improved (1 -> 0)",
            "demo compare: 1 regressed, 0 missing, 0 new, 1 improved, 1 unchanged "
            "across 3 things",
            "demo compare: FAILED (it got slower)",
        ]

    def test_ratchet_hint_only_without_regressions(self):
        improved = self.report({"a": 1}, {"a": 0}, ratchet_hint="redo it")
        assert improved.render_text().splitlines()[-1] == (
            "demo compare: improved beyond the floor — ratchet with `redo it`"
        )
        assert "ratchet" not in self.report({"a": 1}, {"a": 0}).render_text()

    def test_json_render(self):
        doc = json.loads(self.report({"a": 1, "gone": 1}, {"a": 2}).render_json())
        assert doc == {
            "tool": "repro-demo-compare",
            "baseline": "then",
            "counts": {
                "regressed": 1, "missing": 1, "new": 0, "improved": 0, "unchanged": 0
            },
            "has_regressions": True,
            "entries": [
                {"name": "a", "status": "regressed", "before": 1, "after": 2},
                {"name": "gone", "status": "missing", "before": 1, "after": None},
            ],
        }


class TestSnapshotIO:
    def doc(self, **overrides):
        return {"schema": "test-ratchet", "schema_version": 3,
                "entries": {"b": 2, "a": 1}, **overrides}

    def test_write_is_stable_json(self, tmp_path):
        path = ratchet.write_snapshot(tmp_path / "sub" / "snap.json", self.doc())
        text = path.read_text()
        assert text == json.dumps(self.doc(), indent=2, sort_keys=True) + "\n"
        assert ratchet.load_snapshot(path, SCHEMA) == self.doc()

    @pytest.mark.parametrize(
        "content, match",
        [
            (None, "no test baseline at .*cannot read.*make-one"),
            ("{nope", "unreadable test baseline .*not valid JSON"),
            ("[]", "is not a test baseline"),
            ('{"schema": "other"}', "is not a test baseline"),
            ('{"schema": "test-ratchet", "schema_version": 2}', "schema_version 2"),
            ('{"schema": "test-ratchet", "schema_version": 3}', "no entries table"),
            ('{"schema": "test-ratchet", "schema_version": 3, "entries": []}',
             "no entries table"),
        ],
    )
    def test_malformed_snapshot_raises_the_gate_error(self, tmp_path, content, match):
        path = tmp_path / "snap.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(QualityError, match=match):
            ratchet.load_snapshot(path, SCHEMA)

    def test_version_key_is_per_schema(self, tmp_path):
        lint_like = ratchet.Schema(
            name="x", version=1, table="counts", label="x baseline",
            error=ConfigurationError, create_hint="-", version_key="version",
        )
        path = write_json(tmp_path / "x.json", {"schema": "x", "version": 99, "counts": {}})
        with pytest.raises(ConfigurationError, match="has version 99"):
            ratchet.load_snapshot(path, lint_like)


# -- malformed baselines exit 2 through every gate's CLI ----------------------

def _bench_without_group() -> dict:
    doc = json.loads((REPO / "BENCH_repro.json").read_text())
    del next(iter(doc["benchmarks"].values()))["group"]
    return doc


def _quality_without_overall() -> dict:
    doc = json.loads((REPO / "QUALITY_BASELINE.json").read_text())
    del next(iter(doc["drives"].values()))["overall"]
    return doc


LINT = {"schema": "repro.analysis/baseline", "version": 1, "counts": {}}
BENCH = {"schema": "repro-bench", "schema_version": 1, "benchmarks": {}}
QUALITY = {"schema": "repro.quality/baseline", "schema_version": 1, "drives": {}}

MALFORMED = {
    "lint-list-document": ("lint", lambda: []),
    "lint-non-integer-count": ("lint", lambda: {**LINT, "counts": {"src/a.py::r": "x"}}),
    "lint-version-99": ("lint", lambda: {**LINT, "version": 99}),
    "bench-list-document": ("bench", lambda: []),
    "bench-version-99": ("bench", lambda: {**BENCH, "schema_version": 99}),
    "bench-entry-without-group": ("bench", _bench_without_group),
    "quality-list-document": ("quality", lambda: []),
    "quality-version-99": ("quality", lambda: {**QUALITY, "schema_version": 99}),
    "quality-drive-without-overall": ("quality", _quality_without_overall),
}


def run_gate(gate: str, baseline: Path, tmp_path: Path) -> int:
    if gate == "lint":
        (tmp_path / "tree").mkdir()
        return lint_main([str(tmp_path / "tree"), "--compare-baseline", str(baseline)])
    if gate == "bench":
        return bench_main(["--smoke", "--filter", "integral", "--compare", str(baseline)])
    return quality_main(["compare", str(baseline), "--duration", "0.5"])


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_baseline_exits_two(case, tmp_path, capsys):
    gate, make_doc = MALFORMED[case]
    baseline = write_json(tmp_path / "baseline.json", make_doc())
    assert run_gate(gate, baseline, tmp_path) == 2
    prefix = {"lint": "reprolint: ", "bench": "bench: ", "quality": "quality: "}[gate]
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "baseline.json" in err


# -- committed baselines round-trip byte for byte ----------------------------

def test_lint_update_baseline_rewrites_committed_file_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    out = tmp_path / "LINT_BASELINE.json"
    assert lint_main(["src", "--update-baseline", str(out)]) == 0
    assert out.read_bytes() == (REPO / "LINT_BASELINE.json").read_bytes()


def test_quality_baseline_round_trips_byte_for_byte(tmp_path):
    committed = REPO / "QUALITY_BASELINE.json"
    out = write_quality(tmp_path / "QUALITY_BASELINE.json", load_quality(committed))
    assert out.read_bytes() == committed.read_bytes()
