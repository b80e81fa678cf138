"""``python -m repro bench``: exit codes, snapshots, the regression gate."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main
from repro.perf.baseline import load_snapshot
from repro.perf.cli import main as bench_main
from repro.ratchet import write_snapshot

pytestmark = pytest.mark.perf

FILTER = "integral"  # one cheap benchmark keeps every CLI run fast


@pytest.fixture
def baseline(tmp_path):
    """A real smoke-run snapshot of the filtered suite."""
    path = tmp_path / "BENCH_base.json"
    assert bench_main(
        ["--smoke", "--filter", FILTER, "--label", "base", "--out", str(path)]
    ) == 0
    return path


class TestBenchRuns:
    def test_list_prints_catalog(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "integral_image_ms" in out
        assert "run_drive_macro_ms" in out
        assert "[drive/macro]" in out

    def test_smoke_run_reports_stats_without_snapshot(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert bench_main(["--smoke", "--filter", FILTER]) == 0
        out = capsys.readouterr().out
        assert "integral_image_ms" in out
        assert "median ms" in out
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_out_writes_loadable_snapshot(self, baseline):
        doc = load_snapshot(str(baseline))
        assert doc["label"] == "base"
        assert "integral_image_ms" in doc["benchmarks"]
        entry = doc["benchmarks"]["integral_image_ms"]
        assert entry["stats"]["n"] >= 1
        assert entry["notes"]["workload_digest"]

    def test_no_matching_benchmarks_is_usage_error(self, capsys):
        assert bench_main(["--smoke", "--filter", "zzz-no-such-bench"]) == 2
        assert "no benchmarks match" in capsys.readouterr().err

    def test_negative_threshold_is_usage_error(self, capsys):
        assert bench_main(["--smoke", "--threshold", "-1"]) == 2
        assert "--threshold" in capsys.readouterr().err

    def test_repro_cli_delegates_bench(self, capsys):
        assert repro_main(["bench", "--list"]) == 0
        assert "integral_image_ms" in capsys.readouterr().out


class TestRegressionGate:
    # Smoke runs take only 3 repeats of a ~0.1 ms kernel, so run-to-run
    # scheduler jitter can exceed the default 10% gate; self-compare tests
    # use a 200% threshold to assert the wiring, not the machine's mood.
    LOOSE = ("--threshold", "2.0")

    def test_self_compare_passes(self, baseline, capsys):
        code = bench_main(
            ["--smoke", "--filter", FILTER, "--compare", str(baseline), *self.LOOSE]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vs baseline 'base'" in out
        assert "FAILED" not in out

    def test_doctored_faster_baseline_fails_gate(self, baseline, tmp_path, capsys):
        # Pretend the baseline machine was 100x faster: every current
        # measurement becomes a significant slowdown.
        doc = load_snapshot(str(baseline))
        for entry in doc["benchmarks"].values():
            entry["stats"]["median"] /= 100.0
            entry["stats"]["mad"] /= 100.0
            entry["stats"]["min"] /= 100.0
            entry["stats"]["max"] /= 100.0
            entry["stats"]["mean"] /= 100.0
        doctored = tmp_path / "BENCH_doctored.json"
        write_snapshot(str(doctored), doc)
        code = bench_main(["--smoke", "--filter", FILTER, "--compare", str(doctored)])
        assert code == 1
        out = capsys.readouterr().out
        assert "regressed" in out
        assert "FAILED (significant slowdowns found)" in out

    def test_doctored_slower_baseline_improves(self, baseline, tmp_path, capsys):
        doc = load_snapshot(str(baseline))
        for entry in doc["benchmarks"].values():
            entry["stats"]["median"] *= 100.0
        doctored = tmp_path / "BENCH_slower.json"
        write_snapshot(str(doctored), doc)
        code = bench_main(["--smoke", "--filter", FILTER, "--compare", str(doctored)])
        assert code == 0
        assert "improved" in capsys.readouterr().out

    def test_missing_benchmark_noted_but_passing(self, baseline, capsys):
        code = bench_main(
            ["--smoke", "--filter", "morphology", "--compare", str(baseline),
             *self.LOOSE]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "integral_image_ms: missing" in out
        assert "morphology_closing_ms: new" in out

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        code = bench_main(
            ["--smoke", "--filter", FILTER, "--compare", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "no bench baseline at" in capsys.readouterr().err

    def test_json_report_format(self, baseline, capsys):
        code = bench_main(
            ["--smoke", "--filter", FILTER, "--compare", str(baseline),
             "--format", "json", *self.LOOSE]
        )
        assert code == 0
        out = capsys.readouterr().out
        start = out.index('{\n')
        doc = json.loads(out[start:])
        assert doc["tool"] == "repro-bench-compare"
        assert doc["has_regressions"] is False
