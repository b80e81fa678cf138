"""The ``python -m repro fleet`` surface: run, top, report, smoke."""

from __future__ import annotations

import json

import pytest

from repro.fleet.cli import main as fleet_main
from repro.fleet.rollup import load_rollup
from repro.fleet.status import validate_status

pytestmark = pytest.mark.fleet


class TestRun:
    def test_run_writes_a_valid_rollup(self, tmp_path, capsys):
        out = tmp_path / "FLEET_test.json"
        code = fleet_main(
            [
                "run",
                "--count", "4",
                "--workers", "2",
                "--duration", "1.0",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        rollup = load_rollup(out)
        assert rollup["fleet"]["by_status"] == {"ok": 4}
        assert rollup["wall"]["config"]["workers"] == 2
        stdout = capsys.readouterr().out
        assert "fleet rollup" in stdout
        assert str(out) in stdout

    def test_inline_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "FLEET_inline.json"
        assert fleet_main(
            ["run", "--count", "2", "--workers", "0", "--duration", "1.0",
             "--out", str(out), "--no-monitor", "--no-latency"]
        ) == 0
        capsys.readouterr()
        assert fleet_main(["report", str(out)]) == 0
        assert "drives: 2" in capsys.readouterr().out


class TestRunLivePlane:
    def test_run_writes_status_metrics_and_trace_artefacts(self, tmp_path, capsys):
        out = tmp_path / "FLEET_live.json"
        status = tmp_path / "status.jsonl"
        metrics = tmp_path / "fleet.om"
        trace = tmp_path / "fleet-trace.json"
        code = fleet_main(
            [
                "run",
                "--count", "4",
                "--workers", "2",
                "--duration", "1.0",
                "--out", str(out),
                "--status-interval", "0.2",
                "--status-out", str(status),
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        snapshots = [json.loads(l) for l in status.read_text().splitlines() if l]
        assert snapshots and snapshots[-1]["phase"] == "done"
        for snapshot in snapshots:
            validate_status(snapshot)
        assert metrics.read_text().rstrip().endswith("# EOF")
        document = json.loads(trace.read_text())
        assert document["traceEvents"]
        rollup = load_rollup(out)
        assert rollup["wall"]["events_by_kind"]["fleet.trace.stitch"] == 1

    def test_no_stream_disables_the_plane(self, tmp_path):
        out = tmp_path / "FLEET_quiet.json"
        assert fleet_main(
            ["run", "--count", "2", "--workers", "2", "--duration", "1.0",
             "--no-stream", "--out", str(out)]
        ) == 0
        rollup = load_rollup(out)
        assert "fleet.worker.heartbeat" not in rollup["wall"]["events_by_kind"]
        assert "fleet.status.snapshot" not in rollup["wall"]["events_by_kind"]


class TestTop:
    def test_top_once_prints_the_final_snapshot(self, capsys):
        code = fleet_main(
            ["top", "--once", "--count", "4", "--workers", "2", "--duration", "1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet status" in out
        assert "phase=done" in out
        assert "4 done" in out

    def test_top_status_in_renders_an_existing_stream(self, tmp_path, capsys):
        status = tmp_path / "status.jsonl"
        assert fleet_main(
            ["top", "--once", "--count", "2", "--workers", "2",
             "--duration", "1.0", "--status-out", str(status)]
        ) == 0
        capsys.readouterr()
        assert fleet_main(["top", "--once", "--status-in", str(status)]) == 0
        out = capsys.readouterr().out
        assert "fleet status" in out
        assert "phase=done" in out

    def test_top_status_in_empty_stream_fails(self, tmp_path, capsys):
        empty = tmp_path / "status.jsonl"
        empty.write_text("")
        assert fleet_main(["top", "--once", "--status-in", str(empty)]) == 1
        assert "no snapshots" in capsys.readouterr().out

    def test_top_status_in_garbage_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "status.jsonl"
        bad.write_text("{not json\n")
        assert fleet_main(["top", "--once", "--status-in", str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_top_needs_at_least_one_worker(self, capsys):
        assert fleet_main(["top", "--once", "--workers", "0"]) == 2
        assert "at least one worker" in capsys.readouterr().err


class TestReport:
    def test_missing_rollup_is_a_usage_error(self, tmp_path):
        assert fleet_main(["report", str(tmp_path / "FLEET_none.json")]) == 2


class TestSmoke:
    def test_smoke_passes_and_verifies_digests(self, capsys):
        assert fleet_main(["smoke"]) == 0
        out = capsys.readouterr().out
        assert "fleet smoke ok" in out
        assert "digests verified inline" in out


class TestUsage:
    def test_no_subcommand_is_a_usage_error(self):
        assert fleet_main([]) == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        assert fleet_main(["launch"]) == 2
