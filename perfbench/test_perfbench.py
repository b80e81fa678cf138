"""Self-tests of the frame-loop benchmark, at a tiny size.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from repro.telemetry.spans import Tracer  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_run(workload, seed, trace, tmp_path=None):
    return harness.run(workload, seed, 0.1, trace, scale=TINY, trace_dir=tmp_path)


def digests(stdout: str) -> tuple[str, str]:
    """(inputs crc, detections crc) from a run's report."""
    return re.search(r"inputs crc32 (\w+)  detections crc32 (\w+)", stdout).groups()


def test_metric_and_workload_names_are_valid():
    spec = harness.SPEC
    names = [
        *(m["name"] for m in spec["end_to_end"] + spec["per_layer"]),
        *(w["name"] for w in spec["workloads"]),
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_runs_at_tiny_size(workload):
    # harness.as_metrics raises unless the run computes exactly the listed metrics.
    result = tiny_run(workload, 3, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TINY.min_frames
    for name, metric in result["metrics"].items():
        assert metric["unit"] == harness.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reconciles_and_nests(workload, tmp_path):
    result = tiny_run(workload, 3, trace=True, tmp_path=tmp_path)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    groups = sum(metrics[f"{g}.self_ms"] for g in harness.tracing.GROUPS)
    total = groups + metrics["pipelines.unattributed_ms"]
    assert total == pytest.approx(metrics["telemetry.traced_frame_ms"], rel=1e-9)

    spans = [json.loads(line) for line in (tmp_path / f"trace-{workload}-3.jsonl").open()]
    for s in spans:
        s["wall_duration_s"] = s["wall_end_s"] - s["wall_start_s"]
    by_id = {s["span_id"]: s for s in spans}
    child_s = {}
    for s in spans:
        assert "frame" in s["attrs"], s["name"]
        if s["parent_id"] is not None:
            child_s[s["parent_id"]] = child_s.get(s["parent_id"], 0.0) + s["wall_duration_s"]
    for s in spans:
        own = s["wall_duration_s"] - child_s.get(s["span_id"], 0.0)
        assert own >= 0.0, s["name"]
        if s["parent_id"] is not None:
            parent = by_id[s["parent_id"]]
            assert own <= parent["wall_duration_s"], (s["name"], parent["name"])
            assert parent["attrs"]["frame"] == s["attrs"]["frame"]


def test_ledger_counts_spans_outside_their_frame():
    tracer = Tracer()
    with tracer.span("frame", frame=0):
        with tracer.span("imaging.color.luminance", frame=0):
            pass
        with tracer.span("pipelines.dark.detect", frame=1):  # wrong frame index
            pass
    with tracer.span("imaging.resize.resize_bilinear", frame=0):  # no frame span
        pass
    ledger = harness.tracing.frame_ledger(tracer.spans)
    assert ledger.frames == 1
    assert ledger.orphans == 2
    assert ledger.violations == 0
    assert ledger.unattributed_ms == pytest.approx(
        ledger.loop_glue_ms + ledger.detector_glue_ms
    )
    assert ledger.detector_glue_ms > 0.0
    assert "pipelines" not in ledger.self_ms


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_digests_repeat_per_seed_and_differ_across_seeds(workload, capsys):
    tiny_run(workload, 5, trace=False)
    first = digests(capsys.readouterr().out)
    tiny_run(workload, 5, trace=False)
    again = digests(capsys.readouterr().out)
    tiny_run(workload, 6, trace=False)
    other = digests(capsys.readouterr().out)
    assert first == again
    assert first[0] != other[0]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dark_1080p",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
