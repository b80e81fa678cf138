"""The bench gate: ``BENCH_*.json`` snapshots judged by the shared ratchet.

A snapshot is one JSON document (``BENCH_<label>.json``) holding machine
metadata, the runner policy, per-benchmark robust stats (with raw samples,
so future comparisons can re-derive anything), and the span rollups of the
macro drive.  Writing, loading, the compare loop and the reports are
:mod:`repro.ratchet`'s; what is the bench's own is the judge: a slowdown
is a *regression* only when it is statistically significant under
:func:`repro.perf.stats.significant_slowdown` and exceeds the configured
relative threshold.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any

from repro import ratchet
from repro.errors import ConfigurationError
from repro.perf.runner import BenchResult, RunnerConfig
from repro.perf.stats import relative_change, significant_slowdown

SCHEMA_NAME = "repro-bench"
SCHEMA_VERSION = 1

SCHEMA = ratchet.Schema(
    name=SCHEMA_NAME,
    version=SCHEMA_VERSION,
    table="benchmarks",
    label="bench baseline",
    error=ConfigurationError,
    create_hint="repro bench --out BENCH_<label>.json",
)


def machine_meta() -> dict[str, Any]:
    """The environment a snapshot was measured on."""
    import numpy as np

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count() or 1,
    }


def build_snapshot(
    results: list[BenchResult],
    label: str,
    runner: RunnerConfig | None = None,
    span_rollups: dict | None = None,
    metrics: list[dict] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict:
    """Assemble the schema-versioned snapshot document."""
    doc: dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_meta(),
        "benchmarks": {r.name: r.to_dict() for r in results},
    }
    if runner is not None:
        doc["runner"] = {
            "warmup": runner.warmup,
            "min_repeats": runner.min_repeats,
            "max_repeats": runner.max_repeats,
            "max_time_s": runner.max_time_s,
            "outlier_k": runner.outlier_k,
            "seed": runner.seed,
            "smoke": runner.smoke,
        }
    if span_rollups is not None:
        doc["span_rollups"] = span_rollups
    if metrics is not None:
        doc["metrics"] = metrics
    if extra:
        doc.update(extra)
    return doc


def load_snapshot(path: str) -> dict:
    """Load a snapshot, checking its schema and every benchmark entry."""
    doc = ratchet.load_snapshot(path, SCHEMA)
    results_from_snapshot(doc, origin=repr(str(path)))
    return doc


def results_from_snapshot(doc: dict, origin: str = "baseline") -> dict[str, BenchResult]:
    """Rehydrate the per-benchmark results of a loaded snapshot."""
    results = {}
    for name, entry in doc["benchmarks"].items():
        try:
            results[name] = BenchResult.from_dict(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{origin} benchmark {name!r} is malformed: {exc!r}"
            ) from exc
    return results


def _fields(entry: ratchet.Entry) -> dict:
    base, cur = entry.baseline, entry.current
    both = base is not None and cur is not None
    return {
        "rel_change": relative_change(base.stats, cur.stats) if both else 0.0,
        "baseline_median_ms": base.stats.median if base is not None else None,
        "current_median_ms": cur.stats.median if cur is not None else None,
    }


def _detail(fields: dict) -> str:
    base, cur = (ratchet.fmt(fields[f"{side}_median_ms"]) for side in ("baseline", "current"))
    return f"{base} -> {cur} ms, {fields['rel_change']:+.1%}"


def compare(
    baseline_doc: dict,
    current_results: list[BenchResult],
    threshold_rel: float = 0.10,
    current_label: str = "current",
) -> ratchet.Report:
    """Judge ``current_results`` against a loaded baseline snapshot.

    A benchmark present in both is *regressed* when the slowdown is both
    beyond ``threshold_rel`` and outside the joint noise floor; the
    symmetric condition marks *improved*; anything else is *unchanged*.
    """
    if threshold_rel < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold_rel}")

    def judge(base: BenchResult, cur: BenchResult) -> str:
        if significant_slowdown(base.stats, cur.stats, threshold_rel):
            return "worse"
        if significant_slowdown(cur.stats, base.stats, threshold_rel):
            return "better"
        return "same"

    baseline_label = str(baseline_doc.get("label", "?"))
    return ratchet.Report(
        ratchet.compare(
            results_from_snapshot(baseline_doc),
            {r.name: r for r in current_results},
            judge,
        ),
        tool="bench compare",
        title=(
            f"{current_label!r} vs baseline {baseline_label!r} "
            f"(threshold {threshold_rel:.0%})"
        ),
        unit="benchmarks",
        failure="significant slowdowns found",
        meta={
            "baseline": baseline_label,
            "current": current_label,
            "threshold_rel": threshold_rel,
        },
        fields_of=_fields,
        detail_of=_detail,
    )
