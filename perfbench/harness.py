"""Closed-loop harness: set-up, timed loop, output check, metrics.

One frame is in flight at a time.  An untraced phase gives the end-to-end
metrics.  With tracing on, the run splits its time between an untraced
phase and a traced phase, and the difference of their median frame times
is the tracing overhead.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import statistics
import sys
import time
import tracemalloc
import traceback
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from repro.telemetry.session import NULL_TELEMETRY, Telemetry
from repro.rng import derive_seed
from workloads import DRIVE_METRICS, FULL, WORKLOADS, Counts, Scale, score

#: The benchmark's definition: workloads, metrics and units.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: First-pass tasks the untimed memory pass runs.
MEMORY_FRAMES = 8

# Span totals reported per layer: metric -> span name (layer scheme).
SPAN_TOTALS = {
    "imaging.geometry.nms_ms": "imaging.geometry.non_max_suppression",
    "features.hog.cells_ms": "features.hog.cell_histograms_from_field",
    "features.hog.blocks_ms": "features.hog.normalize_blocks",
    "features.windows.gather_ms": "features.windows.window_feature_matrix",
    "ml.linear.score_ms": "ml.linear.decision_batch",
    "ml.dbn.predict_ms": "ml.dbn.predict_batch",
    "pipelines.dark.preprocess_ms": "pipelines.dark.preprocess",
    "pipelines.dark.dbn_grid_ms": "pipelines.dark.dbn_grid",
    "pipelines.dark.candidates_ms": "pipelines.dark.extract_candidates",
    "pipelines.dark.match_pairs_ms": "pipelines.dark.match_pairs",
    "pipelines.pedestrian.detect_ms": "pipelines.pedestrian.detect",
    "datasets.scene.render_ms": "datasets.scene.render_scene",
    "datasets.scene.sensor_model_ms": "datasets.scene.apply_sensor_model",
    "quality.match_ms": "quality.match_detections",
}

SELF_LAYERS = (
    "imaging.color",
    "imaging.resize",
    "imaging.threshold",
    "imaging.morphology",
    "imaging.components",
    "features.gradients",
)

# Per-frame work counters: metric -> (numerator, denominator or None = frames).
COUNT_RATIOS = {
    "imaging.geometry.nms_kept_ratio": ("nms_kept", "nms_candidates"),
    "features.gradients.calls_per_frame": ("gradient_calls", None),
    "features.windows.windows_per_frame": ("windows_gathered", None),
    "ml.linear.positive_ratio": ("linear_positive", "linear_scored"),
    "ml.dbn.windows_per_frame": ("dbn_windows", None),
    "ml.dbn.occupied_ratio": ("dbn_windows", "dbn_grid_windows"),
    "pipelines.taillight.candidates_per_frame": ("taillight_candidates", None),
    "pipelines.taillight.pairs_per_frame": ("taillight_pairs", None),
}


def detection_bytes(detections) -> bytes:
    """Canonical bytes of a detection list: exact float reprs, in order."""
    lines = [
        f"{d.kind}|{d.rect.x!r}|{d.rect.y!r}|{d.rect.w!r}|{d.rect.h!r}|{d.score!r}|"
        f"{sorted(d.extra.items())!r}"
        for d in detections
    ]
    return "\n".join(lines).encode()


def malformed(detection, height: int, width: int) -> str | None:
    """Why a detection is malformed, or None when it is finite and in frame."""
    r = detection.rect
    values = (r.x, r.y, r.w, r.h, detection.score)
    if not all(math.isfinite(float(v)) for v in values):
        return f"non-finite detection {values}"
    if r.w <= 0 or r.h <= 0:
        return f"empty box {values}"
    if r.x < 0 or r.y < 0 or r.x + r.w > width or r.y + r.h > height:
        return f"box {values[:4]} outside the {width}x{height} frame"
    return None


@dataclass
class Phase:
    """One timed loop: per-step times and failures.

    ``wall_s`` is the loop's wall time without the benchmark's own per-frame
    bookkeeping (digests, first-pass scoring, the finite-and-in-frame check).
    """

    samples_ms: list = field(default_factory=list)
    tasks: set = field(default_factory=set)
    wall_s: float = 0.0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.samples_ms)


@dataclass
class FirstPass:
    """Outputs of the first pass: quality, digests, output-check samples."""

    seed: int
    counts: Counts = field(default_factory=Counts)
    detection_crc: int = 0
    input_crc: int = 0
    frames: int = 0
    samples: dict = field(default_factory=dict)  # pipeline -> (key, task, result)

    def record(self, task, result) -> None:
        counts = result.counts or score(result.scene, result.outputs)
        self.counts.add(counts)
        for name in sorted(result.outputs):
            self.detection_crc = zlib.crc32(
                name.encode() + detection_bytes(result.outputs[name]), self.detection_crc
            )
            key = derive_seed(self.seed, f"check:{name}:{task}")
            if name not in self.samples or key < self.samples[name][0]:
                self.samples[name] = (key, task, result)
        self.input_crc = zlib.crc32(np.ascontiguousarray(result.scene.rgb), self.input_crc)
        self.frames += 1


class Failures:
    """Prints the first traceback and message of each kind, counts the rest."""

    def __init__(self):
        self.seen: set = set()

    def report(self, kind: str, message: str) -> None:
        if kind not in self.seen:
            self.seen.add(kind)
            print(f"perfbench: FAILURE {kind}: {message}", file=sys.stderr)


def resting_rss_mb() -> float:
    """Resident memory (VmRSS) once freed heap pages go back to the kernel."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # not glibc: nothing to trim
        pass
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def memory_pass(wl) -> tuple[float, int]:
    """(peak MB the steps allocate above what was live before, steps run).

    An untimed pass over :data:`MEMORY_FRAMES` first-pass tasks spread over
    the pass.  tracemalloc counts Python objects and numpy buffers whatever
    the C allocator keeps resident, so the peak repeats for a seed; the
    resident high-water mark moves with the allocator's heap layout.
    tracemalloc slows allocation, so the timed loop never runs under it.
    """
    tasks = wl.first_pass()
    tasks = tasks[:: max(1, len(tasks) // MEMORY_FRAMES)][:MEMORY_FRAMES]
    tracemalloc.start()
    try:
        wl.begin_phase()
        for task in tasks:
            try:
                wl.step(task)
            except Exception:  # the timed loop counts and reports it
                pass
        return tracemalloc.get_traced_memory()[1] / 2**20, len(tasks)
    finally:
        tracemalloc.stop()


def timed_loop(wl, seconds: float, min_frames: int, first: FirstPass | None,
               failures: Failures, spans: tracing.LayerTracer | None = None) -> Phase:
    """Closed loop over the workload's task order for ``seconds``.

    The loop also runs until the first pass is complete and ``min_frames``
    steps are timed, so quality and the p90 always have their samples.
    """
    phase = Phase()
    first_pass = wl.first_pass()
    n_first = len(first_pass)
    # One untimed warm-up step lets allocations and lazy set-up settle.
    # Its telemetry-stage spans belong to no frame and are dropped.
    wl.begin_phase()
    warm_spans = len(spans.tracer.spans) if spans else 0
    try:
        wl.step(first_pass[0])
    except Exception:  # the timed loop below counts and reports it
        pass
    if spans is not None:
        del spans.tracer.spans[warm_spans:]
    bookkeeping_s = 0.0
    start = time.perf_counter()
    wl.begin_phase()
    for i, task in enumerate(wl.order()):
        if (
            i >= n_first
            and i >= min_frames
            and time.perf_counter() - start >= seconds
        ):
            break
        first_span = len(spans.tracer.spans) if spans else 0
        error = None
        t0 = time.perf_counter()
        try:
            if spans is None:
                result = wl.step(task)
            else:
                with spans.frame_span(i):
                    result = wl.step(task)
        except Exception as exc:  # the loop boundary: count it, keep running
            error = exc
        t1 = time.perf_counter()
        phase.samples_ms.append((t1 - t0) * 1e3 + wl.extra_ms_per_frame)
        phase.tasks.add(task)
        if spans is not None:
            spans.end_frame(first_span)
        if error is not None:
            phase.failed += 1
            phase.errors[wl.pipeline or "loop"] += 1
            failures.report(
                type(error).__name__,
                "".join(traceback.format_exception(error)).rstrip(),
            )
        else:
            height, width = result.scene.rgb.shape[:2]
            problems = [
                p for dets in result.outputs.values() for d in dets
                if (p := malformed(d, height, width))
            ]
            if problems:
                phase.failed += 1
                failures.report("malformed", problems[0])
            if first is not None and i < n_first:
                first.record(task, result)
        bookkeeping_s += time.perf_counter() - t1
    phase.wall_s = time.perf_counter() - start - bookkeeping_s
    return phase


def output_check(wl, first: FirstPass, failures: Failures) -> dict:
    """One sampled frame per pipeline through its per-window reference path."""
    verdicts = {}
    for name, (_, task, result) in sorted(first.samples.items()):
        reference = wl.reference(name, result)
        same = detection_bytes(reference) == detection_bytes(result.outputs[name])
        verdicts[name] = (task, same)
        if not same:
            failures.report(f"reference:{name}", f"task {task}: batched != reference")
    return verdicts


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl, ledger: tracing.Ledger, counts: Counter, phase_errors: int,
                  setup_medians: dict, quality: dict, overhead_ms: float) -> dict:
    """Every per-layer metric of one traced phase (0 where a layer is idle)."""
    pf = ledger.per_frame
    metrics = {}
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_ms"] = pf(ledger.self_ms[layer])
    for metric, span_name in SPAN_TOTALS.items():
        metrics[metric] = pf(ledger.total_ms[span_name])
    for metric, (num, den) in COUNT_RATIOS.items():
        metrics[metric] = ratio(counts[num], counts[den] if den else ledger.frames)
    core_ms = wl.extra_ms_per_frame
    for group in tracing.GROUPS:
        metrics[f"{group}.self_ms"] = pf(ledger.self_ms[group])
    metrics["core.self_ms"] += core_ms
    metrics["pipelines.errors"] = float(phase_errors)
    metrics["pipelines.unattributed_ms"] = pf(ledger.unattributed_ms)
    metrics["telemetry.traced_frame_ms"] = pf(ledger.frame_ms) + core_ms
    metrics["telemetry.trace_overhead_ms"] = overhead_ms
    metrics.update(dict.fromkeys(DRIVE_METRICS, 0.0))
    metrics.update(wl.layer_extras())
    metrics.update(setup_medians)
    metrics.update(quality)
    return metrics


def as_metrics(values: dict, units: dict) -> dict:
    """The result's ``metrics`` object; the computed names must be the listed ones."""
    if set(values) != set(units):
        raise RuntimeError(
            f"computed metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, unlisted {sorted(set(values) - set(units))}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Scale = FULL, trace_dir: Path | None = None) -> dict:
    """One benchmark run; prints a report and returns the result object."""
    wl = WORKLOADS[workload](scale)
    failures = Failures()

    setups, components = [], []
    for _ in range(scale.setup_repeats):
        start = time.perf_counter()
        components.append(wl.setup())
        setups.append(time.perf_counter() - start)
    setup_medians = {
        key: statistics.median(c.get(key, 0.0) for c in components)
        for key in ("setup.train_svm_s", "setup.train_dark_s", "setup.train_pedestrian_s")
    }
    before_inputs_mb = resting_rss_mb()
    wl.make_inputs(seed)
    inputs_mb = resting_rss_mb() - before_inputs_mb

    first = FirstPass(seed=seed)
    # A traced run only needs the untraced phase's median, for the overhead.
    untraced_s, min_frames = (seconds / 2.0, 0) if trace else (seconds, scale.min_frames)
    wl.bind(NULL_TELEMETRY)
    peak_alloc_mb, memory_frames = memory_pass(wl)
    phase = timed_loop(wl, untraced_s, min_frames, first, failures)
    verdicts = output_check(wl, first, failures)
    check_failed = sum(1 for _, same in verdicts.values() if not same)
    phases = [phase]

    traced = None
    if trace:
        telemetry = Telemetry.recording()
        with tracing.LayerTracer(telemetry.tracer) as spans:
            wl.bind(telemetry)
            wl.spans = spans
            traced = timed_loop(wl, seconds / 2.0, 0, None, failures, spans)
            wl.spans = None
        phases.append(traced)

    attempted = sum(p.attempted for p in phases)
    failed = min(attempted, sum(p.failed for p in phases) + check_failed)
    c = first.counts
    quality = {
        "quality.recall": ratio(c.vehicle_matched, c.vehicle_truths),
        "quality.precision": ratio(c.vehicle_matched, c.vehicle_detections),
        "quality.pedestrian_recall": ratio(c.pedestrian_matched, c.pedestrian_truths),
    }
    samples = phase.samples_ms
    p50 = statistics.median(samples)
    p90 = float(np.percentile(samples, 90))
    end_to_end = {
        "setup_s": statistics.median(setups),
        "frame_ms_p50": p50,
        "frame_ms_p90": p90,
        "frames_per_s": phase.attempted / phase.wall_s,
        "frames_ok_ratio": 1.0 - failed / attempted,
        "peak_alloc_mb": peak_alloc_mb,
    }

    print(f"workload {workload}  seed {seed}  closed loop, 1 frame in flight, "
          f"numpy pinned to 1 thread")
    print(f"  why: {WHY[workload]}")
    print(f"  set-up: {len(setups)} builds, {[round(s, 3) for s in setups]} s")
    print(f"  samples: {phase.attempted} timed frames in {phase.wall_s:.2f} s, "
          f"{sum(1 for s in samples if s > p90)} beyond p90; "
          f"{len(phase.tasks)} distinct input frames, {first.frames} in the first pass")
    print(f"  memory: {before_inputs_mb:.1f} MB resident after set-up; inputs hold "
          f"{inputs_mb:.1f} MB; steps allocate at most {peak_alloc_mb:.1f} MB "
          f"(untimed pass over {memory_frames} frames)")
    print(f"  digests: inputs crc32 {first.input_crc:08x}  detections crc32 {first.detection_crc:08x}")
    for line in wl.summary_lines():
        print(f"  {line}")
    print(f"  quality: vehicles {c.vehicle_matched}/{c.vehicle_truths} truths matched, "
          f"{c.vehicle_detections} detections; pedestrians {c.pedestrian_matched}/"
          f"{c.pedestrian_truths}, {c.pedestrian_detections} detections")
    for name, (task, same) in verdicts.items():
        print(f"  output check: {name} task {task} batched vs reference "
              f"{'byte-identical' if same else 'DIFFERENT'}")
    print(f"  failures: {failed} of {attempted} frames "
          f"(frames_failed_ratio {failed / attempted:.4f}); errors by pipeline "
          f"{dict(sum((p.errors for p in phases), Counter()))}")
    for name, value in end_to_end.items():
        print(f"  {name:<28} {value:12.4f} {END_TO_END[name]}")
    for name, value in {**quality, **wl.layer_extras()}.items():
        print(f"  {name:<28} {value:12.4f} {PER_LAYER[name]}")

    correct = failed == 0
    if traced is None:
        metrics = as_metrics(end_to_end, END_TO_END)
    else:
        ledger = tracing.frame_ledger(telemetry.tracer.spans)
        overhead = statistics.median(traced.samples_ms) - p50
        layer = layer_metrics(
            wl, ledger, spans.counts, sum(traced.errors.values()),
            setup_medians, quality, overhead,
        )
        # Every span nests under its frame's span, so the group self times
        # and the frames' unattributed remainder add up to the frame time.
        nested = ledger.orphans == 0 and ledger.violations == 0
        correct = correct and nested
        groups = sum(layer[f"{g}.self_ms"] for g in tracing.GROUPS)
        print(f"  trace: {ledger.frames} traced frames, {len(telemetry.tracer.spans)} spans; "
              f"{ledger.orphans} outside their frame's span, "
              f"{ledger.violations} with negative self time "
              f"({'all nested' if nested else 'NOT NESTED'})")
        print(f"  trace: per-frame self time by group (ms): "
              + ", ".join(f"{g} {layer[f'{g}.self_ms']:.3f}" for g in tracing.GROUPS)
              + f", unattributed {layer['pipelines.unattributed_ms']:.3f}")
        print(f"  trace: groups + unattributed = {groups + layer['pipelines.unattributed_ms']:.4f} ms"
              f" = traced frame {layer['telemetry.traced_frame_ms']:.4f} ms")
        print(f"  trace: unattributed per frame = loop glue "
              f"{ledger.per_frame(ledger.loop_glue_ms):.4f} ms + detector code outside "
              f"any named layer {ledger.per_frame(ledger.detector_glue_ms):.4f} ms")
        print(f"  trace: overhead {overhead:.4f} ms = traced p50 "
              f"{statistics.median(traced.samples_ms):.4f} - untraced p50 {p50:.4f}")
        for name, value in layer.items():
            print(f"  {name:<42} {value:12.4f} {PER_LAYER[name]}")
        if trace_dir is not None:
            path = trace_dir / f"trace-{workload}-{seed}.jsonl"
            tracing.write_spans(telemetry.tracer.spans, path)
            print(f"  trace: spans written to {path}")
        metrics = as_metrics(layer, PER_LAYER)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
