"""Layer tracing for the benchmark's traced run.

Only the traced run installs these wrappers.  Each one replaces a layer's
public function at the module attribute where its caller looks it up (for
example ``repro.features.hog.gradient_field``), or a public method on its
class, and restores the original on exit.  Wrapped calls open a span on the
same :class:`repro.telemetry.spans.Tracer` that the detectors' telemetry
stages (``dark.*``, ``pedestrian.*``) use, so every span of a frame lands in
one tree under that frame's ``frame`` span.

Spans stay in memory.  :func:`frame_ledger` folds them into per-layer self
times (a span's time minus its child spans), and :func:`write_spans` writes
them out when the run ends.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

# Span sites: (module, attribute, span name).  "Class.method" attributes
# are patched on the class.  The span name's first two components are the
# layer (``imaging.color``), the first alone is the module group.
SPAN_SITES = (
    ("repro.pipelines.day_dusk", "luminance", "imaging.color.luminance"),
    ("repro.pipelines.pedestrian", "luminance", "imaging.color.luminance"),
    ("repro.pipelines.dark", "split_channels", "imaging.color.split_channels"),
    ("repro.features.windows", "resize_bilinear", "imaging.resize.resize_bilinear"),
    ("repro.pipelines.dark", "downsample_binary", "imaging.resize.downsample_binary"),
    ("repro.pipelines.dark", "otsu_threshold", "imaging.threshold.otsu_threshold"),
    ("repro.pipelines.dark", "binary_threshold", "imaging.threshold.binary_threshold"),
    ("repro.pipelines.dark", "closing", "imaging.morphology.closing"),
    ("repro.imaging.morphology", "dilate", "imaging.morphology.dilate"),
    ("repro.pipelines.dark", "label_components", "imaging.components.label_components"),
    ("repro.pipelines.dark", "blob_statistics", "imaging.components.blob_statistics"),
    ("repro.pipelines.day_dusk", "non_max_suppression", "imaging.geometry.non_max_suppression"),
    ("repro.pipelines.pedestrian", "non_max_suppression", "imaging.geometry.non_max_suppression"),
    ("repro.features.hog", "gradient_field", "features.gradients.gradient_field"),
    ("repro.features.hog", "cell_histograms_from_field", "features.hog.cell_histograms_from_field"),
    ("repro.features.hog", "normalize_blocks", "features.hog.normalize_blocks"),
    (
        "repro.features.hog",
        "DenseHogLayout.window_feature_matrix",
        "features.windows.window_feature_matrix",
    ),
    ("repro.ml.linear", "LinearModel.decision_batch", "ml.linear.decision_batch"),
    ("repro.ml.dbn", "DeepBeliefNetwork.predict_batch", "ml.dbn.predict_batch"),
    ("repro.datasets.scene", "apply_sensor_model", "datasets.scene.apply_sensor_model"),
)

# Count-only sites: methods already spanned by a telemetry stage, wrapped
# here just to count their work.
COUNT_SITES = (
    ("repro.pipelines.dark", "DarkVehicleDetector.dbn_grid"),
    ("repro.pipelines.dark", "DarkVehicleDetector.extract_candidates"),
    ("repro.pipelines.taillight", "TaillightPairMatcher.match_pairs"),
)

# The detectors' existing telemetry stages, renamed into the layer scheme.
STAGE_PREFIXES = {
    "dark.": "pipelines.dark.",
    "day_dusk.": "pipelines.day_dusk.",
    "pedestrian.": "pipelines.pedestrian.",
}

#: The benchmark's spans around its calls into the detectors.  Their self
#: time is detector code that no named layer covers, so it counts as
#: unattributed, not as ``pipelines`` time.
ENTRY_SPANS = frozenset({
    "pipelines.day_dusk.detect_multiscale",
    "pipelines.dark.detect",
    "pipelines.pedestrian.detect",
})

#: Module groups a frame's self time is attributed to, in report order.
GROUPS = ("imaging", "features", "ml", "pipelines", "datasets", "core", "quality")

#: Window scores above this margin count as positives (the detectors'
#: default ``decision_threshold``).
DECISION_THRESHOLD = 0.0

_NULL = nullcontext()


def _count(counts: Counter, name: str, args: tuple, result) -> None:
    """Work counters for the calls that carry them."""
    if name == "imaging.geometry.non_max_suppression":
        counts["nms_candidates"] += len(args[0])
        counts["nms_kept"] += len(result)
    elif name == "features.gradients.gradient_field":
        counts["gradient_calls"] += 1
    elif name == "features.windows.window_feature_matrix":
        counts["windows_gathered"] += int(result.shape[0])
    elif name == "ml.linear.decision_batch":
        counts["linear_scored"] += int(result.shape[0])
        counts["linear_positive"] += int((result > DECISION_THRESHOLD).sum())
    elif name == "ml.dbn.predict_batch":
        counts["dbn_windows"] += int(result.shape[0])
    elif name == "DarkVehicleDetector.dbn_grid":
        counts["dbn_grid_windows"] += int(result.size)
    elif name == "DarkVehicleDetector.extract_candidates":
        counts["taillight_candidates"] += len(result)
    elif name == "TaillightPairMatcher.match_pairs":
        counts["taillight_pairs"] += len(result)


def _resolve(module_name: str, attr: str):
    """(owner, attribute name, current value) of a patch site."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class LayerTracer:
    """Context manager: wrappers in, spans recorded, originals restored.

    Spans and counts are recorded only while :attr:`frame` is set, so the
    set-up, scoring and output-check calls made between frames stay out of
    the trace.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.frame: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        if self.frame is None:
            return _NULL
        return self.tracer.span(name, frame=self.frame)

    def _wrap(self, original, name: str, spanned: bool):
        def wrapper(*args, **kwargs):
            if self.frame is None:
                return original(*args, **kwargs)
            if spanned:
                with self.tracer.span(name, frame=self.frame):
                    result = original(*args, **kwargs)
            else:
                result = original(*args, **kwargs)
            _count(self.counts, name, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def __enter__(self) -> "LayerTracer":
        sites = [(m, a, n, True) for m, a, n in SPAN_SITES]
        sites += [(m, a, a, False) for m, a in COUNT_SITES]
        try:
            for module_name, attr, name, spanned in sites:
                owner, key, original = _resolve(module_name, attr)
                self._restore.append((owner, key, original))
                setattr(owner, key, self._wrap(original, name, spanned))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def frame_span(self, index: int):
        """The root span of one frame; every span opened inside nests in it."""
        self.frame = index
        return self.tracer.span("frame", frame=index)

    def end_frame(self, first_span: int) -> None:
        """Tag the frame's telemetry-stage spans with its index too."""
        for span in self.tracer.spans[first_span:]:
            span.attrs.setdefault("frame", self.frame)
        self.frame = None


def layer_name(span_name: str) -> str:
    """Span name in the layer scheme (telemetry stages renamed)."""
    for prefix, renamed in STAGE_PREFIXES.items():
        if span_name.startswith(prefix):
            return renamed + span_name[len(prefix) :]
    return span_name


@dataclass
class Ledger:
    """Per-frame span totals of one traced phase, summed over its frames.

    ``self_ms`` maps layers (``imaging.color``) and groups (``imaging``) to
    summed self time; ``total_ms`` maps span names to summed span time;
    ``frame_ms`` is the summed frame-span time.  ``unattributed_ms`` is the
    time no layer span covers: the frame spans' own time (``loop_glue_ms``)
    plus the self time of the benchmark's entry spans (``detector_glue_ms``).

    Two counts check the tree.  ``orphans`` counts spans that do not nest
    under the frame span of their own frame index; ``violations`` counts
    spans whose children outlast them (negative self time).
    """

    frames: int = 0
    frame_ms: float = 0.0
    loop_glue_ms: float = 0.0
    detector_glue_ms: float = 0.0
    self_ms: dict = field(default_factory=lambda: defaultdict(float))
    total_ms: dict = field(default_factory=lambda: defaultdict(float))
    orphans: int = 0
    violations: int = 0

    @property
    def unattributed_ms(self) -> float:
        return self.loop_glue_ms + self.detector_glue_ms

    def per_frame(self, value: float) -> float:
        return value / self.frames if self.frames else 0.0


def _frame_of(span, by_id: dict):
    """The frame index of the frame span ``span`` nests under, or None."""
    while span.name != "frame":
        if span.parent_id is None or span.parent_id not in by_id:
            return None
        span = by_id[span.parent_id]
    return span.attrs.get("frame")


def frame_ledger(spans) -> Ledger:
    """Fold recorded spans into self times by layer and by module group."""
    by_id = {span.span_id: span for span in spans}
    child_ms: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_ms[span.parent_id] += span.wall_duration_s * 1e3
    ledger = Ledger()
    for span in spans:
        duration = span.wall_duration_s * 1e3
        own = duration - child_ms[span.span_id]
        if own < 0.0:
            ledger.violations += 1
        frame = _frame_of(span, by_id)
        if frame is None or frame != span.attrs.get("frame"):
            ledger.orphans += 1
        if span.name == "frame":
            ledger.frames += 1
            ledger.frame_ms += duration
            ledger.loop_glue_ms += own
            continue
        name = layer_name(span.name)
        ledger.total_ms[name] += duration
        if name in ENTRY_SPANS:
            ledger.detector_glue_ms += own
            continue
        parts = name.split(".")
        ledger.self_ms[".".join(parts[:2])] += own
        ledger.self_ms[parts[0]] += own
    return ledger


def write_spans(spans, path: Path) -> None:
    """Write the run's spans as JSON lines (one span per line)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_dict(), sort_keys=True, default=str) + "\n")
