"""Extension experiment — the paper's thesis, measured end to end.

The paper's argument for adaptivity is never printed as a single table, but
it is the point of the whole system: *no fixed pipeline covers all lighting
conditions, while the adaptive system tracks the best pipeline everywhere.*
This experiment drives the SoC model over a day → dusk → dark lux trace,
renders frames sampled along it, runs

* the adaptive system: each frame goes to the pipeline the drive's vehicle
  partition had loaded for it, or gets no detections when the partition
  skipped it (:meth:`DriveReport.vehicle_pipelines`),
* each fixed pipeline (day model, dusk model, combined model, dark pipeline)

over the same frames, and reports per-condition and overall object recall.
The cost of adaptivity is the drive's measured vehicle frames dropped per
partial reconfiguration; the rendered table prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adaptive.sensor import LuxTrace
from repro.core.system import AdaptiveDetectionSystem
from repro.datasets.lighting import LightingCondition, condition_for_lux, sample_lighting
from repro.datasets.scene import SceneConfig, render_scene
from repro.experiments.common import check_scale, corpora_and_models, detector_with, trained_dark_detector
from repro.experiments.tables import format_table, pct
from repro.imaging.geometry import Rect, match_detections
from repro.pipelines.base import Detection
from repro.pipelines.day_dusk import DayDuskConfig
from repro.rng import make_rng

# Drive frames between two rendered frames (3 s at the paper's 50 fps).
FRAME_STRIDE = 150
# Width of each log-linear lux step in the drive's trace.
LUX_STEP_S = 0.1


@dataclass
class PipelineScore:
    """Recall tallies per lighting condition for one pipeline."""

    name: str
    matched: dict[str, int]
    total: dict[str, int]
    spurious: int = 0

    def recall(self, condition: str | None = None) -> float:
        if condition is None:
            num = sum(self.matched.values())
            den = sum(self.total.values())
        else:
            num = self.matched.get(condition, 0)
            den = self.total.get(condition, 0)
        return num / den if den else 0.0


@dataclass
class AdaptiveGainResult:
    scores: list[PipelineScore]
    n_frames: int
    #: Vehicle frames the drive dropped per partial reconfiguration.
    drops_per_reconfiguration: float

    def _by_name(self, name: str) -> PipelineScore:
        return next(s for s in self.scores if s.name == name)

    def render(self) -> str:
        conditions = ("day", "dusk", "dark")
        rows = []
        for score in self.scores:
            rows.append(
                [score.name]
                + [pct(score.recall(c)) for c in conditions]
                + [pct(score.recall()), score.spurious]
            )
        return format_table(
            ["pipeline", "day recall", "dusk recall", "dark recall", "overall", "spurious"],
            rows,
            title=f"Adaptive vs fixed pipelines over a mixed drive ({self.n_frames} frames)",
        ) + (
            "\nadaptive cost: "
            f"{self.drops_per_reconfiguration:g} vehicle frames dropped per reconfiguration"
        )

    def shape_checks(self) -> dict[str, bool]:
        adaptive = self._by_name("adaptive")
        fixed = [s for s in self.scores if s.name != "adaptive"]
        best_fixed_overall = max(s.recall() for s in fixed)
        return {
            # The thesis: adaptivity beats every fixed choice overall.
            "adaptive_beats_every_fixed_pipeline": adaptive.recall() > best_fixed_overall,
            # And every fixed pipeline has a failure condition.
            "every_fixed_pipeline_fails_somewhere": all(
                min(s.recall(c) for c in ("day", "dusk", "dark")) < 0.5 for s in fixed
            ),
            # The adaptive system is not worst in any condition.
            "adaptive_never_worst": all(
                adaptive.recall(c) >= min(s.recall(c) for s in fixed) - 1e-9
                for c in ("day", "dusk", "dark")
            ),
        }


def run_adaptive_gain(
    n_frames_per_condition: int = 8,
    seed: int = 0,
    scale: float = 0.3,
) -> AdaptiveGainResult:
    """Drive a mixed-condition trace, render sampled frames, score all pipelines."""
    check_scale(scale)
    _, models = corpora_and_models(scale=scale, seed=seed)
    dark = trained_dark_detector()
    # Dense scanning wants a positive margin (crop classification uses 0).
    scan_config = DayDuskConfig(decision_threshold=1.0)

    rng = make_rng(seed + 101)

    # Three decisive blocks (deep inside each regime), one rendered frame
    # every FRAME_STRIDE drive frames, with each lux step halfway between
    # two rendered frames so the controller settles before the block's
    # frames arrive — the drive's *transition* cost is measured separately
    # (RL bench).
    block_lux = {
        LightingCondition.DAY: 20_000.0,
        LightingCondition.DUSK: 60.0,
        LightingCondition.DARK: 0.8,
    }
    conditions = (LightingCondition.DAY, LightingCondition.DUSK, LightingCondition.DARK)
    system = AdaptiveDetectionSystem()
    frame_s = 1.0 / system.config.fps
    block_s = n_frames_per_condition * FRAME_STRIDE * frame_s
    step_s = [k * block_s + FRAME_STRIDE * frame_s / 2 for k in range(len(conditions) + 1)]
    knots: list[tuple[float, float]] = []
    for k, condition in enumerate(conditions):
        lux = block_lux[condition]
        knots += [(step_s[k] if k else 0.0, lux), (step_s[k + 1] - LUX_STEP_S, lux)]
    trace = LuxTrace(points=tuple(knots))
    report = system.run_drive(trace)
    routes = report.vehicle_pipelines()

    frames = []
    for k, condition in enumerate(conditions):
        for j in range(1, n_frames_per_condition + 1):
            index = (k * n_frames_per_condition + j) * FRAME_STRIDE
            assert condition_for_lux(trace.lux_at(report.frames[index].time_s)) is condition
            lighting = sample_lighting(condition, rng)
            config = SceneConfig(
                height=180,
                width=330,
                n_vehicles=1,
                # Day/dusk vehicles sized for the pyramid's 0.64x level;
                # dark vehicles sized so their lamps fit the DBN window.
                vehicle_fill=(0.26, 0.31)
                if condition is not LightingCondition.DARK
                else (0.11, 0.17),
                seed=int(rng.integers(0, 2**31)),
            )
            frames.append((routes[index], condition, render_scene(config, lighting)))

    fixed_pipelines = {
        "fixed day model": detector_with(models["day"], scan_config),
        "fixed dusk model": detector_with(models["dusk"], scan_config),
        "fixed combined model": detector_with(models["combined"], scan_config),
        "fixed dark pipeline": dark,
    }
    names = ["adaptive"] + list(fixed_pipelines)
    scores = {
        name: PipelineScore(name=name, matched={}, total={}) for name in names
    }

    def tally(
        name: str,
        condition: LightingCondition,
        truths: list[Rect],
        detections: list[Detection],
    ) -> None:
        score = scores[name]
        key = condition.value
        matches, unmatched_t, unmatched_d = match_detections(
            truths, [d.rect for d in detections], iou_threshold=0.25
        )
        score.matched[key] = score.matched.get(key, 0) + len(matches)
        score.total[key] = score.total.get(key, 0) + len(truths)
        score.spurious += len(unmatched_d)

    adaptive = {
        "day": fixed_pipelines["fixed day model"].detect_multiscale,
        "dusk": fixed_pipelines["fixed dusk model"].detect_multiscale,
        "dark": dark.detect,
    }
    for route, condition, frame in frames:
        truths = frame.vehicle_boxes
        detections = adaptive[route](frame.rgb) if route is not None else []
        tally("adaptive", condition, truths, detections)
        for name, pipeline in fixed_pipelines.items():
            if name == "fixed dark pipeline":
                detections = pipeline.detect(frame.rgb)
            else:
                detections = pipeline.detect_multiscale(frame.rgb, max_levels=3)
            tally(name, condition, truths, detections)
    return AdaptiveGainResult(
        scores=list(scores.values()),
        n_frames=len(frames),
        drops_per_reconfiguration=report.drops_per_reconfiguration(),
    )
