"""The benchmark's workloads: a trained stack, seeded inputs, one loop step.

Each workload is driven by ``harness.run`` in a closed loop with one frame
in flight.  A workload

* builds its trained stack in :meth:`setup` (timed as ``setup_s``);
* generates its inputs from the run seed in :meth:`make_inputs` (untimed);
* hands the harness a first pass of tasks (:meth:`first_pass`), the set
  quality, digests and the output check are computed on, and an endless
  task order (:meth:`order`) that starts with that pass;
* runs one loop step per task in :meth:`step`.

The loop only calls the detection stack through ``detect_multiscale``,
``DarkVehicleDetector.detect``, ``PedestrianDetector.detect``,
``render_scene``, ``run_drive_spec`` and ``match_detections``.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.core.spec import DriveSpec, frames_digest
from repro.core.system import run_drive_spec
from repro.datasets.lighting import DAY_LIGHTING, DUSK_LIGHTING, lighting_for_lux
from repro.datasets.scene import SceneConfig, SceneFrame, render_scene
from repro.datasets.synthetic import (
    make_iroads_like,
    make_pedestrian_frames,
    make_sysu_like,
    make_taillight_windows,
    make_upm_like,
)
from repro.imaging.geometry import match_detections
from repro.ml.dbn import DbnConfig
from repro.pipelines import (
    DarkVehicleDetector,
    DayDuskConfig,
    HogSvmVehicleDetector,
    PedestrianDetector,
)
from repro.quality.observer import MATCH_IOU_THRESHOLD
from repro.rng import derive_seed
from repro.telemetry.session import NULL_TELEMETRY

_NULL = nullcontext()


@dataclass(frozen=True)
class Scale:
    """Workload sizes.  :data:`FULL` is the benchmark, :data:`TINY` the self-test."""

    frame: tuple[int, int] = (360, 640)
    dark_frame: tuple[int, int] = (1080, 1920)
    day_dusk_frames: int = 64
    dark_frames: int = 8
    drive_stride: int = 5
    train_crops: int = 120
    taillight_windows: int | None = None
    dbn_finetune_epochs: int | None = None
    pedestrian_frames: int = 10
    min_frames: int = 100
    setup_repeats: int = 3


FULL = Scale()
TINY = Scale(
    frame=(128, 224),
    dark_frame=(180, 320),
    day_dusk_frames=4,
    dark_frames=2,
    drive_stride=25,
    train_crops=16,
    taillight_windows=40,
    dbn_finetune_epochs=20,
    pedestrian_frames=3,
    min_frames=10,
    setup_repeats=1,
)


@dataclass
class Counts:
    """Ground-truth matching counts of one frame."""

    vehicle_truths: int = 0
    vehicle_matched: int = 0
    vehicle_detections: int = 0
    pedestrian_truths: int = 0
    pedestrian_matched: int = 0
    pedestrian_detections: int = 0

    def add(self, other: "Counts") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class StepResult:
    """What one loop step produced.

    ``outputs`` maps each pipeline that ran (``day_dusk``, ``dark``,
    ``pedestrian``) to its detections; ``model`` names the SVM model the
    day/dusk pipeline used.
    """

    scene: SceneFrame
    outputs: dict = field(default_factory=dict)
    model: str | None = None
    counts: Counts | None = None


def score(scene: SceneFrame, outputs: dict) -> Counts:
    """Match detections to the scene's ground truth at the quality plane's IoU."""
    counts = Counts()
    vehicles = [d.rect for name in ("day_dusk", "dark") for d in outputs.get(name, [])]
    matches, _, _ = match_detections(scene.vehicle_boxes, vehicles, MATCH_IOU_THRESHOLD)
    counts.vehicle_truths = len(scene.vehicle_boxes)
    counts.vehicle_matched = len(matches)
    counts.vehicle_detections = len(vehicles)
    if "pedestrian" in outputs:
        pedestrians = [d.rect for d in outputs["pedestrian"]]
        matches, _, _ = match_detections(
            scene.pedestrian_boxes, pedestrians, MATCH_IOU_THRESHOLD
        )
        counts.pedestrian_truths = len(scene.pedestrian_boxes)
        counts.pedestrian_matched = len(matches)
        counts.pedestrian_detections = len(pedestrians)
    return counts


class Stack:
    """The trained models plus detector shells bound to one telemetry session."""

    def __init__(self, svm=None, dark=None, pedestrian=None):
        self.svm = svm or {}
        self.dark = dark
        self.pedestrian = pedestrian

    def hog(self, model: str, telemetry=NULL_TELEMETRY, batched: bool = True):
        config = DayDuskConfig(batched=batched)
        return HogSvmVehicleDetector(config, self.svm[model], telemetry=telemetry)

    def dark_detector(self, telemetry=NULL_TELEMETRY, batched: bool = True):
        config = replace(self.dark.config, batched=batched)
        return DarkVehicleDetector(
            config, dbn=self.dark.dbn, matcher=self.dark.matcher, telemetry=telemetry
        )

    def pedestrian_detector(self, telemetry=NULL_TELEMETRY, batched: bool = True):
        config = replace(self.pedestrian.config, batched=batched)
        return PedestrianDetector(config, self.pedestrian.model, telemetry=telemetry)


def _timed(times: dict, key: str, fn):
    start = time.perf_counter()
    result = fn()
    times[key] = time.perf_counter() - start
    return result


def train_svms(scale: Scale, times: dict) -> dict:
    """Day and dusk SVMs from quarter-scale UPM-like / SYSU-like corpora."""

    def train():
        n = scale.train_crops
        day = make_upm_like(n_positive=n, n_negative=n, seed=1)
        dusk = make_sysu_like(
            n_positive=n, n_negative=n, n_very_dark_positive=0, seed=2,
            lighting_t_range=(0.1, 0.8),
        )
        trainer = HogSvmVehicleDetector()
        return {"day": trainer.train(day, name="day"), "dusk": trainer.train(dusk, name="dusk")}

    return _timed(times, "setup.train_svm_s", train)


def train_dark(scale: Scale, times: dict) -> DarkVehicleDetector:
    """The DBN and pair SVM with the detector's own training recipe."""

    def train():
        detector = DarkVehicleDetector()
        if scale.taillight_windows is None:
            detector.train(seed=11)
        else:
            windows, labels = make_taillight_windows(n_per_class=scale.taillight_windows)
            detector.train(
                windows, labels, DbnConfig(finetune_epochs=scale.dbn_finetune_epochs), seed=11
            )
        return detector

    return _timed(times, "setup.train_dark_s", train)


def train_pedestrian(scale: Scale, times: dict) -> PedestrianDetector:
    """The static partition's HOG+SVM pedestrian detector on day frames."""

    def train():
        detector = PedestrianDetector()
        detector.train_from_frames(make_pedestrian_frames(n_frames=scale.pedestrian_frames))
        return detector

    return _timed(times, "setup.train_pedestrian_s", train)


class Workload:
    """Common shape; subclasses fill in set-up, inputs and the step."""

    name = ""

    def __init__(self, scale: Scale):
        self.scale = scale
        self.stack = Stack()
        self.pipeline: str | None = None  # pipeline the current step is inside
        self.spans = None  # LayerTracer in the traced phase, else None

    def span(self, name: str):
        return _NULL if self.spans is None else self.spans.span(name)

    def setup(self) -> dict:
        raise NotImplementedError

    def make_inputs(self, seed: int) -> None:
        raise NotImplementedError

    def bind(self, telemetry=NULL_TELEMETRY) -> None:
        """Detector shells for one phase (telemetry on in the traced phase)."""
        raise NotImplementedError

    def begin_phase(self) -> None:
        """Per-phase work inside the timed loop, before the first step."""

    #: Milliseconds of per-phase work charged to every step of the phase.
    extra_ms_per_frame = 0.0

    def first_pass(self) -> list:
        raise NotImplementedError

    def order(self):
        return itertools.cycle(self.first_pass())

    def step(self, task) -> StepResult:
        raise NotImplementedError

    def reference(self, pipeline: str, result: StepResult) -> list:
        """The pipeline's per-window reference path on the same frame."""
        rgb = result.scene.rgb
        if pipeline == "day_dusk":
            return self.stack.hog(result.model, batched=False).detect_multiscale(rgb)
        if pipeline == "dark":
            return self.stack.dark_detector(batched=False).detect(rgb)
        return self.stack.pedestrian_detector(batched=False).detect(rgb)

    def layer_extras(self) -> dict:
        """Per-layer metrics the workload measures itself: name -> value."""
        return {}

    def summary_lines(self) -> list[str]:
        return []


class DayDusk360p(Workload):
    name = "day_dusk_360p"

    def setup(self) -> dict:
        times: dict = {}
        self.stack = Stack(svm=train_svms(self.scale, times))
        return times

    def make_inputs(self, seed: int) -> None:
        height, width = self.scale.frame
        self.frames = []
        for i in range(self.scale.day_dusk_frames):
            lighting = DAY_LIGHTING if i % 2 == 0 else DUSK_LIGHTING
            config = SceneConfig(
                height=height, width=width, n_vehicles=2, n_oncoming=1,
                seed=derive_seed(seed, f"day_dusk:{i}"),
            )
            self.frames.append(render_scene(config, lighting))

    def bind(self, telemetry=NULL_TELEMETRY) -> None:
        self.detectors = {m: self.stack.hog(m, telemetry) for m in ("day", "dusk")}

    def first_pass(self) -> list:
        return list(range(len(self.frames)))

    def step(self, task) -> StepResult:
        scene = self.frames[task]
        model = scene.condition.value
        self.pipeline = "day_dusk"
        with self.span("pipelines.day_dusk.detect_multiscale"):
            detections = self.detectors[model].detect_multiscale(scene.rgb)
        return StepResult(scene, {"day_dusk": detections}, model=model)


class Dark1080p(Workload):
    name = "dark_1080p"

    def setup(self) -> dict:
        times: dict = {}
        self.stack = Stack(dark=train_dark(self.scale, times))
        return times

    def make_inputs(self, seed: int) -> None:
        height, width = self.scale.dark_frame
        corpus = make_iroads_like(
            n_frames=self.scale.dark_frames, height=height, width=width,
            seed=derive_seed(seed, "dark"),
        )
        self.frames = corpus.frames

    def bind(self, telemetry=NULL_TELEMETRY) -> None:
        self.detector = self.stack.dark_detector(telemetry)

    def first_pass(self) -> list:
        return list(range(len(self.frames)))

    def step(self, task) -> StepResult:
        scene = self.frames[task]
        self.pipeline = "dark"
        with self.span("pipelines.dark.detect"):
            detections = self.detector.detect(scene.rgb)
        return StepResult(scene, {"dark": detections})


#: Per-layer metrics only the drive measures (0 on the other workloads).
DRIVE_METRICS = (
    "core.drive_ms_per_frame",
    "core.vehicle_frames_skipped",
    "core.reconfigurations",
    "core.frames_degraded",
    "core.drops_per_reconfiguration",
    "core.reconfig_ms",
)


class AdaptiveDrive360p(Workload):
    name = "adaptive_drive_360p"

    DRIVE_S = 5.0
    FAULT_SCENARIO = "pr_timeout"

    def setup(self) -> dict:
        times: dict = {}
        self.stack = Stack(
            svm=train_svms(self.scale, times),
            dark=train_dark(self.scale, times),
            pedestrian=train_pedestrian(self.scale, times),
        )
        return times

    def make_inputs(self, seed: int) -> None:
        self.seed = seed
        self.spec = DriveSpec(
            name="perfbench", trace="sunset", duration_s=self.DRIVE_S,
            seed=derive_seed(seed, "drive"), fault_scenario=self.FAULT_SCENARIO,
        )
        self.trace = self.spec.build_trace()
        self.report = None

    def bind(self, telemetry=NULL_TELEMETRY) -> None:
        self.hog = {m: self.stack.hog(m, telemetry) for m in ("day", "dusk")}
        self.dark = self.stack.dark_detector(telemetry)
        self.pedestrian = self.stack.pedestrian_detector(telemetry)

    def begin_phase(self) -> None:
        """Run the SoC model over the whole drive; charge it per frame."""
        start = time.perf_counter()
        report = run_drive_spec(self.spec)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.records = report.frames
        self.extra_ms_per_frame = elapsed_ms / len(self.records)
        if self.report is None:
            self.report = report
        self._models = self._loaded_models(report)

    @staticmethod
    def _loaded_models(report) -> list[str]:
        """The SVM model loaded when each frame was accepted.

        The drive loop swaps models after submitting the frame of the tick
        in which the sensor sample lands, so frame ``i`` sees every swap
        sampled at or before frame ``i - 1``'s time.
        """
        swaps = list(report.model_swaps)
        model, models = "day", []
        previous_t = float("-inf")
        for record in report.frames:
            while swaps and swaps[0][0] <= previous_t:
                model = swaps.pop(0)[1]
            models.append(model)
            previous_t = record.time_s
        return models

    def first_pass(self) -> list:
        return list(range(0, self._n_frames(), self.scale.drive_stride))

    def order(self):
        """Stride passes at offsets 0, 1, ... so each pass spans the drive."""
        for offset in itertools.cycle(range(self.scale.drive_stride)):
            yield from range(offset, self._n_frames(), self.scale.drive_stride)

    def _n_frames(self) -> int:
        return int(self.spec.duration_s * self.spec.fps)

    def step(self, task) -> StepResult:
        record = self.records[task]
        height, width = self.scale.frame
        config = SceneConfig(
            height=height, width=width, n_vehicles=2, n_pedestrians=2, n_oncoming=1,
            seed=derive_seed(self.seed, f"drive:{task}"),
        )
        lighting = lighting_for_lux(self.trace.lux_at(record.time_s))
        self.pipeline = None
        with self.span("datasets.scene.render_scene"):
            scene = render_scene(config, lighting)
        result = StepResult(scene)
        if record.vehicle_accepted and record.vehicle_configuration == "dark":
            self.pipeline = "dark"
            with self.span("pipelines.dark.detect"):
                result.outputs["dark"] = self.dark.detect(scene.rgb)
        elif record.vehicle_accepted and record.vehicle_configuration == "day_dusk":
            self.pipeline = "day_dusk"
            result.model = self._models[task]
            with self.span("pipelines.day_dusk.detect_multiscale"):
                result.outputs["day_dusk"] = self.hog[result.model].detect_multiscale(scene.rgb)
        if record.pedestrian_accepted:
            self.pipeline = "pedestrian"
            with self.span("pipelines.pedestrian.detect"):
                result.outputs["pedestrian"] = self.pedestrian.detect(scene.rgb)
        self.pipeline = None
        with self.span("quality.match_detections"):
            result.counts = score(scene, result.outputs)
        return result

    def layer_extras(self) -> dict:
        report = self.report
        ok = [r.duration_s * 1e3 for r in report.reconfigurations if r.ok]
        values = (
            self.extra_ms_per_frame,
            float(report.vehicle_dropped),
            float(len(report.reconfigurations)),
            float(report.frames_degraded),
            report.drops_per_reconfiguration(),
            statistics.median(ok) if ok else 0.0,
        )
        return dict(zip(DRIVE_METRICS, values, strict=True))

    def summary_lines(self) -> list[str]:
        report = self.report
        return [
            f"drive: {report.n_frames} frames at {self.spec.fps:g} fps, sunset "
            f"{self.spec.duration_s:g} s, fault scenario {self.FAULT_SCENARIO}, "
            f"pixel pass every {self.scale.drive_stride}th frame",
            f"drive: reconfigurations {[round(r.duration_s * 1e3, 2) for r in report.reconfigurations]} ms "
            f"(ok {[r.ok for r in report.reconfigurations]}), vehicle frames skipped "
            f"{report.vehicle_dropped}, degraded {report.frames_degraded}",
            f"drive: SoC frame cores sha256 {frames_digest(report.frames)[:16]}",
        ]


WORKLOADS = {w.name: w for w in (DayDusk360p, Dark1080p, AdaptiveDrive360p)}
