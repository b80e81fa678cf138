"""Day / dusk vehicle detection: HOG features + linear SVM (paper Fig. 1/2).

The pipeline has the paper's three hardware stages — HOG descriptor,
normaliser, SVM classifier — with the trained model swapped per condition:
the *day* model, the *dusk* model, or the *combined* model trained on both
corpora (the Table-I ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.samples import ClassificationDataset
from repro.features.hog import HogConfig, HogDescriptor
from repro.imaging.color import luminance
from repro.imaging.geometry import non_max_suppression
from repro.imaging.image import ensure_rgb
from repro.imaging.resize import resize_bilinear
from repro.ml.linear import LinearModel, require_trained
from repro.ml.svm import LinearSvm, SvmConfig
from repro.pipelines.base import Detection, ScratchBuffers, detections_at, hog_svm_scan
from repro.telemetry.metrics import DETECTIONS_BUCKETS
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


@dataclass(frozen=True)
class DayDuskConfig:
    """Detector parameters.

    Attributes:
        hog: HOG layout (64x64 window by default — rear vehicle views are
            roughly square).
        svm_c: LibLINEAR C for model training.
        decision_threshold: SVM margin above which a window is a vehicle.
        nms_iou: Overlap threshold for non-maximum suppression.
        window_stride_blocks: Dense-scan stride in block units.
        batched: Score every window of a frame with one gathered feature
            matrix and one kernel call (the hot path).  False keeps the
            per-window reference scan of :func:`hog_svm_scan` the
            equivalence suite pins the batched path against — byte-identical
            output, just slow.
    """

    hog: HogConfig = HogConfig(window=(64, 64))
    svm_c: float = 1.0
    decision_threshold: float = 0.0
    nms_iou: float = 0.3
    window_stride_blocks: int = 2
    batched: bool = True


def hog_features_for_dataset(dataset: ClassificationDataset, hog: HogDescriptor) -> np.ndarray:
    """HOG feature matrix of every crop's luminance plane."""
    win_h, win_w = hog.config.window
    features = np.empty((len(dataset), hog.feature_length), dtype=np.float64)
    for i in range(len(dataset)):
        plane = luminance(dataset.images[i])
        if plane.shape != (win_h, win_w):
            plane = resize_bilinear(plane, win_h, win_w)
        features[i] = hog.extract(plane)
    return features


class HogSvmVehicleDetector:
    """The reconfigurable day/dusk vehicle-detection configuration."""

    def __init__(
        self,
        config: DayDuskConfig | None = None,
        model: LinearModel | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config or DayDuskConfig()
        self.hog = HogDescriptor(self.config.hog)
        self.model = model
        self.name = "vehicle-day-dusk"
        self.telemetry = telemetry or NULL_TELEMETRY
        self._scratch = ScratchBuffers()

    # Training (paper Fig. 1) ------------------------------------------------

    def train(self, dataset: ClassificationDataset, name: str | None = None) -> LinearModel:
        """Train an SVM model from a crop corpus and install it."""
        features = hog_features_for_dataset(dataset, self.hog)
        svm = LinearSvm(SvmConfig(c=self.config.svm_c))
        self.model = svm.train(features, dataset.labels, name=name or dataset.name)
        self.model.meta["train_corpus"] = dataset.name
        return self.model

    def with_model(self, model: LinearModel) -> "HogSvmVehicleDetector":
        """A detector sharing this configuration but a different model.

        Models the hardware reality that day and dusk reuse the same
        pipeline "but with different versions of the trained model which
        are stored in two block RAM".
        """
        return HogSvmVehicleDetector(self.config, model, telemetry=self.telemetry)

    # Inference ---------------------------------------------------------------

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        """Window-level classification against the installed model."""
        model = require_trained(self.model, self.name)
        rgb = ensure_rgb(crop, "crop")
        plane = luminance(rgb)
        win_h, win_w = self.config.hog.window
        if plane.shape != (win_h, win_w):
            plane = resize_bilinear(plane, win_h, win_w)
        score = float(model.decision_values(self.hog.extract(plane)))
        return score > self.config.decision_threshold, score

    def detect_multiscale(
        self,
        frame: np.ndarray,
        scale_step: float = 1.25,
        max_levels: int | None = 4,
    ) -> list[Detection]:
        """Pyramid detection: dense scan per level, NMS across levels.

        The fixed 64x64 window only matches one apparent vehicle size; the
        pyramid recovers nearer (larger) vehicles by shrinking the frame.
        Detections are reported in native frame coordinates.
        """
        from repro.features.windows import pyramid

        plane = luminance(ensure_rgb(frame, "frame"))
        # A pool per call: the first (largest) level sizes the feature
        # matrix and the smaller levels reuse it.  Holding it between frames
        # would keep ~10 MB per detector alive while the other condition's
        # detector (or another pipeline) runs, and raise peak memory.
        scratch = ScratchBuffers()
        level_boxes, level_scores = [np.empty((0, 4))], [np.empty(0)]
        for factor, level in pyramid(
            plane, self.config.hog.window, scale_step=scale_step, max_levels=max_levels
        ):
            boxes, scores = self._scan_plane(level, scratch)
            level_boxes.append(boxes * (1.0 / factor))
            level_scores.append(scores)
        boxes, scores = np.concatenate(level_boxes), np.concatenate(level_scores)
        keep = non_max_suppression(boxes, scores, iou_threshold=self.config.nms_iou)
        return detections_at(boxes, scores, keep, "vehicle")

    def _scan_plane(
        self, plane: np.ndarray, scratch: ScratchBuffers
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense scan of one luma plane; returns (boxes, scores), no NMS."""
        cfg = self.config
        return hog_svm_scan(
            self.hog,
            require_trained(self.model, self.name),
            plane,
            threshold=cfg.decision_threshold,
            stride=cfg.window_stride_blocks,
            scratch=scratch,
            batched=cfg.batched,
        )

    def detect(self, frame: np.ndarray) -> list[Detection]:
        """Dense single-scale sliding-window detection with NMS."""
        telemetry = self.telemetry
        rgb = ensure_rgb(frame, "frame")
        with telemetry.stage("day_dusk.hog_scan"):
            boxes, scores = self._scan_plane(luminance(rgb), self._scratch)
        with telemetry.stage("day_dusk.nms"):
            keep = non_max_suppression(boxes, scores, iou_threshold=self.config.nms_iou)
        if telemetry.enabled:
            telemetry.histogram(
                "detections_per_frame", bounds=DETECTIONS_BUCKETS, detector=self.name
            ).observe(float(len(keep)))
        return detections_at(boxes, scores, keep, "vehicle")


def train_condition_models(
    day_train: ClassificationDataset,
    dusk_train: ClassificationDataset,
    config: DayDuskConfig | None = None,
) -> dict[str, LinearModel]:
    """Train the paper's three models: day, dusk, combined (Fig. 1).

    Returns:
        {"day": ..., "dusk": ..., "combined": ...} LinearModels.
    """
    detector = HogSvmVehicleDetector(config)
    day_model = detector.train(day_train, name="day")
    dusk_model = detector.train(dusk_train, name="dusk")
    combined_corpus = day_train.merged_with(dusk_train, name="combined")
    combined_model = detector.train(combined_corpus, name="combined")
    return {"day": day_model, "dusk": dusk_model, "combined": combined_model}
