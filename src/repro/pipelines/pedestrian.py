"""Static-partition pedestrian detection (HOG + linear SVM).

The main functional block of the paper's *static* partition: "Similar to the
method that is used for detection of vehicles in day ... it extracts HOG
features of input image and use linear SVM classifier to detect pedestrians
on the road", after the real-time pipeline of Hemmati et al. (DAC'17).

It exists in the system "to showcase the seamless operation of other
detection modules during the partial reconfiguration": the system-level
tests assert it keeps detecting while the vehicle partition reconfigures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.samples import DetectionDataset, extract_window_samples
from repro.errors import PipelineError
from repro.features.hog import HogConfig, HogDescriptor
from repro.imaging.color import luminance
from repro.imaging.geometry import non_max_suppression
from repro.imaging.image import ensure_rgb
from repro.imaging.resize import resize_bilinear
from repro.ml.linear import LinearModel, require_trained
from repro.ml.svm import LinearSvm, SvmConfig
from repro.pipelines.base import Detection, ScratchBuffers, detections_at, hog_svm_scan
from repro.rng import make_rng
from repro.telemetry.metrics import DETECTIONS_BUCKETS
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


@dataclass(frozen=True)
class PedestrianConfig:
    """Detector parameters; the 64x32 window matches upright pedestrians.

    ``batched`` selects the gathered-matrix hot path; False keeps the
    per-window reference scan (byte-identical output, for the equivalence
    suite and debugging).
    """

    hog: HogConfig = HogConfig(window=(64, 32))
    svm_c: float = 1.0
    decision_threshold: float = 0.0
    nms_iou: float = 0.3
    window_stride_blocks: int = 2
    negatives_per_frame: int = 6
    batched: bool = True


class PedestrianDetector:
    """HOG+SVM pedestrian detector living in the static partition."""

    def __init__(
        self,
        config: PedestrianConfig | None = None,
        model: LinearModel | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config or PedestrianConfig()
        self.hog = HogDescriptor(self.config.hog)
        self.model = model
        self.name = "pedestrian"
        self.telemetry = telemetry or NULL_TELEMETRY
        self._scratch = ScratchBuffers()

    def train_from_frames(self, dataset: DetectionDataset, seed: int = 13) -> LinearModel:
        """Train from annotated frames: ground-truth boxes vs random windows."""
        rng = make_rng(seed)
        win = self.config.hog.window
        pos_feats: list[np.ndarray] = []
        neg_feats: list[np.ndarray] = []
        for frame in dataset.frames:
            positives, negatives = extract_window_samples(
                frame, win, self.config.negatives_per_frame, rng, kind="pedestrian"
            )
            pos_feats.extend(self.hog.extract(luminance(p)) for p in positives)
            neg_feats.extend(self.hog.extract(luminance(n)) for n in negatives)
        if not pos_feats or not neg_feats:
            raise PipelineError(
                "training frames produced no samples; add pedestrians to the dataset"
            )
        features = np.vstack([np.stack(pos_feats), np.stack(neg_feats)])
        labels = np.concatenate(
            [np.ones(len(pos_feats), dtype=np.int64), -np.ones(len(neg_feats), dtype=np.int64)]
        )
        svm = LinearSvm(SvmConfig(c=self.config.svm_c))
        self.model = svm.train(features, labels, name="pedestrian")
        self.model.meta["train_corpus"] = dataset.name
        return self.model

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        """Window-level classification."""
        model = require_trained(self.model, self.name)
        plane = luminance(ensure_rgb(crop, "crop"))
        win_h, win_w = self.config.hog.window
        if plane.shape != (win_h, win_w):
            plane = resize_bilinear(plane, win_h, win_w)
        score = float(model.decision_values(self.hog.extract(plane)))
        return score > self.config.decision_threshold, score

    def detect(self, frame: np.ndarray) -> list[Detection]:
        """Dense sliding-window detection with NMS."""
        telemetry = self.telemetry
        model = require_trained(self.model, self.name)
        plane = luminance(ensure_rgb(frame, "frame"))
        cfg = self.config
        with telemetry.stage("pedestrian.hog_scan"):
            boxes, scores = hog_svm_scan(
                self.hog,
                model,
                plane,
                threshold=cfg.decision_threshold,
                stride=cfg.window_stride_blocks,
                scratch=self._scratch,
                batched=cfg.batched,
            )
        with telemetry.stage("pedestrian.nms"):
            keep = non_max_suppression(boxes, scores, iou_threshold=cfg.nms_iou)
        if telemetry.enabled:
            telemetry.histogram(
                "detections_per_frame", bounds=DETECTIONS_BUCKETS, detector=self.name
            ).observe(float(len(keep)))
        return detections_at(boxes, scores, keep, "pedestrian")
