"""Detection pipelines: day/dusk (HOG+SVM), dark (DBN+pairing), pedestrian."""

from repro.pipelines.base import Detection, DetectionPipeline
from repro.pipelines.dark import (
    DBN_STRIDE,
    DBN_WINDOW,
    DarkConfig,
    DarkStageTrace,
    DarkVehicleDetector,
)
from repro.pipelines.day_dusk import (
    DayDuskConfig,
    HogSvmVehicleDetector,
    hog_features_for_dataset,
    train_condition_models,
)
from repro.pipelines.evaluation import (
    ConfusionCounts,
    FrameEvaluation,
    confusion_from_predictions,
    evaluate_crop_classifier,
    evaluate_detections,
    evaluate_frames,
)
from repro.pipelines.pedestrian import PedestrianConfig, PedestrianDetector
from repro.pipelines.tracking import (
    Track,
    TrackerConfig,
    TrackingEvaluation,
    TrackingPipeline,
    VehicleTracker,
    evaluate_tracking,
)
from repro.pipelines.taillight import (
    CLASS_RADIUS_PX,
    PAIR_FEATURE_LENGTH,
    PAIR_SEPARATION_RATIO,
    TaillightCandidate,
    TaillightPairMatcher,
    make_pair_training_set,
    pair_features,
    pair_gate,
    vehicle_box_from_pair,
)

__all__ = [
    "CLASS_RADIUS_PX",
    "ConfusionCounts",
    "DBN_STRIDE",
    "DBN_WINDOW",
    "DarkConfig",
    "DarkStageTrace",
    "DarkVehicleDetector",
    "DayDuskConfig",
    "Detection",
    "DetectionPipeline",
    "FrameEvaluation",
    "HogSvmVehicleDetector",
    "PAIR_FEATURE_LENGTH",
    "PAIR_SEPARATION_RATIO",
    "PedestrianConfig",
    "PedestrianDetector",
    "TaillightCandidate",
    "Track",
    "TrackerConfig",
    "TrackingEvaluation",
    "TrackingPipeline",
    "TaillightPairMatcher",
    "confusion_from_predictions",
    "evaluate_crop_classifier",
    "evaluate_detections",
    "evaluate_tracking",
    "evaluate_frames",
    "hog_features_for_dataset",
    "make_pair_training_set",
    "pair_features",
    "pair_gate",
    "train_condition_models",
    "VehicleTracker",
    "vehicle_box_from_pair",
]
