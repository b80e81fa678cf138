"""System core: the adaptive detection system (paper Fig. 6 + control loop)."""

from repro.core.spec import (
    CHAOS_MODES,
    TRACE_FACTORIES,
    DriveSpec,
    derive_drive_seed,
    frame_core_bytes,
    frame_core_dict,
    frames_digest,
)
from repro.core.system import (
    MODEL_FOR_CONDITION,
    AdaptiveDetectionSystem,
    DegradationPolicy,
    DriveReport,
    FrameRecord,
    SystemConfig,
    run_drive_spec,
)

__all__ = [
    "AdaptiveDetectionSystem",
    "CHAOS_MODES",
    "DegradationPolicy",
    "DriveSpec",
    "DriveReport",
    "FrameRecord",
    "MODEL_FOR_CONDITION",
    "SystemConfig",
    "TRACE_FACTORIES",
    "derive_drive_seed",
    "frame_core_bytes",
    "frame_core_dict",
    "frames_digest",
    "run_drive_spec",
]
