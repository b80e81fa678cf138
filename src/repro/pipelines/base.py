"""Shared detection types: detections, scratch buffers, the HOG+SVM scan, pipeline protocol."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.errors import PipelineError
from repro.imaging.geometry import Rect

if TYPE_CHECKING:
    from repro.features.hog import HogDescriptor
    from repro.ml.linear import LinearModel


class ScratchBuffers:
    """Keyed pool of preallocated arrays reused across frames.

    A single-scale detector asks for the same (n_windows, D) feature matrix
    and (n_windows,) score vector every frame, and a pyramid scan asks for
    a smaller one at each level.  The pool is grow-only: a request that
    fits the key's buffer gets a C-contiguous view of its leading elements,
    and only a larger request reallocates.  So a fixed-size scan allocates
    nothing in steady state, and a pyramid whose first level is its
    largest allocates once.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def get(
        self, key: str, shape: tuple[int, ...], dtype: np.dtype | type = np.float64
    ) -> np.ndarray:
        """A C-contiguous ``shape`` buffer for ``key``; contents are unspecified."""
        want = np.dtype(dtype)
        size = math.prod(shape)
        pooled = self._arrays.get(key)
        if pooled is None or pooled.dtype != want or pooled.size < size:
            pooled = np.empty(size, dtype=want)
            self._arrays[key] = pooled
        return pooled[:size].reshape(shape)

    def clear(self) -> None:
        """Drop every pooled buffer (e.g. after a resolution change)."""
        self._arrays.clear()


@dataclass(frozen=True)
class Detection:
    """One detector output.

    Attributes:
        rect: Location in native frame coordinates.
        score: Detector confidence (SVM margin or pipeline-specific score).
        kind: "vehicle" or "pedestrian".
        extra: Pipeline-specific payload (e.g. taillight centers).
    """

    rect: Rect
    score: float
    kind: str = "vehicle"
    extra: dict = field(default_factory=dict)


def hog_svm_scan(
    hog: "HogDescriptor",
    model: "LinearModel",
    plane: np.ndarray,
    *,
    threshold: float,
    stride: int,
    scratch: ScratchBuffers,
    batched: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense HOG+SVM scan of one luma plane, without NMS.

    The day/dusk and pedestrian detectors share this scan.  The batched
    path gathers every window's descriptor into one pooled matrix and
    scores it with one kernel call; ``batched=False`` slices and scores one
    window at a time — the per-window reference the equivalence suite pins
    the batched path against, byte for byte.

    Returns:
        ``(boxes, scores)``: an ``(n, 4)`` float64 array of ``(x, y, w, h)``
        plane-pixel boxes and the ``(n,)`` scores of the windows scoring
        above ``threshold``, in window-grid order.
    """
    win_h, win_w = hog.config.window
    if plane.shape[0] < win_h or plane.shape[1] < win_w:
        raise PipelineError(
            f"frame {plane.shape} smaller than detector window {(win_h, win_w)}"
        )
    blocks, layout = hog.extract_dense(plane)
    grid = layout.window_index_grid(stride)
    n = grid.shape[0]
    if n == 0:
        return np.empty((0, 4)), np.empty(0)
    if batched:
        feats = layout.window_feature_matrix(
            blocks, stride, out=scratch.get("scan.features", (n, hog.feature_length))
        )
        scores = model.decision_batch(feats, out=scratch.get("scan.scores", (n,)))
    else:
        scores = _window_scores_reference(model, layout, blocks, grid)
    hits = np.flatnonzero(scores > threshold)
    return layout.window_boxes(grid[hits]), scores[hits]


def _window_scores_reference(model, layout, blocks, grid) -> np.ndarray:
    """Slice and score one window at a time, in window-grid order."""
    return np.array(
        [float(model.decision_values(layout.window_feature(blocks, r, c))) for r, c in grid]
    )


def detections_at(
    boxes: np.ndarray, scores: np.ndarray, keep: list[int], kind: str
) -> list[Detection]:
    """``Detection`` objects for the kept rows of a box array, in ``keep`` order."""
    return [
        Detection(rect=Rect(*boxes[i].tolist()), score=float(scores[i]), kind=kind)
        for i in keep
    ]


@runtime_checkable
class DetectionPipeline(Protocol):
    """What the reconfigurable partition exposes to the system level.

    Both vehicle configurations (HOG+SVM and the dark DBN pipeline) and the
    static pedestrian detector implement this protocol, mirroring the
    paper's requirement that "the two partial configurations have the same
    interface to the other parts of the design".
    """

    name: str

    def detect(self, frame: np.ndarray) -> list[Detection]:
        """Run detection over an (H, W, 3) RGB frame in [0, 1]."""
        ...

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        """Classify one window crop; returns (is_target, score)."""
        ...
