"""Dark-condition vehicle detection (paper Fig. 3 / Fig. 4).

The full pipeline, stage for stage:

1. *Split channels* — RGB -> Y / Cb / Cr (BT.601), streamed through the
   frame in row bands straight into three contiguous planes (see
   :func:`repro.imaging.color.split_channels`).
2. *Threshold* — luminance threshold (light sources) AND chrominance
   threshold (red sources), merged into one binary mask.  "Instead of
   relying only on the luminance information, we consider both the
   chrominance and luminance channels during the threshold stage."
3. *Downsample* — 3x binary decimation by set-pixel count per tile
   (1920x1080 -> 640x360 in the paper).
4. *Closing* — dilate + erode, removing threshold noise and smoothing
   contours.
5. *Sliding DBN* — the 81-20-8-4 network over 9x9 windows with stride 2,
   classifying each window's size/shape class.
6. *Spatial correlation & matching* — taillight candidates paired by the
   SVM matcher; each matched pair localises one vehicle.

Every stage is exposed separately (`preprocess`, `dbn_grid`,
`extract_candidates`) so the hardware timing model, the benchmarks, and the
ablation studies can instrument them individually.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PipelineError
from repro.imaging.color import split_channels
from repro.imaging.components import blob_statistics, label_components
from repro.imaging.geometry import Rect
from repro.imaging.image import ensure_rgb
from repro.imaging.morphology import closing, square_element
from repro.imaging.resize import downsample_binary
from repro.imaging.threshold import binary_threshold, otsu_threshold
from repro.ml.dbn import DbnConfig, DeepBeliefNetwork
from repro.pipelines.base import Detection
from repro.telemetry.metrics import DETECTIONS_BUCKETS
from repro.telemetry.session import NULL_TELEMETRY, Telemetry
from repro.pipelines.taillight import (
    TaillightCandidate,
    TaillightPairMatcher,
    vehicle_box_from_pair,
)

DBN_WINDOW = 9
DBN_STRIDE = 2


def window_occupancy(mask: np.ndarray) -> np.ndarray:
    """Which DBN windows hold a nonzero pixel, without copying any window.

    A separable OR: over ``DBN_WINDOW`` rows sampled every ``DBN_STRIDE``
    rows, then over ``DBN_WINDOW`` columns sampled every ``DBN_STRIDE``
    columns.

    Returns:
        (ny, nx) bool grid, True where the window over mask pixels
        [2i, 2i+9) x [2j, 2j+9) holds a nonzero (or NaN) value; (0, 0)
        when the mask is smaller than one window.
    """
    lit = np.asarray(mask) != 0
    height, width = lit.shape
    if height < DBN_WINDOW or width < DBN_WINDOW:
        return np.zeros((0, 0), dtype=bool)
    span_y = DBN_STRIDE * ((height - DBN_WINDOW) // DBN_STRIDE) + 1
    span_x = DBN_STRIDE * ((width - DBN_WINDOW) // DBN_STRIDE) + 1
    rows = lit[0:span_y:DBN_STRIDE].copy()
    for k in range(1, DBN_WINDOW):
        rows |= lit[k : k + span_y : DBN_STRIDE]
    occupancy = rows[:, 0:span_x:DBN_STRIDE].copy()
    for k in range(1, DBN_WINDOW):
        occupancy |= rows[:, k : k + span_x : DBN_STRIDE]
    return occupancy


@dataclass(frozen=True)
class DarkConfig:
    """Dark-pipeline parameters.

    Attributes:
        luma_threshold: Fixed Y threshold; None = Otsu + ``luma_margin``.
        luma_margin: Margin added to the Otsu threshold in auto mode.
        cr_threshold: Cr (redness) threshold for the chroma mask.
        use_chroma: Merge the chroma mask (the paper's choice); False is
            the luma-only ablation.
        downsample_factor: Binary decimation factor (3 for 1080p -> 640x360).
        downsample_vote: Fraction of set pixels that keeps a decimated pixel.
        closing_size: Side of the square closing element.
        min_blob_windows: Minimum DBN hit-windows to accept a candidate.
        max_candidates: Keep at most this many largest candidates.
        aspect_range: Accepted hit-cluster width/height aspect band — the
            paper's "selection of detected taillights based on their
            obtained size features": lamps cluster roughly square; wet-road
            reflection streaks cluster tall-and-narrow and are dropped.
        dbn_batch: Max windows classified per DBN forward call.
        batched: Classify occupied windows in chunked batches (the hot
            path).  False keeps the one-window-at-a-time reference scan the
            equivalence suite pins the batched grid against.
    """

    luma_threshold: float | None = None
    luma_margin: float = 0.08
    cr_threshold: float = 0.15
    use_chroma: bool = True
    downsample_factor: int = 3
    downsample_vote: float = 0.25
    closing_size: int = 3
    min_blob_windows: int = 2
    max_candidates: int = 24
    aspect_range: tuple[float, float] = (0.36, 2.8)
    dbn_batch: int = 65536
    batched: bool = True


@dataclass
class DarkStageTrace:
    """Intermediate products of one frame, for debugging and benches."""

    luma_mask: np.ndarray | None = None
    chroma_mask: np.ndarray | None = None
    merged_mask: np.ndarray | None = None
    processed_mask: np.ndarray | None = None
    class_grid: np.ndarray | None = None
    candidates: list[TaillightCandidate] = field(default_factory=list)
    pairs: list[tuple[int, int, float]] = field(default_factory=list)


class DarkVehicleDetector:
    """The reconfigurable dark-condition vehicle-detection configuration."""

    def __init__(
        self,
        config: DarkConfig | None = None,
        dbn: DeepBeliefNetwork | None = None,
        matcher: TaillightPairMatcher | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config or DarkConfig()
        self.dbn = dbn
        self.matcher = matcher
        self.name = "vehicle-dark"
        self.telemetry = telemetry or NULL_TELEMETRY

    # Training ----------------------------------------------------------------

    def train(
        self,
        windows: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        dbn_config: DbnConfig | None = None,
        seed: int = 11,
    ) -> dict:
        """Train both learned stages.

        Defaults to the synthetic taillight-window corpus and synthetic
        pair corpus (see :mod:`repro.datasets.synthetic` /
        :mod:`repro.pipelines.taillight`).

        Returns:
            Training report with DBN traces and pair-SVM meta.
        """
        from repro.datasets.synthetic import make_taillight_windows

        if windows is None or labels is None:
            windows, labels = make_taillight_windows(seed=seed)
        self.dbn = DeepBeliefNetwork(dbn_config or DbnConfig())
        dbn_report = self.dbn.fit(windows, labels)
        self.matcher = TaillightPairMatcher()
        pair_model = self.matcher.train(seed=seed)
        return {
            "dbn": dbn_report,
            "dbn_train_accuracy": self.dbn.score(windows, labels),
            "pair_svm": pair_model.meta,
        }

    def _require_trained(self) -> None:
        if self.matcher is None or self.matcher.model is None:
            raise PipelineError("DarkVehicleDetector is not trained; call train()")
        self._require_dbn()

    def _require_dbn(self) -> None:
        if self.dbn is None:
            raise PipelineError("DarkVehicleDetector has no DBN; call train()")

    # Stages (Fig. 4) ----------------------------------------------------------

    def preprocess(self, frame: np.ndarray, trace: DarkStageTrace | None = None) -> np.ndarray:
        """Stages 1-4: split, threshold, merge, downsample, closing."""
        rgb = ensure_rgb(frame, "frame")
        cfg = self.config
        luma, _cb, cr = split_channels(rgb)
        threshold = cfg.luma_threshold
        if threshold is None:
            threshold = otsu_threshold(luma) + cfg.luma_margin
        luma_mask = binary_threshold(luma, threshold)
        if cfg.use_chroma:
            chroma_mask = binary_threshold(cr, cfg.cr_threshold)
            merged = luma_mask & chroma_mask
        else:
            chroma_mask = None
            merged = luma_mask
        factor = self._effective_factor(rgb.shape[0], rgb.shape[1])
        small = downsample_binary(merged, factor, vote=cfg.downsample_vote) if factor > 1 else merged
        processed = closing(small, square_element(cfg.closing_size))
        if trace is not None:
            trace.luma_mask = luma_mask
            trace.chroma_mask = chroma_mask
            trace.merged_mask = merged
            trace.processed_mask = processed
        return processed

    def _effective_factor(self, height: int, width: int) -> int:
        """Largest factor <= configured that divides the frame evenly."""
        for factor in range(self.config.downsample_factor, 0, -1):
            if height % factor == 0 and width % factor == 0:
                return factor
        return 1

    def dbn_grid(self, mask: np.ndarray) -> np.ndarray:
        """Stage 5: sliding 9x9 / stride-2 DBN over the processed mask.

        Only windows holding a lit pixel can be taillights, so occupancy
        comes first (:func:`window_occupancy`); just the occupied windows
        are gathered and classified, and the rest stay 0.

        Returns:
            (ny, nx) int grid of DBN classes (0 = background) where cell
            (i, j) covers mask pixels [2i, 2i+9) x [2j, 2j+9).
        """
        self._require_dbn()
        src = np.asarray(mask, dtype=np.float64)
        if src.ndim != 2:
            raise PipelineError(f"mask must be 2-D, got shape {src.shape}")
        if src.shape[0] < DBN_WINDOW or src.shape[1] < DBN_WINDOW:
            return np.zeros((0, 0), dtype=np.int64)
        if not self.config.batched:
            return self._dbn_grid_reference(src)
        occupancy = window_occupancy(src)
        ny, nx = occupancy.shape
        occupied = np.flatnonzero(occupancy)
        view = np.lib.stride_tricks.sliding_window_view(src, (DBN_WINDOW, DBN_WINDOW))
        view = view[::DBN_STRIDE, ::DBN_STRIDE]
        grid = np.zeros(ny * nx, dtype=np.int64)
        for start in range(0, occupied.size, self.config.dbn_batch):
            idx = occupied[start : start + self.config.dbn_batch]
            windows = view[idx // nx, idx % nx]
            grid[idx] = self.dbn.predict_batch(windows.reshape(idx.size, -1))
        return grid.reshape(ny, nx)

    def _dbn_grid_reference(self, src: np.ndarray) -> np.ndarray:
        """One-window-at-a-time DBN scan over a full copy of every window.

        The ground truth the equivalence suite pins ``dbn_grid`` against.
        It finds occupied windows its own way, by ``any`` over each copied
        window, so the batched path's separable OR is checked too.  The
        whole stack runs through batch-size-invariant kernels, so a window
        classified alone equals the same window classified inside any
        chunk, bit for bit.
        """
        view = np.lib.stride_tricks.sliding_window_view(src, (DBN_WINDOW, DBN_WINDOW))
        view = view[::DBN_STRIDE, ::DBN_STRIDE]
        ny, nx = view.shape[:2]
        flat = view.reshape(ny * nx, DBN_WINDOW * DBN_WINDOW)
        grid = np.zeros(ny * nx, dtype=np.int64)
        for i in np.flatnonzero(flat.any(axis=1)):
            grid[i] = int(self.dbn.predict(flat[i])[0])
        return grid.reshape(ny, nx)

    def extract_candidates(self, class_grid: np.ndarray) -> list[TaillightCandidate]:
        """Cluster DBN hits into taillight candidates.

        Hits are bridged by a one-step dilation before labelling so a lamp
        whose window responses fragment (the DBN is conservative near
        cluttered masks) still forms one candidate; cluster statistics use
        the true hit cells only.
        """
        if class_grid.size == 0:
            return []
        from repro.imaging.morphology import dilate, square_element

        hits = class_grid > 0
        bridged = dilate(hits, square_element(3))
        labels, count = label_components(bridged)
        labels = np.where(hits, labels, 0)
        blobs = blob_statistics(labels, count)
        candidates: list[TaillightCandidate] = []
        aspect_lo, aspect_hi = self.config.aspect_range
        for blob in blobs:
            if blob.area < self.config.min_blob_windows:
                continue
            if not aspect_lo <= blob.aspect <= aspect_hi:
                continue  # elongated cluster: reflection streak, not a lamp
            cells = class_grid[labels == blob.label]
            # Majority size class across the blob's hit windows.
            size_class = int(np.bincount(cells, minlength=4)[1:].argmax()) + 1
            gx, gy = blob.centroid
            center = (
                gx * DBN_STRIDE + DBN_WINDOW / 2.0,
                gy * DBN_STRIDE + DBN_WINDOW / 2.0,
            )
            bbox = Rect(
                blob.bbox.x * DBN_STRIDE,
                blob.bbox.y * DBN_STRIDE,
                blob.bbox.w * DBN_STRIDE + DBN_WINDOW - DBN_STRIDE,
                blob.bbox.h * DBN_STRIDE + DBN_WINDOW - DBN_STRIDE,
            )
            candidates.append(
                TaillightCandidate(
                    center=center, size_class=size_class, area=float(blob.area), bbox=bbox
                )
            )
        candidates.sort(key=lambda c: c.area, reverse=True)
        return candidates[: self.config.max_candidates]

    # Full pipeline -------------------------------------------------------------

    def detect(self, frame: np.ndarray, trace: DarkStageTrace | None = None) -> list[Detection]:
        """Stages 1-6: detections in native frame coordinates."""
        self._require_trained()
        telemetry = self.telemetry
        rgb = ensure_rgb(frame, "frame")
        factor = self._effective_factor(rgb.shape[0], rgb.shape[1])
        with telemetry.stage("dark.preprocess"):
            mask = self.preprocess(rgb, trace=trace)
        with telemetry.stage("dark.dbn_grid"):
            class_grid = self.dbn_grid(mask)
        with telemetry.stage("dark.extract_candidates"):
            candidates = self.extract_candidates(class_grid)
        with telemetry.stage("dark.match_pairs"):
            pairs = self.matcher.match_pairs(candidates)  # type: ignore[union-attr]
        if trace is not None:
            trace.class_grid = class_grid
            trace.candidates = candidates
            trace.pairs = pairs
        detections: list[Detection] = []
        for i, j, score in pairs:
            box = vehicle_box_from_pair(candidates[i], candidates[j]).scaled(float(factor))
            clipped = box.clipped(rgb.shape[1], rgb.shape[0])
            if clipped is None:
                continue
            detections.append(
                Detection(
                    rect=clipped,
                    score=score,
                    kind="vehicle",
                    extra={
                        "taillights": [
                            tuple(v * factor for v in candidates[i].center),
                            tuple(v * factor for v in candidates[j].center),
                        ],
                        "size_class": max(candidates[i].size_class, candidates[j].size_class),
                    },
                )
            )
        if telemetry.enabled:
            telemetry.histogram(
                "detections_per_frame", bounds=DETECTIONS_BUCKETS, detector=self.name
            ).observe(float(len(detections)))
        return detections

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        """Crop-level protocol: vehicle present iff a pair is matched."""
        detections = self.detect(crop)
        if not detections:
            return False, 0.0
        best = max(d.score for d in detections)
        return True, best
