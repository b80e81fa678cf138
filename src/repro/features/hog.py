"""Histogram-of-oriented-gradients descriptor (Dalal-Triggs).

This is the exact feature the paper uses for day/dusk vehicle detection and
for the static pedestrian detector: gradient -> per-cell orientation
histograms -> block normalisation (paper Fig. 1 / Fig. 2).  The
implementation mirrors the three hardware stages so the streaming timing
model in ``repro.hw`` can be attached to the same structure:

* ``cell_histograms``   <-> "Gradient Calculation" + "Histogram Generation"
* ``normalize_blocks``  <-> "Block Normalization" / "HOG Normalizer"
* ``HogDescriptor.extract`` <-> the full "HOG Feature Extraction" pipeline
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import FeatureError
from repro.features.gradients import (
    GradientField,
    gradient_field,
    gradient_field_batch,
    orientation_bins,
)
from repro.imaging.image import ensure_gray
from repro.ml.kernels import square_norm_rows


@dataclass(frozen=True)
class HogConfig:
    """HOG layout parameters.

    Attributes:
        window: (height, width) of the detector window in pixels.
        cell_size: Side of a square cell in pixels.
        block_size: Side of a square block in cells (2 means 2x2 cells).
        block_stride: Block step in cells (1 means half-overlapping blocks
            for the default 2x2 block).
        n_bins: Orientation bins over [0, pi).
        clip: L2-Hys clipping value applied during block normalisation.
    """

    window: tuple[int, int] = (64, 64)
    cell_size: int = 8
    block_size: int = 2
    block_stride: int = 1
    n_bins: int = 9
    clip: float = 0.2

    def __post_init__(self) -> None:
        win_h, win_w = self.window
        if self.cell_size < 1:
            raise FeatureError(f"cell_size must be >= 1, got {self.cell_size}")
        if win_h % self.cell_size or win_w % self.cell_size:
            raise FeatureError(
                f"window {self.window} not divisible by cell_size {self.cell_size}"
            )
        if self.block_size < 1 or self.block_stride < 1:
            raise FeatureError("block_size and block_stride must be >= 1")
        if self.n_bins < 2:
            raise FeatureError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.block_size > min(self.cells_shape):
            raise FeatureError(
                f"block of {self.block_size} cells exceeds window of {self.cells_shape} cells"
            )
        if self.clip <= 0:
            raise FeatureError(f"clip must be positive, got {self.clip}")

    @property
    def cells_shape(self) -> tuple[int, int]:
        """(rows, cols) of cells inside the window."""
        return (self.window[0] // self.cell_size, self.window[1] // self.cell_size)

    @property
    def blocks_shape(self) -> tuple[int, int]:
        """(rows, cols) of blocks inside the window."""
        cr, cc = self.cells_shape
        return (
            (cr - self.block_size) // self.block_stride + 1,
            (cc - self.block_size) // self.block_stride + 1,
        )

    @property
    def block_length(self) -> int:
        """Feature values per block."""
        return self.block_size * self.block_size * self.n_bins

    @property
    def feature_length(self) -> int:
        """Total descriptor length for one window."""
        br, bc = self.blocks_shape
        return br * bc * self.block_length


def cell_histograms(image: np.ndarray, config: HogConfig) -> np.ndarray:
    """Per-cell orientation histograms for a window-sized image.

    Args:
        image: Gray image whose shape equals ``config.window``.

    Returns:
        (cell_rows, cell_cols, n_bins) histogram tensor.
    """
    arr = ensure_gray(image)
    if arr.shape != config.window:
        raise FeatureError(f"image shape {arr.shape} != window {config.window}")
    field = gradient_field(arr)
    return cell_histograms_from_field(field, config.cell_size, config.n_bins)


def cell_histograms_from_field(field: GradientField, cell_size: int, n_bins: int) -> np.ndarray:
    """Cell histograms for an arbitrary-size gradient field.

    The field's shape must be divisible by ``cell_size``.  Dense detection
    reuses this over a whole frame, then slides windows over the cell grid.
    """
    height, width = field.shape
    if height % cell_size or width % cell_size:
        raise FeatureError(
            f"field shape {field.shape} not divisible by cell_size {cell_size}"
        )
    rows, cols = height // cell_size, width // cell_size
    slots = _cell_slot_terms(rows, cols, cell_size, n_bins)
    return _scatter_bins(field, slots, rows * cols, n_bins).reshape(rows, cols, n_bins)


def _cell_slot_terms(rows: int, cols: int, cell_size: int, n_bins: int) -> tuple:
    """(row, col) terms whose broadcast sum is each pixel's ``cell * n_bins``."""
    row = np.repeat(np.arange(rows) * (cols * n_bins), cell_size)
    col = np.repeat(np.arange(cols) * n_bins, cell_size)
    return row[:, None], col[None, :]


def _scatter_bins(
    field: GradientField, slot_terms: tuple, n_cells: int, n_bins: int
) -> np.ndarray:
    """Scatter-add soft-binned magnitudes into a flat (cell, bin) histogram.

    Two sequential scatters, every lower bin then every upper bin, each in
    pixel order: that fixes the per-slot accumulation order, and so the
    float rounding, whatever the batch layout.  The ``slot_terms`` broadcast
    against the field and sum to each pixel's ``cell_index * n_bins``.
    """
    bin_lo, w_lo, w_hi = orientation_bins(field, n_bins)
    wraps = bin_lo == n_bins - 1
    w_lo *= field.magnitude
    w_hi *= field.magnitude
    slot = bin_lo
    for term in slot_terms:
        slot += term
    flat_hist = np.zeros(n_cells * n_bins, dtype=np.float64)
    np.add.at(flat_hist, slot.ravel(), w_lo.ravel())
    # Upper bin: the next one, with the last bin wrapping to bin 0.
    slot += 1
    slot -= wraps * n_bins
    np.add.at(flat_hist, slot.ravel(), w_hi.ravel())
    return flat_hist


def cell_histograms_batch(windows: np.ndarray, cell_size: int, n_bins: int) -> np.ndarray:
    """Cell histograms for an (N, H, W) stack of independent windows.

    One vectorised gradient pass plus one scatter-add covers the whole
    stack.  Window ``i`` of the result is bitwise equal to
    ``cell_histograms_from_field(gradient_field(windows[i]), ...)``: the
    gradient/binning math is elementwise, and the scatter visits each
    window's pixels in the same order as the single-window path (windows
    never share a histogram slot, so per-slot accumulation order — and
    therefore float rounding — is unchanged).

    Returns:
        (N, cell_rows, cell_cols, n_bins) histogram tensor.
    """
    stack = np.asarray(windows, dtype=np.float64)
    if stack.ndim != 3:
        raise FeatureError(f"windows must be (N, H, W), got shape {stack.shape}")
    n, height, width = stack.shape
    if height % cell_size or width % cell_size:
        raise FeatureError(
            f"window shape {(height, width)} not divisible by cell_size {cell_size}"
        )
    if n == 0:
        return np.zeros((0, height // cell_size, width // cell_size, n_bins))
    rows, cols = height // cell_size, width // cell_size
    window = (np.arange(n) * (rows * cols * n_bins))[:, None, None]
    slots = (window, *_cell_slot_terms(rows, cols, cell_size, n_bins))
    flat_hist = _scatter_bins(gradient_field_batch(stack), slots, n * rows * cols, n_bins)
    return flat_hist.reshape(n, rows, cols, n_bins)


def normalize_block(block: np.ndarray, clip: float = 0.2, eps: float = 1e-6) -> np.ndarray:
    """L2-Hys normalisation of one flattened block vector.

    The squared norms use the same fixed-order einsum summation as the
    vectorised :func:`normalize_block_rows`, so normalising one block alone
    is bitwise equal to normalising it inside any batch of blocks.
    """
    vec = np.asarray(block, dtype=np.float64).ravel()
    norm = np.sqrt(np.einsum("d,d->", vec, vec) + eps**2)
    vec = vec / norm
    vec = np.minimum(vec, clip)
    norm = np.sqrt(np.einsum("d,d->", vec, vec) + eps**2)
    return vec / norm


def normalize_block_rows(rows: np.ndarray, clip: float = 0.2, eps: float = 1e-6) -> np.ndarray:
    """L2-Hys normalisation of a (N, block_length) batch of block vectors.

    Row ``i`` is bitwise equal to ``normalize_block(rows[i])`` — both paths
    share the batch-size-invariant squared-norm kernel — which lets the
    dense and batched descriptors reuse one vectorised normaliser without
    perturbing the per-window reference output.
    """
    batch = np.asarray(rows, dtype=np.float64)
    if batch.ndim != 2:
        raise FeatureError(f"rows must be (N, block_length), got shape {batch.shape}")
    norm = np.sqrt(square_norm_rows(batch) + eps**2)
    vec = batch / norm[:, None]
    np.minimum(vec, clip, out=vec)
    norm = np.sqrt(square_norm_rows(vec) + eps**2)
    vec /= norm[:, None]
    return vec


def _block_rows(cells: np.ndarray, config: HogConfig) -> np.ndarray:
    """Gather overlapping blocks of a (..., rows, cols, n_bins) tensor.

    Returns a (..., block_rows, block_cols, block_length) array whose last
    axis is each block flattened in the (cell_row, cell_col, bin) order the
    per-block loop used — a pure strided copy, no arithmetic.
    """
    bs, stride = config.block_size, config.block_stride
    view = sliding_window_view(cells, (bs, bs), axis=(-3, -2))
    view = view[..., ::stride, ::stride, :, :, :]
    # view axes: (..., block_rows, block_cols, n_bins, bs, bs); reorder the
    # trailing three to (bs, bs, n_bins) to match ravel() of a block slice.
    ordered = np.moveaxis(view, -3, -1)
    return ordered.reshape(*ordered.shape[:-3], config.block_length)


def normalize_blocks(cells: np.ndarray, config: HogConfig) -> np.ndarray:
    """Form overlapping blocks from a cell-histogram tensor and L2-Hys them.

    Vectorised: one strided gather plus one batched normalisation replaces
    the per-block Python loop (bitwise-identical output; see
    :func:`normalize_block_rows`).

    Args:
        cells: (rows, cols, n_bins) cell histograms (any rows/cols >= block).

    Returns:
        (block_rows, block_cols, block_length) normalised block features.
    """
    tensor = np.asarray(cells, dtype=np.float64)
    if tensor.ndim != 3 or tensor.shape[2] != config.n_bins:
        raise FeatureError(
            f"cells must be (rows, cols, {config.n_bins}), got {tensor.shape}"
        )
    rows, cols, _ = tensor.shape
    bs = config.block_size
    if rows < bs or cols < bs:
        raise FeatureError(f"cell grid {rows}x{cols} smaller than block {bs}x{bs}")
    gathered = _block_rows(tensor, config)
    block_rows, block_cols = gathered.shape[:2]
    flat = normalize_block_rows(
        gathered.reshape(block_rows * block_cols, config.block_length), clip=config.clip
    )
    return flat.reshape(block_rows, block_cols, config.block_length)


class HogDescriptor:
    """Window-level HOG feature extractor.

    The three-stage structure matches the hardware pipeline of paper Fig. 2;
    use :meth:`extract` for a single window and :meth:`extract_dense` to
    share cell histograms across all windows of a frame.
    """

    def __init__(self, config: HogConfig | None = None):
        self.config = config or HogConfig()

    @property
    def feature_length(self) -> int:
        return self.config.feature_length

    def extract(self, window: np.ndarray) -> np.ndarray:
        """Descriptor for one window-sized gray image (1-D float vector)."""
        cells = cell_histograms(window, self.config)
        blocks = normalize_blocks(cells, self.config)
        return blocks.ravel()

    def extract_batch(self, windows: np.ndarray) -> np.ndarray:
        """Descriptors for a stack of windows shaped (N, H, W).

        Routed through the dense vectorised path — one gradient pass, one
        histogram scatter and one batched block normalisation for the whole
        stack — while staying bitwise equal to
        ``np.stack([self.extract(w) for w in windows])`` (pinned by
        ``tests/features/test_hog.py``).
        """
        batch = np.asarray(windows, dtype=np.float64)
        if batch.ndim != 3:
            raise FeatureError(f"windows must be (N, H, W), got {batch.shape}")
        cfg = self.config
        if batch.shape[0] == 0:
            return np.zeros((0, cfg.feature_length))
        if batch.shape[1:] != cfg.window:
            raise FeatureError(
                f"window stack shape {batch.shape[1:]} != window {cfg.window}"
            )
        cells = cell_histograms_batch(batch, cfg.cell_size, cfg.n_bins)
        gathered = _block_rows(cells, cfg)
        n = batch.shape[0]
        flat = normalize_block_rows(
            gathered.reshape(n * cfg.blocks_shape[0] * cfg.blocks_shape[1], cfg.block_length),
            clip=cfg.clip,
        )
        return flat.reshape(n, cfg.feature_length)

    def extract_dense(self, image: np.ndarray) -> tuple[np.ndarray, "DenseHogLayout"]:
        """Cell/block features over a whole frame for sliding-window reuse.

        The image is cropped (bottom/right) to a whole number of cells.

        Returns:
            (blocks, layout): ``blocks`` is the frame's normalised block
            tensor; ``layout`` maps window positions to feature slices.
        """
        arr = ensure_gray(image)
        cs = self.config.cell_size
        rows = (arr.shape[0] // cs) * cs
        cols = (arr.shape[1] // cs) * cs
        if rows < self.config.window[0] or cols < self.config.window[1]:
            raise FeatureError(
                f"image {arr.shape} smaller than window {self.config.window}"
            )
        field = gradient_field(arr[:rows, :cols])
        cells = cell_histograms_from_field(field, cs, self.config.n_bins)
        blocks = normalize_blocks(cells, self.config)
        return blocks, DenseHogLayout(self.config, blocks.shape[0], blocks.shape[1])


@dataclass(frozen=True)
class DenseHogLayout:
    """Maps window positions (in cells) into a dense block tensor."""

    config: HogConfig
    frame_block_rows: int
    frame_block_cols: int

    @property
    def window_blocks(self) -> tuple[int, int]:
        return self.config.blocks_shape

    def window_positions(self, cell_stride: int = 1) -> list[tuple[int, int]]:
        """All (block_row, block_col) origins of full windows in the frame."""
        wb_r, wb_c = self.window_blocks
        return [
            (r, c)
            for r in range(0, self.frame_block_rows - wb_r + 1, cell_stride)
            for c in range(0, self.frame_block_cols - wb_c + 1, cell_stride)
        ]

    def window_grid(self, cell_stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The (row_origins, col_origins) axes of the window grid.

        The full position list is their row-major product, in exactly the
        order :meth:`window_positions` yields.
        """
        if cell_stride < 1:
            raise FeatureError(f"cell_stride must be >= 1, got {cell_stride}")
        wb_r, wb_c = self.window_blocks
        rows = np.arange(0, max(self.frame_block_rows - wb_r + 1, 0), cell_stride)
        cols = np.arange(0, max(self.frame_block_cols - wb_c + 1, 0), cell_stride)
        return rows, cols

    def window_index_grid(self, cell_stride: int = 1) -> np.ndarray:
        """All window origins as an (n_windows, 2) int array, row-major.

        Row ``i`` equals ``window_positions(cell_stride)[i]`` — the batched
        scorer and the per-window reference path walk the same grid in the
        same order, so their outputs align index for index.
        """
        rows, cols = self.window_grid(cell_stride)
        if rows.size == 0 or cols.size == 0:
            return np.zeros((0, 2), dtype=np.int64)
        mesh = np.stack(np.meshgrid(rows, cols, indexing="ij"), axis=-1)
        return mesh.reshape(-1, 2).astype(np.int64, copy=False)

    def window_feature_matrix(
        self,
        blocks: np.ndarray,
        cell_stride: int = 1,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Every window's descriptor gathered into one (n_windows, D) matrix.

        One strided view plus one copy replaces n_windows Python-level
        slices: block histograms shared by overlapping windows are computed
        once in ``blocks`` and fanned out here.  Row ``i`` is bitwise equal
        to ``window_feature(blocks, *window_positions(cell_stride)[i])``
        (it is the same bytes, moved not recomputed).

        Args:
            blocks: Dense block tensor from ``HogDescriptor.extract_dense``.
            cell_stride: Window grid stride in block units.
            out: Optional preallocated C-contiguous (n_windows, D) float64
                buffer — steady-state frames can reuse it and allocate
                nothing here.

        Returns:
            (n_windows, feature_length) matrix (``out`` when given).
        """
        wb_r, wb_c = self.window_blocks
        if blocks.ndim != 3 or blocks.shape[:2] != (
            self.frame_block_rows,
            self.frame_block_cols,
        ):
            raise FeatureError(
                f"blocks shape {blocks.shape} does not match layout "
                f"({self.frame_block_rows}, {self.frame_block_cols}, ...)"
            )
        rows, cols = self.window_grid(cell_stride)
        n = rows.size * cols.size
        length = self.config.feature_length
        if out is None:
            out = np.empty((n, length), dtype=np.float64)
        elif (
            out.shape != (n, length)
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise FeatureError(
                f"out buffer must be C-contiguous float64 {(n, length)}, "
                f"got {out.dtype} {out.shape}"
            )
        if n == 0:
            return out
        view = sliding_window_view(blocks, (wb_r, wb_c), axis=(0, 1))
        sub = view[::cell_stride, ::cell_stride]
        sub = sub[: rows.size, : cols.size]
        # sub axes: (rows, cols, L, wb_r, wb_c) — reorder the trailing trio
        # to the (wb_r, wb_c, L) ravel order of window_feature and copy
        # straight into the output buffer.
        shaped = out.reshape(rows.size, cols.size, wb_r, wb_c, blocks.shape[2])
        np.copyto(shaped, sub.transpose(0, 1, 3, 4, 2))
        return out

    def window_feature(self, blocks: np.ndarray, block_row: int, block_col: int) -> np.ndarray:
        """Slice one window's descriptor out of the dense block tensor."""
        wb_r, wb_c = self.window_blocks
        view = blocks[block_row : block_row + wb_r, block_col : block_col + wb_c, :]
        if view.shape[:2] != (wb_r, wb_c):
            raise FeatureError(
                f"window at block ({block_row}, {block_col}) exceeds frame blocks"
            )
        return view.ravel()

    def window_boxes(self, origins: np.ndarray) -> np.ndarray:
        """Pixel-space ``(x, y, w, h)`` rows of the windows at ``origins``.

        ``origins`` is an ``(n, 2)`` int array of (block_row, block_col), as
        :meth:`window_index_grid` returns.
        """
        stride_px = self.config.block_stride * self.config.cell_size
        boxes = np.empty((origins.shape[0], 4), dtype=np.float64)
        boxes[:, 0] = origins[:, 1] * stride_px
        boxes[:, 1] = origins[:, 0] * stride_px
        boxes[:, 2] = self.config.window[1]
        boxes[:, 3] = self.config.window[0]
        return boxes

    def window_rect(self, block_row: int, block_col: int):
        """Pixel-space rectangle of the window at a block origin."""
        from repro.imaging.geometry import Rect

        return Rect(*self.window_boxes(np.array([[block_row, block_col]]))[0].tolist())
