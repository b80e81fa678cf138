"""Straightforward implementations the fast day/dusk and dark paths must match.

Each function is the plain version of a kernel in ``src/``: a greedy NMS
loop over ``Rect`` objects, a float ``np.mod`` orientation fold, ``%``-based
orientation binning, an ``np.pad`` central difference, an ``np.ix_``
bilinear resize, ``np.histogram`` counts, an ``np.stack`` YCbCr split, a
float tile-mean binary decimation, and DBN window occupancy from a full
copy of every window.  They exist only for the byte-identity properties in
``test_oracles.py``; nothing in ``src/`` imports them.
"""

from __future__ import annotations

import numpy as np

from repro.features.gradients import GradientField
from repro.imaging.geometry import Rect


def non_max_suppression(boxes: list[Rect], scores: list[float], iou_threshold: float) -> list[int]:
    """Greedy NMS: visit boxes by descending score, keep those overlapping no kept box."""
    order = sorted(range(len(boxes)), key=lambda i: scores[i], reverse=True)
    kept: list[int] = []
    for idx in order:
        if all(boxes[idx].iou(boxes[k]) <= iou_threshold for k in kept):
            kept.append(idx)
    return kept


def fold_half_turn(angles: np.ndarray) -> np.ndarray:
    """Unsigned orientation: angles folded into [0, pi) by a float modulo."""
    return np.mod(angles, np.pi)


def central_gradient(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[-1, 0, 1] differences over the last two axes of an edge-padded copy."""
    arr = np.asarray(plane, dtype=np.float64)
    pad = [(0, 0)] * (arr.ndim - 2) + [(1, 1), (1, 1)]
    padded = np.pad(arr, pad, mode="edge")
    gx = 0.5 * (padded[..., 1:-1, 2:] - padded[..., 1:-1, :-2])
    gy = 0.5 * (padded[..., 2:, 1:-1] - padded[..., :-2, 1:-1])
    return gx, gy


def gradient_field(plane: np.ndarray) -> GradientField:
    """Magnitude and folded orientation of a plane or an (N, H, W) stack."""
    gx, gy = central_gradient(plane)
    return GradientField(
        magnitude=np.hypot(gx, gy), orientation=fold_half_turn(np.arctan2(gy, gx))
    )


def orientation_bins(field: GradientField, n_bins: int):
    """(bin_lo, weight_lo, weight_hi) with the lower bin wrapped by ``np.mod``."""
    bin_width = np.pi / n_bins
    position = field.orientation / bin_width - 0.5
    bin_lo = np.floor(position).astype(int)
    frac = position - bin_lo
    bin_lo = np.mod(bin_lo, n_bins)
    return bin_lo, 1.0 - frac, frac


def cell_histograms_from_field(field: GradientField, cell_size: int, n_bins: int) -> np.ndarray:
    """Per-cell histograms: ``%``-wrapped upper bin, two scatter-adds, one copy out."""
    height, width = field.shape
    bin_lo, w_lo, w_hi = orientation_bins(field, n_bins)
    bin_hi = (bin_lo + 1) % n_bins
    rows, cols = height // cell_size, width // cell_size
    hist = np.zeros((rows, cols, n_bins), dtype=np.float64)
    mag = field.magnitude
    cell_row = np.repeat(np.arange(rows), cell_size)
    cell_col = np.repeat(np.arange(cols), cell_size)
    flat_cell = (cell_row[:, None] * cols + cell_col[None, :]).ravel()
    flat_hist = np.zeros(rows * cols * n_bins, dtype=np.float64)
    np.add.at(flat_hist, flat_cell * n_bins + bin_lo.ravel(), (mag * w_lo).ravel())
    np.add.at(flat_hist, flat_cell * n_bins + bin_hi.ravel(), (mag * w_hi).ravel())
    hist[...] = flat_hist.reshape(rows, cols, n_bins)
    return hist


def resize_bilinear(image: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Bilinear resize (align-corners=False) through four ``np.ix_`` gathers."""
    arr = np.asarray(image, dtype=np.float64)
    in_h, in_w = arr.shape
    if in_h == out_height and in_w == out_width:
        return arr.copy()
    ys = (np.arange(out_height) + 0.5) * in_h / out_height - 0.5
    xs = (np.arange(out_width) + 0.5) * in_w / out_width - 0.5
    ys = np.clip(ys, 0.0, in_h - 1.0)
    xs = np.clip(xs, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, np.newaxis]
    wx = (xs - x0)[np.newaxis, :]
    top = arr[np.ix_(y0, x0)] * (1 - wx) + arr[np.ix_(y0, x1)] * wx
    bottom = arr[np.ix_(y1, x0)] * (1 - wx) + arr[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def luminance(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma as one expression."""
    arr = np.asarray(rgb, dtype=np.float64)
    return 0.299 * arr[..., 0] + 0.587 * arr[..., 1] + 0.114 * arr[..., 2]


def histogram(image: np.ndarray, bins: int, value_range: tuple[float, float]) -> np.ndarray:
    """``np.histogram`` counts as int64."""
    counts, _ = np.histogram(np.asarray(image, dtype=np.float64), bins=bins, range=value_range)
    return counts.astype(np.int64)


def split_channels(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BT.601 YCbCr stacked into one (H, W, 3) array, returned as channel views."""
    arr = np.asarray(rgb, dtype=np.float64)
    r, g, b = arr[..., 0], arr[..., 1], arr[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = (b - y) / (2.0 * (1.0 - 0.114))
    cr = (r - y) / (2.0 * (1.0 - 0.299))
    ycbcr = np.stack([y, cb, cr], axis=-1)
    return ycbcr[..., 0], ycbcr[..., 1], ycbcr[..., 2]


def downsample_binary(mask: np.ndarray, factor: int, vote: float) -> np.ndarray:
    """Float64 mean of each ``factor`` x ``factor`` tile, kept where ``>= vote``."""
    arr = np.asarray(mask).astype(np.float64)
    height, width = arr.shape
    tiles = arr.reshape(height // factor, factor, width // factor, factor)
    return tiles.mean(axis=(1, 3)) >= vote


def window_occupancy(mask: np.ndarray, window: int = 9, stride: int = 2) -> np.ndarray:
    """``any`` over a flat copy of every ``window`` x ``window`` window at ``stride``."""
    arr = np.asarray(mask, dtype=np.float64)
    if arr.shape[0] < window or arr.shape[1] < window:
        return np.zeros((0, 0), dtype=bool)
    view = np.lib.stride_tricks.sliding_window_view(arr, (window, window))[::stride, ::stride]
    ny, nx = view.shape[:2]
    return view.reshape(ny * nx, window * window).any(axis=1).reshape(ny, nx)
