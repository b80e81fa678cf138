"""Thresholding: fixed binary and Otsu histogram thresholds.

The dark-condition detector's first stage (paper Fig. 3/4) is background
subtraction by thresholding both the luminance and chrominance planes and
merging the two masks.  Otsu thresholding is included because the
night-detection literature the paper builds on (Chen et al. [6]) uses
automatic histogram thresholding.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.image import ensure_gray

# Values per block of the direct-index histogram (0.5 MB of float64).
_BLOCK = 65536


def binary_threshold(image: np.ndarray, threshold: float, above: bool = True) -> np.ndarray:
    """Fixed-threshold binarisation.

    Args:
        image: 2-D plane (any real range, e.g. Y in [0,1] or Cr in [-0.5,0.5]).
        threshold: Cut value.
        above: When True, pixels strictly greater than the threshold become 1.

    Returns:
        Boolean mask of the same shape.
    """
    arr = ensure_gray(image)
    return arr > threshold if above else arr < threshold


def histogram(image: np.ndarray, bins: int = 256, value_range: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
    """Intensity histogram with ``bins`` equal-width bins over ``value_range``.

    Counts equal ``np.histogram``'s: values outside the range and NaN are
    dropped, and the range's upper end falls in the last bin.  Over (0, 1)
    with a power-of-two bin count every edge ``k / bins`` is exact, so a
    value's bin is ``floor(bins * v)`` and the counts come from one
    ``np.bincount`` per block; other ranges and bin counts use
    ``np.histogram`` itself.
    """
    if bins < 2:
        raise ImageError(f"need at least 2 bins, got {bins}")
    arr = ensure_gray(image)
    exact = isinstance(bins, (int, np.integer)) and bins & (bins - 1) == 0
    if not exact or tuple(value_range) != (0.0, 1.0):
        counts, _ = np.histogram(arr, bins=bins, range=value_range)
        return counts.astype(np.int64)
    flat = arr.ravel()
    # One extra bin catches v == 1.0 (floor(bins * 1.0) == bins).
    counts = np.zeros(bins + 1, dtype=np.int64)
    scaled = np.empty(min(_BLOCK, flat.size))
    index = np.empty(scaled.size, dtype=np.intp)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        if not (block.min() >= 0.0 and block.max() <= 1.0):  # NaN fails both
            block = block[(block >= 0.0) & (block <= 1.0)]
        n = block.size
        np.multiply(block, bins, out=scaled[:n])
        np.copyto(index[:n], scaled[:n], casting="unsafe")
        counts += np.bincount(index[:n], minlength=bins + 1)
    counts[bins - 1] += counts[bins]
    return counts[:bins]


def otsu_threshold(image: np.ndarray, bins: int = 256, value_range: tuple[float, float] = (0.0, 1.0)) -> float:
    """Otsu's between-class-variance-maximising threshold.

    Returns the threshold *value* (in the units of ``value_range``), not a
    bin index.  Degenerate (constant) images return the midpoint.
    """
    counts = histogram(image, bins=bins, value_range=value_range).astype(np.float64)
    total = counts.sum()
    lo, hi = value_range
    if total == 0:
        raise ImageError("empty image")
    centers = lo + (np.arange(bins) + 0.5) * (hi - lo) / bins
    weight_bg = np.cumsum(counts)
    weight_fg = total - weight_bg
    cum_mean = np.cumsum(counts * centers)
    grand_mean = cum_mean[-1]
    valid = (weight_bg > 0) & (weight_fg > 0)
    if not np.any(valid):
        return (lo + hi) / 2.0
    mean_bg = np.where(valid, cum_mean / np.maximum(weight_bg, 1e-12), 0.0)
    mean_fg = np.where(valid, (grand_mean - cum_mean) / np.maximum(weight_fg, 1e-12), 0.0)
    between = weight_bg * weight_fg * (mean_bg - mean_fg) ** 2
    between[~valid] = -1.0
    # Between-class variance plateaus across empty histogram gaps; take the
    # plateau midpoint (the classical tie-break) and cut at the *upper edge*
    # of that bin so pixels inside the chosen background bin stay background.
    peak = between.max()
    plateau = np.flatnonzero(between >= peak - 1e-12 * max(peak, 1.0))
    best = int(round(plateau.mean()))
    bin_width = (hi - lo) / bins
    return float(lo + (best + 1) * bin_width)
