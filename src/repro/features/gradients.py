"""Gradient magnitude/orientation maps for HOG.

The hardware "Gradient Calculation" stage (paper Fig. 1) computes per-pixel
gradient magnitude and quantised orientation from central differences.  The
software model keeps full precision; the quantisation into orientation bins
happens in the histogram stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FeatureError
from repro.imaging.filters import central_gradient, half_difference
from repro.imaging.image import ensure_gray


@dataclass(frozen=True)
class GradientField:
    """Per-pixel gradient magnitude and orientation.

    Attributes:
        magnitude: (H, W) non-negative gradient magnitudes.
        orientation: (H, W) angles in radians, folded into [0, pi) for the
            unsigned-gradient convention HOG uses.
    """

    magnitude: np.ndarray
    orientation: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.magnitude.shape


def fold_half_turn(angles: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Fold ``arctan2`` angles in [-pi, pi] into [0, pi), in place.

    Compare-and-add instead of a float ``np.mod``, bitwise equal to
    ``np.mod(angles, np.pi)`` over that range: negatives get ``+ pi`` (a
    tiny negative whose sum rounds to pi stays pi), every other angle gets
    ``+ 0.0`` (which turns ``-0.0`` into ``+0.0`` and changes nothing
    else), and ``pi`` itself folds to ``+0.0``.  ``scratch``, an array of
    the same shape, may lend its memory to the shift plane.
    """
    at_pi = angles == np.pi
    angles += np.multiply(angles < 0.0, np.pi, out=scratch)
    angles[at_pi] = 0.0
    return angles


def _unsigned_field(gx: np.ndarray, gy: np.ndarray) -> GradientField:
    """Magnitude and folded orientation; consumes ``gx`` and ``gy`` as buffers."""
    magnitude = np.hypot(gx, gy)
    orientation = fold_half_turn(np.arctan2(gy, gx, out=gx), scratch=gy)
    return GradientField(magnitude=magnitude, orientation=orientation)


def gradient_field(image: np.ndarray) -> GradientField:
    """Compute the unsigned gradient field of a gray image."""
    return _unsigned_field(*central_gradient(ensure_gray(image)))


def gradient_field_batch(windows: np.ndarray) -> GradientField:
    """Unsigned gradient fields of an (N, H, W) window stack at once.

    Every operation is elementwise or a fixed slice, so plane ``i`` of the
    result is bitwise equal to ``gradient_field(windows[i])`` — the batched
    HOG descriptor leans on that to stay byte-identical to the per-window
    reference.  The returned :class:`GradientField` carries 3-D arrays.
    """
    stack = np.asarray(windows, dtype=np.float64)
    if stack.ndim != 3:
        raise FeatureError(f"windows must be (N, H, W), got shape {stack.shape}")
    if stack.shape[1] < 1 or stack.shape[2] < 1:
        raise FeatureError(f"windows must be non-empty, got shape {stack.shape}")
    return _unsigned_field(half_difference(stack, axis=2), half_difference(stack, axis=1))


def orientation_bins(field: GradientField, n_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Soft-assign each pixel's orientation to two adjacent bins.

    Linear interpolation between neighbouring orientation bins, exactly as in
    Dalal-Triggs.  Returns (bin_lo, weight_lo, weight_hi) where ``bin_lo`` is
    the lower bin index per pixel and the upper bin is ``(bin_lo+1) % n_bins``.
    """
    if n_bins < 2:
        raise FeatureError(f"need at least 2 orientation bins, got {n_bins}")
    bin_width = np.pi / n_bins
    # Center of bin b is (b + 0.5) * bin_width.
    position = field.orientation / bin_width
    position -= 0.5
    floor = np.floor(position)
    bin_lo = floor.astype(int)
    # Orientations lie in [0, pi], so the only out-of-range bin is -1,
    # which wraps to the last bin.
    np.putmask(bin_lo, bin_lo < 0, n_bins - 1)
    weight_hi = position
    weight_hi -= floor
    weight_lo = np.subtract(1.0, weight_hi, out=floor)
    return bin_lo, weight_lo, weight_hi
