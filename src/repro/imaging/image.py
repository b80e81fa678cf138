"""Image validation and basic array plumbing.

The library passes images around as plain numpy arrays: ``float64`` (or
``float32``) in ``[0, 1]`` with shape ``(H, W)`` for grayscale/binary planes
and ``(H, W, 3)`` for RGB.  These helpers centralise the shape/range checks so
every operator can assume well-formed input.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.geometry import Rect


def ensure_gray(image: np.ndarray, name: str = "image") -> np.ndarray:
    """Validate a 2-D float image and return it as float64."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ImageError(f"{name} must be 2-D (H, W), got shape {arr.shape}")
    if arr.size == 0:
        raise ImageError(f"{name} must be non-empty")
    return arr.astype(np.float64, copy=False)


def ensure_rgb(image: np.ndarray, name: str = "image") -> np.ndarray:
    """Validate an (H, W, 3) image and return it as float64 in [0, 1] units.

    A uint8 frame (what a camera delivers) is scaled by 1/255; a float
    frame passes through unscanned (float64 without a copy).  Any other
    dtype is refused with an :class:`ImageError` naming it.
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageError(f"{name} must have shape (H, W, 3), got {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ImageError(f"{name} must be non-empty")
    if arr.dtype == np.uint8:
        return arr / 255.0
    if arr.dtype.kind != "f":
        raise ImageError(f"{name} must be a float or uint8 image, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def ensure_binary(image: np.ndarray, name: str = "image") -> np.ndarray:
    """Validate a 2-D mask whose values are only 0 and 1; returns bool array."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ImageError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr
    unique = np.unique(arr)
    if not np.all(np.isin(unique, (0, 1))):
        raise ImageError(f"{name} must contain only 0/1 values")
    return arr.astype(bool)


def crop(image: np.ndarray, rect: Rect) -> np.ndarray:
    """Extract the integer-rounded sub-image covered by ``rect``.

    The rectangle is clipped to the image; raises :class:`ImageError` when the
    clipped region is empty.
    """
    arr = np.asarray(image)
    height, width = arr.shape[:2]
    clipped = rect.clipped(width, height)
    if clipped is None:
        raise ImageError(f"crop rect {rect} lies outside image of shape {arr.shape}")
    x, y, w, h = clipped.as_int()
    x = min(max(x, 0), width - 1)
    y = min(max(y, 0), height - 1)
    w = min(w, width - x)
    h = min(h, height - y)
    return arr[y : y + h, x : x + w]


def blend(canvas: np.ndarray, patch: np.ndarray, x: int, y: int, alpha: float) -> None:
    """Alpha-blend ``patch`` onto ``canvas`` at (x, y) in place."""
    if not 0.0 <= alpha <= 1.0:
        raise ImageError(f"alpha must be in [0, 1], got {alpha}")
    canvas_arr = np.asarray(canvas)
    patch_arr = np.asarray(patch)
    ch, cw = canvas_arr.shape[:2]
    ph, pw = patch_arr.shape[:2]
    x1, y1 = max(x, 0), max(y, 0)
    x2, y2 = min(x + pw, cw), min(y + ph, ch)
    if x2 <= x1 or y2 <= y1:
        return
    region = canvas[y1:y2, x1:x2]
    source = patch_arr[y1 - y : y2 - y, x1 - x : x2 - x]
    canvas[y1:y2, x1:x2] = (1.0 - alpha) * region + alpha * source


def additive_light(canvas: np.ndarray, patch: np.ndarray, x: int, y: int) -> None:
    """Add a light-source patch onto ``canvas`` (clipped to 1.0) in place.

    Models how emissive sources (taillights, headlights, street lamps)
    combine with the scene: light adds rather than replaces.
    """
    canvas_arr = np.asarray(canvas)
    patch_arr = np.asarray(patch)
    ch, cw = canvas_arr.shape[:2]
    ph, pw = patch_arr.shape[:2]
    x1, y1 = max(x, 0), max(y, 0)
    x2, y2 = min(x + pw, cw), min(y + ph, ch)
    if x2 <= x1 or y2 <= y1:
        return
    region = canvas[y1:y2, x1:x2]
    source = patch_arr[y1 - y : y2 - y, x1 - x : x2 - x]
    canvas[y1:y2, x1:x2] = np.clip(region + source, 0.0, 1.0)
