"""Color-space conversion: RGB -> YCbCr (ITU-R BT.601).

The dark-condition pipeline of the paper thresholds both the *luminance*
channel (light sources are bright) and the *chrominance* channels (taillights
are red), so the library standardises on BT.601 YCbCr, the color space that
HDTV camera front-ends commonly deliver.

All conversions operate on float images in [0, 1].  Cb and Cr are centered:
they are returned in [-0.5, 0.5] so that "red" is simply a positive Cr.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import ensure_rgb

# BT.601 luma coefficients.
_KR = 0.299
_KG = 0.587
_KB = 0.114


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert an (H, W, 3) RGB image in [0, 1] to YCbCr.

    Returns:
        (H, W, 3) array with Y in [0, 1] and Cb, Cr in [-0.5, 0.5].
    """
    arr = ensure_rgb(rgb, "rgb")
    r = arr[..., 0]
    g = arr[..., 1]
    b = arr[..., 2]
    y = _KR * r + _KG * g + _KB * b
    cb = (b - y) / (2.0 * (1.0 - _KB))
    cr = (r - y) / (2.0 * (1.0 - _KR))
    return np.stack([y, cb, cr], axis=-1)


def luminance(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma plane of an RGB image."""
    arr = ensure_rgb(rgb, "rgb")
    # (KR*r + KG*g) + KB*b, accumulated in place through one scratch plane.
    y = np.multiply(arr[..., 0], _KR)
    term = np.multiply(arr[..., 1], _KG)
    y += term
    y += np.multiply(arr[..., 2], _KB, out=term)
    return y


def split_channels(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The paper's "Split Chroma & Luminance" stage (Fig. 4).

    Returns:
        (y, cb, cr) planes; Y in [0, 1], Cb/Cr in [-0.5, 0.5].
    """
    ycbcr = rgb_to_ycbcr(rgb)
    return ycbcr[..., 0], ycbcr[..., 1], ycbcr[..., 2]


def redness(rgb: np.ndarray) -> np.ndarray:
    """Cr chroma plane; large positive values indicate red light sources."""
    _, _, cr = split_channels(rgb)
    return cr
