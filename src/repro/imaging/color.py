"""Color-space conversion: RGB -> YCbCr (ITU-R BT.601).

The dark-condition pipeline of the paper thresholds both the *luminance*
channel (light sources are bright) and the *chrominance* channels (taillights
are red), so the library standardises on BT.601 YCbCr, the color space that
HDTV camera front-ends commonly deliver.

All conversions operate on float images in [0, 1].  Cb and Cr are centered:
they are returned in [-0.5, 0.5] so that "red" is simply a positive Cr.

:func:`split_channels` is the one place the YCbCr maths lives.  It streams
the frame through in row bands of :data:`BAND_ROWS` rows, writing Y, Cb and
Cr straight into three contiguous planes, so a 1080p frame's working set
stays in cache and no interleaved (H, W, 3) result is built and re-sliced.
:func:`rgb_to_ycbcr` stacks those planes.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import ensure_rgb

# BT.601 luma coefficients.
_KR = 0.299
_KG = 0.587
_KB = 0.114
# Chroma denominators: Cb = (B - Y) / (2 (1 - KB)), Cr = (R - Y) / (2 (1 - KR)).
_CB_SCALE = 2.0 * (1.0 - _KB)
_CR_SCALE = 2.0 * (1.0 - _KR)

#: Rows per band of the split; a 1920-wide band of 16 rows is 0.25 MB a plane.
BAND_ROWS = 16


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert an (H, W, 3) RGB image in [0, 1] to YCbCr.

    Returns:
        (H, W, 3) array with Y in [0, 1] and Cb, Cr in [-0.5, 0.5].
    """
    return np.stack(split_channels(rgb), axis=-1)


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

    Each band of :data:`BAND_ROWS` rows computes ``Y = (KR*r + KG*g) + KB*b``
    then ``Cb = (b - Y) / (2 (1 - KB))`` and ``Cr = (r - Y) / (2 (1 - KR))``
    into its slice of the output planes, in that float operation order.

    Returns:
        (y, cb, cr) contiguous planes; Y in [0, 1], Cb/Cr in [-0.5, 0.5].
    """
    arr = ensure_rgb(rgb, "rgb")
    height, width = arr.shape[:2]
    y = np.empty((height, width))
    cb = np.empty((height, width))
    cr = np.empty((height, width))
    terms = np.empty((min(BAND_ROWS, height), width))
    for top in range(0, height, BAND_ROWS):
        rows = slice(top, top + BAND_ROWS)
        r, g, b = arr[rows, :, 0], arr[rows, :, 1], arr[rows, :, 2]
        y_band, term = y[rows], terms[: r.shape[0]]
        np.multiply(r, _KR, out=y_band)
        y_band += np.multiply(g, _KG, out=term)
        y_band += np.multiply(b, _KB, out=term)
        np.divide(np.subtract(b, y_band, out=cb[rows]), _CB_SCALE, out=cb[rows])
        np.divide(np.subtract(r, y_band, out=cr[rows]), _CR_SCALE, out=cr[rows])
    return y, cb, cr
