"""Image resampling: binary decimation and bilinear resize.

The dark pipeline downsamples the thresholded 1920x1080 mask to 640x360
(paper Fig. 4) before the morphological and DBN stages.  Downsampling a
mask by an integer factor counts set pixels per tile — what a hardware
decimator with an accumulator tree implements — while arbitrary resizes use
bilinear sampling.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.image import ensure_binary, ensure_gray


def downsample_binary(mask: np.ndarray, factor: int, vote: float = 0.25) -> np.ndarray:
    """Downsample a binary mask: tile becomes 1 when >= ``vote`` fraction set.

    An integer decimator, like a hardware accumulator tree: each
    ``factor`` x ``factor`` tile's set pixels are counted by adding its
    strided rows, then its strided columns.  A tile's count is an exact
    integer, so ``count / factor**2 >= vote`` is the float tile mean's
    vote; the smallest count that passes is found once and compared.  The
    mask dimensions must be divisible by ``factor``; the hardware block
    asserts the same alignment (1920/3 = 640, 1080/3 = 360).  The default
    vote of 1/4 keeps small taillight blobs alive through the 3x decimation
    while suppressing single noisy pixels.
    """
    src = ensure_binary(mask)
    if not 0.0 < vote <= 1.0:
        raise ImageError(f"vote must be in (0, 1], got {vote}")
    if src.size == 0:
        raise ImageError("image must be non-empty")
    if factor < 1:
        raise ImageError(f"factor must be >= 1, got {factor}")
    height, width = src.shape
    if height % factor or width % factor:
        raise ImageError(
            f"image shape {src.shape} is not divisible by downsample factor {factor}"
        )
    area = factor * factor
    bits = src.view(np.uint8)
    rows = bits[0::factor].astype(np.uint8 if area <= 255 else np.int64)
    for i in range(1, factor):
        rows += bits[i::factor]
    counts = rows[:, 0::factor].copy()
    for j in range(1, factor):
        counts += rows[:, j::factor]
    # count / area rises with count, and count == area always passes.
    passes = np.arange(area + 1) / area >= vote
    return counts >= int(np.argmax(passes))


def resize_bilinear(image: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Bilinear resize of a 2-D plane (align-corners=False convention)."""
    arr = ensure_gray(image)
    if out_height < 1 or out_width < 1:
        raise ImageError("output shape must be positive")
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
    wx = xs - x0
    # Gather each distinct source row once, blend it across the output
    # columns, then pick every output row's upper and lower blended rows.
    rows, pick = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    source = arr.take(rows, axis=0)
    across = source.take(x0, axis=1)
    across *= 1 - wx
    right = source.take(x1, axis=1)
    right *= wx
    across += right
    top, bottom = across[pick[:out_height]], across[pick[out_height:]]
    top *= 1 - wy
    bottom *= wy
    top += bottom
    return top


def resize_rgb_bilinear(image: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Bilinear resize applied per channel of an (H, W, 3) image."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageError(f"expected (H, W, 3) image, got {arr.shape}")
    planes = [resize_bilinear(arr[..., c], out_height, out_width) for c in range(3)]
    return np.stack(planes, axis=-1)


def pyramid_scales(
    min_size: tuple[int, int],
    image_size: tuple[int, int],
    scale_step: float = 1.2,
) -> list[float]:
    """Scale factors for a coarse-to-fine detection pyramid.

    Produces factors f (<= 1) such that the *downscaled* image at each level
    still contains the detector window ``min_size`` = (height, width).
    """
    if scale_step <= 1.0:
        raise ImageError(f"scale_step must be > 1, got {scale_step}")
    win_h, win_w = min_size
    img_h, img_w = image_size
    if win_h > img_h or win_w > img_w:
        return []
    scales = []
    factor = 1.0
    while img_h * factor >= win_h and img_w * factor >= win_w:
        scales.append(factor)
        factor /= scale_step
    return scales
