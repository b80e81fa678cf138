"""Spatial filtering: 2-D convolution, separable Gaussian, gradients.

Implemented directly on numpy (no scipy dependency in the core library) so
the functional behaviour of the hardware pipelines can be mirrored exactly.
Border handling follows the hardware convention of edge replication, which is
what line-buffer-based streaming filters implement on an FPGA.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.image import ensure_gray


def pad_replicate(image: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    """Edge-replicating pad, the border mode used by streaming HW filters."""
    arr = ensure_gray(image)
    if min(top, bottom, left, right) < 0:
        raise ImageError("padding amounts must be non-negative")
    return np.pad(arr, ((top, bottom), (left, right)), mode="edge")


def convolve2d(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-size 2-D convolution with edge replication.

    The kernel is flipped (true convolution).  Kernel sides must be odd so
    the output aligns with the input grid.
    """
    arr = ensure_gray(image)
    ker = np.asarray(kernel, dtype=np.float64)
    if ker.ndim != 2:
        raise ImageError(f"kernel must be 2-D, got shape {ker.shape}")
    kh, kw = ker.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ImageError(f"kernel sides must be odd, got {ker.shape}")
    ry, rx = kh // 2, kw // 2
    padded = pad_replicate(arr, ry, ry, rx, rx)
    flipped = ker[::-1, ::-1]
    height, width = arr.shape
    out = np.zeros_like(arr)
    # Accumulate shifted copies; O(kh*kw) vectorised passes beats a pixel loop.
    for dy in range(kh):
        for dx in range(kw):
            out += flipped[dy, dx] * padded[dy : dy + height, dx : dx + width]
    return out


def convolve_separable(image: np.ndarray, ky: np.ndarray, kx: np.ndarray) -> np.ndarray:
    """Convolution with a separable kernel given as column and row vectors."""
    col = np.asarray(ky, dtype=np.float64).reshape(-1, 1)
    row = np.asarray(kx, dtype=np.float64).reshape(1, -1)
    return convolve2d(convolve2d(image, col), row)


def gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalised 1-D Gaussian taps."""
    if sigma <= 0:
        raise ImageError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = max(1, int(round(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(xs**2) / (2.0 * sigma**2))
    return taps / taps.sum()


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge replication."""
    taps = gaussian_kernel1d(sigma)
    return convolve_separable(image, taps, taps)


# Sobel taps: the 3x3 operator every HOG hardware front-end approximates.
SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()


def half_difference(arr: np.ndarray, axis: int) -> np.ndarray:
    """``0.5 * (next - previous)`` along ``axis`` with edge replication.

    The interior difference and the two replicated edge slices are written
    straight into the output, so no padded copy is made; the result is
    bitwise equal to differencing an edge-padded array.  Works on any
    array rank (a single plane or an (N, H, W) stack).
    """
    out = np.empty_like(arr)
    src, dst = np.moveaxis(arr, axis, -1), np.moveaxis(out, axis, -1)
    if src.shape[-1] == 1:
        # Both replicated neighbours are the pixel itself.
        np.subtract(src, src, out=dst)
    else:
        np.subtract(src[..., 2:], src[..., :-2], out=dst[..., 1:-1])
        np.subtract(src[..., 1], src[..., 0], out=dst[..., 0])
        np.subtract(src[..., -1], src[..., -2], out=dst[..., -1])
    dst *= 0.5
    return out


def central_gradient(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[-1, 0, 1] central-difference gradients, the Dalal-Triggs choice.

    Dalal & Triggs found that the simple 1-D mask outperforms Sobel for HOG;
    the paper's HOG accelerators use the same mask for its trivial hardware
    cost (one subtractor per pixel).  Borders replicate the edge pixel.
    """
    arr = ensure_gray(image)
    return half_difference(arr, axis=1), half_difference(arr, axis=0)
