"""Image-processing substrate: the software model of the PL image path.

Everything the detection pipelines consume is built from this package:
color conversion, spatial filtering, thresholding, binary morphology,
resampling, connected components, integral images, geometry, and drawing.
"""

from repro.imaging.color import (
    luminance,
    rgb_to_ycbcr,
    split_channels,
)
from repro.imaging.components import Blob, blob_statistics, find_blobs, label_components
from repro.imaging.draw import (
    ascii_render,
    ascii_render_with_boxes,
    draw_box,
    fill_disk,
    fill_rect,
    light_glow,
)
from repro.imaging.filters import (
    SOBEL_X,
    SOBEL_Y,
    central_gradient,
    convolve2d,
    convolve_separable,
    gaussian_blur,
    gaussian_kernel1d,
    pad_replicate,
)
from repro.imaging.geometry import (
    Rect,
    match_detections,
    nms_boxes,
    non_max_suppression,
)
from repro.imaging.image import (
    additive_light,
    blend,
    crop,
    ensure_binary,
    ensure_gray,
    ensure_rgb,
)
from repro.imaging.integral import box_mean, box_sum, integral_image, occupancy
from repro.imaging.morphology import (
    closing,
    dilate,
    erode,
    opening,
    rect_element,
    square_element,
)
from repro.imaging.resize import (
    downsample_binary,
    pyramid_scales,
    resize_bilinear,
    resize_rgb_bilinear,
)
from repro.imaging.threshold import (
    binary_threshold,
    histogram,
    otsu_threshold,
)

__all__ = [
    "Blob",
    "Rect",
    "SOBEL_X",
    "SOBEL_Y",
    "additive_light",
    "ascii_render",
    "ascii_render_with_boxes",
    "binary_threshold",
    "blend",
    "blob_statistics",
    "box_mean",
    "box_sum",
    "central_gradient",
    "closing",
    "convolve2d",
    "convolve_separable",
    "crop",
    "dilate",
    "downsample_binary",
    "draw_box",
    "ensure_binary",
    "ensure_gray",
    "ensure_rgb",
    "erode",
    "fill_disk",
    "fill_rect",
    "find_blobs",
    "gaussian_blur",
    "gaussian_kernel1d",
    "histogram",
    "integral_image",
    "label_components",
    "light_glow",
    "luminance",
    "match_detections",
    "nms_boxes",
    "non_max_suppression",
    "occupancy",
    "opening",
    "otsu_threshold",
    "pad_replicate",
    "pyramid_scales",
    "rect_element",
    "resize_bilinear",
    "resize_rgb_bilinear",
    "rgb_to_ycbcr",
    "split_channels",
    "square_element",
]
