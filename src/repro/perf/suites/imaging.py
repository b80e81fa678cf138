"""Imaging hot paths: resize, morphology, integral images, NMS, dark preprocess.

The dark pipeline spends its pre-DBN time here (split -> threshold ->
decimate -> close, timed end to end on a 1080p frame), every pyramid
level of the day/dusk path goes through the bilinear resize, and every
day/dusk frame ends in one NMS over the candidate boxes of all its
pyramid levels.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.synthetic import make_iroads_like
from repro.imaging.geometry import nms_boxes
from repro.imaging.integral import integral_image
from repro.imaging.morphology import closing, square_element
from repro.imaging.resize import resize_bilinear
from repro.perf.registry import BenchContext, bench
from repro.pipelines.dark import DarkVehicleDetector


@bench("resize_bilinear_ms", group="imaging", summary="bilinear frame resize")
def resize_bilinear_bench(ctx: BenchContext):
    height, width = (90, 160) if ctx.smoke else (180, 320)
    frame = ctx.rng.random((height, width))
    ctx.digest(frame)
    out_h, out_w = int(height * 0.8), int(width * 0.8)

    def run():
        return resize_bilinear(frame, out_h, out_w)

    return run


@bench("morphology_closing_ms", group="imaging", summary="binary closing, 3x3 square")
def morphology_closing(ctx: BenchContext):
    height, width = (60, 110) if ctx.smoke else (120, 220)
    mask = ctx.rng.random((height, width)) > 0.7
    ctx.digest(mask)
    element = square_element(3)

    def run():
        return closing(mask, element)

    return run


@bench("integral_image_ms", group="imaging", summary="summed-area table build")
def integral_image_bench(ctx: BenchContext):
    height, width = (90, 160) if ctx.smoke else (180, 320)
    frame = ctx.rng.random((height, width))
    ctx.digest(frame)

    def run():
        return integral_image(frame)

    return run


@bench("nms_ms", group="imaging", summary="greedy NMS of ~300 overlapping boxes, IoU 0.3")
def nms_bench(ctx: BenchContext):
    # About the candidate count of one 360x640 multiscale day/dusk frame:
    # 64-px windows at four pyramid scales, on a 16-px grid, clustered
    # around a few objects so that most boxes overlap a neighbour.
    n = 100 if ctx.smoke else 300
    centres = ctx.rng.uniform((0.0, 0.0), (576.0, 296.0), size=(8, 2))
    origins = centres[ctx.rng.integers(0, 8, n)] + ctx.rng.integers(-3, 4, (n, 2)) * 16.0
    sides = 64.0 * 1.25 ** ctx.rng.integers(0, 4, n)
    boxes = np.column_stack([origins, sides, sides])
    scores = ctx.rng.normal(size=n)
    ctx.digest(boxes, scores)
    ctx.note("kept", int(nms_boxes(boxes, scores, 0.3).size))

    def run():
        return nms_boxes(boxes, scores, 0.3)

    return run


@bench("dark_preprocess_ms", group="imaging", summary="dark preprocess of one 1080p frame")
def dark_preprocess_bench(ctx: BenchContext):
    # Split, Otsu and fixed thresholds, 3x decimation and closing: stages
    # 1-4 of the dark pipeline, which need no trained model.
    height, width = (360, 640) if ctx.smoke else (1080, 1920)
    seed = int(ctx.rng.integers(2**31))
    frame = make_iroads_like(n_frames=1, height=height, width=width, seed=seed).frames[0].rgb
    ctx.digest(frame)
    detector = DarkVehicleDetector()
    ctx.note("lit_pixels", int(detector.preprocess(frame).sum()))

    def run():
        return detector.preprocess(frame)

    return run
