"""Tests for repro.imaging.resize: binary downsample, bilinear, pyramid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ImageError
from repro.imaging.resize import (
    downsample_binary,
    pyramid_scales,
    resize_bilinear,
    resize_rgb_bilinear,
)


class TestDownsample:
    def test_binary_factor_one_identity(self):
        mask = np.random.default_rng(0).random((4, 6)) < 0.5
        assert np.array_equal(downsample_binary(mask, 1, vote=1.0), mask)

    def test_binary_rejects_misaligned(self):
        with pytest.raises(ImageError):
            downsample_binary(np.ones((5, 6), dtype=bool), 2)

    def test_hdtv_to_processing_resolution(self):
        mask = np.zeros((1080 // 4, 1920 // 4), dtype=bool)  # shrunk proxy keeps ratio
        out = downsample_binary(mask, 3)
        assert out.shape == (90, 160)

    def test_binary_vote(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True  # 1/4 of its 2x2 tile
        out = downsample_binary(mask, 2, vote=0.25)
        assert out[0, 0]
        assert not out[1, 1]

    def test_binary_vote_threshold(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        assert not downsample_binary(mask, 2, vote=0.5)[0, 0]

    def test_binary_rejects_bad_vote(self):
        with pytest.raises(ImageError):
            downsample_binary(np.zeros((2, 2), dtype=bool), 2, vote=0.0)


class TestResize:

    def test_bilinear_identity(self):
        img = np.random.default_rng(2).random((4, 4))
        assert np.allclose(resize_bilinear(img, 4, 4), img)

    def test_bilinear_constant_preserved(self):
        img = np.full((4, 6), 0.3)
        out = resize_bilinear(img, 7, 11)
        assert np.allclose(out, 0.3)

    def test_bilinear_range_bounded(self):
        img = np.random.default_rng(3).random((6, 6))
        out = resize_bilinear(img, 13, 9)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_bilinear_rejects_empty_target(self):
        with pytest.raises(ImageError):
            resize_bilinear(np.ones((4, 4)), 0, 4)

    def test_rgb_resize_per_channel(self):
        rgb = np.zeros((4, 4, 3))
        rgb[..., 1] = 1.0
        out = resize_rgb_bilinear(rgb, 2, 2)
        assert out.shape == (2, 2, 3)
        assert np.allclose(out[..., 1], 1.0)
        assert np.allclose(out[..., 0], 0.0)


class TestPyramid:
    def test_scales_descend_from_one(self):
        scales = pyramid_scales((64, 64), (256, 256), scale_step=2.0)
        assert scales[0] == 1.0
        assert all(a > b for a, b in zip(scales, scales[1:]))
        assert len(scales) == 3  # 1.0, 0.5, 0.25

    def test_window_larger_than_image(self):
        assert pyramid_scales((64, 64), (32, 32)) == []

    def test_rejects_step_below_one(self):
        with pytest.raises(ImageError):
            pyramid_scales((8, 8), (64, 64), scale_step=1.0)
