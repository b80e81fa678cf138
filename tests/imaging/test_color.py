"""Tests for repro.imaging.color: YCbCr conversion and channel splits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ImageError
from repro.imaging.color import (
    luminance,
    rgb_to_ycbcr,
    split_channels,
)


def rgb_images(max_side: int = 8):
    shapes = st.tuples(
        st.integers(min_value=1, max_value=max_side),
        st.integers(min_value=1, max_value=max_side),
        st.just(3),
    )
    return hnp.arrays(
        dtype=np.float64,
        shape=shapes,
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )


class TestConversion:
    def test_black_maps_to_zero(self):
        black = np.zeros((2, 2, 3))
        ycc = rgb_to_ycbcr(black)
        assert np.allclose(ycc, 0.0)

    def test_white_has_full_luma_no_chroma(self):
        white = np.ones((2, 2, 3))
        ycc = rgb_to_ycbcr(white)
        assert np.allclose(ycc[..., 0], 1.0)
        assert np.allclose(ycc[..., 1:], 0.0, atol=1e-12)

    def test_pure_red_has_positive_cr(self):
        red = np.zeros((1, 1, 3))
        red[..., 0] = 1.0
        y, cb, cr = split_channels(red)
        assert y[0, 0] == pytest.approx(0.299)
        assert cr[0, 0] == pytest.approx(0.5)
        assert cb[0, 0] < 0

    def test_pure_blue_has_positive_cb(self):
        blue = np.zeros((1, 1, 3))
        blue[..., 2] = 1.0
        _, cb, cr = split_channels(blue)
        assert cb[0, 0] == pytest.approx(0.5)
        assert cr[0, 0] < 0

    def test_rejects_gray_input(self):
        with pytest.raises(ImageError):
            rgb_to_ycbcr(np.zeros((4, 4)))

    @settings(max_examples=30)
    @given(rgb_images())
    def test_chroma_ranges(self, rgb):
        ycc = rgb_to_ycbcr(rgb)
        assert ycc[..., 0].min() >= -1e-12 and ycc[..., 0].max() <= 1 + 1e-12
        assert np.abs(ycc[..., 1:]).max() <= 0.5 + 1e-12


class TestHelpers:
    def test_luminance_matches_y(self):
        rng = np.random.default_rng(0)
        rgb = rng.random((5, 7, 3))
        assert np.allclose(luminance(rgb), rgb_to_ycbcr(rgb)[..., 0])

    def test_cr_ranks_red_over_white(self):
        red = np.zeros((1, 1, 3))
        red[..., 0] = 1.0
        white = np.ones((1, 1, 3))
        assert split_channels(red)[2][0, 0] > split_channels(white)[2][0, 0]
