"""Byte identity of the day/dusk and dark fast paths against their plain oracles.

The array NMS, the compare-and-add orientation fold, the ``< 0`` binning
fix-up, the pad-free central difference, the row/column-split bilinear
resize and the in-place luma must reproduce the straightforward versions in
:mod:`tests.equivalence.oracles` bit for bit, including their edge cases:
tied scores, duplicate and touching boxes, IoU exactly at the threshold,
angles of +-pi, +-0 and tiny negatives, 1-pixel-wide planes, same-size and
single-row resizes.

So must the dark path's kernels: the direct-index histogram (NaN, +-inf,
values just outside [0, 1], exact 0.0 and 1.0, blocks of any length), the
banded YCbCr split (odd planes, band boundaries, non-finite pixels, and the
same warnings), the integer decimation (every vote ``k / f**2`` and its
neighbours) and the separable window occupancy (odd, non-square and
smaller-than-window masks).
"""

from __future__ import annotations

import numpy as np
import pytest
import warnings

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.features.gradients import (
    GradientField,
    fold_half_turn,
    gradient_field,
    gradient_field_batch,
    orientation_bins,
)
from repro.features.hog import cell_histograms_batch, cell_histograms_from_field
from repro.imaging.color import BAND_ROWS, luminance, split_channels
from repro.imaging.filters import central_gradient
from repro.imaging.geometry import Rect, nms_boxes, non_max_suppression
from repro.imaging.resize import downsample_binary, resize_bilinear
from repro.imaging.threshold import histogram
from repro.pipelines.dark import window_occupancy
from tests.equivalence import oracles

pytestmark = pytest.mark.equivalence

# Grid coordinates and a few score values make ties, duplicates, touching
# edges (iw == 0) and exact IoU fractions common rather than rare.
coords = st.integers(min_value=0, max_value=12).map(lambda v: v / 2.0)
sides = st.integers(min_value=1, max_value=8).map(lambda v: v / 2.0)
boxes = st.builds(Rect, coords, coords, sides, sides)
scores = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
thresholds = st.sampled_from([0.0, 0.25, 0.3, 1.0 / 3.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_subnormal=True)


def assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def xywh(rects: list[Rect]) -> np.ndarray:
    return np.array([(r.x, r.y, r.w, r.h) for r in rects], dtype=np.float64).reshape(-1, 4)


class TestNms:
    @given(st.lists(st.tuples(boxes, scores), max_size=24), thresholds)
    @settings(max_examples=300, deadline=None)
    def test_matches_rect_loop(self, scored, threshold):
        rects = [rect for rect, _ in scored]
        values = [score for _, score in scored]
        expected = oracles.non_max_suppression(rects, values, threshold)
        assert non_max_suppression(rects, values, threshold) == expected
        kept = nms_boxes(xywh(rects), np.array(values), threshold)
        assert kept.tolist() == expected

    @pytest.mark.parametrize(
        ("first", "second", "iou"),
        [
            (Rect(0, 0, 2, 1), Rect(1, 0, 2, 1), 1.0 / 3.0),
            (Rect(0, 0, 4, 1), Rect(0, 0, 2, 1), 0.5),
            (Rect(0, 0, 2, 2), Rect(2, 0, 2, 2), 0.0),  # touching: iw == 0
            (Rect(0, 0, 2, 2), Rect(0, 0, 2, 2), 1.0),  # duplicate
        ],
    )
    def test_iou_exactly_at_threshold_is_kept(self, first, second, iou):
        assert first.iou(second) == iou
        for threshold in (iou, np.nextafter(iou, -1.0)):
            if not 0.0 <= threshold <= 1.0:
                continue
            expected = oracles.non_max_suppression([first, second], [1.0, 1.0], threshold)
            assert non_max_suppression([first, second], [1.0, 1.0], threshold) == expected
        assert non_max_suppression([first, second], [1.0, 1.0], iou) == [0, 1]

    def test_equal_scores_keep_input_order(self):
        rects = [Rect(10.0 * i, 0, 5, 5) for i in range(5)]
        assert non_max_suppression(rects, [0.5] * 5, 0.3) == [0, 1, 2, 3, 4]

    def test_empty(self):
        assert non_max_suppression([], [], 0.5) == []
        assert nms_boxes(np.empty((0, 4)), np.empty(0), 0.5).tolist() == []


EDGE_ANGLES = [
    np.pi,
    -np.pi,
    0.0,
    -0.0,
    -1e-17,
    -1e-300,
    -5e-324,
    np.nextafter(-np.pi, 0.0),
    np.nextafter(np.pi, 0.0),
    np.nextafter(0.0, -1.0),
    -np.pi / 2,
    np.pi / 2,
]


class TestOrientationFold:
    @given(st.lists(st.floats(-np.pi, np.pi) | st.sampled_from(EDGE_ANGLES), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_matches_float_mod(self, values):
        angles = np.array(values, dtype=np.float64)
        assert_bytes_equal(fold_half_turn(angles.copy()), oracles.fold_half_turn(angles))

    def test_edge_angles(self):
        angles = np.array(EDGE_ANGLES)
        folded = fold_half_turn(angles.copy())
        assert_bytes_equal(folded, oracles.fold_half_turn(angles))
        # +-pi and -0.0 land on +0.0; a tiny negative that rounds up stays pi.
        assert np.signbit(folded[:4]).tolist() == [False] * 4
        assert folded[:4].tolist() == [0.0] * 4
        assert folded[4] == np.pi

    def test_scratch_buffer(self):
        angles = np.array(EDGE_ANGLES)
        scratch = np.empty_like(angles)
        assert_bytes_equal(
            fold_half_turn(angles.copy(), scratch=scratch), oracles.fold_half_turn(angles)
        )

    @given(
        arrays(np.float64, 16, elements=finite | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])),
        arrays(np.float64, 16, elements=finite | st.sampled_from([0.0, -0.0, -1.0, 1.0])),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_on_arctan2_outputs(self, gy, gx):
        angles = np.arctan2(gy, gx)
        assert_bytes_equal(fold_half_turn(angles.copy()), oracles.fold_half_turn(angles))


planes = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite)
)


class TestGradients:
    @given(planes)
    @settings(max_examples=150, deadline=None)
    @example(np.array([[0.25], [0.5], [1.0]]))  # 1 pixel wide
    @example(np.array([[0.25, 0.5, 1.0]]))  # 1 pixel tall
    @example(np.array([[0.5]]))
    def test_central_gradient_matches_padded(self, plane):
        gx, gy = central_gradient(plane)
        ox, oy = oracles.central_gradient(plane)
        assert_bytes_equal(gx, ox)
        assert_bytes_equal(gy, oy)

    @given(planes)
    @settings(max_examples=150, deadline=None)
    def test_gradient_field_matches(self, plane):
        field, expected = gradient_field(plane), oracles.gradient_field(plane)
        assert_bytes_equal(field.magnitude, expected.magnitude)
        assert_bytes_equal(field.orientation, expected.orientation)

    @given(
        st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=finite)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_matches(self, stack):
        field, expected = gradient_field_batch(stack), oracles.gradient_field(stack)
        assert_bytes_equal(field.magnitude, expected.magnitude)
        assert_bytes_equal(field.orientation, expected.orientation)


orientations = st.floats(0.0, np.pi) | st.sampled_from(
    [0.0, np.pi, np.nextafter(np.pi, 0.0)] + [k * np.pi / 18 for k in range(19)]
)


def field_of(orientation: np.ndarray, seed: int) -> GradientField:
    magnitude = np.random.default_rng(seed).random(orientation.shape)
    return GradientField(magnitude=magnitude, orientation=orientation)


class TestBinning:
    @given(
        arrays(np.float64, (4, 6), elements=orientations),
        st.integers(2, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_orientation_bins_match_mod(self, orientation, n_bins):
        field = field_of(orientation, 0)
        for actual, expected in zip(
            orientation_bins(field, n_bins), oracles.orientation_bins(field, n_bins)
        ):
            assert_bytes_equal(actual, expected)

    @given(
        arrays(np.float64, (8, 12), elements=orientations),
        st.sampled_from([1, 2, 4]),
        st.integers(2, 12),
        st.integers(0, 99),
    )
    @settings(max_examples=150, deadline=None)
    def test_cell_histograms_match(self, orientation, cell_size, n_bins, seed):
        field = field_of(orientation, seed)
        assert_bytes_equal(
            cell_histograms_from_field(field, cell_size, n_bins),
            oracles.cell_histograms_from_field(field, cell_size, n_bins),
        )

    @given(
        st.integers(1, 3).flatmap(
            lambda n: arrays(np.float64, (n, 8, 8), elements=st.floats(0.0, 1.0))
        ),
        st.integers(2, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_cells_match_per_window(self, windows, n_bins):
        batched = cell_histograms_batch(windows, 4, n_bins)
        for i, window in enumerate(windows):
            expected = oracles.cell_histograms_from_field(
                oracles.gradient_field(window), 4, n_bins
            )
            assert_bytes_equal(batched[i], expected)


class TestResizeAndLuma:
    @given(
        st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.floats(0.0, 1.0))
        ),
        st.integers(1, 16),
        st.integers(1, 16),
    )
    @settings(max_examples=200, deadline=None)
    @example(np.arange(12.0).reshape(3, 4) / 12.0, 3, 4)  # same size
    @example(np.arange(12.0).reshape(3, 4) / 12.0, 1, 7)  # one output row
    @example(np.arange(40.0).reshape(10, 4) / 40.0, 2, 3)  # strong vertical shrink
    def test_resize_matches_ix_gathers(self, plane, out_h, out_w):
        assert_bytes_equal(
            resize_bilinear(plane, out_h, out_w), oracles.resize_bilinear(plane, out_h, out_w)
        )

    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
            lambda shape: arrays(np.float64, (*shape, 3), elements=st.floats(0.0, 1.0))
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_luminance_matches_expression(self, rgb):
        assert_bytes_equal(luminance(rgb), oracles.luminance(rgb))


#: Values a histogram or colour kernel must treat exactly like its oracle.
SPECIAL_VALUES = [
    np.nan,
    np.inf,
    -np.inf,
    0.0,
    -0.0,
    1.0,
    np.nextafter(1.0, 2.0),
    np.nextafter(1.0, 0.0),
    np.nextafter(0.0, -1.0),
    np.nextafter(0.0, 1.0),
    -1e-300,
    0.5,
    255.0 / 256.0,
    1.0 / 256.0,
]
pixel_values = st.floats(-0.25, 1.25) | st.floats(0.0, 1.0) | st.sampled_from(SPECIAL_VALUES)


def recorded(fn, *args):
    """(result, set of (category, message) warnings) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, {(w.category, str(w.message)) for w in caught}


class TestHistogram:
    @given(
        st.tuples(st.integers(1, 9), st.integers(1, 13)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=pixel_values)
        ),
        st.sampled_from([2, 4, 16, 64, 256, 512, 3, 100, 255]),
        st.sampled_from([(0.0, 1.0), (0, 1), (-0.5, 0.5), (0.0, 2.0), (0.1, 0.9)]),
    )
    @settings(max_examples=300, deadline=None)
    @example(np.array([[1.0, 0.0, -0.0, np.nan]]), 256, (0.0, 1.0))
    @example(np.array([[np.nan, np.inf, -np.inf]]), 256, (0.0, 1.0))  # nothing in range
    def test_matches_np_histogram(self, plane, bins, value_range):
        actual, warned = recorded(histogram, plane, bins, value_range)
        expected, expected_warned = recorded(oracles.histogram, plane, bins, value_range)
        assert_bytes_equal(actual, expected)
        assert warned == expected_warned

    @pytest.mark.parametrize("size", [65535, 65536, 65537, 3 * 65536 + 5])
    def test_block_boundaries(self, size):
        values = np.random.default_rng(size).random(size)
        values[::97] = np.nan
        values[::89] = 1.0
        values[::83] = np.nextafter(1.0, 2.0)
        values[::79] = -0.0
        plane = values.reshape(1, size)
        assert_bytes_equal(histogram(plane), oracles.histogram(plane, 256, (0.0, 1.0)))


def rgb_planes(max_height: int):
    shapes = st.tuples(st.integers(1, max_height), st.integers(1, 7))
    return shapes.flatmap(lambda shape: arrays(np.float64, (*shape, 3), elements=pixel_values))


class TestSplitChannels:
    @given(rgb_planes(2 * BAND_ROWS + 3))
    @settings(max_examples=200, deadline=None)
    @example(np.full((BAND_ROWS + 1, 3, 3), np.inf))
    @example(np.zeros((1, 1, 3)))
    def test_matches_stacked_ycbcr(self, rgb):
        planes, warned = recorded(split_channels, rgb)
        expected, expected_warned = recorded(oracles.split_channels, rgb)
        for plane, oracle in zip(planes, expected):
            assert_bytes_equal(plane, oracle)
            assert plane.flags.c_contiguous
        assert warned == expected_warned


def masks_with_votes():
    """(mask, factor, vote): every vote ``k / f**2`` and both its float neighbours."""

    def build(factor):
        area = factor * factor
        exact = [k / area for k in range(1, area + 1)]
        votes = exact + [np.nextafter(v, 0.0) for v in exact]
        votes += [np.nextafter(v, 2.0) for v in exact if np.nextafter(v, 2.0) <= 1.0]
        shape = st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
            lambda tiles: (tiles[0] * factor, tiles[1] * factor)
        )
        mask = shape.flatmap(lambda s: arrays(np.bool_, s))
        return st.tuples(mask, st.just(factor), st.sampled_from(votes))

    return st.integers(1, 4).flatmap(build)


class TestDownsampleBinary:
    @given(masks_with_votes())
    @settings(max_examples=400, deadline=None)
    def test_matches_float_tile_mean(self, case):
        mask, factor, vote = case
        assert_bytes_equal(
            downsample_binary(mask, factor, vote), oracles.downsample_binary(mask, factor, vote)
        )

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_every_count_at_every_exact_vote(self, factor):
        # One tile per set-pixel count 0..f**2, so each vote k/f**2 splits them.
        area = factor * factor
        mask = np.zeros((factor, factor * (area + 1)), dtype=bool)
        for count in range(area + 1):
            mask.reshape(factor, area + 1, factor)[:, count].flat[:count] = True
        for k in range(1, area + 1):
            for vote in (k / area, np.nextafter(k / area, 0.0)):
                assert_bytes_equal(
                    downsample_binary(mask, factor, vote),
                    oracles.downsample_binary(mask, factor, vote),
                )


mask_values = st.sampled_from([0.0, 0.0, 0.0, 1.0, -0.0, np.nan])
sparse_masks = st.tuples(st.integers(1, 30), st.integers(1, 30)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=mask_values)
)


class TestWindowOccupancy:
    @given(sparse_masks)
    @settings(max_examples=300, deadline=None)
    @example(np.zeros((8, 30)))  # shorter than a window
    @example(np.zeros((30, 8)))  # narrower than a window
    @example(np.eye(9))
    def test_matches_full_window_copy(self, mask):
        assert_bytes_equal(window_occupancy(mask), oracles.window_occupancy(mask))

    @pytest.mark.parametrize(("row", "col"), [(0, 0), (8, 8), (9, 10), (20, 0), (20, 22)])
    def test_single_lit_pixel(self, row, col):
        mask = np.zeros((21, 23), dtype=bool)
        mask[row, col] = True
        assert_bytes_equal(window_occupancy(mask), oracles.window_occupancy(mask))
