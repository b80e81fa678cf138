"""The frame dtype contract every pipeline shares through ``ensure_rgb``.

A camera delivers uint8 frames.  Each ``detect`` must treat one exactly
like the float frame it stands for (scaled by 1/255), and refuse any
other integer dtype with an ``ImageError`` that names it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_pedestrian_frames
from repro.errors import ImageError
from repro.pipelines.day_dusk import HogSvmVehicleDetector
from repro.pipelines.pedestrian import PedestrianDetector


@pytest.fixture(scope="module")
def pedestrian_case():
    detector = PedestrianDetector()
    detector.train_from_frames(
        make_pedestrian_frames(n_frames=8, height=180, width=320, seed=41), seed=42
    )
    frame = make_pedestrian_frames(n_frames=1, height=180, width=320, seed=47).frames[0]
    return detector, frame.rgb


def pipeline_case(name: str, request) -> tuple:
    """(trained detector, float frame with something in it to find)."""
    if name == "day_dusk":
        models = request.getfixturevalue("condition_models")
        detector = HogSvmVehicleDetector().with_model(models["combined"])
        return detector, request.getfixturevalue("day_frame").rgb
    if name == "dark":
        return request.getfixturevalue("dark_detector"), request.getfixturevalue("dark_frame").rgb
    return request.getfixturevalue("pedestrian_case")


@pytest.mark.parametrize("name", ["day_dusk", "dark", "pedestrian"])
def test_uint8_frames_detect_like_their_float_twin(name, request):
    detector, frame = pipeline_case(name, request)
    u8 = np.round(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint8)
    expected = detector.detect(u8 / 255.0)
    assert expected, "the frame must hold something to detect"
    got = detector.detect(u8)
    assert [(d.rect, d.score) for d in got] == [(d.rect, d.score) for d in expected]
    with pytest.raises(ImageError, match="int16"):
        detector.detect(u8.astype(np.int16))
