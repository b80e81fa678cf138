"""Extension bench — the adaptive thesis, end to end.

The paper's core argument measured functionally: drive the SoC model over
a day -> dusk -> dark trace, render frames sampled along it, route each
through the pipeline the drive's vehicle partition had loaded, run every
fixed pipeline over the same frames, and show (a) every fixed pipeline
fails in some condition, (b) the adaptive system beats them all overall,
(c) it is never the worst in any condition.  The rendered report prints
the drive's measured vehicle frames dropped per reconfiguration.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.experiments.adaptive_gain import run_adaptive_gain


def test_adaptive_beats_fixed_pipelines(benchmark, report_sink):
    result = run_once(benchmark, run_adaptive_gain, n_frames_per_condition=8, scale=0.3)
    report_sink.append(result.render())
    checks = result.shape_checks()
    assert all(checks.values()), checks


def test_adaptive_day_and_dusk_recall_high(benchmark):
    result = run_once(benchmark, run_adaptive_gain, n_frames_per_condition=6, scale=0.3)
    adaptive = result._by_name("adaptive")
    assert adaptive.recall("day") >= 0.8
    assert adaptive.recall("dusk") >= 0.6
