"""The self-test that keeps ``src/`` permanently lint-clean.

This is the acceptance gate of the analysis subsystem: every determinism,
unit-naming, telemetry-hygiene, robustness, and API-documentation
invariant holds over the entire source tree, forever.  A failure here
lists the exact file:line:rule to fix (or, for a sanctioned exception,
to annotate with ``# reprolint: skip=<rule>``).
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.baseline import compare_baseline, load_baseline

pytestmark = pytest.mark.analysis

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
BASELINE = REPO / "LINT_BASELINE.json"


def test_source_tree_is_lint_clean():
    violations = analyze_paths([SRC])
    report = "\n".join(v.render() for v in violations)
    assert not violations, f"reprolint violations in src/:\n{report}"


def test_committed_baseline_gate_passes():
    # The same invariant check.sh enforces: the committed baseline is
    # honest and no finding exceeds it.
    comparison = compare_baseline(analyze_paths([SRC]), load_baseline(BASELINE))
    assert not comparison.has_regressions, (
        f"findings beyond LINT_BASELINE.json: {comparison.regressions}"
    )


def test_source_tree_was_actually_scanned():
    # Guard against a silently-empty walk making the gate vacuous.
    files = list(SRC.rglob("*.py"))
    assert len(files) > 80
