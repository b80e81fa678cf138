"""The lint gate: ``path::rule`` finding counts judged by the shared ratchet.

A whole-program analyzer grows new rule families faster than legacy code
can be cleaned up.  Rather than either silencing the new rules or
breaking the build on day one, the committed ``LINT_BASELINE.json``
records the accepted findings as ``path::rule`` counts.  The gate
(``repro lint --compare-baseline``) fails only when a count *exceeds*
its baseline — new findings block, legacy findings are tracked, and
every fix ratchets the baseline down via ``--update-baseline``.
Writing, loading and the compare loop are :mod:`repro.ratchet`'s.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path, PurePath
from typing import Iterable

from repro import ratchet
from repro.analysis.core import Violation
from repro.errors import ConfigurationError

BASELINE_SCHEMA = "repro.analysis/baseline"
BASELINE_VERSION = 1
DEFAULT_BASELINE_PATH = "LINT_BASELINE.json"

SCHEMA = ratchet.Schema(
    name=BASELINE_SCHEMA,
    version=BASELINE_VERSION,
    table="counts",
    label="lint baseline",
    error=ConfigurationError,
    create_hint="repro lint --update-baseline",
    version_key="version",
)


def normalize_path(path: str) -> str:
    """A run-location-independent form of a violation path.

    Paths are rebased at the last ``src`` component and joined with
    forward slashes, so a run from the repo root and a run over an
    absolute path produce identical baseline keys.
    """
    parts = list(PurePath(path).parts)
    if "src" in parts:
        last_src = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last_src:]
    return PurePath(*parts).as_posix() if parts else ""


def baseline_key(violation: Violation) -> str:
    return f"{normalize_path(violation.path)}::{violation.rule_id}"


def collect_counts(violations: Iterable[Violation]) -> dict[str, int]:
    """Current findings as sorted ``path::rule -> count``."""
    counts = Counter(baseline_key(v) for v in violations)
    return dict(sorted(counts.items()))


def write_baseline(path: str | Path, violations: Iterable[Violation]) -> None:
    ratchet.write_snapshot(
        path,
        {
            "schema": BASELINE_SCHEMA,
            "version": BASELINE_VERSION,
            "counts": collect_counts(violations),
        },
    )


def load_baseline(path: str | Path) -> dict[str, int]:
    counts = ratchet.load_snapshot(path, SCHEMA)["counts"]
    for key, value in counts.items():
        if type(value) is not int or value < 0:
            raise ConfigurationError(
                f"lint baseline {str(path)!r}: count for {key!r} must be a "
                f"non-negative integer, got {value!r}"
            )
    return counts


def compare_baseline(
    violations: Iterable[Violation], baseline: dict[str, int]
) -> ratchet.Report:
    """Judge current findings per key; a key missing on one side counts 0."""
    current = collect_counts(violations)
    keys = set(current) | set(baseline)

    def judge(allowed: int, now: int) -> str:
        if now > allowed:
            return "worse"
        return "better" if now < allowed else "same"

    return ratchet.Report(
        ratchet.compare(
            {key: baseline.get(key, 0) for key in keys},
            {key: current.get(key, 0) for key in keys},
            judge,
        )
    )


def render_comparison(
    comparison: ratchet.Report, violations: Iterable[Violation]
) -> str:
    """Human-readable gate verdict, new findings rendered individually."""
    lines: list[str] = []
    if comparison.regressions:
        regressed_keys = {entry.name for entry in comparison.regressions}
        lines.append("reprolint baseline: NEW FINDINGS")
        for violation in violations:
            if baseline_key(violation) in regressed_keys:
                lines.append(f"  {violation.render()}")
        for entry in comparison.regressions:
            lines.append(
                f"  {entry.name}: {entry.current} findings "
                f"(baseline allows {entry.baseline})"
            )
    else:
        lines.append("reprolint baseline: ok (no findings beyond baseline)")
    if comparison.improvements:
        fixed = sum(e.baseline - e.current for e in comparison.improvements)
        lines.append(
            f"  {fixed} baselined finding(s) fixed — ratchet with "
            "`repro lint --update-baseline`"
        )
    return "\n".join(lines)
