"""Rule modules; importing this package populates the registry."""

from repro.analysis.rules import (  # noqa: F401
    api,
    determinism,
    exports,
    forksafety,
    hotpath,
    perf,
    pragma,
    robustness,
    taint,
    telemetry,
    units,
)
