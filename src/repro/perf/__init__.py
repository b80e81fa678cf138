"""Performance observability: profiler, bench harness, regression gate.

See PERF.md at the repository root.  Three parts on top of
:mod:`repro.telemetry`:

* :mod:`repro.perf.profile` — the span profiler: self-vs-child rollups per
  span name, hot-span tables, per-frame wall-ms percentiles, and a
  collapsed-stack export (speedscope / FlameGraph);
* :mod:`repro.perf.registry` / :mod:`repro.perf.runner` — ``@bench``
  registered micro/macro benchmarks with seeded workloads, warmup,
  adaptive repeats, outlier rejection, and median/MAD/CV reporting;
* :mod:`repro.perf.baseline` — schema-versioned ``BENCH_*.json``
  snapshots and the ``--compare`` regression gate behind
  ``python -m repro bench``, judged by the shared :mod:`repro.ratchet`.
"""

from repro.perf.profile import (
    SpanProfile,
    SpanRollup,
    profile_dump,
    profile_spans,
    profile_tracer,
)
from repro.perf.registry import (
    BenchContext,
    BenchSpec,
    all_benches,
    bench,
    get_bench,
    load_suites,
)
from repro.perf.runner import (
    SMOKE_CONFIG,
    BenchResult,
    RunnerConfig,
    run_all,
    run_bench,
    smoke_config,
)
from repro.perf.stats import (
    SampleStats,
    mad,
    median,
    percentile,
    reject_outliers,
    relative_change,
    robust_cv,
    significant_slowdown,
    summarize,
)

__all__ = [
    "BenchContext",
    "BenchResult",
    "BenchSpec",
    "RunnerConfig",
    "SMOKE_CONFIG",
    "SampleStats",
    "SpanProfile",
    "SpanRollup",
    "all_benches",
    "bench",
    "get_bench",
    "load_suites",
    "mad",
    "median",
    "percentile",
    "profile_dump",
    "profile_spans",
    "profile_tracer",
    "reject_outliers",
    "relative_change",
    "robust_cv",
    "run_all",
    "run_bench",
    "significant_slowdown",
    "smoke_config",
    "summarize",
]
