"""The ``python -m repro bench`` subcommand.

    python -m repro bench                      # run all, write BENCH_<ts>.json
    python -m repro bench --label pr7          # ... BENCH_pr7.json
    python -m repro bench --smoke              # fast mode; no snapshot unless --out
    python -m repro bench --filter hog         # name/group substring filter
    python -m repro bench --compare BENCH.json # regression gate vs a baseline
    python -m repro bench --list               # registered benchmark catalog

Exit codes follow the ``repro lint`` convention: 0 clean (no significant
slowdowns), 1 regressions found, 2 usage/configuration error (including a
missing or unreadable baseline).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigurationError
from repro.perf.baseline import build_snapshot, compare, load_snapshot
from repro.perf.registry import all_benches
from repro.perf.runner import RunnerConfig, run_all, smoke_config
from repro.ratchet import write_snapshot


def _render_results(results) -> str:
    lines = [
        f"  {'bench':<28} {'kind':<6} {'n':>3} {'median ms':>10} {'mad ms':>8} "
        f"{'cv':>6} {'min ms':>9} {'max ms':>9}"
    ]
    for result in results:
        s = result.stats
        lines.append(
            f"  {result.name:<28} {result.kind:<6} {s.n:>3} {s.median:>10.3f} "
            f"{s.mad:>8.3f} {s.cv:>6.3f} {s.min:>9.3f} {s.max:>9.3f}"
        )
    return "\n".join(lines)


def _macro_span_rollups(results) -> dict | None:
    """The macro drive's span rollups, lifted out of its result notes."""
    for result in results:
        rollups = result.notes.get("span_rollups")
        if result.kind == "macro" and rollups is not None:
            return rollups
    return None


def main(argv: list[str] | None = None) -> int:
    """Run the bench suite / regression gate; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="statistical benchmarks + BENCH_*.json baselines + regression gate",
    )
    parser.add_argument("--filter", default=None, metavar="SUBSTR",
                        help="only run benchmarks whose name or group contains SUBSTR")
    parser.add_argument("--smoke", action="store_true",
                        help="fast mode: fewer repeats, smaller workloads")
    parser.add_argument("--label", default=None,
                        help="snapshot label (default: a timestamp)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="snapshot path (default: BENCH_<label>.json; "
                             "smoke/compare runs only write when --out is given)")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="compare against a BENCH_*.json baseline and gate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative slowdown threshold for --compare (default 0.10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for workload construction (default 0)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="compare-report format (default text)")
    parser.add_argument("--list", action="store_true", dest="list_benches",
                        help="print the benchmark catalog and exit")
    args = parser.parse_args(argv)

    if args.list_benches:
        benches = all_benches()
        width = max(len(spec.name) for spec in benches)
        for spec in benches:
            print(f"  {spec.name:<{width}}  [{spec.group}/{spec.kind}] {spec.summary}")
        return 0

    if args.threshold < 0:
        print("bench: --threshold must be >= 0", file=sys.stderr)
        return 2

    config = RunnerConfig(seed=args.seed)
    if args.smoke:
        config = smoke_config(config)

    try:
        baseline_doc = load_snapshot(args.compare) if args.compare else None
        results = run_all(
            config,
            filter_substr=args.filter,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except ConfigurationError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if not results:
        print(f"bench: no benchmarks match filter {args.filter!r}", file=sys.stderr)
        return 2

    label = args.label or time.strftime("%Y%m%d-%H%M%S")
    print(f"bench: {len(results)} benchmarks (seed {config.seed}"
          f"{', smoke' if config.smoke else ''})")
    print(_render_results(results))

    exit_code = 0
    if baseline_doc is not None:
        report = compare(
            baseline_doc, results, threshold_rel=args.threshold, current_label=label
        )
        print(report.render_json() if args.format == "json" else report.render_text())
        if report.has_regressions:
            exit_code = 1

    # A plain full run always records its snapshot (the trajectory every
    # optimisation PR is judged against); smoke and compare runs only
    # write when the caller names a path.
    out_path = args.out
    if out_path is None and not args.smoke and args.compare is None:
        out_path = f"BENCH_{label}.json"
    if out_path is not None:
        doc = build_snapshot(
            results,
            label=label,
            runner=config,
            span_rollups=_macro_span_rollups(results),
        )
        write_snapshot(out_path, doc)
        print(f"bench: snapshot -> {out_path}")
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro bench
    sys.exit(main())
