#!/usr/bin/env bash
# The one-command local CI gate: style, types, project invariants, tests.
#
#   ./scripts/check.sh          # everything
#   ./scripts/check.sh --fast   # skip the (slow) full pytest tier
#
# ruff and mypy come from the optional `lint` extra (pip install -e .[lint]);
# when they are not installed the gate reports and skips them rather than
# failing, so the script works in the minimal offline environment too.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

status=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check"
    ruff check src tests benchmarks || status=1
else
    echo "== ruff not installed; skipping (pip install -e .[lint])"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy"
    mypy || status=1
else
    echo "== mypy not installed; skipping (pip install -e .[lint])"
fi

echo "== repro lint (whole-program pass, gated on LINT_BASELINE.json; SARIF artifact: lint.sarif)"
PYTHONPATH=src python -m repro lint src --jobs 4 \
    --compare-baseline LINT_BASELINE.json --sarif-out lint.sarif || status=1

echo "== repro bench --smoke (perf harness sanity; no snapshot written)"
PYTHONPATH=src python -m repro bench --smoke >/dev/null || status=1

if [[ $fast -eq 0 ]]; then
    echo "== repro bench --compare BENCH_repro.json (regression gate vs committed baseline)"
    # --threshold 0.5: the baseline was measured on a different (shared)
    # box; between-run load drift here is routinely +/-30%, which the
    # within-run MAD noise floor cannot see (PERF.md, "Baselines and the
    # regression gate").  The gate exists to catch structural slowdowns --
    # un-batching a window scan costs 5-20x -- not scheduling jitter.
    PYTHONPATH=src python -m repro bench --compare BENCH_repro.json --threshold 0.5 || status=1
else
    echo "== bench compare: skipped (--fast)"
fi

echo "== pytest -m equivalence (batched vs reference byte-identity; RuntimeWarnings are errors)"
# A vectorised kernel that divides by zero or makes a NaN warns and can
# still come out "byte-identical" to a reference that does the same; the
# flag turns such warnings into failures.
PYTHONPATH=src python -m pytest -x -q -m equivalence -W error::RuntimeWarning || status=1

echo "== repro incident smoke (flight recorder: induce, bundle, replay)"
PYTHONPATH=src python -m repro incident smoke --duration 20 --scenario flaky_dma >/dev/null || status=1

echo "== repro fleet smoke (sharded drives vs inline digest re-check)"
PYTHONPATH=src python -m repro fleet smoke >/dev/null || status=1

echo "== repro fleet top --once (live-plane smoke + OpenMetrics exposition check + rollup report)"
fleet_tmp=$(mktemp -d)
PYTHONPATH=src python -m repro fleet top --once --count 4 --duration 1.0 >/dev/null || status=1
PYTHONPATH=src python -m repro fleet run --count 4 --workers 2 --duration 1.0 \
    --out "$fleet_tmp/FLEET_check.json" --metrics-out "$fleet_tmp/fleet.om" >/dev/null || status=1
# write -> load -> validate -> render: the rollup just written must read back.
PYTHONPATH=src python -m repro fleet report "$fleet_tmp/FLEET_check.json" >/dev/null || status=1
if ! grep -q "^# EOF" "$fleet_tmp/fleet.om"; then
    echo "check.sh: OpenMetrics exposition missing '# EOF' terminator" >&2
    status=1
fi
rm -rf "$fleet_tmp"

echo "== repro quality compare (detection-quality ratchet vs committed baseline)"
PYTHONPATH=src python -m repro quality compare QUALITY_BASELINE.json >/dev/null || status=1

echo "== pytest perfbench (the frame-loop benchmark's own self-tests, ~15 s)"
PYTHONPATH=src python3 -m pytest perfbench -q || status=1

if [[ $fast -eq 0 ]]; then
    echo "== pytest (tier 1)"
    PYTHONPATH=src python -m pytest -x -q || status=1
else
    echo "== pytest: skipped (--fast); run the analysis tier at least:"
    PYTHONPATH=src python -m pytest -x -q -m analysis || status=1
fi

if [[ $status -eq 0 ]]; then
    echo "check.sh: all gates passed"
else
    echo "check.sh: FAILED" >&2
fi
exit $status
