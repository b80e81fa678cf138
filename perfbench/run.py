#!/usr/bin/env python3
"""Frame-loop benchmark of the adaptive vehicle-detection stack.

Run from the repository root:

    python3 perfbench/run.py --workload day_dusk_360p --seed 1 --seconds 20 --trace 0

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One thread per numpy thread pool, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("day_dusk_360p", "dark_1080p", "adaptive_drive_360p")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_dir=ROOT / ".perfbench",
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
