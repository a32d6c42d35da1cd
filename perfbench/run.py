"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload blobs-default --seed 1 --seconds 32 --trace 0

Run it from the root of a checkout; it imports rpspectral from ``src/``
there. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass. Human-readable lines come first, then a
JSON line with the environment and per-operation details, and last the
result object. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # fixed, and never above nproc, so runs compare across machines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2
    if not (SRC / "rpspectral" / "__init__.py").is_file():
        print(f"no rpspectral sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import bench
    import rpspectral
    from workloads import WORKLOADS

    if Path(rpspectral.__file__).resolve().parent != SRC / "rpspectral":
        print(f"rpspectral imported from {rpspectral.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result = bench.measure(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        blas_threads=BLAS_THREADS,
    )
    for name, metric in result.metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_frac':32s} {result.detail['fail_frac']:>16.6g} 1")
    print(json.dumps(result.detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": len(result.failures),
                "metrics": result.metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
