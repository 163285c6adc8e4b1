"""Benchmark of the graphongames Monte Carlo pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sbm4_sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` runs the workload's sweeps untraced for about ``--seconds``
seconds and reports the end-to-end metrics. ``--trace 1`` replays the first
sweep call by call under a span recorder, probes the remaining public
functions, and reports the per-layer metrics. Both modes run the
correctness gate. A human-readable report goes to standard output, then one
JSON line {"correct", "attempted", "failed", "metrics"}; the full result,
with machine facts and spans, is written under perfbench/out/.

Exit status: 0 on success, 1 when the correctness gate fails, 2 when the
benchmark cannot run (for instance when the package sources are missing).
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

# One BLAS thread, never more than nproc: the steadiest setting on a small
# shared machine. It must be in the environment before numpy is imported;
# set-up children inherit it.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    try:
        import graphongames
    except ImportError as exc:
        print(f"cannot import graphongames from {SRC}: {exc}", file=sys.stderr)
        return 2
    found = os.path.dirname(os.path.dirname(os.path.abspath(graphongames.__file__)))
    if found != SRC:
        print(f"graphongames was imported from {found}, not {SRC}", file=sys.stderr)
        return 2

    import bench

    try:
        return bench.main(sys.argv[1:], BLAS_THREADS)
    except bench.BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
