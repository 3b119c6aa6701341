"""Benchmark of the infosep package, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload measures-redundant --seed 1 \\
        --seconds 56 --trace 0
    python3 perfbench/run.py --workload all      # every workload, a summary

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2.  See ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One thread of work: pin the BLAS pools unless the caller chose otherwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "infosep", "__init__.py")):
        sys.stderr.write(f"infosep sources not found under {SRC}\n")
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import bench
    return bench.main(sys.argv[1:], ROOT, SRC, _T0)


if __name__ == "__main__":
    sys.exit(main())
