"""fockdecay benchmark entry point.

    python3 perfbench/run.py --workload {oracle,sweep,multimode} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src`` directory, nothing is installed.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Lines before it, starting with ``#``, record
the environment and a summary.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

# OpenBLAS, OpenMP and MKL read these when they load, so they are set
# before numpy is first imported; the set-up probes inherit them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "fockdecay" / "__init__.py").is_file():
        print(f"error: no fockdecay sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    return harness.main(args, root)


if __name__ == "__main__":
    raise SystemExit(main())
