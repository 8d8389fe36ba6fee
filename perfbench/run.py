"""Benchmark entry point.

    python3 perfbench/run.py --workload finetune --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread: the 2-core machine the reference figures come from ran
# stage-1 steps faster and steadier with one than with OpenBLAS's default.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["pretrain", "finetune", "transfer", "relevance"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "restyle" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'restyle'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    from workloads import DEFAULT

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), DEFAULT,
                       out_dir=HERE / "out")


if __name__ == "__main__":
    sys.exit(main())
