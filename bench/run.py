"""strz benchmark: one closed-loop client solving one workload in one process.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload standing_wave_3d --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout.  A run sets the
workload up several times (``setup_s`` is the median), then solves it
repeatedly until ``--seconds`` is used up, checking every output against the
workload's exact solution.  Untraced set-up and solve times are rescaled to a
fixed host speed by ``refclock`` (``solve_s`` and ``setup_s``: seconds at the
speed at which its reference kernel takes ``refclock.NOMINAL_REF_S``); the
raw wall times go to the detail file.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` it carries per-layer metrics from
spans recorded around the package's internal calls.  The line before it is
the machine record; full details and spans are written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "strz" / "__init__.py").is_file():
        print(f"bench: no strz sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One client on one core: BLAS/OpenMP pools must be capped before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args, OUT_DIR, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
