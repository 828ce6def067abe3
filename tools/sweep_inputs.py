"""Run every seeded benchmark op of one workload in one process; list the failures.

    python3 tools/sweep_inputs.py --workload balls-4d --seeds 1-20 --rounds 30

For every seed A..B and round 0..R-1 this draws the workload's seeded ops
as a benchmark round does, from np.random.default_rng((seed, round)), runs
each one and applies its own check.  It prints one line per failed op with
its seed, round and family, then a summary line, and exits 1 if any op
failed.  The fixed inputs of a round (bundled scenarios, malformed files)
are not swept.  BLAS and OpenMP run on one thread unless the environment
says otherwise, and eulerchar is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "chibench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", type=seed_range, required=True, help="A-B, or one seed")
    ap.add_argument("--rounds", type=int, required=True, help="rounds 0..R-1 of each seed")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    ops = failed = 0
    start = time.perf_counter()
    for seed in args.seeds:
        for index in range(args.rounds):
            for op in wl.seeded(np.random.default_rng((seed, index))):
                ops += 1
                try:
                    op.check(op.run()[0])
                except Exception as e:  # a raising op or a failed check alike
                    failed += 1
                    print(f"seed {seed} round {index} {op.family}: {type(e).__name__}: {e}",
                          flush=True)
    print(f"{args.workload}: {failed} of {ops} seeded ops failed "
          f"({time.perf_counter() - start:.0f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
