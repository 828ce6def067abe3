"""Run every seeded benchmark op of a workload in one process; list the failures.

    python3 tools/sweep_inputs.py --workload balls-4d --seeds 1-20 --rounds 30
    python3 tools/sweep_inputs.py --workload all --seeds 1-20 --rounds 30
    python3 tools/sweep_inputs.py --workload balls-4d --seeds 1-20,2505,3008 --rounds 80

For every seed of the list (seeds and A-B ranges, comma-separated) and
round 0..R-1 this draws the workload's seeded ops as a benchmark round
does, from np.random.default_rng((seed, round)), runs each one and
applies its own check.  It prints one line per failed op with
its workload, seed, round and family, then a summary line per workload,
and exits 1 if any op failed; --workload all sweeps every workload in
turn.  The fixed inputs of a round (bundled scenarios, malformed files)
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


def seed_list(text: str) -> list:
    """The seeds of a comma list of seeds and A-B ranges, in order: "1-3,7" is 1, 2, 3, 7."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["all", *sorted(workloads.WORKLOADS)])
    ap.add_argument("--seeds", type=seed_list, required=True,
                    help="comma list of seeds and A-B ranges, as 1-20,2505")
    ap.add_argument("--rounds", type=int, required=True, help="rounds 0..R-1 of each seed")
    args = ap.parse_args(argv)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    return 1 if sum(sweep(name, args.seeds, args.rounds) for name in names) else 0


def sweep(name: str, seeds: list, rounds: int) -> int:
    """Run and check the seeded ops of one workload; print and return the failure count."""
    wl = workloads.WORKLOADS[name]
    ops = failed = 0
    start = time.perf_counter()
    for seed in seeds:
        for index in range(rounds):
            for op in wl.seeded(np.random.default_rng((seed, index))):
                ops += 1
                try:
                    op.check(op.run()[0])
                except Exception as e:  # a raising op or a failed check alike
                    failed += 1
                    print(f"{name} seed {seed} round {index} {op.family}: "
                          f"{type(e).__name__}: {e}", flush=True)
    print(f"{name}: {failed} of {ops} seeded ops failed ({time.perf_counter() - start:.0f} s)",
          flush=True)
    return failed


if __name__ == "__main__":
    sys.exit(main())
