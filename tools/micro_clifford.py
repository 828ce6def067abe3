"""Time Multivector.__mul__ on the operands of one Cl(4) rotor flatness scan.

    python3 tools/micro_clifford.py [--repeat R]

A `rotor-cl4` scan of 20 points samples its frame field on 820 stencil
points.  There it forms the unit check U U~ (even x even) and each frame
vector (U~ gamma_a) U (odd x even) on 820 points, the products du_i u_i of
the connection (vector x vector) on a (9, 20) batch, and bivector products
such as B B on 20 points.  This builds random operands of those grades and
batch shapes, times each product R times (default 200) and prints the
median microseconds per product.  BLAS and OpenMP run on one thread
unless the environment says otherwise, and eulerchar is imported from
this checkout's src/.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from eulerchar.clifford import Multivector, blade_grades  # noqa: E402

N = 4


def operand(rng, grades, shape) -> Multivector:
    """Random coefficients on the blades of the given grades, zero elsewhere."""
    keep = np.isin(blade_grades(N), grades)
    return Multivector(N, rng.standard_normal(shape + (1 << N,)) * keep)


def cases(rng):
    even, odd = (0, 2, 4), (1, 3)
    return [
        ("even x even", operand(rng, even, (820,)), operand(rng, even, (820,))),
        ("odd x even", operand(rng, odd, (820,)), operand(rng, even, (820,))),
        ("vector x vector", operand(rng, (1,), (9, 20)), operand(rng, (1,), (9, 20))),
        ("bivector x bivector", operand(rng, (2,), (20,)), operand(rng, (2,), (20,))),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=200, help="timed products per case")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(f"{'product':<22}{'batch':>10}{'median us':>12}")
    for name, a, b in cases(np.random.default_rng(0)):
        a * b  # fill any table cache before timing
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            a * b
            times.append(1e6 * (time.perf_counter() - t0))
        shape = "x".join(map(str, a.coeffs.shape[:-1]))
        print(f"{name:<22}{shape:>10}{statistics.median(times):>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
