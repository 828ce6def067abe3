"""Time the preimage oracle and the grid scan's corner test on a 4-D ball.

    python3 tools/micro_scan.py [--repeat R]

A `balls-4d` index sum scans its ball on an 11^4 grid, whose values
`zeros._candidate_cells` reduces to the cells where every component
spans zero, and checks its enclosing sphere with
`winding.oracle_degree_preimage`, which counts signed preimages on the
8,192 cells of `sphere_mesh(4, 3)`.  This times both on a linear field
and on a quaternion square (a complex-product field for the oracle in
R^2), R times each (default 50), and prints the median microseconds per
call.  BLAS and OpenMP run on one thread unless the environment says
otherwise, and eulerchar is imported from this checkout's src/.
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

from eulerchar.fields import (  # noqa: E402
    complex_power_field,
    linear_field,
    quaternion_square_field,
)
from eulerchar.winding import oracle_degree_preimage  # noqa: E402
from eulerchar.zeros import DEFAULT_RESOLUTION, _candidate_cells  # noqa: E402

CENTER = np.array([0.1, -0.05, 0.02, 0.03])
RES = DEFAULT_RESOLUTION[4]


def fields(rng):
    return [("linear", linear_field(rng.standard_normal((4, 4)), offset=-CENTER / 2)),
            ("quaternion-square", quaternion_square_field())]


def scan_grid(field) -> np.ndarray:
    """The field on the (RES + 1)^4 grid of the unit ball's bounding box."""
    axes = [np.linspace(c - 1.0, c + 1.0, RES + 1) for c in CENTER]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return field.evaluate_many(pts).reshape(*(RES + 1,) * 4, 4)


def median_us(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(1e6 * (time.perf_counter() - t0))
    return statistics.median(times)


def cases(rng):
    """(layer, field name, input, call) of every timed case."""
    out = []
    for name, field in fields(rng):
        grid = scan_grid(field)
        out += [("oracle", name, "8192 cells",
                 lambda f=field: oracle_degree_preimage(f, CENTER, 1.0)),
                ("scan", name, "11^4 x 4", lambda g=grid: _candidate_cells(g))]
    plane = complex_power_field(2)
    return out + [("oracle", "complex-power 2", "256 cells",
                   lambda: oracle_degree_preimage(plane, CENTER[:2], 1.0))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=50, help="timed calls per case")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    timed = cases(np.random.default_rng(0))
    # one untimed call of every case first: it fills the mesh cache, and without
    # it the first case timed in a fresh process read up to twice its later time
    for *_, call in timed:
        call()
    print(f"{'layer':<10}{'field':<20}{'input':>14}{'median us':>12}")
    for layer, name, size, call in timed:
        print(f"{layer:<10}{name:<20}{size:>14}{median_us(call, args.repeat):>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
