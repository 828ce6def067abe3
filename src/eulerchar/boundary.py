"""Euler characteristics of even-dimensional balls from boundary data.

On a manifold with boundary the interior zero indices alone do not
determine chi; the correction lives in the zeros of the tangential
projection phi_par = phi - (phi . m) m on the boundary sphere, where m
is the outward unit normal.  Two assemblies are reported side by side:

* chi_paper     = interior + (1/2) * sum of all boundary windings,
  the half-weighted convention in which each boundary zero of the
  tangential field counts half;
* chi_morse     = interior + sum of windings at zeros where the full
  field points inward, the classical transfer of Morse counting.

For fields that never go tangent to the boundary (uniformly outward or
inward) and for wholly tangent fields, the boundary term vanishes and
the two assemblies coincide; those are the endorsed families where
chi_paper is asserted against the oracle.  For generic crossing fields
chi_paper is reported with a flag but only chi_morse is certified.

On B^2 and B^4 alike the zeros of phi_par come from the chart atlas of
the boundary sphere, S^1 or S^3: its two stereographic charts push phi
itself forward, their columns DP are tangent, so DP^T m = 0 and
DP^T phi = DP^T phi_par, and phi_par is never formed.  On S^1 a chart
zero is wound on the two points of S^0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import BallDomain
from .fields import VectorField
from .manifolds import SphereManifold
from .report import Record
from .triangulations import chi_oracle
from .winding import SphereQuadrature, sphere_mesh
from .zeros import _norms, find_zeros, total_index

MIN_BOUNDARY_NORM = 1e-8
TRANSVERSAL_EPS = 1e-3
TANGENT_EPS = 1e-9
SWEEP_MESH_LEVEL = {2: 9, 4: 3}  # 2,048 directions on S^1


class BoundaryError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoundaryZeroRecord(Record):
    """Zero of the tangential field on the boundary sphere."""

    location: tuple          # ambient coordinates
    winding: int             # index of phi_par within the boundary
    winding_error: float | None  # gap between the last two quadrature levels
    inward: bool             # full field points into the domain here
    alpha: float             # angle of phi from the outward normal
    normal_component: float  # phi . m at the zero
    chart: str


@dataclass(frozen=True)
class BoundaryReport(Record):
    interior_sum: int
    boundary_all_half: float
    boundary_inward: int
    chi_paper: float
    chi_morse: int
    chi_oracle: int
    endorsed: bool
    flags: tuple
    zeros: tuple             # interior ZeroRecords
    boundary_zeros: tuple    # BoundaryZeroRecords


def _cos_alpha(phi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """phi . m / |phi| for field values phi and outward unit normals m, row by row."""
    norms = _norms(phi)
    low = np.flatnonzero(norms <= MIN_BOUNDARY_NORM)
    if low.size:
        raise BoundaryError(f"field vanishes on the boundary along the normal {m[low[0]].tolist()}")
    return np.vecdot(phi, m) / norms


def alpha_angle(phi: np.ndarray, m: np.ndarray) -> list:
    """Angles in [0, pi] between field values phi and outward normals m, row by row."""
    return [math.acos(c) for c in np.clip(_cos_alpha(phi, m), -1.0, 1.0)]


def _classify(field: VectorField, ball: BallDomain) -> list:
    """Flags from a boundary sweep of cos alpha = phi . m / |phi|."""
    m, _ = sphere_mesh(ball.dimension, SWEEP_MESH_LEVEL[ball.dimension])
    cos_alpha = _cos_alpha(field.evaluate_many(np.asarray(ball.center) + ball.radius * m), m)
    if cos_alpha.min() > TRANSVERSAL_EPS:
        return ["transversal-outward"]
    if cos_alpha.max() < -TRANSVERSAL_EPS:
        return ["transversal-inward"]
    if np.max(np.abs(cos_alpha)) < TANGENT_EPS:
        return ["constant-alpha-tangent"]
    return []


def boundary_zeros(field: VectorField, ball: BallDomain) -> list:
    """Zeros of phi_par on the boundary sphere, sorted by location, with phi from one
    field call: its chart atlas pushes phi forward, which sees only phi_par."""
    if ball.dimension not in (2, 4):
        raise BoundaryError("boundary machinery covers B^2 and B^4")
    sphere = SphereManifold(radius=ball.radius, center=np.asarray(ball.center),
                            ambient_dim=ball.dimension)
    zeros = sphere.tangential_index_sum(field).zeros
    pts = np.array([z.ambient for z in zeros], dtype=float).reshape(-1, ball.dimension)
    phi = np.ascontiguousarray(field.evaluate_many(pts))  # so vecdot gives each row np.dot's bits
    v = pts - np.asarray(ball.center)
    m = v / _norms(v)[:, None]
    records = [BoundaryZeroRecord(
        location=tuple(p.tolist()),
        winding=z.winding,
        winding_error=z.winding_error,
        inward=bool(nc < 0.0),
        alpha=a,
        normal_component=float(nc),
        chart=z.chart,
    ) for p, z, nc, a in zip(pts, zeros, np.vecdot(phi, m), alpha_angle(phi, m))]
    records.sort(key=lambda z: z.location)
    return records


def chi_with_boundary(field: VectorField, ball: BallDomain,
                      resolution: int | None = None,
                      quadrature: SphereQuadrature | None = None) -> BoundaryReport:
    """Both chi assemblies for a field on a closed ball.

    quadrature tops the interior zeros' winding ladders; the S^1 and S^3
    chart zeros keep their fixed scan grid and rule.
    """
    if field.dimension != ball.dimension:
        raise BoundaryError("field and ball dimensions differ")
    if field.dimension not in (2, 4):
        raise BoundaryError("boundary machinery covers B^2 and B^4")

    flags = _classify(field, ball)
    interior = find_zeros(field, ball, resolution=resolution, quadrature=quadrature)
    interior_sum = total_index(interior)

    if flags:  # transversal or wholly tangent: no boundary contribution
        b_records = []
    else:
        b_records = boundary_zeros(field, ball)
        if not b_records:
            flags = ["no-boundary-zeros"]

    half = 0.5 * sum(z.winding for z in b_records)
    inward = int(sum(z.winding for z in b_records if z.inward))
    endorsed = bool(flags)
    if not endorsed:
        flags = ["paper-halfsum-not-endorsed"]

    oracle = chi_oracle("B2" if ball.dimension == 2 else "B4")
    return BoundaryReport(
        interior_sum=interior_sum,
        boundary_all_half=float(half),
        boundary_inward=inward,
        chi_paper=float(interior_sum + half),
        chi_morse=int(interior_sum + inward),
        chi_oracle=oracle,
        endorsed=endorsed,
        flags=tuple(flags),
        zeros=tuple(interior),
        boundary_zeros=tuple(b_records),
    )
