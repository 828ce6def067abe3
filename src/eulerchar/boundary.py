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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .domains import BallDomain
from .fields import CallableField, VectorField
from .manifolds import SphereManifold
from .report import Record
from .triangulations import chi_oracle
from .winding import sphere_mesh
from .zeros import find_zeros, total_index

MIN_BOUNDARY_NORM = 1e-8
TRANSVERSAL_EPS = 1e-3
TANGENT_EPS = 1e-9
CIRCLE_SAMPLES = 2048
TOUCH_TOL = 1e-10


class BoundaryError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoundaryZeroRecord(Record):
    """Zero of the tangential field on the boundary sphere."""

    location: tuple          # ambient coordinates
    winding: int             # index of phi_par within the boundary
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


def tangential_project(field: VectorField, ball: BallDomain, pts) -> np.ndarray:
    """phi - (phi . m) m at boundary points, one point (N,) or a batch (k, N)."""
    pts = np.asarray(pts, dtype=float)
    m = (pts - np.asarray(ball.center)) / ball.radius
    phi = field.evaluate_many(pts.reshape(-1, ball.dimension)).reshape(pts.shape)
    return phi - np.einsum("...i,...i->...", phi, m)[..., None] * m


def tangential_field(field: VectorField, ball: BallDomain) -> CallableField:
    """phi_par with its exact Jacobian J - m (m^T J + phi^T / r) - (phi . m) I / r."""

    def jac(pts):
        m = (pts - np.asarray(ball.center))[:, :, None] / ball.radius  # (k, N, 1) columns
        phi, j = field.evaluate_many(pts)[:, :, None], field.jacobian_many(pts)
        normal = (m.mT @ phi) * np.eye(ball.dimension)
        return j - m @ (m.mT @ j + phi.mT / ball.radius) - normal / ball.radius

    return CallableField(ball.dimension, lambda pts: tangential_project(field, ball, pts),
                         jac=jac, name=f"{field.name}-tangential", batch=True)


def alpha_angle(field: VectorField, ball: BallDomain, p) -> float:
    """Angle between the field and the outward normal, in [0, pi]."""
    p = np.asarray(p, dtype=float)
    m = ball.outward_normal(p)
    phi = field.evaluate(p)
    norm = np.linalg.norm(phi)
    if norm <= MIN_BOUNDARY_NORM:
        raise BoundaryError(f"field vanishes on the boundary at {p.tolist()}")
    return float(math.acos(np.clip(np.dot(phi, m) / norm, -1.0, 1.0)))


def _boundary_samples(ball: BallDomain) -> np.ndarray:
    n = ball.dimension
    c = np.asarray(ball.center)
    if n == 2:
        th = 2.0 * math.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
        dirs = np.column_stack([np.cos(th), np.sin(th)])
    else:
        dirs, _ = sphere_mesh(n, 3)
    return c + ball.radius * dirs


def _classify(field: VectorField, ball: BallDomain):
    """(flags, cos_alpha array) from a boundary sweep of phi . m / |phi|."""
    pts = _boundary_samples(ball)
    c = np.asarray(ball.center)
    m = (pts - c) / ball.radius
    phi = field.evaluate_many(pts)
    norms = np.linalg.norm(phi, axis=1)
    if norms.min() <= MIN_BOUNDARY_NORM:
        raise BoundaryError("field vanishes on the boundary sphere")
    cos_alpha = np.einsum("pi,pi->p", phi, m) / norms
    if cos_alpha.min() > TRANSVERSAL_EPS:
        return ["transversal-outward"], cos_alpha
    if cos_alpha.max() < -TRANSVERSAL_EPS:
        return ["transversal-inward"], cos_alpha
    if np.max(np.abs(cos_alpha)) < TANGENT_EPS:
        return ["constant-alpha-tangent"], cos_alpha
    return [], cos_alpha


def _boundary_record(field: VectorField, ball: BallDomain, p, winding: int,
                     chart: str) -> BoundaryZeroRecord:
    normal_comp = float(np.dot(field.evaluate(p), ball.outward_normal(p)))
    return BoundaryZeroRecord(
        location=tuple(p.tolist()),
        winding=winding,
        inward=normal_comp < 0.0,
        alpha=alpha_angle(field, ball, p),
        normal_component=normal_comp,
        chart=chart,
    )


def _circle_boundary_zeros(field: VectorField, ball: BallDomain) -> list:
    """Isolated zeros of the 1-D boundary field f(t) = phi . tangent."""
    c = np.asarray(ball.center)
    r = ball.radius

    def f(theta):
        p = c + r * np.array([math.cos(theta), math.sin(theta)])
        phi = field.evaluate(p)
        return float(-phi[0] * math.sin(theta) + phi[1] * math.cos(theta))

    th = 2.0 * math.pi * np.arange(CIRCLE_SAMPLES + 1) / CIRCLE_SAMPLES
    cos, sin = np.cos(th), np.sin(th)
    phi = field.evaluate_many(c + r * np.column_stack([cos, sin]))
    vals = -phi[:, 0] * sin + phi[:, 1] * cos
    records = []
    for k in range(CIRCLE_SAMPLES):
        a, b = vals[k], vals[k + 1]
        if a == 0.0:  # re-seat exact hits between samples
            a = f(th[k] - 1e-9)
        if a * b < 0.0:
            root = brentq(f, th[k] - 1e-9, th[k + 1], xtol=1e-14)
            w = 1 if (b - a) > 0 else -1
            p = c + r * np.array([math.cos(root), math.sin(root)])
            records.append(_boundary_record(field, ball, p, w, "circle"))
        elif abs(a) < TOUCH_TOL and abs(b) < TOUCH_TOL:
            raise BoundaryError(
                "boundary field hugs zero without crossing; zeros not isolated"
            )
    records.sort(key=lambda z: z.location)
    return records


def _sphere_boundary_zeros(field: VectorField, ball: BallDomain) -> list:
    """Zeros of the tangential projection on S^3 via the chart atlas."""
    sphere = SphereManifold(radius=ball.radius, center=np.asarray(ball.center),
                            ambient_dim=ball.dimension)
    result = sphere.index_sum(tangential_field(field, ball))
    records = [_boundary_record(field, ball, np.asarray(z.ambient), z.winding, z.chart)
               for z in result.zeros]
    records.sort(key=lambda z: z.location)
    return records


def boundary_zeros(field: VectorField, ball: BallDomain) -> list:
    if ball.dimension == 2:
        return _circle_boundary_zeros(field, ball)
    if ball.dimension == 4:
        return _sphere_boundary_zeros(field, ball)
    raise BoundaryError("boundary machinery covers B^2 and B^4")


def chi_with_boundary(field: VectorField, ball: BallDomain,
                      resolution: int | None = None) -> BoundaryReport:
    """Both chi assemblies for a field on a closed ball."""
    if field.dimension != ball.dimension:
        raise BoundaryError("field and ball dimensions differ")
    if field.dimension not in (2, 4):
        raise BoundaryError("boundary machinery covers B^2 and B^4")

    flags, _ = _classify(field, ball)
    interior = find_zeros(field, ball, resolution=resolution)
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
