"""Index sums over closed manifolds via chart atlases.

Spheres are covered by the two stereographic charts; vector fields
tangent to the sphere push forward through the conformal chart inverse,
zeros are found per chart inside the unit parameter ball, and their
windings (chart-independent for vector fields) are summed.  A guard
band around the chart seam |xi| = 1 triggers seeded random rotations of
the field until no zero sits ambiguously close to the cut, so each zero
is counted exactly once.  The flat torus works the same way with
translations instead of rotations.

The total is compared against the alternating face-count sum of a
reference triangulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import BallDomain, BoxDomain
from .fields import CallableField, VectorField
from .report import Record
from .triangulations import chi_oracle
from .zeros import BoundaryZoneError, ZeroRecord, find_zeros

SEAM_GUARD = 0.08
SEAM_ATTEMPTS = 4
SEAM_SEED = 987123
PERIOD_TOL = 1e-9

CHART_RESOLUTION = {2: 24, 3: 12}


class ManifoldError(RuntimeError):
    pass


@dataclass(frozen=True)
class ChartZero(ZeroRecord):
    """A zero seen through one chart, lifted back to the ambient manifold."""

    ambient: tuple
    chart: str
    chart_location: tuple


@dataclass(frozen=True)
class ClosedIndexResult(Record):
    total: int
    chi_oracle: int
    agree: bool
    attempts: int
    flags: tuple
    zeros: tuple


def _seam_search(try_tile, oracle: str, seam: str) -> ClosedIndexResult:
    """Retry tiles until no zero sits in the seam guard.

    try_tile(attempt, rng) scans one tile and returns its ChartZeros, or
    None when a zero lands in the guard band; attempt 0 is the unmoved
    tile and draws nothing from rng.
    """
    rng = np.random.default_rng(SEAM_SEED)
    flags = []
    for attempt in range(SEAM_ATTEMPTS):
        zeros = try_tile(attempt, rng)
        if zeros is None:
            flags.append(f"seam-retry-{attempt}")
            continue
        zeros.sort(key=lambda z: z.ambient)
        total = int(sum(z.winding for z in zeros))
        chi = chi_oracle(oracle)
        return ClosedIndexResult(
            total=total,
            chi_oracle=chi,
            agree=total == chi,
            attempts=attempt + 1,
            flags=tuple(flags),
            zeros=tuple(zeros),
        )
    raise ManifoldError(
        f"zeros kept landing on the {seam} after {SEAM_ATTEMPTS} attempts"
    )


def _rotation_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _rotated_field(field: VectorField, rot: np.ndarray, center: np.ndarray) -> VectorField:
    """Conjugate an ambient field by a rotation about the center."""

    def ev(pts):
        src = (pts - center) @ rot + center  # rot^T applied to rows
        return field.evaluate_many(src) @ rot.T

    def jac(pts):
        src = (pts - center) @ rot + center
        j = field.jacobian_many(src)
        return np.einsum("ab,pbc,dc->pad", rot, j, rot)

    return CallableField(field.dimension, ev, jac=jac,
                         name=f"{field.name}-rotated", batch=True)


class SphereManifold:
    """Round sphere S^(d) in R^(d+1) with two stereographic charts.

    Chart '+' has its parameter origin at the bottom pole (projection
    from the top), chart '-' at the top pole; both are conformal with
    factor lambda = 2 r / (1 + |xi|^2), and the seam sits at |xi| = 1.
    """

    kind = "sphere"

    def __init__(self, radius: float = 1.0, center=None, ambient_dim: int = 3):
        if ambient_dim not in (3, 4):
            raise ManifoldError("spheres supported in R^3 and R^4")
        self.radius = float(radius)
        self.ambient_dim = int(ambient_dim)
        self.center = (np.zeros(ambient_dim) if center is None
                       else np.asarray(center, dtype=float))
        if self.radius <= 0:
            raise ManifoldError("radius must be positive")
        if self.center.shape != (self.ambient_dim,):
            raise ManifoldError(f"center must have {self.ambient_dim} components")

    @property
    def chart_dim(self) -> int:
        return self.ambient_dim - 1

    def chart_point(self, xi: np.ndarray, sign: float) -> np.ndarray:
        xi = np.atleast_2d(xi)
        rho2 = np.sum(xi * xi, axis=1)
        denom = 1.0 + rho2
        out = np.empty((xi.shape[0], self.ambient_dim))
        out[:, :-1] = 2.0 * xi / denom[:, None]
        out[:, -1] = sign * (rho2 - 1.0) / denom
        return self.center + self.radius * out

    def chart_frame(self, xi: np.ndarray, sign: float) -> np.ndarray:
        """Batch of chart differentials DP, shape (m, ambient, chart)."""
        xi = np.atleast_2d(xi)
        m, d = xi.shape
        rho2 = np.sum(xi * xi, axis=1)
        denom = 1.0 + rho2
        dp = np.zeros((m, self.ambient_dim, d))
        for j in range(d):
            for i in range(d):
                dp[:, i, j] = (np.where(i == j, 1.0, 0.0)
                               - 2.0 * xi[:, i] * xi[:, j] / denom)
            dp[:, :, j] *= 2.0 / denom[:, None]
            dp[:, -1, j] = sign * 4.0 * xi[:, j] / denom ** 2
        return self.radius * dp

    def conformal_factor(self, xi: np.ndarray) -> np.ndarray:
        rho2 = np.sum(np.atleast_2d(xi) ** 2, axis=1)
        return 2.0 * self.radius / (1.0 + rho2)

    def tangency_residual(self, field: VectorField) -> float:
        rng = np.random.default_rng(SEAM_SEED)
        v = rng.normal(size=(64, self.ambient_dim))
        v /= np.linalg.norm(v, axis=1)[:, None]
        pts = self.center + self.radius * v
        phi = field.evaluate_many(pts)
        return float(np.max(np.abs(np.einsum("pi,pi->p", phi, v))))

    def pushforward(self, field: VectorField, sign: float) -> VectorField:
        """Chart representation g(xi) = DP^+ phi(P(xi)) of a tangent field."""

        def ev(xi):
            pts = self.chart_point(xi, sign)
            phi = field.evaluate_many(pts)
            dp = self.chart_frame(xi, sign)
            lam2 = self.conformal_factor(xi) ** 2
            return np.einsum("pij,pi->pj", dp, phi) / lam2[:, None]

        tag = "+" if sign > 0 else "-"
        return CallableField(self.chart_dim, ev,
                             name=f"{field.name}@chart{tag}", batch=True)

    def index_sum(self, field: VectorField, resolution: int | None = None) -> ClosedIndexResult:
        tang = self.tangency_residual(field)
        if tang > 1e-8 * max(1.0, self.radius):
            raise ManifoldError(
                f"field is not tangent to the sphere (residual {tang:.3e})"
            )
        res = resolution or CHART_RESOLUTION[self.chart_dim]
        guard_lo = 1.0 - SEAM_GUARD
        guard_hi = 1.0 / guard_lo
        scan = BallDomain((0.0,) * self.chart_dim, guard_hi + 0.05)

        def try_tile(attempt, rng):
            rot = (np.eye(self.ambient_dim) if attempt == 0
                   else _rotation_matrix(self.ambient_dim, rng))
            work = field if attempt == 0 else _rotated_field(field, rot, self.center)
            zeros = []
            for sign, tag in ((1.0, "+"), (-1.0, "-")):
                for z in find_zeros(self.pushforward(work, sign), scan, resolution=res):
                    rho = float(np.linalg.norm(z.location))
                    if guard_lo < rho < guard_hi:
                        return None
                    if rho <= 1.0:
                        p_rot = self.chart_point(np.asarray(z.location), sign)[0]
                        ambient = self.center + rot.T @ (p_rot - self.center)
                        zeros.append(ChartZero(**vars(z), ambient=tuple(ambient.tolist()),
                                               chart=tag, chart_location=z.location))
            for i in range(len(zeros)):
                for j in range(i + 1, len(zeros)):
                    gap = np.linalg.norm(np.asarray(zeros[i].ambient)
                                         - np.asarray(zeros[j].ambient))
                    if gap < 1e-6 * self.radius:
                        raise ManifoldError(
                            "duplicate zero across charts; seam guard failed"
                        )
            return zeros

        return _seam_search(try_tile, "S2" if self.chart_dim == 2 else "S3",
                            "chart seam")


class FlatTorus:
    """Flat 2-torus as the unit periodic square, scanned in one tile."""

    kind = "torus"

    def __init__(self, periods=(1.0, 1.0)):
        self.periods = tuple(float(p) for p in periods)
        if len(self.periods) != 2 or any(p <= 0 for p in self.periods):
            raise ManifoldError("a flat 2-torus needs two positive periods")

    def periodicity_residual(self, field: VectorField) -> float:
        rng = np.random.default_rng(SEAM_SEED)
        pts = rng.uniform(0.0, 1.0, size=(16, 2)) * np.asarray(self.periods)
        base = field.evaluate_many(pts)
        worst = 0.0
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = self.periods[axis]
            worst = max(worst, float(np.max(np.abs(
                field.evaluate_many(pts + shift) - base))))
        return worst

    def index_sum(self, field: VectorField, resolution: int | None = None) -> ClosedIndexResult:
        perr = self.periodicity_residual(field)
        if perr > PERIOD_TOL:
            raise ManifoldError(f"field is not periodic (residual {perr:.3e})")
        px, py = self.periods
        guard = SEAM_GUARD * min(self.periods)

        def try_tile(attempt, rng):
            shift = (np.zeros(2) if attempt == 0
                     else rng.uniform(0.0, 1.0, size=2) * np.asarray(self.periods))
            box = BoxDomain(tuple(shift), (shift[0] + px, shift[1] + py))
            try:
                records = find_zeros(field, box, resolution=resolution)
            except BoundaryZoneError:
                return None
            edge_dist = min((box.boundary_distance(np.asarray(z.location))
                             for z in records), default=math.inf)
            if edge_dist < guard:
                return None
            return [ChartZero(**vars(z), chart="tile", chart_location=z.location,
                              ambient=tuple(float(np.mod(c, p))
                                            for c, p in zip(z.location, self.periods)))
                    for z in records]

        return _seam_search(try_tile, "T2", "tile edges")
