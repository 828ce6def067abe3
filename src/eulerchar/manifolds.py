"""Index sums over closed manifolds via chart atlases.

Spheres are covered by the two stereographic charts; vector fields
tangent to the sphere push forward through the conformal chart inverse,
and their windings are chart-independent.  Each chart keeps the zeros
with |xi| <= 1 / (1 - SEAM_GUARD), found in a slightly larger scan ball
so that isolation spheres see across the edge.  The kept regions of the
two charts overlap around the seam |xi| = 1; a zero seen in both is one
point of the sphere and counts once, from the chart where it lies
nearest the origin.  The flat torus works the same way with one tile:
it keeps [-p/8, 9p/8]^2 of a [-p/4, 5p/4]^2 scan, reduces locations mod
the periods and counts each zero once, from the sighting nearest the
tile's center.  Every zero is found by one deterministic scan per chart
or tile; nothing is retried.

The total is compared against the alternating face-count sum of a
reference triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import BallDomain, BoxDomain, PaddedDomain
from .fields import CallableField, VectorField
from .report import Record
from .triangulations import chi_oracle
from .zeros import DEDUP_SCALE, ZeroRecord, find_zeros

SEAM_GUARD = 0.08
SEAM_ATTEMPTS = 1  # scans per chart or tile
SAMPLE_SEED = 987123  # sample points of the tangency and periodicity checks
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


def _closed_result(sightings, same, oracle: str) -> ClosedIndexResult:
    """Count each zero once, from its sighting nearest a chart origin.

    sightings are (distance from the chart origin, ChartZero) pairs;
    same(a, b) tells whether two ambient points are one zero.
    """
    zeros = []
    for _, z in sorted(sightings, key=lambda s: s[0]):
        if not any(same(z.ambient, q.ambient) for q in zeros):
            zeros.append(z)
    zeros.sort(key=lambda z: z.ambient)
    total = int(sum(z.winding for z in zeros))
    chi = chi_oracle(oracle)
    return ClosedIndexResult(
        total=total,
        chi_oracle=chi,
        agree=total == chi,
        attempts=SEAM_ATTEMPTS,
        flags=(),
        zeros=tuple(zeros),
    )


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
        rng = np.random.default_rng(SAMPLE_SEED)
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
        origin = (0.0,) * self.chart_dim
        keep = 1.0 / (1.0 - SEAM_GUARD)
        chart = PaddedDomain(BallDomain(origin, keep), BallDomain(origin, keep + 0.05))
        sightings = []
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            for z in find_zeros(self.pushforward(field, sign), chart, resolution=res):
                ambient = self.chart_point(np.asarray(z.location), sign)[0]
                sightings.append((float(np.linalg.norm(z.location)), ChartZero(
                    **vars(z), ambient=tuple(ambient.tolist()),
                    chart=tag, chart_location=z.location)))

        def same(a, b):
            return np.linalg.norm(np.subtract(a, b)) < DEDUP_SCALE * self.radius

        return _closed_result(sightings, same, "S2" if self.chart_dim == 2 else "S3")


class FlatTorus:
    """Flat 2-torus as the unit periodic square, scanned in one tile."""

    kind = "torus"

    def __init__(self, periods=(1.0, 1.0)):
        self.periods = tuple(float(p) for p in periods)
        if len(self.periods) != 2 or any(p <= 0 for p in self.periods):
            raise ManifoldError("a flat 2-torus needs two positive periods")

    def periodicity_residual(self, field: VectorField) -> float:
        rng = np.random.default_rng(SAMPLE_SEED)
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
        p = np.asarray(self.periods)
        tile = PaddedDomain(BoxDomain(-p / 8, 9 * p / 8), BoxDomain(-p / 4, 5 * p / 4))
        sightings = []
        for z in find_zeros(field, tile, resolution=resolution):
            loc = np.asarray(z.location)
            sightings.append((float(np.linalg.norm(loc - p / 2)), ChartZero(
                **vars(z), ambient=tuple(np.mod(loc, p).tolist()),
                chart="tile", chart_location=z.location)))

        def same(a, b):
            d = np.subtract(a, b)
            return np.linalg.norm(d - p * np.round(d / p)) < DEDUP_SCALE * p.min()

        return _closed_result(sightings, same, "T2")
