"""Index sums over closed manifolds via chart atlases.

Spheres S^1, S^2 and S^3 are covered by the two stereographic charts;
an ambient field pushes forward through the conformal chart inverse, and
its windings are chart-independent.  A chart point, its differential DP
and the conformal factor come from one call, which squares |xi| once.
The chart columns DP are tangent, so DP^T m = 0 for the unit normal m:
a chart sees only the tangential part phi - (phi . m) m, and needs no
projection.  The flat torus has one tile,
[-p/4, 5p/4]^2, whose points reduce mod the periods.  The zeros are
first located in each chart's scan ball |xi| <= 1/0.92 + 0.05, or in the
tile.  A zero seen twice is one point of the manifold: only its sighting
nearest a chart origin, or the tile's center, is classified, in its own
chart, and every zero that chart located bounds its isolation radius.
Every zero is found by one deterministic scan per chart or tile and
wound once; nothing is retried.

The total is compared against the alternating face-count sum of a
reference triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import BallDomain, BoxDomain
from .fields import VectorField
from .report import Record
from .triangulations import chi_oracle
from .zeros import DEDUP_SCALE, ZeroRecord, classify_zeros, locate_zeros

SEAM_ATTEMPTS = 1  # scans per chart or tile
SAMPLE_SEED = 987123  # sample points of the tangency and periodicity checks
PERIOD_TOL = 1e-9

CHART_RESOLUTION = {1: 64, 2: 24, 3: 12}


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


def _atlas_index_sum(charts, same, oracle: str, resolution) -> ClosedIndexResult:
    """Locate the zeros in every chart, then wind each zero once.

    charts are (tag, field, domain, center, lift) tuples; lift maps chart
    points (rows) to the manifold and same(a, b) tells whether two ambient
    points are one zero.  Of the sightings inside a chart's domain, the one
    nearest its chart's center is classified, in that chart alone.
    """
    # sightings are (distance, chart, location, row, ambient point); ties in
    # distance, as on the seam |xi| = 1, go to the first chart, then the lowest location
    located, sightings = [], []
    for k, (_, field, domain, center, lift) in enumerate(charts):
        located.append(locate_zeros(field, domain, resolution))
        sightings += [(float(np.linalg.norm(r - center)), k, tuple(r.tolist()), i, a)
                      for i, (r, a) in enumerate(zip(located[k], lift(located[k])))
                      if domain.contains(r)]
    kept = []
    for s in sorted(sightings, key=lambda s: s[:3]):
        if not any(same(s[4], q[4]) for q in kept):
            kept.append(s)
    zeros = []
    for k, (tag, field, domain, _, _) in enumerate(charts):
        mine = {s[2]: s for s in kept if s[1] == k}
        roots = located[k][[s[3] for s in mine.values()]]
        zeros += [ChartZero(**vars(z), ambient=tuple(mine[z.location][4].tolist()),
                            chart=tag, chart_location=z.location)
                  for z in classify_zeros(field, roots, located[k], domain)]
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


class _ChartField(VectorField):
    """g(xi) = DP^T phi(P(xi)) / lambda^2 in one chart.  Its jet applies the chain rule
    J_g = (H + DP^T J_phi DP) / lambda^2 + 4 g xi^T / D, D = 1 + |xi|^2, to one jet of phi,
    where H = (4r/D^2) [(t - u.xi) I - u xi^T - xi u^T] + (16r/D^3) (u.xi - t) xi xi^T
    is d(DP^T) phi, with u the first d components of phi and t = sign * phi_last."""

    def __init__(self, sphere, field: VectorField, sign: float):
        self.sphere, self.field, self.sign, self.dimension = sphere, field, sign, sphere.chart_dim
        self.name = f"{field.name}@chart{'+' if sign > 0 else '-'}"

    def evaluate_many(self, xi):
        pts, dp, lam2 = self.sphere.chart(np.asarray(xi, dtype=float), self.sign)
        return np.einsum("pij,pi->pj", dp, self.field.evaluate_many(pts)) / lam2[:, None]

    def jet_many(self, xi):
        xi = np.asarray(xi, dtype=float)
        pts, dp, lam2 = self.sphere.chart(xi, self.sign)
        phi, jphi = self.field.jet_many(pts)
        g = np.einsum("pij,pi->pj", dp, phi) / lam2[:, None]
        x = xi[:, :, None]
        u, t = phi[:, :-1, None], self.sign * phi[:, -1:, None]
        d, ux = 1.0 + x.mT @ x, x.mT @ u
        h = ((t - ux) * self.sphere._eye - u @ x.mT - x @ u.mT
             + 4.0 * (ux - t) / d * (x @ x.mT)) * (4.0 * self.sphere.radius / d ** 2)
        jac = (h + dp.mT @ jphi @ dp) / lam2[:, None, None] + 4.0 * g[:, :, None] @ x.mT / d
        return g, jac


class SphereManifold:
    """Round sphere S^(d) in R^(d+1) with two stereographic charts.

    Chart '+' has its parameter origin at the bottom pole (projection
    from the top), chart '-' at the top pole; both are conformal with
    factor lambda = 2 r / (1 + |xi|^2), and the seam sits at |xi| = 1.
    """

    kind = "sphere"

    def __init__(self, radius: float = 1.0, center=None, ambient_dim: int = 3):
        if ambient_dim not in (2, 3, 4):
            raise ManifoldError("spheres supported in R^2, R^3 and R^4")
        self.radius = float(radius)
        self.ambient_dim = int(ambient_dim)
        self.center = (np.zeros(ambient_dim) if center is None
                       else np.asarray(center, dtype=float))
        if self.radius <= 0:
            raise ManifoldError("radius must be positive")
        if self.center.shape != (self.ambient_dim,):
            raise ManifoldError(f"center must have {self.ambient_dim} components")
        self._eye = np.eye(self.chart_dim)

    @property
    def chart_dim(self) -> int:
        return self.ambient_dim - 1

    def chart(self, xi: np.ndarray, sign: float):
        """Points P(xi), differentials DP (m, ambient, chart) and lambda^2 of one chart,
        all from one |xi|^2."""
        xi = np.atleast_2d(xi)
        rho2 = np.add.reduce(xi * xi, axis=1)
        denom = 1.0 + rho2
        out = np.empty((len(xi), self.ambient_dim))
        out[:, :-1] = 2.0 * xi / denom[:, None]
        out[:, -1] = sign * (rho2 - 1.0) / denom
        d = denom[:, None, None]
        dp = np.empty((len(xi), self.ambient_dim, self.chart_dim))
        dp[:, :-1] = (self._eye - 2.0 * xi[:, :, None] * xi[:, None, :] / d) * (2.0 / d)
        dp[:, -1] = sign * 4.0 * xi / (denom * denom)[:, None]
        dp *= self.radius
        return self.center + self.radius * out, dp, (2.0 * self.radius / denom) ** 2

    def tangency_residual(self, field: VectorField) -> float:
        rng = np.random.default_rng(SAMPLE_SEED)
        v = rng.normal(size=(64, self.ambient_dim))
        v /= np.linalg.norm(v, axis=1)[:, None]
        pts = self.center + self.radius * v
        phi = field.evaluate_many(pts)
        return float(np.max(np.abs(np.einsum("pi,pi->p", phi, v))))

    def pushforward(self, field: VectorField, sign: float) -> VectorField:
        """Chart representation g(xi) = DP^T phi(P(xi)) / lambda^2 of an ambient field.

        Since DP^T m = 0, g also represents the tangential part phi - (phi . m) m.
        """
        return _ChartField(self, field, sign)

    def index_sum(self, field: VectorField, resolution: int | None = None) -> ClosedIndexResult:
        tang = self.tangency_residual(field)
        if tang > 1e-8 * max(1.0, self.radius):
            raise ManifoldError(
                f"field is not tangent to the sphere (residual {tang:.3e})"
            )
        return self.tangential_index_sum(field, resolution)

    def tangential_index_sum(self, field: VectorField,
                             resolution: int | None = None) -> ClosedIndexResult:
        """Index sum of the tangential part phi - (phi . m) m of an ambient field."""
        origin = np.zeros(self.chart_dim)
        scan = BallDomain(origin, 1.0 / 0.92 + 0.05)
        charts = [(tag, self.pushforward(field, sign), scan, origin,
                   lambda xi, sign=sign: self.chart(xi, sign)[0])
                  for sign, tag in ((1.0, "+"), (-1.0, "-"))]

        def same(a, b):
            return np.linalg.norm(np.subtract(a, b)) < DEDUP_SCALE * self.radius

        return _atlas_index_sum(charts, same, f"S{self.chart_dim}",
                                resolution or CHART_RESOLUTION[self.chart_dim])


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
        tile = BoxDomain(-p / 4, 5 * p / 4)
        charts = [("tile", field, tile, p / 2, lambda x: np.mod(x, p))]

        def same(a, b):
            d = np.subtract(a, b)
            return np.linalg.norm(d - p * np.round(d / p)) < DEDUP_SCALE * p.min()

        return _atlas_index_sum(charts, same, "T2", resolution)
