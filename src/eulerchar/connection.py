"""Spin connections induced by moving orthonormal frames.

A frame field assigns to each chart point an orthonormal Clifford frame
u_i(x); it takes one point or a batch of points, and every function
below passes a batch through as a batch.  From its derivatives
we build the connection that makes the frame covariantly constant,

    omega_0 = (1/4) sum_i (d u_i) u_i,

which is flat wherever the frame is smooth; its holonomy around frame
singularities is quantized and measures the frame's winding.  The
decomposition check verifies the reconstruction identity

    omega = (1/4) sum_i (d u_i  u_i - D u_i  u_i)

for arbitrary grade-2 connections.  The covariant derivative D u_i is
evaluated by parallel-transporting neighbor samples with the rotor
exp(-h omega) before differencing; reusing the plain difference d u_i
on both sides would cancel exactly and certify nothing.

Every derivative, the curvature's stencil of stencils too, reads the
frame from one FrameField.frame call on the distinct points of its
stencil x, x +/- h e_mu, matched by their bytes: (x + h e_mu) - h e_mu
may differ from x in the last bit, and keeps the frame it gets alone.
The holonomy flux is a trapezoid rule on a loop whose quantum climbs the
nested levels of winding.climb; the gap of the last two is its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import (
    CliffordError,
    Frame,
    Multivector,
    blade_grades,
    exp,
    versor_frame,
)
from .report import Record
from .winding import azimuth_rule, climb, ladder

DEFAULT_STEP = 1e-4
FRAME_TOL = 1e-9


class ChartError(ValueError):
    """Point outside the chart or too close to a frame singularity."""


@dataclass(frozen=True)
class ConnectionSample:
    """Connection components omega_mu at one chart point or a batch of points."""

    omegas: tuple  # length-N tuple of Multivectors

    def max_norm(self) -> float:
        return max(w.norm() for w in self.omegas)

    def grade2_leakage(self) -> float:
        return max((w - w.grade_project(2)).norm() for w in self.omegas)


@dataclass(frozen=True)
class CurvatureSample:
    """Antisymmetric curvature components F_{mu nu}, mu < nu."""

    components: dict  # (mu, nu) -> Multivector

    def max_norm(self) -> float:
        return max(f.norm() for f in self.components.values())


class FrameField:
    """Orthonormal frame on a box chart of R^N, possibly with singular points."""

    def __init__(self, dimension, frame_fn, chart_lo=None, chart_hi=None,
                 singular_points=(), name="frame-field"):
        self.dimension = dimension
        self.name = name
        self._frame_fn = frame_fn
        self.chart_lo = (np.full(dimension, -1.5) if chart_lo is None
                         else np.asarray(chart_lo, dtype=float))
        self.chart_hi = (np.full(dimension, 1.5) if chart_hi is None
                         else np.asarray(chart_hi, dtype=float))
        self.singular_points = [np.asarray(p, dtype=float) for p in singular_points]

    def check_point(self, x, margin: float):
        """Raise ChartError naming the first point of x (one or a batch) within
        margin of the chart edge or within 2 * margin of a singular point."""
        x = np.asarray(x, dtype=float).reshape(-1, self.dimension)
        inside = np.all((x >= self.chart_lo + margin)
                        & (x <= self.chart_hi - margin), axis=-1)
        clear = np.full(len(x), math.inf)
        for p in self.singular_points:
            clear = np.minimum(clear, np.linalg.norm(x - p, axis=-1))
        bad = np.flatnonzero(~inside | (clear <= 2.0 * margin))
        if bad.size:
            i = bad[0]
            if not inside[i]:
                raise ChartError(f"{x[i].tolist()} too close to chart edge")
            raise ChartError(
                f"{x[i].tolist()} within {clear[i]:.3e} of a singular point"
            )

    def frame(self, x) -> Frame:
        """Frame at one point or a batch; an error names the first bad point."""
        x = np.asarray(x, dtype=float)
        fr = self._frame_fn(x)
        m = fr.matrix().reshape(-1, self.dimension, self.dimension)
        resid = np.abs(m @ m.swapaxes(1, 2) - np.eye(self.dimension)).max(axis=(1, 2))
        bad = np.flatnonzero(resid > FRAME_TOL)
        if bad.size:
            raise CliffordError(f"frame at {x.reshape(-1, self.dimension)[bad[0]].tolist()} "
                                f"not orthonormal (residual {resid[bad[0]]:.3e})")
        return fr

    def __repr__(self):
        return f"<FrameField {self.name!r} N={self.dimension}>"


# -- builtin frame families --------------------------------------------


def constant_frame_field(dimension, name="constant-frame") -> FrameField:
    def frame_fn(x):  # the gamma basis at every point of x
        vectors = (np.broadcast_to(e, x.shape) for e in np.eye(dimension))
        return Frame(dimension, tuple(Multivector.from_vector(dimension, v) for v in vectors))

    return FrameField(dimension, frame_fn, name=name)


def hedgehog_frame_field(winding: int, name=None) -> FrameField:
    """Planar frame turning k times around the origin: u_1 = (cos k*theta,
    sin k*theta) in the gamma basis.  Singular at the origin; the chart
    is the box [-1.5, 1.5]^2."""
    k = int(winding)

    def frame_fn(x):
        # math.atan2 per point: np.arctan2 differs in the last bit on some points
        theta = np.vectorize(math.atan2, otypes=[float])(x[..., 1], x[..., 0])
        c, s = np.cos(k * theta), np.sin(k * theta)
        u1 = Multivector.from_vector(2, np.stack([c, s], axis=-1))
        u2 = Multivector.from_vector(2, np.stack([-s, c], axis=-1))
        return Frame(2, (u1, u2))

    return FrameField(2, frame_fn, chart_lo=[-1.5, -1.5], chart_hi=[1.5, 1.5],
                      singular_points=[[0.0, 0.0]],
                      name=name or f"hedgehog-k{k}")


def polynomial_bivector_field(dimension, rng: np.random.Generator,
                              scale: float = 0.5):
    """Random smooth bivector-valued map x -> B(x) with quadratic coefficients."""
    g = blade_grades(dimension)
    masks = np.flatnonzero(g == 2)
    const = rng.normal(scale=scale, size=masks.size)
    lin = rng.normal(scale=scale, size=(masks.size, dimension))
    quad = rng.normal(scale=0.5 * scale, size=(masks.size, dimension, dimension))

    def bivector(x):
        # elementwise row sums: one point gets the same bits alone as in a batch
        x = np.asarray(x, dtype=float)
        xx = x[..., None, :, None] * x[..., None, None, :]
        c = np.zeros(x.shape[:-1] + (1 << dimension,))
        c[..., masks] = (const + (lin * x[..., None, :]).sum(axis=-1)
                         + 0.5 * (quad * xx).sum(axis=(-2, -1)))
        return Multivector(dimension, c)

    return bivector


def random_rotor_frame_field(dimension, rng: np.random.Generator,
                             scale: float = 0.5, name="rotor-frame") -> FrameField:
    biv = polynomial_bivector_field(dimension, rng, scale)
    return FrameField(dimension, lambda x: versor_frame(exp(biv(x))), name=name)


def random_connection(dimension, rng: np.random.Generator, scale: float = 0.7):
    """Random smooth grade-2 connection: x -> tuple of N bivectors."""
    comps = [polynomial_bivector_field(dimension, rng, scale)
             for _ in range(dimension)]

    def conn(x):
        return tuple(c(x) for c in comps)

    return conn


# -- differential operations -------------------------------------------


def _stencil(x, h: float) -> np.ndarray:
    """x, x + h e_mu and x - h e_mu (mu = 0..N-1) stacked on a new axis 0."""
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(x.shape[-1])
    return np.stack([x] + [x + step for step in steps] + [x - step for step in steps])


def _frames(ff: FrameField, pts) -> tuple:
    """Frame vectors u_i at every row of pts, batched in pts' shape, from one
    ff.frame call on the distinct rows (matched by their bytes)."""
    flat = np.ascontiguousarray(pts, dtype=float).reshape(-1, ff.dimension)
    rows = flat.view(np.dtype((np.void, flat.itemsize * ff.dimension))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    shape = np.shape(pts)[:-1] + (1 << ff.dimension,)
    return tuple(Multivector(ff.dimension, u.coeffs[inverse].reshape(shape))
                 for u in ff.frame(flat[first]).vectors)


def _at(w: Multivector, k: int) -> Multivector:
    """Stencil slot k: 0 is x, 1 + mu is x + h e_mu, 1 + N + mu is x - h e_mu."""
    return Multivector(w.dimension, w.coeffs[k])


def _derivatives(u, h: float):
    """Central differences du[mu][i] of stencil-sampled frame vectors."""
    return [[(_at(ui, 1 + mu) - _at(ui, 1 + len(u) + mu)) * (0.5 / h) for ui in u]
            for mu in range(len(u))]


def _curvature(w, h: float) -> CurvatureSample:
    """F_{mu nu} from connection components w sampled on a stencil."""
    n = len(w)
    comps = {}
    for mu in range(n):
        for nu in range(mu + 1, n):
            d_mu_w_nu = (_at(w[nu], 1 + mu) - _at(w[nu], 1 + n + mu)) * (0.5 / h)
            d_nu_w_mu = (_at(w[mu], 1 + nu) - _at(w[mu], 1 + n + nu)) * (0.5 / h)
            wm, wn = _at(w[mu], 0), _at(w[nu], 0)
            comps[(mu, nu)] = d_mu_w_nu - d_nu_w_mu - (wm * wn - wn * wm)
    return CurvatureSample(comps)


def frame_derivatives(ff: FrameField, x, h: float = DEFAULT_STEP):
    """Central differences du_i/dx_mu; du[mu][i] is a grade-1 Multivector."""
    return _derivatives(_frames(ff, _stencil(x, h)), h)


def pseudo_flat_connection(ff: FrameField, x, h: float = DEFAULT_STEP) -> ConnectionSample:
    """omega_0 = (1/4) sum_i (du_i) u_i from the frame alone.

    Grade 2 up to rounding: the scalar part is half the derivative of
    |u_i|^2, which vanishes for unit frames.
    """
    x = np.asarray(x, dtype=float)
    ff.check_point(x, margin=h)
    u = _frames(ff, _stencil(x, h))
    zero = Multivector.zero(ff.dimension)
    return ConnectionSample(tuple(sum((d * _at(ui, 0) for d, ui in zip(row, u)), zero) * 0.25
                                  for row in _derivatives(u, h)))


def covariant_frame_derivatives(ff: FrameField, omegas, x, h: float = DEFAULT_STEP):
    """D u_i = du_i - [omega, u_i] via parallel-transported differences.

    Neighbor frames are conjugated back to x with the transport rotor
    G = exp(-h omega_mu) before the central difference, which carries an
    O(h^2) truncation error independent of the one in du_i.
    """
    return _covariant(_frames(ff, _stencil(x, h)), omegas, h)


def _covariant(u, omegas, h: float):
    """Transported central differences D u[mu][i] of stencil-sampled frame vectors."""
    n = len(u)
    out = []
    for mu in range(n):
        g = exp(omegas[mu] * (-h))
        grev = g.reverse()
        out.append([(g * _at(ui, 1 + mu) * grev - grev * _at(ui, 1 + n + mu) * g)
                    * (0.5 / h) for ui in u])
    return out


def decompose_check(ff: FrameField, omegas, x, h: float = DEFAULT_STEP) -> float:
    """Residual of the connection reconstruction at x.

    Rebuilds omega from (1/4) sum_i (du_i u_i - Du_i u_i) and returns the
    worst max-abs coefficient deviation across components; O(h^2) in the
    step for smooth inputs.
    """
    n = ff.dimension
    if len(omegas) != n:
        raise ValueError(f"need {n} connection components")
    for w in omegas:
        leak = (w - w.grade_project(2)).norm()
        if leak > 1e-12:
            raise CliffordError(f"connection component not grade 2 (leak {leak:.3e})")
    u = _frames(ff, _stencil(x, h))
    du, cov = _derivatives(u, h), _covariant(u, omegas, h)
    worst = 0.0
    for mu in range(n):
        acc = sum(((d - c) * _at(ui, 0) for d, c, ui in zip(du[mu], cov[mu], u)),
                  Multivector.zero(n))
        worst = max(worst, (acc * 0.25 - omegas[mu]).norm())
    return worst


def curvature(conn_fn, x, h: float = DEFAULT_STEP) -> CurvatureSample:
    """F_{mu nu} = d_mu omega_nu - d_nu omega_mu - [omega_mu, omega_nu].

    conn_fn maps a batch of points to a ConnectionSample; it is called
    once, on the stencil of x, whose central differences give d omega.
    """
    return _curvature(conn_fn(_stencil(x, h)).omegas, h)


# -- flatness and holonomy scans ----------------------------------------


@dataclass(frozen=True)
class FluxResult(Record):
    singular_point: tuple
    loop_radius: float
    flux: float
    quantum: float        # flux / (2 pi)
    quantum_rounded: int
    residual: float
    error: float          # gap between the last two ladder levels


@dataclass(frozen=True)
class FlatnessReport:
    points_checked: int
    max_curvature_norm: float
    max_grade2_leakage: float
    step: float
    fluxes: tuple


def annulus_grid(r_inner: float, r_outer: float, radial: int = 8,
                 angular: int = 24) -> np.ndarray:
    """Polar product grid on a planar annulus about the origin."""
    rs = np.linspace(r_inner, r_outer, radial)
    ts = 2.0 * math.pi * np.arange(angular) / angular
    rr, tt = np.meshgrid(rs, ts, indexing="ij")
    return np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1).reshape(-1, 2)


def holonomy_flux(ff: FrameField, singular_point, loop_radius: float,
                  segments: int = 512, h: float = DEFAULT_STEP) -> FluxResult:
    """Loop integral of -2 * (gamma_1 gamma_2 component of omega_0).

    Counterclockwise around a planar frame singularity this is the total
    frame turning angle, 2 pi times the winding.  segments tops the ladder.
    """
    if ff.dimension != 2:
        raise ChartError("holonomy flux loops are planar")
    z = np.asarray(singular_point, dtype=float)

    # parametric trapezoid rule: spectrally accurate for the smooth
    # periodic integrand omega(x(t)) . x'(t)
    def integrand(theta):
        pts = z[None, :] + loop_radius * np.column_stack([np.cos(theta), np.sin(theta)])
        tangents = loop_radius * np.column_stack([-np.sin(theta), np.cos(theta)])
        omegas = pseudo_flat_connection(ff, pts, h).omegas
        g12 = np.stack([w.coeffs[:, 0b11] for w in omegas], axis=-1)
        return -2.0 * g12 * tangents

    totals = []

    def quantum(weights, samples):
        # a sequential sum, point-major then mu: the order of a loop over points
        totals.append(float(np.cumsum(samples)[-1] * weights[0]))
        return totals[-1] / (2.0 * math.pi)

    value, error, _ = climb(ladder((segments,), (64,)), lambda counts: azimuth_rule(*counts),
                            integrand, quantum, nests=True)
    return FluxResult(
        singular_point=tuple(z.tolist()),
        loop_radius=float(loop_radius),
        flux=totals[-1],
        quantum=value,
        quantum_rounded=round(value),
        residual=value - round(value),
        error=error,
    )


def flatness_scan(ff: FrameField, grid_points, h: float = DEFAULT_STEP,
                  loop_radius: float | None = None,
                  loop_segments: int = 512) -> FlatnessReport:
    """Check F(omega_0) = 0 at grid_points from one connection sample on
    their stencil; measure the flux around the singular points, which
    needs a loop_radius."""
    loops = ff.singular_points if ff.dimension == 2 else []
    if loops and loop_radius is None:
        raise ChartError("flatness_scan needs a loop_radius around singular points")
    grid_points = np.asarray(grid_points, dtype=float)
    ff.check_point(grid_points, margin=2 * h)
    omegas = pseudo_flat_connection(ff, _stencil(grid_points, h), h).omegas
    max_leak = ConnectionSample(tuple(_at(w, 0) for w in omegas)).grade2_leakage()
    max_f = _curvature(omegas, h).max_norm()
    fluxes = [holonomy_flux(ff, z, loop_radius, loop_segments, h) for z in loops]
    return FlatnessReport(points_checked=int(grid_points.shape[0]),
                          max_curvature_norm=float(max_f), max_grade2_leakage=float(max_leak),
                          step=float(h), fluxes=tuple(fluxes))
