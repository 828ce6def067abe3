"""Locating vector field zeros and certifying their indices.

locate_zeros scans a coarse grid for cells where every field component
changes sign (plus the lowest-magnitude cells as extra seeds), damped
Newton polishes all candidates together, one jet call per step, and
duplicates are merged; a seed whose full Newton step is longer than the
domain's diameter is dropped rather than damped.  The scan takes each
cell's min and max over its 2^n corners one axis at a time, for all
components together.  classify_zeros gives each zero it is handed a
winding number from a quadrature sphere at its isolation radius, which
every other located zero bounds.  A regular zero z is wound with the
preconditioned field psi = J(z)^-1 phi, which is close to x - z, so its
index is sign det J(z) times deg psi, and deg psi must round to +1.  A
degenerate zero is wound with phi itself, and that winding is its
index.  find_zeros runs both on the zeros inside one domain; the chart
atlases of manifolds deduplicate in between.

The enclosing sphere of index_sum_with_excision is preconditioned from
its own samples, never from the zeros: phi ~ b + B s is fitted by
weighted least squares on the ladder's coarsest nodes s, so an affine phi
is recovered to rounding.  Where the fit's relative residual is at most
FIT_GATE, B is invertible and b + B s vanishes inside (|a| < 1 with
a = -B^-1 b), the degree is sign det P deg(P phi) with P = B^-1, and
P phi is wound against its model s - a: the climb integrates only the
density P phi's model does not explain, and the model's degree, 1, is
added back.  A model zero just inside the sphere has a density spike that
no level resolves; half its mass then goes missing, the levels read about
1/2 off an integer, and P phi is wound again without the model.  Elsewhere
phi is wound.  So, like the preimage oracle, the enclosing sphere checks
the per-zero windings independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import BallDomain
from .fields import VectorField
from .report import Record
from .winding import (
    SphereQuadrature,
    UndersampledError,
    coarsest_rule,
    oracle_degree_preimage,
    winding_number,
)

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50
MIN_DAMPING = 2.0 ** -10
REGULAR_DET_TOL = 1e-8
DEDUP_SCALE = 1e-6
ISOLATION_FLOOR_SCALE = 1e-5
EXTRA_SEEDS = 8
FIT_GATE = 0.5  # largest relative residual of the enclosing sphere's affine fit

DEFAULT_RESOLUTION = {1: 64, 2: 32, 3: 16, 4: 10}


class ZeroFindingError(RuntimeError):
    pass


class BoundaryZoneError(ZeroFindingError):
    """A zero sits too close to the domain boundary to classify."""


@dataclass(frozen=True)
class ZeroRecord(Record):
    location: tuple
    winding: int
    eta: int              # sign(det J) for regular zeros, else 0 when winding is 0
    beta: int             # |winding|
    regular: bool
    degenerate: bool
    jacobian_det: float
    field_norm: float
    winding_raw: float
    winding_residual: float
    winding_error: float  # gap between the last two quadrature levels
    isolation_radius: float


def _norms(v: np.ndarray) -> np.ndarray:
    """Row norms, each with the bits np.linalg.norm gives that row alone."""
    v = np.ascontiguousarray(v)
    return np.sqrt(np.vecdot(v, v))


def _solve(jac: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """Newton steps J^-1 f per row; least squares where J is singular.

    Each row gets the bits a solve of that row alone gives: LAPACK solves
    the matrices of a batch one by one.
    """
    try:
        return np.linalg.solve(jac, fx[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(fx) == 1:
            return np.linalg.lstsq(jac[0], fx[0], rcond=None)[0][None]
    # some row has an exact zero pivot, which makes its det 0: batch the others
    singular = np.linalg.det(jac) == 0.0
    if singular.all() or not singular.any():  # no split to make: row by row
        return np.concatenate([_solve(j[None], f[None]) for j, f in zip(jac, fx)])
    step = np.empty_like(fx)
    for rows in (singular, ~singular):
        step[rows] = _solve(jac[rows], fx[rows])
    return step


def _newton(field: VectorField, seeds: np.ndarray, max_step: float):
    """Damped Newton on all seeds at once: (roots, converged) per row.

    Every seed runs its own iteration, halving its step until the
    residual drops; the batch only shares the field calls, so row k is
    the root seed k reaches alone.  A seed fails when its full step is
    not finite or longer than max_step, the scanned domain's diameter:
    the linear model's root then lies outside the domain, as at a
    non-zero minimum of |phi|, where the damped steps would only crawl.
    """
    x = np.array(seeds, dtype=float)
    fx, jac = (np.array(a, dtype=float) for a in field.jet_many(x))  # copies: rows get replaced
    norm = _norms(fx)
    failed = np.zeros(len(x), dtype=bool)
    for _ in range(NEWTON_MAXITER):
        live = np.flatnonzero(~failed & ~(norm <= NEWTON_TOL))
        if not live.size:
            break
        step = _solve(jac[live], fx[live])
        fits = _norms(step) <= max_step  # False for a step that is not finite
        failed[live[~fits]] = True
        live, step = live[fits], step[fits]
        lam = 1.0
        while live.size and lam >= MIN_DAMPING:
            trial = x[live] - lam * step
            ft, jt = field.jet_many(trial)  # an accepted trial's J is the next step's
            nt = _norms(ft)
            better = nt < norm[live]
            done = live[better]
            x[done], fx[done], norm[done] = trial[better], ft[better], nt[better]
            jac[done] = jt[better]
            live, step = live[~better], step[~better]
            lam *= 0.5
        failed[live] = True
    return x, ~failed & (norm <= NEWTON_TOL)


def _distinct(points, found, tol: float) -> np.ndarray:
    """found, then each point not within tol of one already there, in order."""
    for r in points:
        if not np.any(_norms(found - r) < tol):
            found = np.vstack([found, r])
    return found


def _candidate_cells(vals_grid):
    """Cells where every component spans zero; indices into the grid."""
    lo = hi = vals_grid
    for axis in range(vals_grid.ndim - 1):
        head = (slice(None),) * axis
        lo = np.minimum(lo[head + (slice(None, -1),)], lo[head + (slice(1, None),)])
        hi = np.maximum(hi[head + (slice(None, -1),)], hi[head + (slice(1, None),)])
    return np.argwhere(((lo <= 0.0) & (hi >= 0.0)).all(axis=-1))


def locate_zeros(field: VectorField, domain, resolution: int | None = None) -> np.ndarray:
    """Every distinct zero Newton reaches from a grid scan of domain.bounding_box().

    One row per zero, in seed order; roots within DEDUP_SCALE * diameter
    of an earlier one are dropped.
    """
    n = field.dimension
    if domain.dimension != n:
        raise ZeroFindingError("field and domain dimensions differ")
    res = resolution or DEFAULT_RESOLUTION.get(n, 8)
    # numpy cannot even index a float64 grid this large: fail before any allocation
    if (res + 1) ** n * n * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"a scan grid of {res + 1}^{n} points in R^{n} is too large "
                          f"to index")
    lo, hi = domain.bounding_box()
    axes = [np.linspace(lo[j], hi[j], res + 1) for j in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = field.evaluate_many(pts)
    vals_grid = vals.reshape(*(res + 1,) * n, n)

    cells = _candidate_cells(vals_grid)
    widths = (hi - lo) / res

    # seeds: candidate cell centers, then the lowest-|phi| vertices
    norms = np.linalg.norm(vals, axis=1)
    seeds = np.concatenate([lo + (cells + 0.5) * widths,
                            pts[np.argsort(norms)[:EXTRA_SEEDS]]])
    x, ok = _newton(field, seeds, domain.diameter)
    return _distinct(x[ok], x[:0], DEDUP_SCALE * domain.diameter)


def classify_zeros(field: VectorField, roots, found, domain,
                   quadrature: SphereQuadrature | None = None) -> list:
    """ZeroRecords of roots, rows of found inside domain, sorted by location.

    Each isolation radius is half the distance to the domain boundary or
    to the nearest other row of found, whichever is less.
    """
    if not len(roots):
        return []
    floor = ISOLATION_FLOOR_SCALE * domain.diameter
    for r in roots:
        if domain.boundary_distance(r) < floor:
            raise BoundaryZoneError(
                f"zero at {r.tolist()} within {floor:.2e} of the domain boundary"
            )

    phi, jacs = field.jet_many(roots)
    dets, field_norms = np.linalg.det(jacs), _norms(phi)
    records = []
    for i, r in enumerate(roots):
        gaps = _norms(found - r)
        rad = 0.5 * min(domain.boundary_distance(r), gaps[gaps > 0].min(initial=np.inf))
        if rad < floor:
            raise ZeroFindingError(
                f"zeros too close together near {r.tolist()} (radius {rad:.2e})"
            )
        rad = min(rad, 1.0)
        det = float(dets[i])
        regular = abs(det) > REGULAR_DET_TOL
        if regular:  # index = sign det J * deg(J^-1 phi), and deg(J^-1 phi) = +1
            sign = eta = 1 if det > 0 else -1
            wres = winding_number(field, r, rad, quadrature,
                                  precondition=np.linalg.inv(jacs[i]))
            if wres.rounded != 1:
                raise ZeroFindingError(
                    f"preconditioned winding {wres.rounded} is not +1 at the regular "
                    f"zero {r.tolist()}"
                )
        else:
            wres = winding_number(field, r, rad, quadrature)
            sign, eta = 1, int(np.sign(wres.rounded))
        w, raw = sign * wres.rounded, sign * wres.raw
        records.append(ZeroRecord(
            location=tuple(r.tolist()),
            field_norm=float(field_norms[i]),
            jacobian_det=det,
            regular=regular,
            eta=int(eta),
            beta=abs(w),
            winding=int(w),
            winding_raw=raw,
            winding_residual=raw - w,
            winding_error=wres.error,
            isolation_radius=float(rad),
            degenerate=not regular,
        ))
    records.sort(key=lambda z: z.location)
    return records


def find_zeros(field: VectorField, domain, resolution: int | None = None,
               quadrature: SphereQuadrature | None = None) -> list:
    """All isolated zeros of the field inside the domain, with indices."""
    found = locate_zeros(field, domain, resolution)
    inside = [domain.contains(r) for r in found]
    return classify_zeros(field, found[inside], found, domain, quadrature)


def total_index(records) -> int:
    return int(sum(z.winding for z in records))


@dataclass(frozen=True)
class ExcisionResult(Record):
    """Zero-by-zero indices against one big enclosing sphere."""

    zero_sum: int
    enclosing_winding: int
    enclosing_raw: float
    enclosing_error: float  # gap between the last two quadrature levels
    agree: bool
    oracle_degree: int
    oracle_agree: bool
    zeros: tuple


def index_sum_with_excision(field: VectorField, ball: BallDomain,
                            resolution: int | None = None,
                            quadrature: SphereQuadrature | None = None) -> ExcisionResult:
    """Sum of per-zero windings checked against the enclosing sphere.

    Shrinking the big sphere onto disjoint small spheres around the
    zeros changes nothing off the zero set, so the two totals must
    agree; a preimage-count degree on the big sphere cross-checks the
    quadrature route.
    """
    records = find_zeros(field, ball, resolution=resolution, quadrature=quadrature)
    zero_sum = total_index(records)
    p, a = _enclosing_preconditioner(field, ball, quadrature)
    wind = lambda model: winding_number(field, ball.center, ball.radius, quadrature,
                                        precondition=p, model_zero=model)
    try:
        big = wind(a)
    except UndersampledError:
        if a is None:
            raise
        big = wind(None)  # a model zero by the sphere: its spike outran the ladder
    sign = 1 if p is None or np.linalg.det(p) > 0 else -1
    enclosing = sign * big.rounded
    deg = oracle_degree_preimage(field, ball.center, ball.radius)
    return ExcisionResult(
        zero_sum=zero_sum,
        enclosing_winding=enclosing,
        enclosing_raw=sign * big.raw,
        enclosing_error=big.error,
        agree=zero_sum == enclosing,
        oracle_degree=deg,
        oracle_agree=deg == enclosing,
        zeros=tuple(records),
    )


def _enclosing_preconditioner(field: VectorField, ball: BallDomain, quadrature):
    """(P, a) of the fit phi ~ b + B s on the enclosing sphere, with P = B^-1 and
    a = -P b the model's zero, or (None, None) if the gate fails.

    The fit solves sqrt(w) [1, s] [b, B]^T ~ sqrt(w) phi by least squares on the
    ladder's coarsest rule, so it reproduces an affine phi whatever the rule's moments.
    """
    quad = coarsest_rule(field.dimension, quadrature)
    s, sw = quad.nodes, np.sqrt(quad.weights)[:, None]
    phi = field.evaluate_many(np.asarray(ball.center) + ball.radius * s)
    basis = np.hstack([np.ones_like(s[:, :1]), s])
    coef = np.linalg.lstsq(sw * basis, sw * phi, rcond=None)[0]
    b, big = coef[0], coef[1:].T
    sq = lambda v: np.sum((sw * v) ** 2)
    if np.linalg.det(big) == 0.0 or sq(phi - basis @ coef) > FIT_GATE ** 2 * sq(phi):
        return None, None
    p = np.linalg.inv(big)
    a = -p @ b
    return (p, a) if np.linalg.norm(a) < 1.0 else (None, None)
