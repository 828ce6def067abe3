"""Inputs of the three workloads and the expectations each operation is checked against.

Every expectation is worked out from the input alone (root positions,
sign det A, the known chi of the domain), never from the program's own
output.  A workload is a list of input families; one round of a
workload runs every fixed input once plus a fresh draw of every seeded
family from ``np.random.default_rng((seed, round))``, so a run always
attempts whole rounds with the same mix of operations.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from eulerchar import cli, connection, fields, manifolds, report

FIXTURES = Path(__file__).resolve().parent / "fixtures"

SIMPLE_ZERO_TOL = 1e-6      # location error of a simple zero, in units of the domain size
DEGENERATE_ZERO_TOL = 1e-4  # a double zero is located only to ~1e-6
GBC_TOL = {"s2": 1e-6, "s4": 1e-4, "torus-embedded": 1e-8, "torus-flat": 1e-8}
FLUX_TOL = 1e-4             # |quantum - k| for the hedgehog holonomy
LEAKAGE_TOL = 1e-7          # grade-2 leakage of a rotor frame's connection
MAX_COND = 10.0             # condition number bound on seeded linear fields
MAX_COND_BOUNDARY = 8.0     # same, for their tangential field at each boundary zero


class CheckError(AssertionError):
    """An operation returned, but its output contradicts the expectation."""


@dataclass
class Op:
    """One operation: ``run`` returns (result, rendered text or None)."""

    family: str
    run: Callable[[], tuple]
    check: Callable[[object], None]
    timed: bool = True
    fault: str | None = None  # the known program fault this fixed input hits


def expect(cond: bool, what: str):
    if not cond:
        raise CheckError(what)


# -- polynomial specs ------------------------------------------------------


def _poly_add(p: dict, q: dict, s: float = 1.0) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0.0) + s * v
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0.0) + v1 * v2
    return out


def _affine(coeffs, const: float) -> dict:
    """The polynomial const + sum_j coeffs[j] x_j as {exponents: coefficient}."""
    n = len(coeffs)
    p = {(0,) * n: float(const)}
    for j, c in enumerate(coeffs):
        e = [0] * n
        e[j] = 1
        p[tuple(e)] = float(c)
    return p


def _poly_spec(polys) -> dict:
    n = len(polys)
    comps = [[[list(k), v] for k, v in sorted(p.items()) if v != 0.0] or [[[0] * n, 0.0]]
             for p in polys]
    return {"kind": "polynomial", "dimension": n, "components": comps}


def _quaternion_product(a, b) -> list:
    """Components of (q - a)(q - b), q = w + xi + yj + zk, as polynomials."""
    u = [_affine(np.eye(4)[i], -a[i]) for i in range(4)]
    v = [_affine(np.eye(4)[i], -b[i]) for i in range(4)]
    m = _poly_mul
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return [
        _poly_add(_poly_add(_poly_add(m(a1, a2), m(b1, b2), -1), m(c1, c2), -1), m(d1, d2), -1),
        _poly_add(_poly_add(_poly_add(m(a1, b2), m(b1, a2)), m(c1, d2)), m(d1, c2), -1),
        _poly_add(_poly_add(_poly_add(m(a1, c2), m(b1, d2), -1), m(c1, a2)), m(d1, b2)),
        _poly_add(_poly_add(_poly_add(m(a1, d2), m(b1, c2)), m(c1, b2), -1), m(d1, a2)),
    ]


def _in_ball(rng, center, radius: float) -> np.ndarray:
    """A point uniform in the ball of the given radius."""
    n = len(center)
    d = rng.normal(size=n)
    return np.asarray(center) + d / np.linalg.norm(d) * radius * rng.uniform() ** (1.0 / n)


# -- operations ----------------------------------------------------------


def scenario(name, methods, domain, field=None, frame=None) -> dict:
    sc = {"schema": 1, "name": name, "methods": list(methods), "domain": domain}
    if field is not None:
        sc["field"] = field
    if frame is not None:
        sc["frame"] = frame
    return sc


def scenario_op(family: str, sc: dict, check, fault=None) -> Op:
    """``eulerchar run --out``: run_scenario, then the canonical report text."""

    def run():
        rep, _rows, ok = cli.run_scenario(sc)
        return (rep, ok), report.render_report(rep)

    def check_result(result):
        rep, ok = result
        expect(ok, "the program's own oracle comparison disagreed")
        check(rep["methods"])

    return Op(family, run, check_result, fault=fault)


def _match_zeros(found, expected, tol: float, key="location", period=None):
    """Every expected (location, winding) pair is found once, and nothing else."""
    expect(len(found) == len(expected),
           f"{len(found)} zeros found, {len(expected)} expected")
    left = list(found)
    for loc, w in expected:
        loc = np.asarray(loc, dtype=float)
        best = None
        for z in left:
            d = np.asarray(z[key], dtype=float) - loc
            if period is not None:
                d = (d + 0.5 * period) % period - 0.5 * period
            if np.max(np.abs(d)) <= tol:
                best = z
                break
        expect(best is not None, f"no zero found near {loc.tolist()}")
        expect(best["winding"] == w,
               f"zero at {loc.tolist()} has winding {best['winding']}, expected {w}")
        left.remove(best)


def check_index_ball(degree, zeros, tol):
    def check(methods):
        p = methods["index-sum"]
        for key in ("enclosing_winding", "zero_sum", "oracle_degree"):
            expect(p[key] == degree, f"{key} = {p[key]}, expected {degree}")
        _match_zeros(p["zeros"], zeros, tol)
    return check


def check_boundary(interior, zeros, tol):
    def check(methods):
        p = methods["boundary-theorem"]
        expect(p["chi_oracle"] == 1, "chi of a ball is 1")
        expect(p["chi_morse"] == 1, f"chi_morse = {p['chi_morse']}, expected 1")
        if p["endorsed"]:
            expect(p["chi_paper"] == 1, f"endorsed chi_paper = {p['chi_paper']}")
        expect(p["interior_sum"] == interior,
               f"interior sum {p['interior_sum']}, expected {interior}")
        _match_zeros(p["zeros"], zeros, tol)
    return check


def check_closed(total, zeros, tol, period=None):
    def check(methods):
        p = methods["index-sum"]
        expect(p["total"] == total, f"total {p['total']}, expected {total}")
        expect(p["chi_oracle"] == total, "triangulation oracle differs")
        _match_zeros(p["zeros"], zeros, tol, key="ambient", period=period)
    return check


def check_gbc(chi, tol):
    def check(methods):
        p = methods["gbc-integral"]
        expect(p["rounded"] == chi, f"rounded {p['rounded']}, expected {chi}")
        expect(abs(p["raw"] - chi) < tol, f"|raw - {chi}| = {abs(p['raw'] - chi):.2e}")
    return check


def check_flux(k):
    def check(methods):
        p = methods["flatness-scan"]
        expect(p["max_curvature_norm"] < cli.FLATNESS_TOL,
               f"curvature {p['max_curvature_norm']:.2e} off the singularity")
        flux = p["flux"]
        expect(flux["quantum_rounded"] == k, f"flux quantum {flux['quantum_rounded']}, expected {k}")
        expect(abs(flux["quantum"] - k) < FLUX_TOL, f"|quantum - k| = {abs(flux['quantum'] - k):.2e}")
    return check


def both(*checks):
    def check(methods):
        for c in checks:
            c(methods)
    return check


# -- bundled scenarios, with expectations worked out by hand -------------

_O2, _O4 = (0.0, 0.0), (0.0,) * 4
_S = SIMPLE_ZERO_TOL
BUNDLED = {
    # index +1: det of the identity, the rotation blocks, -I_2
    "ball4-constant": check_boundary(0, [], _S),
    "ball4-outward-radial": check_boundary(1, [(_O4, 1)], _S),
    "ball4-quaternion-square": check_index_ball(2, [(_O4, 2)], 1.5 * DEGENERATE_ZERO_TOL),
    "ball4-rotation": check_boundary(1, [(_O4, 1)], _S),
    "disk-constant-field": check_boundary(0, [], _S),
    "disk-inward-radial": check_boundary(1, [(_O2, 1)], _S),
    "disk-outward-radial": check_boundary(1, [(_O2, 1)], _S),
    "disk-rotation": check_boundary(1, [(_O2, 1)], _S),
    "disk-saddle": check_boundary(-1, [(_O2, -1)], _S),
    # roots -0.6+0.1i and a double root 0.5-0.3i; conj root 0.2+0.6i
    "plane-three-zeros": check_index_ball(
        2, [((-0.6, 0.1), 1), ((0.5, -0.3), 2), ((0.2, 0.6), -1)], 2 * DEGENERATE_ZERO_TOL),
    "s2-gbc-small": check_gbc(2, GBC_TOL["s2"]),
    "s2-height-gradient": check_closed(2, [((0, 0, 1), 1), ((0, 0, -1), 1)], _S),
    "s2-rotation": both(check_closed(2, [((0, 0, 1), 1), ((0, 0, -1), 1)], _S),
                        check_gbc(2, GBC_TOL["s2"])),
    "s4-gbc": check_gbc(2, GBC_TOL["s4"]),
    "torus-constant": both(check_closed(0, [], _S), check_gbc(0, GBC_TOL["torus-flat"])),
    "torus-embedded-gbc": check_gbc(0, GBC_TOL["torus-embedded"]),
    # sin 2 pi x sin 2 pi y zeros on the half-period lattice
    "torus-sines": check_closed(0, [((0, 0), 1), ((0.5, 0), -1), ((0, 0.5), -1),
                                    ((0.5, 0.5), 1)], _S, period=np.ones(2)),
    "annulus-hedgehog": check_flux(1),
    "annulus-hedgehog-double": check_flux(2),
}


def bundled_op(name: str) -> Op:
    sc = cli.load_scenario(name)
    return scenario_op("bundled", sc, BUNDLED[name])


# -- balls-4d families ---------------------------------------------------


def _ball4(rng):
    return rng.uniform(-0.3, 0.3, size=4), float(rng.uniform(1.0, 1.5))


def quaternion_op(rng) -> Op:
    """(q - a)(q - b): zeros at a and b, each of index +1, degree 2.

    a and b sit within 0.6 R of the center and at least 0.4 R apart, so
    both zeros are isolated and clear of the boundary sphere.
    """
    c0, radius = _ball4(rng)
    while True:
        a = _in_ball(rng, c0, 0.6 * radius)
        b = _in_ball(rng, c0, 0.6 * radius)
        if np.linalg.norm(a - b) >= 0.4 * radius:
            break
    sc = scenario("quaternion-product", ["index-sum"],
                  {"kind": "ball", "center": c0.tolist(), "radius": radius},
                  _poly_spec(_quaternion_product(a, b)))
    tol = SIMPLE_ZERO_TOL * radius
    return scenario_op("quaternion", sc, check_index_ball(2, [(a, 1), (b, 1)], tol))


def _linear_spec(a, c):
    return _poly_spec([_affine(a[i], -float(a[i] @ c)) for i in range(len(c))])


def _linear_field(rng):
    """A(x - c) with A i.i.d. normal and cond(A) <= MAX_COND; c within 0.5 R."""
    c0, radius = _ball4(rng)
    while True:
        a = rng.normal(size=(4, 4))
        if np.linalg.cond(a) <= MAX_COND:
            break
    c = _in_ball(rng, c0, 0.5 * radius)
    return a, c, c0, radius


def linear_index_op(rng) -> Op:
    a, c, c0, radius = _linear_field(rng)
    sign = int(np.sign(np.linalg.det(a)))
    sc = scenario("linear-index", ["index-sum"],
                  {"kind": "ball", "center": c0.tolist(), "radius": radius}, _linear_spec(a, c))
    return scenario_op("linear-index", sc,
                       check_index_ball(sign, [(c, sign)], SIMPLE_ZERO_TOL * radius))


def linear_boundary_zeros(a, c, c0, radius) -> list:
    """Zeros of the tangential part of A(x - c) on the sphere |x - c0| = radius.

    There A(x - c) = lam (x - c0), so y = x - c0 = -(A - lam I)^-1 A (c0 - c)
    and |y| = radius: a secular equation in the real number lam, solved by
    a sign scan (dense near the real eigenvalues, its poles) and brentq.
    Returns (zero, lam) pairs.
    """
    rhs = -a @ (np.asarray(c0) - np.asarray(c))
    eye = np.eye(len(rhs))
    eig = np.linalg.eigvals(a)
    poles = eig[np.abs(eig.imag) < 1e-12].real
    span = 4.0 * np.linalg.norm(a, 2) + 1.0
    near = np.logspace(-7, 0, 400)
    lams = np.unique(np.concatenate([np.linspace(-span, span, 20001)]
                                    + [p + s * near for p in poles for s in (-1.0, 1.0)]))
    ys = np.linalg.solve(a[None] - lams[:, None, None] * eye[None],
                         np.broadcast_to(rhs, (lams.size, len(rhs)))[:, :, None])[:, :, 0]
    gap = np.einsum("pi,pi->p", ys, ys) - radius ** 2
    y = lambda lam: np.linalg.solve(a - lam * eye, rhs)
    roots = [brentq(lambda lam: y(lam) @ y(lam) - radius ** 2, lams[k], lams[k + 1], xtol=1e-15)
             for k in np.flatnonzero(gap[:-1] * gap[1:] < 0.0)]
    return [(np.asarray(c0) + y(lam), lam) for lam in roots]


def _tangent_cond(a, lam, normal) -> float:
    """Condition number of the tangential field's Jacobian P (A - lam I) P at a zero."""
    q, _ = np.linalg.qr(np.column_stack([normal, np.eye(len(normal))]))
    t = q[:, 1:len(normal)]
    return float(np.linalg.cond(t.T @ (a - lam * np.eye(len(normal))) @ t))


def linear_boundary_op(rng) -> Op:
    """Boundary zeros well resolved, at least 0.35 R apart, 0.15 R off the first chart seam.

    The chart's 3-D winding rule resolves a boundary zero only when the
    tangential Jacobian there has condition number <= MAX_COND_BOUNDARY
    and no other zero is near (otherwise UndersampledError); the seam
    retries draw rotations from a fixed seed.  Both faults are kept out
    of the seeded inputs.
    """
    while True:
        a, c, c0, radius = _linear_field(rng)
        found = linear_boundary_zeros(a, c, c0, radius)
        bzeros = [x for x, _ in found]
        if (all(np.linalg.norm(p - q) >= 0.35 * radius
                for i, p in enumerate(bzeros) for q in bzeros[i + 1:])
                and all(abs(x[3] - c0[3]) >= 0.15 * radius
                        and _tangent_cond(a, lam, (x - c0) / radius) <= MAX_COND_BOUNDARY
                        for x, lam in found)):
            break
    sign = int(np.sign(np.linalg.det(a)))
    sc = scenario("linear-boundary", ["boundary-theorem"],
                  {"kind": "ball", "center": c0.tolist(), "radius": radius}, _linear_spec(a, c))
    tol = SIMPLE_ZERO_TOL * radius
    interior = check_boundary(sign, [(c, sign)], tol)

    def check(methods):
        interior(methods)
        p = methods["boundary-theorem"]
        # a transversal or wholly tangent field skips the boundary zeros
        if not any(f.startswith(("transversal-", "constant-alpha")) for f in p["flags"]):
            located = [np.asarray(z["location"]) for z in p["boundary_zeros"]]
            expect(len(located) == len(bzeros),
                   f"{len(located)} boundary zeros found, {len(bzeros)} expected")
            for z in bzeros:
                expect(min(np.max(np.abs(x - z)) for x in located) <= tol,
                       f"no boundary zero found near {z.tolist()}")

    return scenario_op("linear-boundary", sc, check)


# cond(A) = 60: A = U diag(3, 1.5, 1, 0.05) V^T with fixed rotations U, V.
# The tensor-product sphere rule cannot resolve the normalized field, so
# winding_number raises UndersampledError although sign det A = +1 is certain.
def ill_conditioned_op() -> Op:
    rng = np.random.default_rng(20240601)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = u @ np.diag([3.0, 1.5, 1.0, 0.05]) @ v.T
    sign = int(np.sign(np.linalg.det(a)))
    c = np.array([0.1, -0.2, 0.05, 0.15])
    sc = scenario("ill-conditioned-linear", ["boundary-theorem"],
                  {"kind": "ball", "center": [0.0] * 4, "radius": 1.2}, _linear_spec(a, c))
    return scenario_op("ill-conditioned", sc, check_boundary(sign, [(c, sign)], SIMPLE_ZERO_TOL),
                       fault="undersampled-4d-winding")


# -- surfaces-2d families ------------------------------------------------


def _disk_roots(rng):
    """Roots within 0.6 R of the center, pairwise at least 0.25 R apart."""
    c0 = rng.uniform(-0.5, 0.5, size=2)
    radius = float(rng.uniform(0.8, 2.0))
    n_plus = int(rng.integers(1, 4))
    n_minus = int(rng.integers(0, 3))
    pts = []
    while len(pts) < n_plus + n_minus:
        p = _in_ball(rng, c0, 0.6 * radius)
        if all(np.linalg.norm(p - q) >= 0.25 * radius for q in pts):
            pts.append(p)
    return c0, radius, pts[:n_plus], pts[n_plus:]


def _disk_scenario(name, method, rng):
    c0, radius, plus, minus = _disk_roots(rng)
    field = {"kind": "complex-product", "roots": [p.tolist() for p in plus],
             "conj_roots": [p.tolist() for p in minus]}
    sc = scenario(name, [method], {"kind": "ball", "center": c0.tolist(), "radius": radius}, field)
    zeros = [(p, 1) for p in plus] + [(p, -1) for p in minus]
    return sc, len(plus) - len(minus), zeros, SIMPLE_ZERO_TOL * radius


def disk_index_op(rng) -> Op:
    sc, degree, zeros, tol = _disk_scenario("disk-index", "index-sum", rng)
    return scenario_op("disk-index", sc, check_index_ball(degree, zeros, tol))


def disk_boundary_op(rng) -> Op:
    sc, degree, zeros, tol = _disk_scenario("disk-boundary", "boundary-theorem", rng)
    return scenario_op("disk-boundary", sc, check_boundary(degree, zeros, tol))


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def sphere_op(rng, kind: str) -> Op:
    """Rotation about axis u, or the height gradient along u, on S^2(r).

    Either field vanishes exactly at +-r u, two zeros of index +1.
    """
    r = float(rng.uniform(0.5, 2.0))
    u = _unit(rng, 3)
    while abs(u[2]) < 0.15:  # zeros clear of the equatorial seam of the first chart pair
        u = _unit(rng, 3)
    if kind == "rotation":
        polys = [_affine(np.cross(u, np.eye(3)[i]) * -1.0, 0.0) for i in range(3)]
    else:
        polys = []
        for i in range(3):
            p = {(0, 0, 0): float(u[i])}
            for j in range(3):
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                p = _poly_add(p, {tuple(e): -float(u[j]) / r ** 2})
            polys.append(p)
    sc = scenario(f"s2-{kind}", ["index-sum", "gbc-integral"],
                  {"kind": "sphere", "radius": r, "ambient_dim": 3}, _poly_spec(polys))
    zeros = [(r * u, 1), (-r * u, 1)]
    return scenario_op(f"sphere-{kind}", sc,
                       both(check_closed(2, zeros, SIMPLE_ZERO_TOL * r), check_gbc(2, GBC_TOL["s2"])))


def shifted_sines(periods, shifts):
    """(sin 2 pi (x - sx)/px, sin 2 pi (y - sy)/py) as a batched CallableField."""
    p = np.asarray(periods, dtype=float)
    s = np.asarray(shifts, dtype=float)
    k = 2.0 * math.pi / p

    def ev(pts):
        return np.sin(k * (pts - s))

    def jac(pts):
        out = np.zeros((pts.shape[0], 2, 2))
        c = k * np.cos(k * (pts - s))
        out[:, 0, 0] = c[:, 0]
        out[:, 1, 1] = c[:, 1]
        return out

    return fields.CallableField(2, ev, jac=jac, name="shifted-sines", batch=True)


def torus_op(periods, shifts, family="torus", fault=None) -> Op:
    """Four zeros at shifts + (i px/2, j py/2), index +1 for i == j, -1 otherwise."""
    periods = np.asarray(periods, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    torus_field = shifted_sines(periods, shifts)

    def run():
        res = manifolds.FlatTorus(periods=tuple(periods)).index_sum(torus_field)
        payload = res.to_dict()
        return {"index-sum": payload}, report.render_report(payload)

    zeros = [((shifts + 0.5 * periods * (i, j)) % periods, 1 if i == j else -1)
             for i in (0, 1) for j in (0, 1)]
    check = check_closed(0, zeros, SIMPLE_ZERO_TOL * float(periods.min()), period=periods)
    return Op(family, run, check, fault=fault)


def seeded_torus_op(rng) -> Op:
    """Periods in [0.7, 1.5]; every zero at least 0.15 p from the tile edges."""
    periods = rng.uniform(0.7, 1.5, size=2)
    half = rng.integers(0, 2, size=2)
    shifts = periods * (0.5 * half + rng.uniform(0.15, 0.35, size=2))
    return torus_op(periods, shifts)


# Four simple zeros at x in {0.075, 0.575}, y in {0.21, 0.71}.  Each of
# the four tiles FlatTorus.index_sum tries (shift 0, then three shifts
# drawn from a fixed seed, blind to the zeros already found) has a zero
# within its seam guard, so it gives up with ManifoldError.
SEAM_TORUS = ((1.0, 1.0), (0.575, 0.21))


def curvature_ops(rng) -> list:
    """gbc-integral on S^2, S^4 and two embedded tori, with seeded radii."""
    specs = [({"kind": "curved", "name": "s2", "radius": float(rng.uniform(0.3, 3.0))}, 2, "s2"),
             ({"kind": "curved", "name": "s4", "radius": float(rng.uniform(0.5, 2.0))}, 2, "s4")]
    for _ in range(2):
        big = float(rng.uniform(1.5, 3.0))
        small = float(rng.uniform(0.2, 0.8)) * big
        specs.append(({"kind": "curved", "name": "torus-embedded", "big_radius": big,
                       "small_radius": small}, 0, "torus-embedded"))
    return [scenario_op("curvature", scenario(f"gbc-{key}", ["gbc-integral"], dom),
                        check_gbc(chi, GBC_TOL[key]))
            for dom, chi, key in specs]


MALFORMED = ("no-dimension", "grid-not-a-number", "radius-not-a-number", "unknown-builtin")


def malformed_op(name: str) -> Op:
    """``eulerchar run FILE`` on a malformed file: exit 1 and one ``error:`` line."""
    path = str(FIXTURES / f"{name}.json")

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", path])
        return (code, out.getvalue(), err.getvalue()), None

    def check(result):
        code, out, err = result
        expect(code == 1, f"exit code {code}, expected 1")
        lines = err.splitlines()
        expect(len(lines) == 1 and lines[0].startswith("error:") and not out,
               f"expected one 'error:' line, got {err!r}")

    return Op("malformed", run, check, timed=False, fault="malformed-scenario")


# -- frames families -----------------------------------------------------


def hedgehog_op(rng) -> Op:
    """Hedgehog of winding k on an annulus clear of the singular origin."""
    k = int(rng.integers(1, 4))
    domain = {"kind": "annulus", "r_inner": float(rng.uniform(0.4, 0.7)),
              "r_outer": float(rng.uniform(1.0, 1.4)),
              "loop_radius": float(rng.uniform(0.3, 1.4))}
    sc = scenario(f"hedgehog-k{k}", ["flatness-scan"], domain,
                  frame={"kind": "hedgehog", "winding": k})
    return scenario_op("hedgehog", sc, check_flux(k))


def rotor_op(rng, dimension: int, points: int) -> Op:
    """Rotor frame exp(B(x)) with quadratic B: smooth, so omega_0 is flat."""
    ff = connection.random_rotor_frame_field(dimension, rng)
    grid = rng.uniform(-1.2, 1.2, size=(points, dimension))

    def run():
        rep = connection.flatness_scan(ff, grid_points=grid)
        return rep, repr(rep)

    def check(rep):
        expect(rep.points_checked == points, "not every point was checked")
        expect(rep.max_curvature_norm < cli.FLATNESS_TOL,
               f"curvature {rep.max_curvature_norm:.2e} on a smooth frame")
        expect(rep.max_grade2_leakage < LEAKAGE_TOL,
               f"grade-2 leakage {rep.max_grade2_leakage:.2e}")
        expect(rep.fluxes == (), "a smooth frame has no singular points")

    return Op(f"rotor-cl{dimension}", run, check)


# -- workloads -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Fixed inputs run every round, plus seeded families drawn per round.

    tail_pct is the highest percentile with ten successful operations
    beyond it once min_ok operations succeeded; a run keeps going, in
    whole rounds, until it has at least min_ok successes.  probe names
    the parts of speed.PARTS that gauge the machine for this workload.
    """

    name: str
    fixed: Callable[[], list]
    seeded: Callable[[np.random.Generator], list]
    tail_pct: int
    min_ok: int
    trace_rounds: int
    probe: tuple

    def round_ops(self, seed: int, index: int) -> list:
        return self.fixed() + self.seeded(np.random.default_rng((seed, index)))

    def warmup_ops(self) -> list:
        """One op of every family with timed ops, on inputs fixed apart from the seed."""
        seen = {}
        for op in self.round_ops(0, 0):
            if op.timed and op.fault is None:
                seen.setdefault(op.family, op)
        return list(seen.values())


def _balls_fixed():
    return [bundled_op(n) for n in ("ball4-constant", "ball4-outward-radial",
                                    "ball4-quaternion-square", "ball4-rotation")] + [
        ill_conditioned_op()]


def _balls_seeded(rng):
    # Latencies of the ten successful ops of a round, shortest first: three
    # bundled scenarios (0.1-0.3 s), four linear index sums (0.65 s),
    # ball4-quaternion-square (0.73 s), the linear boundary count and the
    # quaternion product (0.9-1.2 s).  So the median falls in the middle of
    # the linear index sums and p75 on ball4-quaternion-square, a fixed input.
    # More boundary counts would move p75 among them, whose cost varies more
    # from one seeded input to the next.
    return ([quaternion_op(rng)] + [linear_index_op(rng) for _ in range(4)]
            + [linear_boundary_op(rng)])


_SURFACE_BUNDLED = ("disk-constant-field", "disk-inward-radial", "disk-outward-radial",
                    "disk-rotation", "disk-saddle", "plane-three-zeros", "s2-gbc-small",
                    "s2-height-gradient", "s2-rotation", "s4-gbc", "torus-constant",
                    "torus-embedded-gbc", "torus-sines")


def _surfaces_fixed():
    return ([bundled_op(n) for n in _SURFACE_BUNDLED]
            + [torus_op(*SEAM_TORUS, family="torus-seam", fault="torus-tile-seam")]
            + [malformed_op(n) for n in MALFORMED])


def _surfaces_seeded(rng):
    # Latencies of the 27 successful ops of a round, shortest first: eleven
    # below 7 ms, four near 14 ms (s4-gbc, plane-three-zeros, s2-rotation and
    # the curved S^4), then up to the four disk boundary counts (about 30 ms)
    # and the two spheres (40 ms), and last the three embedded tori (85 ms).
    # So the median falls inside the 14-ms cluster and p95 inside the tori.
    return ([disk_index_op(rng), disk_index_op(rng)]
            + [disk_boundary_op(rng) for _ in range(4)]
            + [sphere_op(rng, "rotation"), sphere_op(rng, "height"),
               seeded_torus_op(rng), seeded_torus_op(rng)] + curvature_ops(rng))


def _frames_fixed():
    return [bundled_op(n) for n in ("annulus-hedgehog", "annulus-hedgehog-double")]


def _frames_seeded(rng):
    # Latencies of the eleven ops of a round, shortest first: two Cl(3) scans,
    # five hedgehogs, four Cl(4) scans.  So the median falls inside the
    # hedgehogs and p75 inside the Cl(4) scans, more than a tenth of the ops
    # away from the jump in cost between the two.
    return ([hedgehog_op(rng) for _ in range(3)] + [rotor_op(rng, 3, 8) for _ in range(2)]
            + [rotor_op(rng, 4, 20) for _ in range(4)])


WORKLOADS = {
    "balls-4d": Workload("balls-4d", _balls_fixed, _balls_seeded,
                         tail_pct=75, min_ok=40, trace_rounds=2,
                         probe=("small", "stream")),
    "surfaces-2d": Workload("surfaces-2d", _surfaces_fixed, _surfaces_seeded,
                            tail_pct=95, min_ok=200, trace_rounds=8,
                            probe=("interp", "small", "big")),
    "frames": Workload("frames", _frames_fixed, _frames_seeded,
                       tail_pct=75, min_ok=40, trace_rounds=2,
                       probe=("interp", "small", "big")),
}
