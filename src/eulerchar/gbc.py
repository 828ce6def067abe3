"""Euler characteristics by curvature quadrature.

For a closed Riemannian manifold of even dimension N = 2m the Euler
density in orthonormal-frame components is

    E = 1 / ((2 pi)^m 4^m m!) * eps_a eps_c F^{a1 a2}_{c1 c2} ... F^{a_{2m-1} a_{2m}}_{c_{2m-1} c_{2m}}

with F the curvature tensor; integrating E against the Riemannian
volume gives chi.  F is antisymmetric in (a, b) and in (c, d), so each
epsilon collapses onto the signed perfect matchings of its indices:
eps eps F...F / (4^m m!) is the sum, over row matchings A and column
matchings C, of sign A sign C times the permanent of the m x m matrix
F^{A_i}_{C_j}.  For surfaces that is the one term F^{12}_{12}, the
Pfaffian of the curvature two-form (the Gauss curvature route); for
N = 4 it is 18 terms.  pfaffian sums over the same matchings.

Every catalog manifold (round spheres, flat and embedded tori) is a
space form at each point, F = K (delta^a_c delta^b_d - delta^a_d delta^b_c)
with K its sectional curvature, so its density is K^m times the
contraction of the unit space form, computed once per N, over (2 pi)^m.
A catalog entry supplies K and the volume density on an explicit chart,
so the quadrature is the only approximation in this route.  Its top
rule is the chart's per-axis rules at the manifold's node counts, and
integrate_euler certifies chi by a climb up to it (winding.climb).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Callable

import numpy as np

from .report import Record
from .winding import azimuth_rule, climb, ladder, polar_rule, scaled_count, tensor_rule

MAX_PFAFFIAN_SIZE = 8
LOG_RANGE = 708.0  # |log x| below this keeps x and 1/x normal floats, with room to spare


class GbcError(ValueError):
    pass


@lru_cache(maxsize=None)
def _matchings(n: int) -> tuple:
    """Signed perfect matchings of range(n): (sign, ((i, j), ...)) with i < j."""
    def match(rest):
        if not rest:
            return [(1, ())]
        first, others = rest[0], rest[1:]
        # pairing first with others[k] moves others[k] past k indices
        return [((-1) ** k * sign, ((first, j),) + pairs)
                for k, j in enumerate(others)
                for sign, pairs in match(others[:k] + others[k + 1:])]
    return tuple(match(tuple(range(n))))


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix of even size <= 8.

    The signed sum over perfect matchings; Pf(A)^2 = det(A).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise GbcError("pfaffian needs a square matrix")
    if n % 2 or n == 0 or n > MAX_PFAFFIAN_SIZE:
        raise GbcError(f"pfaffian needs even size in 2..{MAX_PFAFFIAN_SIZE}")
    _check_antisymmetric(a)
    return float(sum(sign * math.prod(a[i, j] for i, j in pairs)
                     for sign, pairs in _matchings(n)))


def _check_antisymmetric(a: np.ndarray):
    """Raise GbcError unless every matrix of a, shape (..., n, n), is antisymmetric."""
    skew = np.max(np.abs(a + np.swapaxes(a, -1, -2)), axis=(-2, -1))
    bad = skew > 1e-12 * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    if np.any(bad):
        raise GbcError(f"matrix is not antisymmetric (deviation {np.max(skew[bad]):.3e})")


def frame_contraction(f: np.ndarray):
    """eps eps contraction of curvature tensors, including 1/(4^m m!).

    f has shape (..., N, N, N, N) with components F^{a b}_{c d},
    antisymmetric in (a, b) and in (c, d); N in {2, 4}.  One tensor
    gives a float, a batch an array.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    if f.ndim < 4 or f.shape[-4:] != (n,) * 4 or n not in (2, 4):
        raise GbcError("curvature tensor must be (..., N,N,N,N) with N in {2, 4}")
    _check_antisymmetric(f)
    _check_antisymmetric(np.moveaxis(f, (-4, -3), (-2, -1)))
    total = 0.0
    for row_sign, rows in _matchings(n):
        for col_sign, cols in _matchings(n):
            for perm in permutations(cols):  # the permanent of F^{A_i}_{C_j}
                term = row_sign * col_sign
                for (a, b), (c, d) in zip(rows, perm):
                    term = term * f[..., a, b, c, d]
                total = total + term
    return total


def euler_density_value(f: np.ndarray):
    """Euler density per unit Riemannian volume from frame curvature."""
    m = np.shape(f)[-1] // 2
    return frame_contraction(f) / (2.0 * math.pi) ** m


def space_form(n: int) -> np.ndarray:
    """Unit space-form curvature F^{ab}_{cd} = delta^a_c delta^b_d - delta^a_d delta^b_c."""
    eye = np.eye(n)
    return np.einsum("ac,bd->abcd", eye, eye) - np.einsum("ad,bc->abcd", eye, eye)


@lru_cache(maxsize=None)
def _unit_contraction(n: int) -> float:
    return float(frame_contraction(space_form(n)))


# -- catalog of curved manifolds ----------------------------------------


@dataclass(frozen=True)
class CurvedManifold:
    """Chart, volume density and sectional curvature of a catalog manifold.

    ``oracle`` names the reference triangulation with the same chi, and
    ``axes`` the chart's per-axis rules, with ``top`` nodes at scale 1.
    ``sqrt_g`` maps chart points (P, N) to volume densities (P,), and
    ``gauss`` to the sectional curvature K: a float where K is constant,
    else an array (P,).
    """

    name: str
    oracle: str
    axes: tuple
    top: tuple
    sqrt_g: Callable[[np.ndarray], np.ndarray]
    gauss: Callable[[np.ndarray], object]

    def euler_density(self, pts: np.ndarray):
        """K^m times the unit space form's contraction, over (2 pi)^m."""
        n = len(self.axes)
        m = n // 2
        return self.gauss(pts) ** m * _unit_contraction(n) / (2.0 * math.pi) ** m

    def __repr__(self):
        return f"<CurvedManifold {self.name!r}>"


def _round_sphere(n: int, radius: float, top: tuple) -> CurvedManifold:
    """S^n of radius r on polar angles (psi_1, ..., psi_{n-1}, phi):
    sqrt g = r^n prod_k sin(psi_k)^(n-k), K = 1 / r^2."""
    r = float(radius)
    if not r > 0:
        raise GbcError("radius must be positive")
    if not abs(n * math.log(r)) < LOG_RANGE:  # sqrt g scales as r^n, K^m as 1/r^n
        raise GbcError(f"radius {r:g}: r^{n} or 1/r^{n} is not a normal float")
    k, volume = 1.0 / r ** 2, r ** n

    def sqrt_g(pts):
        out = volume
        for axis in range(n - 1):
            out = out * np.sin(pts[:, axis]) ** (n - 1 - axis)
        return out

    return CurvedManifold(f"s{n}(r={r:g})", f"S{n}", (polar_rule,) * (n - 1) + (azimuth_rule,),
                          top, sqrt_g, lambda pts: k)


def RoundSphere2(radius: float = 1.0) -> CurvedManifold:
    """S^2 of radius r on the polar chart (theta, phi)."""
    return _round_sphere(2, radius, (64, 128))


def RoundSphere4(radius: float = 1.0) -> CurvedManifold:
    """S^4 of radius r on polar angles (psi1, psi2, psi3, phi)."""
    return _round_sphere(4, radius, (16, 16, 16, 32))


def FlatTorusMetric() -> CurvedManifold:
    """Flat unit-area T^2: K = 0 on the periodic angle chart [0, 2pi)^2."""
    return CurvedManifold("torus-flat", "T2", (azimuth_rule, azimuth_rule), (64, 64),
                          lambda pts: np.full(pts.shape[0], (0.5 / math.pi) ** 2),
                          lambda pts: 0.0)


def EmbeddedTorus(big_radius: float = 2.0, small_radius: float = 1.0) -> CurvedManifold:
    """Torus of revolution in R^3, chart (u, v) in [0, 2pi)^2.

    Gauss curvature K = cos v / (r (R + r cos v)) varies along the tube;
    the positive outer and negative inner contributions cancel exactly.
    """
    big, small = float(big_radius), float(small_radius)
    if not 0 < small < big:
        raise GbcError("need 0 < small_radius < big_radius")
    # sqrt g runs over r (R -+ r), and |K| up to 1 / (r (R - r))
    log_r = math.log(small)
    if not max(abs(log_r + math.log(big - small)), abs(log_r + math.log(big + small))) < LOG_RANGE:
        raise GbcError(f"radii R={big:g}, r={small:g}: r (R +- r) or its reciprocal "
                       "is not a normal float")
    return CurvedManifold(
        f"torus-embedded(R={big:g},r={small:g})", "T2", (azimuth_rule, azimuth_rule), (96, 96),
        lambda pts: small * (big + small * np.cos(pts[:, 1])),
        lambda pts: np.cos(pts[:, 1]) / (small * (big + small * np.cos(pts[:, 1]))))


@dataclass(frozen=True)
class GbcResult(Record):
    manifold: str
    raw: float
    rounded: int
    residual: float
    error: float     # gap between the last two ladder levels
    nodes: int       # every node evaluated over the climb
    scale: float


@lru_cache(maxsize=16)
def chart_rule(axes: tuple, counts: tuple):
    """Tensor product (points, weights) of the per-axis rules axes at counts nodes."""
    return tensor_rule([axis(c) for axis, c in zip(axes, counts)])


def integrate_euler(manifold: CurvedManifold, scale: float = 1.0) -> GbcResult:
    """chi = integral of the Euler density, by a climb to the top rule at scale."""
    top = tuple(scaled_count(c, scale) for c in manifold.top)
    raw, error, nodes = climb(  # each level keeps 4 nodes per axis, scaled_count's floor
        ladder(top, (4,) * len(top)), lambda counts: chart_rule(manifold.axes, counts),
        lambda pts: manifold.euler_density(pts) * manifold.sqrt_g(pts),
        # np.sum is pairwise on one thread; a BLAS dot splits across threads
        lambda weights, dens: float(np.sum(weights * dens)))
    rounded = int(round(raw))
    return GbcResult(
        manifold=manifold.name,
        raw=raw,
        rounded=rounded,
        residual=raw - rounded,
        error=error,
        nodes=nodes,
        scale=float(scale),
    )


# name -> (constructor, the spec keys it takes as float arguments)
_CATALOG = {
    "s2": (RoundSphere2, ("radius",)),
    "s4": (RoundSphere4, ("radius",)),
    "torus-embedded": (EmbeddedTorus, ("big_radius", "small_radius")),
    "torus-flat": (FlatTorusMetric, ()),
}


def catalog_manifold(spec) -> CurvedManifold:
    """Build a catalog manifold from a name or a JSON-style object."""
    if isinstance(spec, str):
        spec = {"name": spec}
    name = spec.get("name")
    if not isinstance(name, str) or name not in _CATALOG:
        raise GbcError(f"unknown catalog manifold {name!r}")
    make, keys = _CATALOG[name]
    return make(**{key: float(spec[key]) for key in keys if key in spec})


def catalog_manifold_names() -> list:
    return sorted(_CATALOG)
