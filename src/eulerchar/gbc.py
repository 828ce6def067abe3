"""Euler characteristics by curvature quadrature.

For a closed even-dimensional Riemannian manifold the Euler density in
orthonormal-frame components is

    E = 1 / ((2 pi)^m 4^m m!) * eps_a eps_c F^{a1 a2}_{c1 c2} ... F^{a_{2m-1} a_{2m}}_{c_{2m-1} c_{2m}}

with N = 2m and F the curvature tensor; integrating E against the
Riemannian volume gives chi.  For surfaces this is the Pfaffian of the
curvature two-form over 2 pi (the Gauss curvature route), and the
module evaluates it literally that way; for N = 4 the double
epsilon-contraction is precomputed as a quadratic form so the density
stays vectorized.

Catalog manifolds (round spheres, flat and embedded tori) supply exact
frame curvatures and volume densities on explicit charts, so the
quadrature is the only approximation in this route.  Its top rule is
the chart's per-axis rules at the manifold's node counts, and
integrate_euler certifies chi by a climb up to it (winding.climb).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .report import Record
from .winding import azimuth_rule, climb, ladder, polar_rule, scaled_count, tensor_rule

MAX_PFAFFIAN_SIZE = 8
CHUNK = 8192


class GbcError(ValueError):
    pass


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix of even size <= 8.

    Recursive expansion along the first row; Pf(A)^2 = det(A).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise GbcError("pfaffian needs a square matrix")
    if n % 2 or n == 0 or n > MAX_PFAFFIAN_SIZE:
        raise GbcError(f"pfaffian needs even size in 2..{MAX_PFAFFIAN_SIZE}")
    _check_antisymmetric(a)
    return _pf(a)


def _check_antisymmetric(a: np.ndarray):
    """Raise GbcError unless every matrix of a, shape (..., n, n), is antisymmetric."""
    skew = np.max(np.abs(a + np.swapaxes(a, -1, -2)), axis=(-2, -1))
    bad = skew > 1e-12 * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    if np.any(bad):
        raise GbcError(f"matrix is not antisymmetric (deviation {np.max(skew[bad]):.3e})")


def _pf(a: np.ndarray) -> float:
    n = a.shape[0]
    if n == 2:
        return float(a[0, 1])
    total = 0.0
    rest = list(range(1, n))
    for k, j in enumerate(rest):
        keep = [i for i in rest if i != j]
        minor = a[np.ix_(keep, keep)]
        total += (-1.0) ** k * a[0, j] * _pf(minor)
    return total


@lru_cache(maxsize=4)
def _epsilon_form(n: int) -> np.ndarray:
    """Quadratic form Q with eps_a eps_c F F = f . Q . f, f = F.ravel().

    Index i encodes (a1, a2, c1, c2) in base n; Q pairs it with the
    (a3, a4, c3, c4) block over all permutation sign products.
    """
    q = np.zeros((n ** 4, n ** 4))

    def sign(p):
        s = 1
        p = list(p)
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    for pa in permutations(range(n)):
        ea = sign(pa)
        for pc in permutations(range(n)):
            ec = sign(pc)
            i = ((pa[0] * n + pa[1]) * n + pc[0]) * n + pc[1]
            j = ((pa[2] * n + pa[3]) * n + pc[2]) * n + pc[3]
            q[i, j] += ea * ec
    return q


def frame_contraction(f: np.ndarray):
    """eps eps contraction of curvature tensors, including 1/(4^m m!).

    f has shape (..., N, N, N, N) with components F^{a b}_{c d}; N in
    {2, 4}.  One tensor gives a float, a batch an array.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    if f.ndim < 4 or f.shape[-4:] != (n,) * 4 or n not in (2, 4):
        raise GbcError("curvature tensor must be (..., N,N,N,N) with N in {2, 4}")
    m = n // 2
    if n == 2:
        # literal surface route: Pfaffian of the curvature 2-form on (e1, e2)
        two_forms = f[..., :, :, 0, 1]
        _check_antisymmetric(two_forms)
        return two_forms[..., 0, 1]
    flat = f.reshape(f.shape[:-4] + (-1,))
    vals = np.einsum("...i,ij,...j->...", flat, _epsilon_form(n), flat)
    return vals / (4.0 ** m * math.factorial(m))


def euler_density_value(f: np.ndarray):
    """Euler density per unit Riemannian volume from frame curvature."""
    m = np.shape(f)[-1] // 2
    return frame_contraction(f) / (2.0 * math.pi) ** m


# -- catalog of curved manifolds ----------------------------------------


class CurvedManifold:
    """Chart, volume density, and frame curvature of a catalog manifold.

    ``oracle`` names the reference triangulation with the same chi, and
    ``axes`` the chart's per-axis rules, with ``top`` nodes at scale 1.
    """

    name = "manifold"
    dimension = 2
    oracle = None

    def sqrt_g(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def curvature_constant(self):
        """Frame curvature tensor if it is position-independent, else None."""
        return None

    def curvature(self, pts: np.ndarray) -> np.ndarray:
        """Pointwise frame curvature; read only when curvature_constant is None."""
        raise NotImplementedError

    def euler_density(self, pts: np.ndarray) -> np.ndarray:
        const = self.curvature_constant()
        if const is not None:
            return np.full(pts.shape[0], euler_density_value(const))
        out = np.empty(pts.shape[0])
        for k in range(0, pts.shape[0], CHUNK):
            out[k:k + CHUNK] = euler_density_value(self.curvature(pts[k:k + CHUNK]))
        return out

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class RoundSphere2(CurvedManifold):
    """S^2 of radius r on the polar chart (theta, phi)."""

    dimension = 2
    oracle = "S2"
    axes, top = (polar_rule, azimuth_rule), (64, 128)

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise GbcError("radius must be positive")
        self.radius = float(radius)
        self.name = f"s2(r={self.radius:g})"

    def sqrt_g(self, pts):
        return self.radius ** 2 * np.sin(pts[:, 0])

    def curvature_constant(self):
        f = np.zeros((2, 2, 2, 2))
        k = 1.0 / self.radius ** 2
        f[0, 1, 0, 1] = k
        f[1, 0, 0, 1] = -k
        f[0, 1, 1, 0] = -k
        f[1, 0, 1, 0] = k
        return f


class FlatTorusMetric(CurvedManifold):
    """Flat unit-area T^2: zero curvature on the periodic angle chart [0, 2pi)^2."""

    dimension = 2
    oracle = "T2"
    axes, top = (azimuth_rule, azimuth_rule), (64, 64)

    def __init__(self):
        self.name = "torus-flat"

    def sqrt_g(self, pts):
        return np.full(pts.shape[0], (0.5 / math.pi) ** 2)

    def curvature_constant(self):
        return np.zeros((2, 2, 2, 2))


class EmbeddedTorus(CurvedManifold):
    """Torus of revolution in R^3, chart (u, v) in [0, 2pi)^2.

    Gauss curvature K = cos v / (r (R + r cos v)) varies along the tube,
    so this catalog entry exercises the pointwise density path; the
    positive outer and negative inner contributions cancel exactly.
    """

    dimension = 2
    oracle = "T2"
    axes, top = (azimuth_rule, azimuth_rule), (96, 96)

    def __init__(self, big_radius: float = 2.0, small_radius: float = 1.0):
        if small_radius <= 0 or big_radius <= small_radius:
            raise GbcError("need 0 < small_radius < big_radius")
        self.big_radius = float(big_radius)
        self.small_radius = float(small_radius)
        self.name = f"torus-embedded(R={self.big_radius:g},r={self.small_radius:g})"

    def sqrt_g(self, pts):
        return self.small_radius * (self.big_radius
                                    + self.small_radius * np.cos(pts[:, 1]))

    def curvature(self, pts):
        k = np.cos(pts[:, 1]) / (self.small_radius * (
            self.big_radius + self.small_radius * np.cos(pts[:, 1])))
        f = np.zeros((pts.shape[0], 2, 2, 2, 2))
        f[:, 0, 1, 0, 1] = k
        f[:, 1, 0, 0, 1] = -k
        f[:, 0, 1, 1, 0] = -k
        f[:, 1, 0, 1, 0] = k
        return f


class RoundSphere4(CurvedManifold):
    """S^4 of radius r on polar angles (psi1, psi2, psi3, phi)."""

    dimension = 4
    oracle = "S4"
    axes, top = (polar_rule,) * 3 + (azimuth_rule,), (16, 16, 16, 32)

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise GbcError("radius must be positive")
        self.radius = float(radius)
        self.name = f"s4(r={self.radius:g})"

    def sqrt_g(self, pts):
        return (self.radius ** 4 * np.sin(pts[:, 0]) ** 3
                * np.sin(pts[:, 1]) ** 2 * np.sin(pts[:, 2]))

    def curvature_constant(self):
        k = 1.0 / self.radius ** 2
        eye = np.eye(4)
        return k * (np.einsum("ac,bd->abcd", eye, eye)
                    - np.einsum("ad,bc->abcd", eye, eye))


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


def catalog_manifold(spec) -> CurvedManifold:
    """Build a catalog manifold from a name or a JSON-style object."""
    if isinstance(spec, str):
        spec = {"name": spec}
    name = spec.get("name")
    if name == "s2":
        return RoundSphere2(radius=float(spec.get("radius", 1.0)))
    if name == "torus-flat":
        return FlatTorusMetric()
    if name == "torus-embedded":
        return EmbeddedTorus(
            big_radius=float(spec.get("big_radius", 2.0)),
            small_radius=float(spec.get("small_radius", 1.0)),
        )
    if name == "s4":
        return RoundSphere4(radius=float(spec.get("radius", 1.0)))
    raise GbcError(f"unknown catalog manifold {name!r}")


def catalog_manifold_names() -> list:
    return ["s2", "s4", "torus-embedded", "torus-flat"]
