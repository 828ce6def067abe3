"""Winding numbers of vector fields over small spheres.

The winding (Brouwer degree of the normalized field n = phi/|phi| on a
sphere around a candidate zero) is the surface integral of the
pulled-back unit-sphere volume form, normalized by the unit-sphere area.
At the sphere point with outward unit normal s its density is

    s . adj(J_phi) phi / |phi|^N ,

computed as -det([[J_phi, phi], [s^T, 0]]) / |phi|^N.  It equals the
classical det([ phi | J_phi t_1 | ... | J_phi t_{N-1} ]) / |phi|^N over
any oriented orthonormal tangent frame (t_j): since [s | T] is orthonormal
with det +1, det[v | T] = s . v, so det[phi | J T] = det J det[J^-1 phi | T]
= s . adj(J) phi.  Both sides are polynomials in J, so the identity also
holds where J is singular.  Only the node s enters, and no tangent frame
is built.  Each fixed-size block of nodes takes phi and J from one jet
call, in a fixed order, so memory stays bounded and reruns are
byte-identical.  The bordered determinant is split by Laplace into two
blocks of rows, whose minors are each built once, on contiguous per-node
rows; like any cofactor expansion it is a polynomial in the entries.

The integral climbs a ladder of rules: it starts at _LADDER_START
nodes per axis and doubles every count at each step up to the top rule,
the one the caller passes or the default.  Below the top it stops as
soon as two consecutive levels agree to AGREE_TOL at a value within
MAX_RESIDUAL of an integer; levels that agree off an integer mean a zero
on or near the sphere, so the climb goes on.  At the top the result
stands if it lies within MAX_RESIDUAL of an integer and the level below
agrees with it to within MAX_RESIDUAL; otherwise, and on a rule with no
level below it, UndersampledError.  The gap between the last two levels
is the result's error estimate: for these analytic, periodic integrands
the error falls geometrically with the node count (Trefethen &
Weideman, SIAM Rev. 56, 2014), so it bounds the error of the finer
level.  In the plane a doubled trapezoid rule's even nodes are the level
below, so a level reuses the field values of the one below and the
first two come from one field call.  On the line the "sphere" S^0 is the
two points z +- r, where the density is s sign phi, so the degree
(sign phi(z + r) - sign phi(z - r)) / 2 is exact: no ladder is climbed
and the error is 0.

A constant matrix P leaves the degree as sign det P times deg phi, so
winding_number can integrate psi = P phi instead, without forming P J:
adj(PJ) = adj(J) adj(P) and adj(P) P = det P I, so the numerator of
psi's density is det P s . adj(J) phi.  With P = J(z)^-1 at
a regular zero z, psi is close to x - z, whose density is nearly
constant, and a few hundred nodes resolve it whatever the conditioning
of J(z).

Two independent cross-checks live here as well: a 1-D angle-summation
degree for planar fields, and a generic preimage-counting degree that
triangulates the source sphere and counts signed simplices covering a
probe direction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .fields import VectorField
from .triangulations import cross_polytope_facets

MIN_FIELD_NORM = 1e-8
MAX_RESIDUAL = 0.1
AGREE_TOL = 1e-5  # levels below the top that agree this closely end the climb
BLOCK = 8192  # nodes per field call in winding_number

# R^3 rules serve the S^3 boundary charts, whose windings need 96 x 192 nodes;
# the S^1 charts wind on S^0, which needs no rule
_DEFAULT_NODES = {2: (512,), 3: (96, 192), 4: (48, 48, 96)}
_LADDER_START = {2: (64,), 3: (6, 12), 4: (6, 6, 12)}
_DEFAULT_MESH_LEVEL = {2: 6, 3: 4, 4: 3}
_RETRY_SEED = 20240229


class WindingError(ValueError):
    pass


class ZeroOnSphereError(WindingError):
    """The field nearly vanishes on the integration sphere."""


class UndersampledError(WindingError):
    """Sampling too coarse to certify the result; refine and retry."""


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@lru_cache(maxsize=None)
def _expansion(width: int, depth: int) -> tuple:
    """The steps of _minors: for each row d >= 1, (cols, terms) for every (d+1)-subset
    cols of the columns, a term (c, sub, negative) being entry (d, c) times the minor
    over sub."""
    return tuple(tuple((cols, tuple((cols[k], cols[:k] + cols[k + 1:], (d - k) % 2)
                                    for k in range(d, -1, -1)))
                       for cols in itertools.combinations(range(width), d + 1))
                 for d in range(1, depth))


def _minors(rows) -> dict:
    """{cols: det(rows over cols)} for every len(rows)-subset cols of the columns.

    Entries are per-node arrays, so one call handles a block of nodes.  The
    expansion runs along each row in turn and builds every minor once, from
    the minors of the rows above it.
    """
    minors = {(c,): entry for c, entry in enumerate(rows[0])}
    for row, level in zip(rows[1:], _expansion(len(rows[0]), len(rows))):
        nxt = {}
        for cols, ((c, sub, negative), *rest) in level:
            acc = -(row[c] * minors[sub]) if negative else row[c] * minors[sub]
            for c, sub, negative in rest:  # in place: one new array per term, not two
                (np.subtract if negative else np.add)(acc, row[c] * minors[sub], out=acc)
            nxt[cols] = acc
        minors = nxt
    return minors


def _degree_density(s, phi, jac):
    """s . adj(J) phi = -det [[J, phi], [s^T, 0]] at each node: s, phi (m, N), jac (m, N, N).

    The bordered determinant is split by Laplace along its first h = (N+1)//2
    rows: it is the sum over h-subsets S of the columns of
    (-1)^(h(h-1)/2 + sum S) det(top rows over S) det(bottom rows over the rest).
    Every entry is a contiguous per-node row.
    """
    n, h = s.shape[1], (s.shape[1] + 1) // 2
    rows = [[*r, p] for r, p in zip(np.ascontiguousarray(jac.transpose(1, 2, 0)),
                                    np.ascontiguousarray(phi.T))]
    rows.append([*np.ascontiguousarray(s.T), 0.0])
    top, bottom = _minors(rows[:h]), _minors(rows[h:])
    acc = 0.0
    for cols, minor in top.items():  # summed with the signs of -det
        term = minor * bottom[tuple(c for c in range(n + 1) if c not in cols)]
        acc = acc + term if (h * (h - 1) // 2 + sum(cols)) % 2 else acc - term
    return acc


def scaled_count(count: int, scale: float) -> int:
    """Node count of a rule scaled by a resolution factor, at least 4."""
    return max(4, int(round(count * scale)))


def polar_rule(count: int):
    """Gauss-Legendre (nodes, weights) on [0, pi]."""
    xi, wi = roots_legendre(count)
    return 0.5 * math.pi * (xi + 1.0), 0.5 * math.pi * wi


def azimuth_rule(count: int):
    """Uniform trapezoid (nodes, weights) on [0, 2 pi); exact for trig
    polynomials below the node count."""
    return (2.0 * math.pi * np.arange(count) / count,
            np.full(count, 2.0 * math.pi / count))


def tensor_rule(rules):
    """Product of per-axis (nodes, weights) rules: (points (m, k), weights (m,))."""
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    wgrids = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = np.ones(pts.shape[0])
    for w in wgrids:
        wts = wts * w.ravel()
    return pts, wts


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes/weights on the unit sphere S^(N-1).

    Weights sum to the sphere area.  The rule is a tensor product:
    Gauss-Legendre in the N-2 polar angles with the measure's sine powers
    folded into the weights, and the trapezoid rule in the azimuth
    (spectrally accurate on the circle, which is all there is for N=2).
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray
    counts: tuple

    @staticmethod
    def build(dimension: int, counts=None, scale: float = 1.0) -> "SphereQuadrature":
        if dimension not in _DEFAULT_NODES:
            raise WindingError(f"no quadrature for dimension {dimension}")
        if counts is None:
            counts = tuple(scaled_count(c, scale) for c in _DEFAULT_NODES[dimension])
        counts = tuple(int(c) for c in counts)
        *polar_counts, azim = counts
        if len(polar_counts) != dimension - 2:
            raise WindingError(
                f"dimension {dimension} needs {dimension - 1} node counts"
            )
        size = math.prod(counts)
        # numpy cannot even index a node array this large: fail before any allocation
        if size * dimension * 8 > np.iinfo(np.intp).max:
            raise MemoryError(f"a sphere rule of {size} nodes in R^{dimension} is too "
                              f"large to index")
        # an unallocatable rule fails here, before any per-axis rule is built
        nodes = np.empty((size, dimension))
        rules = []
        for k, cnt in enumerate(polar_counts):
            th, w = polar_rule(cnt)
            rules.append((th, w * np.sin(th) ** (dimension - 2 - k)))
        angles, weights = tensor_rule(rules + [azimuth_rule(azim)])
        sin_running = np.ones(len(weights))
        for k, ang in enumerate(angles.T):
            nodes[:, k] = sin_running * np.cos(ang)
            sin_running = sin_running * np.sin(ang)
        nodes[:, dimension - 1] = sin_running
        return SphereQuadrature(dimension, nodes, weights, counts)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


@lru_cache(maxsize=32)
def default_quadrature(dimension: int, scale: float = 1.0) -> SphereQuadrature:
    return SphereQuadrature.build(dimension, scale=scale)


@lru_cache(maxsize=32)
def _rule(dimension: int, counts: tuple) -> SphereQuadrature:
    return SphereQuadrature.build(dimension, counts=counts)


@lru_cache(maxsize=32)
def ladder(dimension: int, top: tuple) -> tuple:
    """Node counts of the rules below the top rule's counts, coarsest first.

    Level k has min(start * 2^k, top) nodes per axis.  start is
    _LADDER_START, or half the top count where that is less, so a coarse
    top rule still gets a level below it; a level equal to the one
    before, or to the top, is left out.
    """
    start = [max(1, min(s, t // 2)) for s, t in zip(_LADDER_START[dimension], top)]
    levels, k = [], 0
    while True:
        counts = tuple(min(s << k, t) for s, t in zip(start, top))
        if counts == top:
            return tuple(levels)
        if not levels or counts != levels[-1]:
            levels.append(counts)
        k += 1


def coarsest_rule(dimension: int, quadrature: SphereQuadrature | None = None) -> SphereQuadrature:
    """The first rule of winding_number's ladder under the top rule quadrature."""
    top = quadrature.counts if quadrature is not None else _DEFAULT_NODES[dimension]
    return _rule(dimension, (ladder(dimension, top) + (top,))[0])


@dataclass(frozen=True)
class WindingResult:
    raw: float
    rounded: int
    residual: float
    error: float     # gap between the last two ladder levels
    center: tuple
    radius: float

    @staticmethod
    def from_raw(raw: float, center, radius, error: float) -> "WindingResult":
        rounded = int(round(raw))
        return WindingResult(
            raw=float(raw),
            rounded=rounded,
            residual=float(raw - rounded),
            error=float(error),
            center=tuple(np.asarray(center, dtype=float).tolist()),
            radius=float(radius),
        )


def winding_number(field: VectorField, center, radius: float,
                   quadrature: SphereQuadrature | None = None,
                   precondition=None) -> WindingResult:
    """Degree of phi/|phi| over the sphere |x - center| = radius.

    quadrature is the top of the ladder (default: the dimension's default
    rule; on the line S^0 is two points and needs none).  With
    precondition P (an invertible N x N matrix) the degree is that of
    psi = P phi; the zero-on-sphere check still reads |phi|.
    """
    center = np.asarray(center, dtype=float)
    n = field.dimension
    if center.shape != (n,):
        raise WindingError(f"center must have {n} components")
    if radius <= 0.0:
        raise WindingError("radius must be positive")
    if quadrature is not None and quadrature.dimension != n:
        raise WindingError("quadrature dimension mismatch")
    det_p = None if precondition is None else np.linalg.det(precondition)

    def densities(nodes):
        out = np.empty(len(nodes))
        for lo in range(0, len(nodes), BLOCK):
            s = nodes[lo:lo + BLOCK]
            pts = center[None, :] + radius * s
            phi, jac = field.jet_many(pts)
            sq = np.einsum("pi,pi->p", phi, phi)
            k = int(np.argmin(sq))
            if sq[k] <= MIN_FIELD_NORM ** 2:
                raise ZeroOnSphereError(
                    f"field magnitude {math.sqrt(sq[k]):.3e} on sphere at {pts[k].tolist()}"
                )
            dens = _degree_density(s, phi, jac)
            if precondition is not None:  # s . adj(PJ) P phi = det P s . adj(J) phi
                dens, psi = det_p * dens, phi @ precondition.T
                sq = np.einsum("pi,pi->p", psi, psi)
            out[lo:lo + BLOCK] = dens / sq ** (n / 2)
        return out

    if n == 1:  # S^0 has weights 1 and area 2, and its rule is exact
        return WindingResult.from_raw(0.5 * float(np.sum(densities(np.array([[1.0], [-1.0]])))),
                                      center, radius, 0.0)
    top = quadrature.counts if quadrature is not None else _DEFAULT_NODES[n]
    counts = ladder(n, top) + (top,)
    # the top rule is built only if the ladder reaches it
    rule = lambda k: (_rule(n, counts[k]) if k + 1 < len(counts)
                      else quadrature or default_quadrature(n))
    # in the plane a doubled trapezoid rule's even nodes are the level below
    nests = lambda k: n == 2 and counts[k][0] == 2 * counts[k - 1][0]
    scale = radius ** (n - 1) / sphere_area(n)
    # np.sum is pairwise on one thread; a BLAS dot splits across threads
    value = lambda quad, dens: scale * float(np.sum(quad.weights * dens))
    first = 1 if len(counts) > 1 and nests(1) else 0  # one field call for both
    values, dens = [], None
    for k in range(first, len(counts)):
        quad = rule(k)
        if dens is not None and nests(k):
            fine = np.empty(quad.size)
            fine[::2], fine[1::2] = dens, densities(quad.nodes[1::2])
            dens = fine
        else:
            dens = densities(quad.nodes)
        if not values and k:
            values.append(value(rule(k - 1), dens[::2]))
        values.append(value(quad, dens))
        if len(values) > 1:
            gap, off = abs(values[-1] - values[-2]), values[-1] - round(values[-1])
            # below the top, levels agreeing off an integer mean a zero on or near
            # the sphere: climb on
            if abs(off) <= MAX_RESIDUAL and gap <= (AGREE_TOL if k + 1 < len(counts)
                                                    else MAX_RESIDUAL):
                return WindingResult.from_raw(values[-1], center, radius, gap)
    if len(values) < 2:
        raise UndersampledError(
            f"winding not certified: the rule of {math.prod(top)} nodes has no level "
            "below it; refine the quadrature"
        )
    raise UndersampledError(
        f"winding {values[-1]:.6f} is {off:+.3f} from an integer and {gap:.1e} from "
        f"the level below the top rule of {math.prod(top)} nodes; refine the "
        "quadrature or shrink the sphere"
    )


def oracle_degree_anglesum(field: VectorField, center, radius: float,
                           samples: int = 4096) -> int:
    """Planar degree by accumulating angle increments of phi around the circle.

    Independent of the quadrature route: only needs arctan2 and a branch
    correction.  Errors out if consecutive samples jump by more than
    pi/2, since then the branch correction is no longer certified.
    """
    if field.dimension != 2:
        raise WindingError("angle-sum oracle is planar only")
    center = np.asarray(center, dtype=float)
    theta = 2.0 * math.pi * np.arange(samples + 1) / samples
    pts = center[None, :] + radius * np.column_stack([np.cos(theta), np.sin(theta)])
    phi = field.evaluate_many(pts)
    norms = np.linalg.norm(phi, axis=1)
    if norms.min() <= MIN_FIELD_NORM:
        raise ZeroOnSphereError("field vanishes on the sampling circle")
    ang = np.arctan2(phi[:, 1], phi[:, 0])
    jumps = np.diff(ang)
    jumps = (jumps + math.pi) % (2.0 * math.pi) - math.pi
    if np.max(np.abs(jumps)) > 0.5 * math.pi:
        raise UndersampledError(
            f"angle jump {np.max(np.abs(jumps)):.3f} rad exceeds pi/2; "
            "increase samples"
        )
    total = float(jumps.sum())
    deg = total / (2.0 * math.pi)
    if abs(deg - round(deg)) > 1e-6:
        raise UndersampledError(f"angle sum {total:.6e} is not a multiple of 2*pi")
    return int(round(deg))


# -- triangulated source spheres for the preimage oracle ---------------


def _split_simplex(cell, midpoint):
    """Subdivide one simplex (tuple of vertex ids) into 2^dim children."""
    k = len(cell)
    if k == 2:
        a, b = cell
        m = midpoint(a, b)
        return [(a, m), (m, b)]
    if k == 3:
        a, b, c = cell
        ab, ac, bc = midpoint(a, b), midpoint(a, c), midpoint(b, c)
        return [(a, ab, ac), (b, ab, bc), (c, ac, bc), (ab, ac, bc)]
    if k == 4:
        v0, v1, v2, v3 = cell
        m01, m02, m03 = midpoint(v0, v1), midpoint(v0, v2), midpoint(v0, v3)
        m12, m13, m23 = midpoint(v1, v2), midpoint(v1, v3), midpoint(v2, v3)
        corners = [
            (v0, m01, m02, m03),
            (v1, m01, m12, m13),
            (v2, m02, m12, m23),
            (v3, m03, m13, m23),
        ]
        # central octahedron split along the (m01, m23) diagonal; the
        # equator cycle keeps opposite midpoints apart
        cyc = (m02, m03, m13, m12)
        middle = [
            (m01, m23, cyc[i], cyc[(i + 1) % 4]) for i in range(4)
        ]
        return corners + middle
    raise WindingError(f"no subdivision rule for {k}-vertex cells")


@lru_cache(maxsize=16)
def sphere_mesh(dimension: int, level: int):
    """(vertices, cells) triangulating S^(dimension-1), outward oriented.

    Starts from the boundary of the cross-polytope (the unit ball of the
    1-norm) and refines by edge bisection, reprojecting to the sphere.
    Cells are vertex-id tuples ordered so det([v_0 ... v_{N-1}]) > 0.
    """
    if dimension not in (2, 3, 4):
        raise WindingError(f"no sphere mesh for dimension {dimension}")
    verts = [np.zeros(dimension) for _ in range(2 * dimension)]
    for a in range(dimension):
        verts[2 * a][a] = 1.0
        verts[2 * a + 1][a] = -1.0
    cells = cross_polytope_facets(dimension)

    cache = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            p = verts[i] + verts[j]
            verts.append(p / np.linalg.norm(p))
            cache[key] = len(verts) - 1
        return cache[key]

    for _ in range(level):
        nxt = []
        for cell in cells:
            nxt.extend(_split_simplex(cell, midpoint))
        cells = nxt

    vv = np.stack(verts)
    cc = np.array(cells, dtype=int)
    mats = vv[cc].transpose(0, 2, 1)
    flip = np.linalg.det(mats) < 0.0
    cc[flip, -2:] = cc[flip, -2:][:, ::-1]
    return vv, cc


def oracle_degree_preimage(field: VectorField, center, radius: float) -> int:
    """Degree by counting signed preimages of a probe direction.

    Triangulates the source sphere, maps vertices through n = phi/|phi|,
    and sums orientation signs of the image simplices whose conic hull
    contains the probe.  Directions that graze an image face are
    rejected and retried with seeded random probes.
    """
    n = field.dimension
    center = np.asarray(center, dtype=float)
    verts, cells = sphere_mesh(n, _DEFAULT_MESH_LEVEL[n])
    pts = center[None, :] + radius * verts
    phi = field.evaluate_many(pts)
    norms = np.linalg.norm(phi, axis=1)
    if norms.min() <= MIN_FIELD_NORM:
        raise ZeroOnSphereError("field vanishes on the sampling sphere")
    images = phi / norms[:, None]

    mats = images[cells].transpose(0, 2, 1)  # columns are image vertices
    dets = np.linalg.det(mats)
    regular = np.abs(dets) > 1e-12
    eps = 1e-9

    rng = np.random.default_rng(_RETRY_SEED)
    candidates = [np.sin(np.arange(1, n + 1))] + [rng.normal(size=n) for _ in range(4)]

    for probe in candidates:
        probe = probe / np.linalg.norm(probe)
        rhs = np.broadcast_to(probe, (int(regular.sum()), n))[:, :, None]
        lam = np.linalg.solve(mats[regular], rhs)[:, :, 0]
        inside = (lam > eps).all(axis=1)
        outside = (lam < -eps).any(axis=1)
        if bool((~inside & ~outside).any()):
            continue  # probe grazes a face; try another
        return int(np.sign(dets[regular][inside]).sum())
    raise UndersampledError(
        "all probe directions graze image simplices; refine the mesh"
    )
