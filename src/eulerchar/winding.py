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
byte-identical.  The density is the top minor of the bordered rows, from
the _minors kernel that the preimage oracle and sphere_mesh also use.

The integral climbs a ladder of rules, as the quadratures of gbc and
connection do, through climb: level k below the top rule (the caller's
or the default) has ceil(top / 2^k) nodes per axis, down to
_LADDER_START.  Below the top the climb stops at a value within
MAX_RESIDUAL of an integer once two consecutive levels agree to
AGREE_TOL or, from the third level on, once the gaps shrink
geometrically: the last is at most 1/8 of the one before, and gap^2 <=
AGREE_TOL times the one before.  For these analytic, periodic integrands
the error falls geometrically with the node count (Trefethen & Weideman,
SIAM Rev. 56, 2014), so the last gap bounds the finer level's error and
gap^2 over the one before estimates it.  Levels that agree off an integer
mean a zero on or near the sphere, so the climb goes on.  At the top the
result stands if it lies within MAX_RESIDUAL of an integer and the level
below agrees with it to within MAX_RESIDUAL; otherwise, and on a rule
with no level below it, UndersampledError.  The last gap is the result's
error; below the top it may exceed AGREE_TOL, up to sqrt(AGREE_TOL times
the gap before it).  In the plane a
doubled trapezoid rule's even nodes are the level below, so a level
reuses the field values of the one below and the first two come from
one field call.  On the line the "sphere" S^0 is the two points z +- r,
where the density is s sign phi, so the degree
(sign phi(z + r) - sign phi(z - r)) / 2 is exact: no ladder is climbed
and the error is 0.

A constant matrix P leaves the degree as sign det P times deg phi, so
winding_number can integrate psi = P phi instead, without forming P J:
adj(PJ) = adj(J) adj(P) and adj(P) P = det P I, so the numerator of
psi's density is det P s . adj(J) phi.  With P = J(z)^-1 at
a regular zero z, psi is close to x - z, whose density is nearly
constant, and a few hundred nodes resolve it whatever the conditioning
of J(z).  Where psi is close enough to its model, zeros.homotopy_margin
certifies the degree with no climb at all.

Two independent cross-checks live here as well: a 1-D angle-summation
degree for planar fields, and a generic preimage-counting degree that
triangulates the source sphere and counts signed simplices covering a
probe direction.  A simplex's barycentric coordinates of the probe come
by Cramer's rule from the minors of the bordered rows [images | probe],
built by the degree density's kernel, _minors.
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
    """s . adj(J) phi = -det [[J, phi], [s^T, 0]] at each node: s, phi (m, N), jac (m, N, N)."""
    rows = [[*r, p] for r, p in zip(np.ascontiguousarray(jac.transpose(1, 2, 0)),
                                    np.ascontiguousarray(phi.T))]
    rows.append([*np.ascontiguousarray(s.T), 0.0])
    return -_minors(rows)[tuple(range(s.shape[1] + 1))]


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
    def build(dimension: int, counts=None) -> "SphereQuadrature":
        if dimension not in _DEFAULT_NODES:
            raise WindingError(f"no quadrature for dimension {dimension}")
        if counts is None:
            counts = _DEFAULT_NODES[dimension]
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
def _rule(dimension: int, counts: tuple) -> SphereQuadrature:
    return SphereQuadrature.build(dimension, counts=counts)


def default_quadrature(dimension: int, scale: float = 1.0) -> SphereQuadrature:
    # an unknown dimension gets no counts, and build rejects it
    counts = _DEFAULT_NODES.get(dimension, ())
    return _rule(dimension, tuple(scaled_count(c, scale) for c in counts))


@lru_cache(maxsize=64)
def ladder(top: tuple, start: tuple) -> tuple:
    """Node counts of a climb's levels, coarsest first and top last: level k below
    the top has ceil(top / 2^k) per axis.  Below the first halving every axis keeps
    start, and a halving that repeats an axis count of the level above ends it."""
    levels = [tuple(top)]
    for k in itertools.count(1):
        counts = tuple(-(-t // 2 ** k) for t in top)
        if (any(c == a for c, a in zip(counts, levels[-1]))
                or k > 1 and any(c < s for c, s in zip(counts, start))):
            return tuple(reversed(levels))
        levels.append(counts)


def climb(levels, build, sample, value, nests: bool = False) -> tuple:
    """(value, error, nodes sampled) of the first of levels (node counts, coarsest
    first) to certify an integer, as the module docstring says.  build(counts) is a
    level's (nodes, weights), sample(nodes) the integrand at each node and
    value(weights, samples) the level's value.  Where levels nest, a one-axis
    level of twice the nodes below samples only its odd nodes."""
    doubles = lambda k: nests and len(levels[k]) == 1 and levels[k][0] == 2 * levels[k - 1][0]
    values, samples, nodes = [], None, 0
    for k in range(1 if len(levels) > 1 and doubles(1) else 0, len(levels)):
        pts, wts = build(levels[k])
        reuse = samples is not None and doubles(k)
        fresh = sample(pts[1::2] if reuse else pts)
        nodes += len(fresh)
        if reuse:
            samples, below = np.empty((len(pts),) + fresh.shape[1:]), samples
            samples[::2], samples[1::2] = below, fresh
        else:
            samples = fresh
        if not values and k:  # the level below is the even nodes
            values.append(value(build(levels[k - 1])[1], samples[::2]))
        values.append(value(wts, samples))
        if len(values) > 1:
            gap, off = abs(values[-1] - values[-2]), values[-1] - round(values[-1])
            below_top = k + 1 < len(levels)
            prev = abs(values[-2] - values[-3]) if len(values) > 2 else 0.0
            # from the third level, gaps that shrink geometrically put the error near
            # gap^2 / prev; at the second level prev is 0, so only the gap decides
            geometric = below_top and 8.0 * gap <= prev and gap * gap <= AGREE_TOL * prev
            # below the top, agreement off an integer means a nearby singularity: climb on
            if abs(off) <= MAX_RESIDUAL and (geometric or gap <= (AGREE_TOL if below_top
                                                                  else MAX_RESIDUAL)):
                return values[-1], gap, nodes
    top = math.prod(levels[-1])
    if len(values) < 2:
        raise UndersampledError(f"not certified: the rule of {top} nodes has no level "
                                "below it; refine the quadrature")
    raise UndersampledError(
        f"value {values[-1]:.6f} is {off:+.3f} from an integer and {gap:.1e} from the "
        f"level below the top rule of {top} nodes; refine the quadrature")


def coarsest_rule(dimension: int, quadrature: SphereQuadrature | None = None) -> SphereQuadrature:
    """The first rule of winding_number's ladder under the top rule quadrature."""
    top = quadrature.counts if quadrature is not None else _DEFAULT_NODES[dimension]
    return _rule(dimension, ladder(top, _LADDER_START[dimension])[0])


@dataclass(frozen=True)
class WindingResult:
    raw: float
    rounded: int
    residual: float
    error: float     # gap between the last two ladder levels; may exceed AGREE_TOL
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

    def build(counts):  # the top rule is built only if the climb reaches it
        quad = quadrature if quadrature is not None and counts == top else _rule(n, counts)
        return quad.nodes, quad.weights

    scale = radius ** (n - 1) / sphere_area(n)
    # np.sum is pairwise on one thread; a BLAS dot splits across threads
    raw, error, _ = climb(ladder(top, _LADDER_START[n]), build, densities,
                          lambda weights, dens: scale * float(np.sum(weights * dens)),
                          nests=n == 2)
    return WindingResult.from_raw(raw, center, radius, error)


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
    """Subdivide one triangle or tetrahedron (tuple of vertex ids) into 2^dim children."""
    k = len(cell)
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
    1-norm) and refines by edge bisection, reprojecting to the sphere; on
    the circle that gives the 4 * 2^level angles 2 pi k / M, built directly.
    Cells are vertex-id tuples ordered so det([v_0 ... v_{N-1}]) > 0.
    """
    if dimension not in (2, 3, 4):
        raise WindingError(f"no sphere mesh for dimension {dimension}")
    if dimension == 2:
        angles = azimuth_rule(4 << level)[0]
        ids = np.arange(len(angles))
        return (np.column_stack([np.cos(angles), np.sin(angles)]),
                np.column_stack([ids, np.roll(ids, -1)]))
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
    flip = _minors(np.take(vv.T, cc.T, axis=1))[tuple(range(dimension))] < 0.0
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

    rows = np.take(images.T, cells.T, axis=1)  # rows[r][j]: coordinate r of vertex j
    eps = 1e-9

    rng = np.random.default_rng(_RETRY_SEED)
    candidates = [np.sin(np.arange(1, n + 1))] + [rng.normal(size=n) for _ in range(4)]

    for probe in candidates:
        probe = probe / np.linalg.norm(probe)
        minors = _minors([[*r, p] for r, p in zip(rows, probe)])
        dets = minors[tuple(range(n))]
        # Cramer: moving the probe from last to column i takes n - 1 - i swaps
        nums = np.stack([minors[tuple(j for j in range(n + 1) if j != i)] * (-1) ** (n - 1 - i)
                         for i in range(n)])
        # a singular cell (|det| <= 1e-12) reads lam = -1: outside, and never counted
        lam = np.divide(nums, dets, out=np.full_like(nums, -1.0), where=np.abs(dets) > 1e-12)
        inside = (lam > eps).all(axis=0)
        outside = (lam < -eps).any(axis=0)
        if bool((~inside & ~outside).any()):
            continue  # probe grazes a face; try another
        return int(np.sign(dets[inside]).sum())
    raise UndersampledError(
        "all probe directions graze image simplices; refine the mesh"
    )
