"""Sphere quadrature and winding numbers, cross-checked by two oracles."""

import cmath
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerchar import winding
from eulerchar.domains import BallDomain
from eulerchar.fields import (
    CallableField,
    ComplexProductField,
    PolynomialField,
    VectorField,
    complex_power_field,
    constant_field,
    identity_field,
    linear_field,
    quaternion_square_field,
    rotation_field,
    saddle_field,
)
from eulerchar.gbc import EmbeddedTorus, FlatTorusMetric, RoundSphere2, RoundSphere4
from eulerchar.winding import (
    _DEFAULT_NODES,
    _LADDER_START,
    AGREE_TOL,
    BLOCK,
    SphereQuadrature,
    UndersampledError,
    ZeroOnSphereError,
    _degree_density,
    climb,
    default_quadrature,
    ladder,
    oracle_degree_anglesum,
    oracle_degree_preimage,
    scaled_count,
    sphere_area,
    sphere_mesh,
    winding_number,
)
from eulerchar.zeros import find_zeros

RNG_SEED = 424242


def test_sphere_area_values():
    assert abs(sphere_area(2) - 2 * math.pi) < 1e-14
    assert abs(sphere_area(3) - 4 * math.pi) < 1e-14
    assert abs(sphere_area(4) - 2 * math.pi ** 2) < 1e-13


def test_quadrature_weights_sum_to_area():
    for n in (2, 3, 4):
        q = SphereQuadrature.build(n)
        assert abs(q.weights.sum() - sphere_area(n)) < 1e-10 * sphere_area(n)
        norms = np.linalg.norm(q.nodes, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-13


def _oriented_frame(s, rng):
    """Orthonormal T with det([s | T]) = +1, by QR of [s | random]."""
    n = s.size
    q, r = np.linalg.qr(np.column_stack([s, rng.standard_normal((n, n - 1))]))
    q = q * np.sign(np.diag(r))  # first column is +s
    if np.linalg.det(q) < 0.0:
        q[:, -1] *= -1.0
    return q[:, 1:]


def test_degree_density_matches_tangent_frame_determinant():
    # s . adj(J) phi equals det([phi | J T]) over any oriented tangent frame
    rng = np.random.default_rng(RNG_SEED)
    for n in (2, 3, 4):
        s = rng.standard_normal((20, n))
        s /= np.linalg.norm(s, axis=1)[:, None]
        phi = rng.standard_normal((20, n))
        jac = rng.standard_normal((20, n, n))
        u, sv, vt = np.linalg.svd(jac[-1])
        jac[-1] = (u * np.append(sv[:-1], 0.0)) @ vt  # rank N-1
        assert np.linalg.matrix_rank(jac[-1]) == n - 1
        dens = _degree_density(s, phi, jac)
        for k in range(20):
            t = _oriented_frame(s[k], rng)
            assert np.linalg.det(np.column_stack([s[k], t])) > 0.0
            ref = np.linalg.det(np.column_stack([phi[k], jac[k] @ t]))
            scale = np.linalg.norm(phi[k]) * np.linalg.norm(jac[k], 2) ** (n - 1)
            assert abs(dens[k] - ref) <= 1e-12 * scale


def _column_laplace_density(s, phi, jac):
    """Reference: -det([[J, phi], [s^T, 0]]) by Laplace expansion column by column."""
    n = s.shape[1]
    cols = [[jac[:, i, j] for i in range(n)] + [s[:, j]] for j in range(n)]
    cols.append([phi[:, i] for i in range(n)] + [0.0])
    minors = {(): 1.0}
    for j, col in enumerate(cols):
        nxt = {}
        for rows in itertools.combinations(range(n + 1), j + 1):
            acc = 0.0
            for pos, i in enumerate(rows):
                term = col[i] * minors[rows[:pos] + rows[pos + 1:]]
                acc = acc - term if (j - pos) % 2 else acc + term
            nxt[rows] = acc
        minors = nxt
    return -minors[tuple(range(n + 1))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degree_density_matches_the_column_laplace_kernel(n):
    rng = np.random.default_rng(RNG_SEED + n)
    m = 200
    s = rng.standard_normal((m, n))
    s /= np.linalg.norm(s, axis=1)[:, None]
    phi = rng.standard_normal((m, n))
    jac = rng.standard_normal((m, n, n)) * rng.uniform(0.1, 10.0, size=(m, 1, 1))
    for rank in range(n):  # row k has rank k: singular J, down to J = 0
        u, sv, vt = np.linalg.svd(jac[rank])
        jac[rank] = (u * np.where(np.arange(n) < rank, sv, 0.0)) @ vt
    got, want = _degree_density(s, phi, jac), _column_laplace_density(s, phi, jac)
    scale = np.linalg.norm(phi, axis=1) * np.linalg.norm(jac, 2, axis=(1, 2)) ** (n - 1)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(scale, 1e-300))
    low = max(n - 1, 1)  # below rank N - 1, adj(J) = 0
    assert np.all(np.abs(got[:low]) <= 1e-13 * scale[:low])


def _one_shot_winding(field, center, radius, quad):
    """Reference: det([phi | J T]) over all nodes at once, one dot product."""
    rng = np.random.default_rng(RNG_SEED)
    n = quad.dimension
    pts = np.asarray(center) + radius * quad.nodes
    phi, jac = field.jet_many(pts)
    frames = np.stack([_oriented_frame(s, rng) for s in quad.nodes])
    cols = np.concatenate([phi[:, :, None], jac @ frames], axis=2)
    dets = np.linalg.det(cols) / np.linalg.norm(phi, axis=1) ** n
    return radius ** (n - 1) * float(np.dot(quad.weights, dets)) / sphere_area(n)


def test_blocked_winding_matches_one_shot_sum(monkeypatch):
    monkeypatch.setattr(winding, "BLOCK", 1024)
    q = SphereQuadrature.build(3, counts=(96, 192))
    # z^2 in the (x, y) plane, tilted by z: degree 2 inside the sphere
    f = _Tally(PolynomialField(3, [
        [((2, 0, 0), 1.0), ((0, 2, 0), -1.0), ((0, 0, 1), 0.3)],
        [((1, 1, 0), 2.0), ((0, 0, 1), -0.2)],
        [((0, 0, 1), 1.0), ((1, 0, 0), 0.4)],
    ]))
    w = winding_number(f, (0.05, -0.1, 0.0), 0.9, q)
    # the climb stops below the top, on a level that spans more than two blocks
    stop = SphereQuadrature.build(3, counts=(48, 96))
    assert sum(f.calls) == 72 + 288 + 1152 + stop.size and stop.size > 2 * 1024
    ref = _one_shot_winding(f, (0.05, -0.1, 0.0), 0.9, stop)
    assert w.rounded == oracle_degree_preimage(f, (0.05, -0.1, 0.0), 0.9)
    assert abs(w.raw - ref) < 1e-13


def test_zero_on_last_node_of_final_block_detected():
    q = SphereQuadrature.build(3, counts=(96, 192))
    center, r = np.array([0.2, -0.1, 0.3]), 0.7
    zero = center + r * q.nodes[-1]
    f = linear_field(np.eye(3), offset=-zero)
    assert q.size > 2 * BLOCK  # the last node lies in the third block
    with pytest.raises(ZeroOnSphereError) as err:
        winding_number(f, center, r, q)
    assert str(zero.tolist()) in str(err.value)


def test_quadrature_moment_exactness():
    # integral of x_1^2 over S^(n-1) equals area / n
    for n in (2, 3, 4):
        q = SphereQuadrature.build(n)
        val = float(np.dot(q.weights, q.nodes[:, 0] ** 2))
        assert abs(val - sphere_area(n) / n) < 1e-9


N2_CASES = [
    (complex_power_field(-2), -2),
    (complex_power_field(-1), -1),
    (constant_field([0.3, 0.8]), 0),
    (complex_power_field(1), 1),
    (complex_power_field(2), 2),
    (complex_power_field(3), 3),
    (rotation_field(2), 1),
    (saddle_field(), -1),
    (linear_field(-np.eye(2)), 1),
]


@pytest.mark.parametrize("field,expected", N2_CASES,
                         ids=[f.name + f"/{d}" for f, d in N2_CASES])
def test_planar_winding_catalog(field, expected):
    w = winding_number(field, (0.0, 0.0), 1.0)
    assert w.rounded == expected
    assert abs(w.residual) < 1e-6
    assert oracle_degree_anglesum(field, (0.0, 0.0), 1.0) == expected
    assert oracle_degree_preimage(field, (0.0, 0.0), 1.0) == expected


N4_CASES = [
    (identity_field(4), 1),
    (constant_field([0.1, -0.2, 0.4, 0.9]), 0),
    (quaternion_square_field(), 2),
]


@pytest.mark.parametrize("field,expected", N4_CASES,
                         ids=[f.name for f, _ in N4_CASES])
def test_four_dim_winding_catalog(field, expected):
    w = winding_number(field, (0.0, 0.0, 0.0, 0.0), 1.0)
    assert w.rounded == expected
    assert abs(w.residual) < 1e-3
    assert oracle_degree_preimage(field, (0.0, 0.0, 0.0, 0.0), 1.0) == expected


def test_winding_radius_independent():
    f = complex_power_field(2)
    for r in (0.25, 1.0, 3.0):
        assert winding_number(f, (0.0, 0.0), r).rounded == 2


def test_winding_center_shift_drops_zero():
    # moving the circle away from the only zero of z^2 gives degree 0
    f = complex_power_field(2)
    w = winding_number(f, (3.0, 0.0), 1.0)
    assert w.rounded == 0
    assert oracle_degree_anglesum(f, (3.0, 0.0), 1.0) == 0


def test_winding_around_translated_zero():
    f = linear_field(np.eye(2), offset=[-0.4, 0.7])  # zero at (0.4, -0.7)
    assert winding_number(f, (0.4, -0.7), 0.5).rounded == 1
    assert winding_number(f, (5.0, 5.0), 0.5).rounded == 0
    # on the line S^0 is the two points c +- r, and the degree
    # (sign phi(c + r) - sign phi(c - r)) / 2 comes out exact
    for slope, degree in ((2.0, 1), (-0.5, -1)):
        g = linear_field([[slope]], offset=[-0.4 * slope])  # zero at 0.4
        w = winding_number(g, (0.4,), 0.5)
        assert (w.raw, w.rounded, w.residual, w.error) == (degree, degree, 0.0, 0.0)
        assert winding_number(g, (5.0,), 0.5).raw == 0.0


def test_refinement_reduces_residual():
    f = complex_power_field(3)
    coarse = SphereQuadrature.build(2, counts=(24,))
    fine = SphereQuadrature.build(2, counts=(192,))
    wc = winding_number(f, (0.1, -0.05), 1.0, coarse)
    wf = winding_number(f, (0.1, -0.05), 1.0, fine)
    assert abs(wf.residual) <= abs(wc.residual)
    assert wf.rounded == 3


def test_zero_on_sphere_detected():
    f = identity_field(2)
    with pytest.raises(ZeroOnSphereError):
        winding_number(f, (1.0, 0.0), 1.0)  # zero sits on the circle
    with pytest.raises(ZeroOnSphereError):
        winding_number(identity_field(1), (1.0,), 1.0)  # zero sits on S^0


def test_undersampled_quadrature_rejected():
    # zeros hugging the circle make 8 nodes land far from any integer
    f = ComplexProductField(roots=[0.9, -0.9, 0.85j])
    q = SphereQuadrature.build(2, counts=(8,))
    with pytest.raises(UndersampledError):
        winding_number(f, (0.0, 0.0), 1.0, q)
    assert winding_number(f, (0.0, 0.0), 1.0).rounded == 3


def test_anglesum_rejects_undersampling():
    f = complex_power_field(3)
    with pytest.raises(UndersampledError):
        oracle_degree_anglesum(f, (0.0, 0.0), 1.0, samples=5)


def test_sphere_mesh_closes():
    for n, level in ((2, 4), (3, 3), (4, 2)):
        verts, cells = sphere_mesh(n, level)
        assert np.max(np.abs(np.linalg.norm(verts, axis=1) - 1.0)) < 1e-12
        for cell in cells[:50]:
            m = verts[list(cell)].T
            assert np.linalg.det(m) > 0.0


def test_circle_mesh_winds_once_through_every_vertex():
    for level in (0, 6, 9):
        verts, cells = sphere_mesh(2, level)
        m = 4 << level
        assert verts.shape == (m, 2) and sorted(cells[:, 0]) == list(range(m))
        a, b = verts[cells[:, 0]], verts[cells[:, 1]]
        arcs = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], np.vecdot(a, b))
        assert np.all(arcs > 0.0) and abs(arcs.sum() - 2.0 * math.pi) < 1e-12
        assert np.max(np.abs(arcs - 2.0 * math.pi / m)) < 1e-12


def test_preimage_oracle_random_rotated_linear():
    rng = np.random.default_rng(RNG_SEED + 1)
    for n in (2, 4):
        for _ in range(5):
            a = rng.standard_normal((n, n))
            q, r = np.linalg.qr(a)
            q *= np.sign(np.diag(r))  # make it a proper sample
            expected = 1 if np.linalg.det(q) > 0 else -1
            f = linear_field(q)
            assert oracle_degree_preimage(f, (0.0,) * n, 1.0) == expected
            w = winding_number(f, (0.0,) * n, 1.0)
            assert w.rounded == expected


def _lapack_preimage_degree(field, center, radius: float) -> int:
    """The signed preimage count by LAPACK: det and solve on every cell's image matrix,
    with the oracle's mesh, probes, regularity threshold and grazing tolerance."""
    n = field.dimension
    verts, cells = sphere_mesh(n, winding._DEFAULT_MESH_LEVEL[n])
    phi = field.evaluate_many(np.asarray(center, dtype=float) + radius * verts)
    mats = (phi / np.linalg.norm(phi, axis=1)[:, None])[cells].transpose(0, 2, 1)
    dets = np.linalg.det(mats)
    regular = np.abs(dets) > 1e-12
    rng = np.random.default_rng(winding._RETRY_SEED)
    for probe in [np.sin(np.arange(1, n + 1))] + [rng.normal(size=n) for _ in range(4)]:
        probe = probe / np.linalg.norm(probe)
        rhs = np.broadcast_to(probe, (int(regular.sum()), n))[:, :, None]
        lam = np.linalg.solve(mats[regular], rhs)[:, :, 0]
        inside, outside = (lam > 1e-9).all(axis=1), (lam < -1e-9).any(axis=1)
        if not (~inside & ~outside).any():
            return int(np.sign(dets[regular][inside]).sum())
    raise UndersampledError("every probe grazes")


def _quaternion_product(a, b) -> CallableField:
    """(q - a)(q - b) on R^4 read as quaternions (w, x, y, z); values only."""
    def mul(p, q):
        pw, px, py, pz = p.T
        qw, qx, qy, qz = q.T
        return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                         pw * qx + px * qw + py * qz - pz * qy,
                         pw * qy - px * qz + py * qw + pz * qx,
                         pw * qz + px * qy - py * qx + pz * qw], axis=-1)
    return CallableField(4, lambda q: mul(q - a, q - b), None, batch=True)


def _quadratic(a, mat, quad) -> CallableField:
    """mat (x - a) + (x - a)^T quad_i (x - a) / 2 in component i; values only."""
    def func(x):
        d = x - a
        return d @ mat.T + 0.5 * np.einsum("pj,ijk,pk->pi", d, quad, d)
    return CallableField(len(a), func, None, batch=True)


def _oracle_fields(rng):
    """(field, center) pairs: random linear fields in R^2-R^4, complex products in
    R^2, quadratic maps in R^3 and quaternion products in R^4, with zeros inside
    and outside the unit sphere around the center, and two constant fields."""
    cases = []
    for n in (2, 3, 4):
        for _ in range(4):
            mat = rng.standard_normal((n, n))
            cases.append(linear_field(mat, offset=-mat @ rng.uniform(-0.8, 0.8, n)))
    for _ in range(4):
        roots = rng.uniform(-1.3, 1.3, (rng.integers(1, 4), 2)) @ [1.0, 1j]
        conj = rng.uniform(-1.3, 1.3, (rng.integers(0, 3), 2)) @ [1.0, 1j]
        cases.append(ComplexProductField(roots=roots, conj_roots=conj))
        cases.append(_quadratic(rng.uniform(-0.6, 0.6, 3), rng.standard_normal((3, 3)),
                                rng.standard_normal((3, 3, 3))))
        cases.append(_quaternion_product(rng.uniform(-0.6, 0.6, 4), rng.uniform(-0.6, 0.6, 4)))
    cases += [quaternion_square_field(), constant_field([0.3, 0.8]),
              constant_field([0.1, -0.2, 0.4, 0.9])]
    return [(f, rng.uniform(-0.2, 0.2, f.dimension)) for f in cases]


def test_preimage_oracle_matches_lapack_det_and_solve():
    degrees = Counter()
    for f, center in _oracle_fields(np.random.default_rng(RNG_SEED + 2)):
        deg = oracle_degree_preimage(f, center, 1.0)
        assert deg == _lapack_preimage_degree(f, center, 1.0), f.name
        degrees[deg] += 1
    assert len(degrees) >= 4  # the draws are not all one degree


def test_preimage_oracle_retries_a_grazing_probe(monkeypatch):
    # a rotation that maps the mesh vertex (1, 0) onto the first probe direction:
    # that probe grazes the two cells at the vertex, so a seeded probe decides
    p = np.sin(np.arange(1, 3))
    p = p / np.linalg.norm(p)
    f = linear_field([[p[0], -p[1]], [p[1], p[0]]])
    assert np.array_equal(sphere_mesh(2, winding._DEFAULT_MESH_LEVEL[2])[0][0], [1.0, 0.0])
    probes = []
    minors = winding._minors
    monkeypatch.setattr(winding, "_minors", lambda rows: probes.append(rows) or minors(rows))
    assert oracle_degree_preimage(f, (0.0, 0.0), 1.0) == 1 == _lapack_preimage_degree(
        f, (0.0, 0.0), 1.0)
    assert len(probes) == 2


def test_default_quadrature_cached_and_scaled():
    q1 = default_quadrature(2)
    q2 = default_quadrature(2)
    assert q1 is q2
    big = default_quadrature(2, scale=2.0)
    assert big.size == 2 * q1.size


# -- the ladder of rules -------------------------------------------------


class _Tally(VectorField):
    """A field that records the point count of every evaluate_many and jet_many call."""

    def __init__(self, field):
        self.dimension, self.name, self.field, self.calls = field.dimension, field.name, field, []

    def evaluate_many(self, pts):
        self.calls.append(len(pts))
        return self.field.evaluate_many(pts)

    def jet_many(self, pts):
        self.calls.append(len(pts))
        return self.field.jet_many(pts)


def test_ladder_doubles_from_its_start_to_below_the_top():
    sizes = lambda n, top: [math.prod(c) for c in ladder(top, _LADDER_START[n])[:-1]]
    assert sizes(4, (48, 48, 96)) == [432, 3456, 27648]
    assert sizes(3, (96, 192)) == [72, 288, 1152, 4608]
    assert sizes(2, (512,)) == [64, 128, 256]
    assert ladder((24,), (64,)) == ((12,), (24,))  # a coarse top still gets half of it below
    assert ladder((48, 48, 97), (6, 6, 12)) == ((6, 6, 13), (12, 12, 25), (24, 24, 49),
                                                (48, 48, 97))
    assert ladder((10, 10, 19), (6, 6, 12)) == ((5, 5, 10), (10, 10, 19))
    assert ladder((1,), (64,)) == ((1,),)


def _tops():
    """Every default winding top at six scales, and the gbc and flux tops."""
    for n, counts in _DEFAULT_NODES.items():
        for scale in (0.125, 0.2, 0.3, 0.5, 1.0, 2.0):
            yield tuple(scaled_count(c, scale) for c in counts), _LADDER_START[n]
    for m in (RoundSphere2(), RoundSphere4(), EmbeddedTorus(), FlatTorusMetric()):
        for scale in (0.125, 0.5, 1.0, 2.0):
            yield tuple(scaled_count(c, scale) for c in m.top), (4,) * len(m.top)
    for segments in (8, 64, 65, 100, 512, 1000):
        yield (segments,), (64,)


@pytest.mark.parametrize("top,start", list(_tops()))
def test_no_ladder_level_repeats_an_axis_count(top, start):
    levels = ladder(top, start)
    assert levels[-1] == top
    for k, (below, above) in enumerate(zip(levels, levels[1:])):
        assert all(b < a for b, a in zip(below, above))
        # each level halves the top, rounding up; only the first halving may fall below start
        assert below == tuple(-(-t // 2 ** (len(levels) - 1 - k)) for t in top)
        assert k == len(levels) - 2 or all(b >= s for b, s in zip(below, start))


def _well_conditioned(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q * rng.uniform(0.5, 2.0, size=n)  # cond <= 4


def test_ladder_stops_below_the_top_on_a_regular_zero():
    rng = np.random.default_rng(RNG_SEED + 2)
    for n in (2, 3, 4):
        a = _well_conditioned(rng, n)
        c = 0.1 * rng.standard_normal(n)
        f = _Tally(linear_field(a, offset=-a @ c))
        w = winding_number(f, c, 0.5, precondition=np.linalg.inv(a))
        assert w.rounded == 1 and w.error <= AGREE_TOL
        assert sum(f.calls) < default_quadrature(n).size
    # a nonlinear field: z (z - 2) at its zero 0, preconditioned by J(0) = -2
    f = _Tally(ComplexProductField(roots=[0.0, 2.0]))
    w = winding_number(f, (0.0, 0.0), 0.5, precondition=-0.5 * np.eye(2))
    assert w.rounded == 1 and w.error <= AGREE_TOL
    assert f.calls == [128]  # the two first planar levels share one field call


def _affine_model(rng, n, depth):
    """A (x - c) with |c - center| = depth R, and the P = (R A)^-1 and model zero
    (c - center) / R that make P phi exactly s - m on the sphere."""
    a, center, radius = rng.standard_normal((n, n)), rng.uniform(-1.0, 1.0, n), 1.3
    d = rng.standard_normal(n)
    c = center + depth * radius * d / np.linalg.norm(d)
    return (linear_field(a, offset=-a @ c), center, radius, np.linalg.inv(radius * a),
            (c - center) / radius)


@pytest.mark.parametrize("n,calls", [(2, [128]), (3, [72, 288]), (4, [432, 3456])])
def test_an_affine_field_wound_against_its_model_stops_at_the_second_level(n, calls):
    field, center, radius, p, m = _affine_model(np.random.default_rng(RNG_SEED + n), n, 0.6)
    f = _Tally(field)
    w = winding_number(f, center, radius, precondition=p, model_zero=m)
    assert f.calls == calls  # 128, 360 and 3,888 points
    assert w.rounded == 1 and abs(w.residual) <= 1e-12 and w.error <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_model_with_its_zero_outside_adds_degree_0(n):
    field, center, radius, p, m = _affine_model(np.random.default_rng(RNG_SEED - n), n, 1.5)
    w = winding_number(field, center, radius, precondition=p, model_zero=m)
    assert w.rounded == 0 and abs(w.residual) <= 1e-12


def test_a_rule_with_one_level_never_agrees_with_itself():
    # the identity field's density is constant: every rule gives exactly 1,
    # but a rule with no level below it has nothing to agree with
    for n, counts in ((2, (1,)), (3, (1, 1))):
        q = SphereQuadrature.build(n, counts=counts)
        with pytest.raises(UndersampledError, match="no level below"):
            winding_number(identity_field(n), (0.0,) * n, 1.0, q)


def test_top_rule_near_a_wrong_integer_is_rejected():
    # z - 0.97 has degree 1 on the unit circle, but 24 nodes give 1.928,
    # within 0.1 of 2; the 12-node level below it reads 3.266
    f = ComplexProductField(roots=[0.97])
    with pytest.raises(UndersampledError, match="from the level below"):
        winding_number(f, (0.0, 0.0), 1.0, SphereQuadrature.build(2, counts=(24,)))
    assert winding_number(f, (0.0, 0.0), 1.0).rounded == 1


# -- the climb on synthetic ladders --------------------------------------


def _synthetic_climb(readings, nests=False):
    """climb over one-axis levels of 4, 8, 16, ... nodes, level k reading readings[k]:
    (value, error, nodes, point counts of the sample calls)."""
    calls = []
    read = {4 << k: r for k, r in enumerate(readings)}

    def sample(nodes):
        calls.append(len(nodes))
        return np.zeros(len(nodes))

    value, error, nodes = climb(tuple((4 << k,) for k in range(len(readings))),
                                lambda counts: (np.zeros((counts[0], 1)), np.ones(counts[0])),
                                sample, lambda wts, samples: read[len(wts)], nests=nests)
    return value, error, nodes, calls


# the first three read as the levels of the quaternion enclosing winding of balls-4d
# seed 1, round 0; the rest read as its top does
_QUATERNION_READINGS = [2.016685, 2.0000287, 2.0 + 1e-10, 2.0, 2.0]


def test_a_climb_stops_at_the_third_level_once_its_gaps_shrink_geometrically():
    readings = [2.0 + 1e-7 + 1e-3, 2.0 + 1e-7, 2.0, 2.0]
    assert _synthetic_climb(readings)[:3] == (2.0, abs(readings[2] - readings[1]), 4 + 8 + 16)
    # the gap 2.9e-5 is above AGREE_TOL, but its square over the gap before it is 5e-8
    value, error, nodes, calls = _synthetic_climb(_QUATERNION_READINGS)
    assert (value, nodes, calls) == (2.0 + 1e-10, 4 + 8 + 16, [4, 8, 16])
    assert error == abs(_QUATERNION_READINGS[2] - _QUATERNION_READINGS[1]) > AGREE_TOL


@pytest.mark.parametrize("gaps", [(1e-4, 2e-5), (1e-3, 1.2e-4)])
def test_a_climb_whose_gaps_shrink_slowly_climbs_on(gaps):
    # a ratio above 1/8, or a gap whose square exceeds AGREE_TOL times the one before
    readings = [2.0 + gaps[0] + gaps[1], 2.0 + gaps[1], 2.0, 2.0, 2.0]
    assert _synthetic_climb(readings)[1:3] == (0.0, 4 + 8 + 16 + 32)


def test_geometric_gaps_off_an_integer_never_stop_early():
    # a spike near the sphere: the levels converge, but half-way between integers
    readings = [2.5 + 1e-2, 2.5 + 1e-5, 2.5 + 1e-10, 2.5, 2.5]
    with pytest.raises(UndersampledError, match="from an integer"):
        _synthetic_climb(readings)


def test_a_two_level_ladder_and_the_top_keep_their_rule():
    assert _synthetic_climb([2.05, 2.0])[:3] == (2.0, pytest.approx(0.05), 4 + 8)
    with pytest.raises(UndersampledError, match="from the level below"):
        _synthetic_climb([2.3, 2.0])
    with pytest.raises(UndersampledError, match="from an integer"):
        _synthetic_climb([2.45, 2.45])
    # at the top only the gap counts, however fast it shrank
    with pytest.raises(UndersampledError, match="from the level below"):
        _synthetic_climb([5000.0, 2.2, 2.0])


def test_a_nested_ladder_counts_reused_nodes_once():
    # levels 4 and 8 come from one call on 8 nodes, level 16 samples its 8 odd nodes
    value, _, nodes, calls = _synthetic_climb(_QUATERNION_READINGS, nests=True)
    assert (value, nodes, calls) == (2.0 + 1e-10, 16, [8, 8])


# a root at least 0.2 from the unit circle
_ROOT = st.builds(cmath.rect, st.one_of(st.floats(0.0, 0.8), st.floats(1.2, 2.0)),
                  st.floats(0.0, 2.0 * math.pi))


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(roots=st.lists(_ROOT, max_size=3), conj_roots=st.lists(_ROOT, max_size=3))
def test_complex_product_winding_stops_close_to_the_top_rule_property(roots, conj_roots):
    assume(roots or conj_roots)
    f = ComplexProductField(roots=roots, conj_roots=conj_roots)
    w = winding_number(f, (0.0, 0.0), 1.0)
    inside = lambda zs: sum(abs(z) < 1.0 for z in zs)
    assert w.rounded == inside(roots) - inside(conj_roots)
    assert abs(w.raw - _one_shot_winding(f, (0.0, 0.0), 1.0, default_quadrature(2))) <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_preconditioned_winding_is_sign_det_times_degree(n):
    rng = np.random.default_rng(RNG_SEED + 10 * n)
    ball = BallDomain((0.0,) * n, 1.0)
    for _ in range(4):
        a = _well_conditioned(rng, n)
        c = 0.3 * rng.standard_normal(n) / np.sqrt(n)
        f = linear_field(a, offset=-a @ c)
        sign = 1 if np.linalg.det(a) > 0 else -1
        p = _well_conditioned(rng, n)  # deg(P phi) = sign det P deg phi
        psign = 1 if np.linalg.det(p) > 0 else -1
        assert winding_number(f, c, 0.4, precondition=p).rounded == psign * sign
        assert winding_number(f, c, 0.4).rounded == sign
        (z,) = find_zeros(f, ball)
        assert z.regular and z.winding == z.eta == sign
        assert abs(z.winding_raw - sign) <= z.winding_error + 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_preconditioned_winding_is_the_winding_of_p_phi(n):
    # s . adj(PJ) P phi = det P s . adj(J) phi: no P J is formed, and the
    # result is that of the explicit field P phi
    rng = np.random.default_rng(RNG_SEED + 20 + n)
    f = {2: ComplexProductField(roots=[0.1 + 0.2j, -0.3j], conj_roots=[0.2]),
         3: PolynomialField(3, [
             [((2, 0, 0), 1.0), ((0, 2, 0), -1.0), ((0, 0, 1), 0.3)],
             [((1, 1, 0), 2.0), ((0, 0, 1), -0.2)],
             [((0, 0, 1), 1.0), ((1, 0, 0), 0.4)]]),
         4: quaternion_square_field()}[n]
    p = _well_conditioned(rng, n)
    pf = CallableField(n, lambda x: f.evaluate_many(x) @ p.T,
                       jac=lambda x: p @ f.jet_many(x)[1], batch=True)
    center = 0.05 * rng.standard_normal(n)
    got = winding_number(f, center, 0.8, precondition=p)
    want = winding_number(pf, center, 0.8)
    assert got.rounded == want.rounded != 0
    assert abs(got.raw - want.raw) <= 1e-12 and abs(got.error - want.error) <= 1e-12
