"""Zero finding, per-zero indices, and the excision cross-check."""

from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerchar import zeros
from eulerchar.domains import BallDomain, BoxDomain
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
    s2_height_gradient_field,
    saddle_field,
    torus_sines_field,
)
from eulerchar.manifolds import CHART_RESOLUTION, SphereManifold
from eulerchar.winding import UndersampledError, winding_number
from eulerchar.zeros import (
    BoundaryZoneError,
    ZeroFindingError,
    classify_zeros,
    find_zeros,
    index_sum_with_excision,
    locate_zeros,
    total_index,
)

RNG_SEED = 31415


def test_ball_domain_geometry():
    b = BallDomain((1.0, -2.0), 3.0)
    assert b.dimension == 2
    assert b.contains([1.0, 0.0])
    assert not b.contains([1.0, 1.5])
    assert abs(b.boundary_distance([1.0, -2.0]) - 3.0) < 1e-14
    assert abs(b.diameter - 6.0) < 1e-14
    lo, hi = b.bounding_box()
    assert np.allclose(lo, [-2.0, -5.0]) and np.allclose(hi, [4.0, 1.0])


def test_box_domain_geometry():
    b = BoxDomain((0.0, 0.0), (2.0, 1.0))
    assert b.contains([1.0, 0.5])
    assert not b.contains([3.0, 0.5])
    assert abs(b.boundary_distance([0.5, 0.5]) - 0.5) < 1e-14


def test_single_simple_zero():
    ball = BallDomain((0.0, 0.0), 1.0)
    zs = find_zeros(identity_field(2), ball)
    assert len(zs) == 1
    z = zs[0]
    assert np.allclose(z.location, [0.0, 0.0], atol=1e-10)
    assert z.regular and z.eta == 1 and z.beta == 1 and z.winding == 1
    assert not z.degenerate


def test_saddle_zero_negative_index():
    zs = find_zeros(saddle_field(), BallDomain((0.0, 0.0), 1.0))
    assert len(zs) == 1
    assert zs[0].winding == -1 and zs[0].eta == -1 and zs[0].beta == 1


def test_offset_zero_located():
    f = linear_field(np.eye(2), offset=[-0.3, 0.55])
    zs = find_zeros(f, BallDomain((0.0, 0.0), 1.0))
    assert len(zs) == 1
    assert np.allclose(zs[0].location, [0.3, -0.55], atol=1e-10)


def test_newton_leaves_read_only_jets_alone():
    # a batch field may hand out read-only arrays, such as a broadcast constant J
    a, b = np.array([[2.0, 1.0], [-1.0, 3.0]]), np.array([-0.2, 0.4])

    def values(pts):
        out = pts @ a.T + b
        out.setflags(write=False)
        return out

    f = CallableField(2, values, lambda pts: np.broadcast_to(a, (len(pts), 2, 2)), batch=True)
    zs = find_zeros(f, BallDomain((0.0, 0.0), 1.0))
    assert len(zs) == 1
    assert np.allclose(zs[0].location, np.linalg.solve(a, -b), atol=1e-10)
    assert zs[0].winding == 1


def test_no_zeros_for_constant_field():
    zs = find_zeros(constant_field([0.5, 0.5]), BallDomain((0.0, 0.0), 1.0))
    assert zs == []


def test_degenerate_zero_classified():
    # z^2: Jacobian vanishes at the origin, winding 2, eta sign(+2), beta 2
    zs = find_zeros(complex_power_field(2), BallDomain((0.0, 0.0), 1.0))
    assert len(zs) == 1
    z = zs[0]
    assert z.degenerate and not z.regular
    assert z.winding == 2 and z.beta == 2 and z.eta == 1


def test_antiholomorphic_degenerate_zero():
    zs = find_zeros(complex_power_field(-2), BallDomain((0.0, 0.0), 1.0))
    assert len(zs) == 1
    assert zs[0].winding == -2 and zs[0].eta == -1 and zs[0].beta == 2


def test_quaternion_square_zero():
    zs = find_zeros(quaternion_square_field(),
                    BallDomain((0.0, 0.0, 0.0, 0.0), 1.0))
    assert len(zs) == 1
    assert zs[0].winding == 2 and zs[0].degenerate


def test_three_zero_field_records():
    f = ComplexProductField(roots=[-0.6 + 0.1j, 0.5 - 0.3j, 0.5 - 0.3j],
                            conj_roots=[0.2 + 0.6j])
    zs = find_zeros(f, BallDomain((0.0, 0.0), 2.0))
    assert len(zs) == 3
    want = {(-0.6, 0.1): 1, (0.2, 0.6): -1, (0.5, -0.3): 2}
    for z in zs:
        match = min(want, key=lambda p: np.linalg.norm(np.subtract(p, z.location)))
        # Newton converges linearly on the double zero, hence the loose radius
        assert np.linalg.norm(np.subtract(match, z.location)) < 1e-5
        assert z.winding == want[match]
    assert total_index(zs) == 2


def test_isolation_radii_disjoint():
    f = ComplexProductField(roots=[0.3, -0.3])
    zs = find_zeros(f, BallDomain((0.0, 0.0), 1.0))
    assert len(zs) == 2
    d = np.linalg.norm(np.subtract(zs[0].location, zs[1].location))
    assert zs[0].isolation_radius + zs[1].isolation_radius <= d + 1e-12


def test_zero_outside_keep_bounds_the_isolation_radius():
    # 0.3 is located but not kept: it is not classified, yet the kept
    # zero's winding sphere must not reach it
    f = ComplexProductField(roots=[0.0, 0.3])
    ball = BallDomain((0.0, 0.0), 1.0)
    found = locate_zeros(f, ball)
    zs = classify_zeros(f, found[np.linalg.norm(found, axis=1) <= 0.2], found, ball)
    assert len(zs) == 1 and np.allclose(zs[0].location, 0.0, atol=1e-12)
    assert zs[0].isolation_radius == pytest.approx(0.15, abs=1e-12)
    assert zs[0].winding == 1


def test_torus_sines_on_tile():
    # shifted tile keeps the four zeros interior
    f = torus_sines_field()
    box = BoxDomain((-0.25, -0.25), (0.75, 0.75))
    zs = find_zeros(f, box)
    assert len(zs) == 4
    assert total_index(zs) == 0
    assert sorted(z.winding for z in zs) == [-1, -1, 1, 1]


def test_zero_near_boundary_raises():
    f = linear_field(np.eye(2), offset=[-1.0, 0.0])  # zero at (1, 0)
    with pytest.raises(BoundaryZoneError):
        find_zeros(f, BallDomain((0.0, 0.0), 1.0 + 1e-7))


def test_dimension_mismatch_raises():
    with pytest.raises(ZeroFindingError):
        find_zeros(identity_field(3), BallDomain((0.0, 0.0), 1.0))


def test_excision_three_zero_field():
    f = ComplexProductField(roots=[-0.6 + 0.1j, 0.5 - 0.3j, 0.5 - 0.3j],
                            conj_roots=[0.2 + 0.6j])
    result = index_sum_with_excision(f, BallDomain((0.0, 0.0), 2.0))
    assert result.zero_sum == 2
    assert result.enclosing_winding == 2
    assert result.oracle_degree == 2
    assert result.agree and result.oracle_agree
    assert len(result.zeros) == 3


def test_excision_agrees_for_rotated_linear_fields():
    rng = np.random.default_rng(RNG_SEED)
    ball = BallDomain((0.0, 0.0), 1.0)
    for _ in range(5):
        a = rng.standard_normal((2, 2))
        q, r = np.linalg.qr(a)
        q *= np.sign(np.diag(r))
        res = index_sum_with_excision(linear_field(q), ball)
        assert res.agree and res.oracle_agree
        assert res.zero_sum == (1 if np.linalg.det(q) > 0 else -1)


# a degree-0 disk whose affine fit is good (relative residual 0.089) but
# vanishes outside the circle (|B^-1 b| = 3.65, cond B = 332)
FAR_FIT_DISK = (
    ComplexProductField(roots=[-0.21392890117058394 + 0.05144376491950553j,
                               -0.49503085854036843 - 0.16357350131260623j],
                        conj_roots=[-0.5766730064401634 + 0.20372995044663744j,
                                    -0.06267607426816396 - 0.3120623300709575j]),
    BallDomain((-0.33020780151490825, 0.32199464573660386), 1.2865483465345142))


@pytest.mark.parametrize("field,ball,degree", [
    FAR_FIT_DISK + (0,),
    (quaternion_square_field(), BallDomain((0.0,) * 4, 1.5), 2),  # relative residual 0.9
    (constant_field([0.0, 0.0, 0.0, 1.0]), BallDomain((0.0,) * 4, 1.0), 0),  # B is ~0
], ids=["far-fit-disk", "quaternion-square", "constant-4d"])
def test_enclosing_fit_gate_winds_the_plain_field(field, ball, degree):
    assert zeros._enclosing_preconditioner(field, ball, None) == (None, None)
    result = index_sum_with_excision(field, ball)
    assert result.enclosing_winding == result.zero_sum == result.oracle_degree == degree


def test_enclosing_fit_preconditions_a_linear_field():
    a = np.array([[2.0, 1.0], [0.0, -0.5]])
    ball = BallDomain((0.1, -0.2), 1.3)
    p, m = zeros._enclosing_preconditioner(linear_field(a, offset=[0.3, 0.1]), ball, None)
    assert np.abs(p - np.linalg.inv(a) / ball.radius).max() <= 1e-12
    # A x + (0.3, 0.1) vanishes at c = -A^-1 (0.3, 0.1); the model s - m at m = (c - center) / R
    assert np.abs(m - (np.linalg.solve(a, [-0.3, -0.1]) - ball.center) / ball.radius).max() <= 1e-12
    result = index_sum_with_excision(linear_field(a, offset=[0.3, 0.1]), ball)
    assert result.enclosing_winding == result.zero_sum == -1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enclosing_fit_recovers_an_affine_field(n):
    # phi = A (x - c) on the sphere center + R s is b + B s with B = R A and b = A (center - c).
    # The coarsest R^3 and R^4 rules are not exact for quadratics: N sum w s s^T / sum w
    # misses I by 7.3e-5 and 1.4e-3, and so did a fit read off those moments.
    rng = np.random.default_rng(RNG_SEED + n)
    a = rng.standard_normal((n, n))
    center, radius = rng.uniform(-1.0, 1.0, n), 1.7
    c = center + 0.3 * radius * rng.uniform(-1.0, 1.0, n) / np.sqrt(n)
    p, m = zeros._enclosing_preconditioner(linear_field(a, offset=-a @ c),
                                           BallDomain(tuple(center), radius), None)
    big, b = radius * a, a @ (center - c)
    assert np.abs(p @ big - np.eye(n)).max() <= 1e-12
    assert np.abs(big @ m + b).max() <= 1e-12  # b + B m = 0: m is the model's zero


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       log_cond=st.floats(0.0, 3.0), depth=st.floats(0.0, 0.9))
def test_enclosing_winding_of_an_affine_field_property(n, seed, log_cond, depth):
    # A (x - c) with cond(A) = 10^log_cond and |c - center| = depth R winds sign det A times
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    a = (u * np.logspace(0.0, log_cond, n)) @ v.T
    center, radius = rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0)
    d = rng.standard_normal(n)
    c = center + depth * radius * d / np.linalg.norm(d)
    result = index_sum_with_excision(linear_field(a, offset=-a @ c),
                                     BallDomain(tuple(center), radius))
    sign = 1 if np.linalg.det(a) > 0 else -1
    assert result.enclosing_winding == result.zero_sum == result.oracle_degree == sign


# degree 0: two roots and two conjugate roots, whose affine fit passes the gate
# with its zero 1.5e-4 inside the circle, |a| = 0.99985
SPIKE_MODEL_DISK = (
    ComplexProductField(roots=[0.9721882039143015 - 0.305513132610851j,
                               0.9477666335227253 - 0.9430753136033293j],
                        conj_roots=[-0.2164876151119588 - 0.5680528740452234j,
                                    0.6200335612526061 - 0.6501997974136631j]),
    BallDomain((0.09421214025146274, -0.48136673727488677), 1.7414463266321447))


def test_enclosing_model_by_the_sphere_falls_back_to_the_plain_winding():
    field, ball = SPIKE_MODEL_DISK
    p, m = zeros._enclosing_preconditioner(field, ball, None)
    assert 1.0 - 2e-4 < np.linalg.norm(m) < 1.0
    # the model's spike is narrower than any level's nodes: about half its mass is missed
    with pytest.raises(UndersampledError, match=r"value 0\.45"):
        winding_number(field, ball.center, ball.radius, precondition=p, model_zero=m)
    result = index_sum_with_excision(field, ball)
    assert result.enclosing_winding == result.zero_sum == result.oracle_degree == 0
    assert len(result.zeros) == 4


def _quaternion_product(a, b) -> CallableField:
    """(q - a)(q - b) on R^4 read as quaternions (w, x, y, z), with its Jacobian
    delta -> delta (q - b) + (q - a) delta."""
    def mul(p, q):
        pw, px, py, pz = np.moveaxis(p, -1, 0)
        qw, qx, qy, qz = np.moveaxis(q, -1, 0)
        return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                         pw * qx + px * qw + py * qz - pz * qy,
                         pw * qy - px * qz + py * qw + pz * qx,
                         pw * qz + px * qy - py * qx + pz * qw], axis=-1)

    e = np.eye(4)
    return CallableField(4, lambda q: mul(q - a, q - b),
                         lambda q: (mul(e, (q - b)[:, None])
                                    + mul((q - a)[:, None], e)).transpose(0, 2, 1),
                         name="quaternion-product", batch=True)


def test_enclosing_model_subtraction_keeps_a_quaternion_product_at_degree_2():
    # zeros at a and b, 0.79 and 0.91 from the center: the affine part dominates,
    # so the fit gate passes and the model's degree 1 is subtracted from a degree-2 field
    f = _quaternion_product(np.array([0.0, -0.5, 0.6, 0.1]), np.array([-0.6, 0.3, 0.6, 0.1]))
    ball = BallDomain((0.0,) * 4, 1.0)
    p, m = zeros._enclosing_preconditioner(f, ball, None)
    assert p is not None and np.linalg.norm(m) < 1.0
    result = index_sum_with_excision(f, ball)
    assert result.enclosing_winding == result.zero_sum == result.oracle_degree == 2
    assert len(result.zeros) == 2


# e_i e_j = sign e_k for the quaternion units (1, i, j, k): the (i, j, sign) of component k
_HAMILTON = ([(0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)],
             [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)],
             [(0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)],
             [(0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)])


def _quaternion_product_polynomial(a, b) -> PolynomialField:
    """(q - a)(q - b) expanded into monomials, as a scenario file spells it:
    (x_i - a_i)(x_j - b_j) = x_i x_j - b_j x_i - a_i x_j + a_i b_j."""
    exps = lambda *axes: tuple(axes.count(k) for k in range(4))
    comps = []
    for terms in _HAMILTON:
        poly = {}
        for i, j, sign in terms:
            for e, c in ((exps(i, j), 1.0), (exps(i), -b[j]), (exps(j), -a[i]),
                         (exps(), a[i] * b[j])):
                poly[e] = poly.get(e, 0.0) + sign * c
        comps.append(sorted(poly.items()))
    return PolynomialField(4, comps)


class _SphereRows(VectorField):
    """Counts the jet_many rows that lie on the sphere |x - center| = radius."""

    def __init__(self, field, center, radius):
        self.dimension, self.name, self.field = field.dimension, field.name, field
        self.center, self.radius, self.rows = np.asarray(center), radius, 0

    def evaluate_many(self, pts):
        return self.field.evaluate_many(pts)

    def jet_many(self, pts):
        dist = np.linalg.norm(np.asarray(pts) - self.center, axis=1)
        if np.all(np.abs(dist - self.radius) <= 1e-12 * self.radius):
            self.rows += len(pts)
        return self.field.jet_many(pts)


def test_a_quaternion_enclosing_winding_stops_below_the_top():
    # the quaternion product of balls-4d seed 1, round 0: its affine fit fails the gate,
    # so the plain field is wound; its levels read 2.016685, 2.0000287 and 2 to 1e-10
    center = (0.00709297482015403, 0.2702782177955612, -0.21350423236821975, 0.2691896682823463)
    a = [0.1359533989784676, 0.1152693397242536, -0.04574573977256374, 0.37443525465199257]
    b = [0.0227877277565625, 0.5721729613054398, -0.6201739533122663, 0.17923084497121441]
    ball = BallDomain(center, 1.1559157260052428)
    field = _SphereRows(_quaternion_product_polynomial(a, b), ball.center, ball.radius)
    result = index_sum_with_excision(field, ball)
    assert result.enclosing_winding == result.zero_sum == 2
    assert abs(result.enclosing_raw - 2.0) <= 1e-6
    assert field.rows < 432 + 3456 + 27648 + 221184  # the top is never sampled


# lattice sites 0.35 apart with |z| <= 0.7; a jitter of at most 0.05 per axis
# keeps any two roots 0.2 apart and every root 0.22 inside the unit circle
_SITES = [complex(a, b) for a in np.arange(-0.7, 0.71, 0.35)
          for b in np.arange(-0.7, 0.71, 0.35) if abs(complex(a, b)) <= 0.75]
_JITTER = st.floats(-0.05, 0.05)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(picks=st.lists(st.tuples(st.sampled_from(range(len(_SITES))), st.booleans(),
                                _JITTER, _JITTER),
                      min_size=1, max_size=6, unique_by=lambda t: t[0]))
def test_complex_product_excision_property(picks):
    # each root a_i has index +1 and each conjugate root b_j index -1
    sites = [(_SITES[k] + complex(dx, dy), conj) for k, conj, dx, dy in picks]
    f = ComplexProductField(roots=[z for z, conj in sites if not conj],
                            conj_roots=[z for z, conj in sites if conj])
    result = index_sum_with_excision(f, BallDomain((0.0, 0.0), 1.0))
    assert len(result.zeros) == len(sites)
    assert result.zero_sum == len(f.roots) - len(f.conj_roots)
    assert result.agree and result.oracle_agree


def _newton_one_seed(field, start, max_step):
    """Reference: the per-seed damped Newton, one point per field call."""
    x = np.asarray(start, dtype=float).copy()
    fx = field.evaluate_many([x])[0]
    norm = float(np.linalg.norm(fx))
    for _ in range(zeros.NEWTON_MAXITER):
        if norm <= zeros.NEWTON_TOL:
            return x
        jac = field.jet_many([x])[1][0]
        try:
            step = np.linalg.solve(jac, fx)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, fx, rcond=None)
        if not np.linalg.norm(step) <= max_step:  # not finite, or the root lies outside the domain
            return None
        lam = 1.0
        while lam >= zeros.MIN_DAMPING:
            trial = x - lam * step
            ft = field.evaluate_many([trial])[0]
            nt = float(np.linalg.norm(ft))
            if nt < norm:
                x, fx, norm = trial, ft, nt
                break
            lam *= 0.5
        else:
            return None
    return x if norm <= zeros.NEWTON_TOL else None


def _find_zeros_seeds(monkeypatch, field, domain, resolution=None):
    """The seed array and step bound find_zeros hands to _newton."""
    seen = []
    real = zeros._newton

    def spy(f, seeds, max_step):
        seen.append((np.array(seeds), max_step))
        return real(f, seeds, max_step)

    with monkeypatch.context() as m:
        m.setattr(zeros, "_newton", spy)
        find_zeros(field, domain, resolution=resolution)
    return seen[0]


_SPHERE = SphereManifold()
_CHART_SCAN = BallDomain((0.0, 0.0), 1.0 / 0.92 + 0.05)

NEWTON_CASES = {
    "quaternion-square": (quaternion_square_field(), BallDomain((0.0,) * 4, 1.0), None),
    "z^2": (complex_power_field(2), BallDomain((0.0, 0.0), 1.0), None),
    "three-roots": (ComplexProductField(roots=[-0.6 + 0.1j, 0.5 - 0.3j],
                                        conj_roots=[0.2 + 0.6j]),
                    BallDomain((0.0, 0.0), 2.0), None),
    "sphere-chart": (_SPHERE.pushforward(s2_height_gradient_field(), 1.0),
                     _CHART_SCAN, CHART_RESOLUTION[2]),
    "circle-chart": (SphereManifold(radius=1.8, center=[-0.44, 0.14], ambient_dim=2).pushforward(
        ComplexProductField(roots=[-0.5 - 0.64j], conj_roots=[-0.04 + 0.29j]), 1.0),
        BallDomain((0.0,), 1.0 / 0.92 + 0.05), CHART_RESOLUTION[1]),  # drops 5 runaway steps
    "torus-sines": (torus_sines_field(), BoxDomain((0.13, 0.29), (1.13, 1.29)), None),
    "constant": (constant_field([0.5, 0.5]), BallDomain((0.0, 0.0), 1.0), None),
}


@pytest.mark.parametrize("case", sorted(NEWTON_CASES))
def test_batched_newton_matches_per_seed(case, monkeypatch):
    field, domain, res = NEWTON_CASES[case]
    seeds, max_step = _find_zeros_seeds(monkeypatch, field, domain, res)
    assert max_step == domain.diameter
    lstsq_calls = []
    real_lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return real_lstsq(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", counting_lstsq)
        roots, converged = zeros._newton(field, seeds, max_step)
    assert roots.shape == seeds.shape
    for k, seed in enumerate(seeds):
        want = _newton_one_seed(field, seed, max_step)
        if want is None:
            assert not converged[k]
        else:
            assert converged[k] and np.array_equal(roots[k], want)
    if case == "constant":
        assert not converged.any()  # damping runs out on every seed
    else:
        assert converged.any()
    if case == "quaternion-square":
        assert lstsq_calls  # singular Jacobians took the least-squares path


def test_newton_drops_a_seed_whose_step_leaves_the_domain():
    # x^2 + 1 has a non-zero minimum at 0; from 0.01 the full step is 50
    def jet_calls(max_step):
        field = CountingField(CallableField(1, lambda pts: pts ** 2 + 1.0,
                                            jac=lambda pts: 2.0 * pts[:, :, None], batch=True))
        roots, converged = zeros._newton(field, np.array([[0.01]]), max_step)
        assert not converged.any()
        return field.calls["jet_many"], roots[0, 0]

    assert jet_calls(2.0) == (1, 0.01)  # dropped before its first trial
    assert jet_calls(np.inf)[0] > 10  # unbounded, the damped steps crawl


class CountingField(VectorField):
    """Delegates to a field and counts its one-point and batch calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.name = inner.name
        self.calls = Counter()

    def evaluate(self, x):
        self.calls["evaluate"] += 1
        return self.inner.evaluate_many([x])[0]

    def jacobian(self, x):
        self.calls["jacobian"] += 1
        return self.inner.jet_many([x])[1][0]

    def evaluate_many(self, pts):
        self.calls["evaluate_many"] += 1
        return self.inner.evaluate_many(pts)

    def jet_many(self, pts):
        self.calls["jet_many"] += 1
        return self.inner.jet_many(pts)


def test_find_zeros_makes_no_one_point_calls():
    field = CountingField(quaternion_square_field())
    zs = find_zeros(field, BallDomain((0.0,) * 4, 1.0))
    assert [z.winding for z in zs] == [2]
    assert field.calls["evaluate"] == 0 and field.calls["jacobian"] == 0
    assert field.calls["evaluate_many"] + field.calls["jet_many"] <= 100


def test_solve_batches_the_regular_rows_of_a_singular_batch():
    # rows with an exact zero pivot take least squares; every row gets the
    # bits a solve of that row alone gives
    rng = np.random.default_rng(RNG_SEED + 7)
    jac = rng.normal(size=(9, 4, 4))
    jac[[2, 5], 3] = 0.0  # a zero row: an exact zero pivot
    jac[7] = 0.0
    fx = rng.normal(size=(9, 4))
    steps = zeros._solve(jac, fx)
    assert (np.linalg.det(jac) == 0.0).sum() == 3
    for j, f, step in zip(jac, fx, steps):
        assert step.tobytes() == zeros._solve(j[None], f[None])[0].tobytes()
    np.testing.assert_allclose(jac[0] @ steps[0], fx[0], atol=1e-12)


def _corner_reduce_cells(vals_grid):
    """Cells where every component spans zero, by reducing the 2^n corner blocks of
    each component in turn."""
    n, res = vals_grid.shape[-1], vals_grid.shape[0] - 1
    corners = [tuple(slice(o, o + res) for o in off) for off in np.ndindex(*(2,) * n)]
    ok = True
    for c in range(n):
        blocks = [vals_grid[sl + (c,)] for sl in corners]
        ok = ok & (reduce(np.minimum, blocks) <= 0.0) & (reduce(np.maximum, blocks) >= 0.0)
    return np.argwhere(ok)


def test_separable_corner_scan_matches_the_corner_reduction():
    rng = np.random.default_rng(RNG_SEED + 7)
    found = 0
    for n in (1, 2, 3, 4):
        for res in (1, 2, 5, 10):
            for _ in range(3):
                grid = rng.standard_normal((res + 1,) * n + (n,))
                grid[rng.random(grid.shape) < 0.2] = 0.0
                grid[rng.random(grid.shape) < 0.05] = -0.0
                grid[rng.random(grid.shape) < 0.05] = np.nan
                cells = zeros._candidate_cells(grid)
                ref = _corner_reduce_cells(grid)
                assert cells.dtype == ref.dtype and np.array_equal(cells, ref)
                found += len(ref)
    assert found > 1000
