"""Closed-manifold index sums through chart atlases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerchar import zeros
from eulerchar.fields import (
    CallableField,
    constant_field,
    linear_field,
    quaternion_square_field,
    rotation_field,
    s2_height_gradient_field,
    s2_rotation_field,
    torus_sines_field,
)
from eulerchar.manifolds import (
    FlatTorus,
    ManifoldError,
    SphereManifold,
)

RNG_SEED = 271828


def constant_jacobian(m):
    """Jacobians of the linear field x -> m x at a batch of points."""
    m = np.asarray(m, dtype=float)
    return lambda pts: np.broadcast_to(m, (len(pts),) + m.shape)


def test_chart_points_lie_on_sphere():
    rng = np.random.default_rng(RNG_SEED)
    s = SphereManifold(radius=2.0, center=[1.0, -1.0, 0.5])
    xi = rng.uniform(-2, 2, size=(40, 2))
    for sign in (1.0, -1.0):
        pts = s.chart(xi, sign)[0]
        r = np.linalg.norm(pts - np.array([1.0, -1.0, 0.5]), axis=1)
        assert np.max(np.abs(r - 2.0)) < 1e-12


def test_chart_frame_is_conformal():
    # DP^T DP = lambda^2 I with lambda = 2r / (1 + |xi|^2)
    rng = np.random.default_rng(RNG_SEED + 1)
    s = SphereManifold(radius=1.5)
    xi = rng.uniform(-1.5, 1.5, size=(20, 2))
    _, dp, lam2 = s.chart(xi, 1.0)
    gram = np.einsum("pij,pik->pjk", dp, dp)
    want = lam2[:, None, None] * np.eye(2)[None, :, :]
    assert np.max(np.abs(gram - want)) < 1e-12


def looped_chart_frame(sphere, xi, sign):
    """The chart differentials filled entry by entry, as the chart frame once was."""
    m, d = xi.shape
    denom = 1.0 + np.sum(xi * xi, axis=1)
    dp = np.zeros((m, sphere.ambient_dim, d))
    for j in range(d):
        for i in range(d):
            dp[:, i, j] = np.where(i == j, 1.0, 0.0) - 2.0 * xi[:, i] * xi[:, j] / denom
        dp[:, :, j] *= 2.0 / denom[:, None]
        dp[:, -1, j] = sign * 4.0 * xi[:, j] / denom ** 2
    return sphere.radius * dp


@pytest.mark.parametrize("ambient", [2, 3, 4])
def test_chart_frame_matches_entrywise_loop(ambient):
    rng = np.random.default_rng(RNG_SEED + 2)
    s = SphereManifold(radius=1.7, center=rng.normal(size=ambient), ambient_dim=ambient)
    xi = rng.uniform(-1.2, 1.2, size=(50, ambient - 1))
    for sign in (1.0, -1.0):
        assert np.array_equal(s.chart(xi, sign)[1], looped_chart_frame(s, xi, sign))


def central_differences(field, pts, h=1e-6):
    """Reference Jacobians (m, N, N) by central differences of step h."""
    out = np.empty((len(pts), field.dimension, field.dimension))
    for j in range(field.dimension):
        step = np.zeros(field.dimension)
        step[j] = h
        out[:, :, j] = (field.evaluate_many(pts + step) - field.evaluate_many(pts - step)) / (2 * h)
    return out


def assert_exact_jacobian(field, pts):
    exact = field.jet_many(pts)[1]
    gap = np.max(np.abs(exact - central_differences(field, pts)))
    assert gap <= 1e-8 * max(1.0, np.max(np.abs(exact))), gap


@pytest.mark.parametrize("ambient", [2, 3, 4])
def test_pushforward_jacobian_is_the_chain_rule(ambient):
    # on S^1 and S^3 the field is the boundary route's: an ambient field, not tangent
    rng = np.random.default_rng(RNG_SEED + 4)
    s = SphereManifold(radius=1.3, center=0.3 * rng.normal(size=ambient), ambient_dim=ambient)
    field = (s2_height_gradient_field() if ambient == 3 else
             linear_field(rng.normal(size=(ambient, ambient)), rng.normal(size=ambient)))
    xi = rng.uniform(-1.1, 1.1, size=(30, ambient - 1))
    for sign in (1.0, -1.0):
        assert_exact_jacobian(s.pushforward(field, sign), xi)


def projected_field(field, sphere):
    """phi - (phi . m) m with its Jacobian J - m (m^T J + phi^T / r) - (phi . m) I / r."""
    def normals(pts):
        return (pts - sphere.center)[:, :, None] / sphere.radius  # (k, N, 1) columns

    def ev(pts):
        m, phi = normals(pts), field.evaluate_many(pts)[:, :, None]
        return (phi - m @ (m.mT @ phi))[:, :, 0]

    def jac(pts):
        (phi, j), m = field.jet_many(pts), normals(pts)
        phi = phi[:, :, None]
        normal = (m.mT @ phi) * np.eye(field.dimension)
        return j - m @ (m.mT @ j + phi.mT / sphere.radius) - normal / sphere.radius

    return CallableField(field.dimension, ev, jac=jac, batch=True)


@pytest.mark.parametrize("ambient", [2, 3, 4])
def test_pushforward_sees_only_the_tangential_part(ambient):
    # DP^T m = 0: a chart pushes phi and phi - (phi . m) m forward alike
    rng = np.random.default_rng(RNG_SEED + 5)
    s = SphereManifold(radius=1.4, center=0.3 * rng.normal(size=ambient), ambient_dim=ambient)
    fields = [linear_field(rng.normal(size=(ambient, ambient)), rng.normal(size=ambient))]
    if ambient == 4:
        fields.append(quaternion_square_field())
    xi = rng.uniform(-1.5, 1.5, size=(40, ambient - 1))
    for field in fields:
        assert s.tangency_residual(field) > 0.1
        for sign in (1.0, -1.0):
            raw = s.pushforward(field, sign)
            proj = s.pushforward(projected_field(field, s), sign)
            for got, want in ((raw.evaluate_many(xi), proj.evaluate_many(xi)),
                              (raw.jet_many(xi)[1], proj.jet_many(xi)[1])):
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=1e-13 * np.max(np.abs(want)))


def test_charts_agree_on_overlap():
    # xi in chart + and xi/|xi|^2 in chart - hit the same ambient point
    s = SphereManifold()
    xi = np.array([[0.7, 0.4]])
    inv = xi / np.sum(xi ** 2)
    p_plus = s.chart(xi, 1.0)[0]
    p_minus = s.chart(inv, -1.0)[0]
    assert np.allclose(p_plus, p_minus, atol=1e-14)


def test_rotation_field_on_sphere():
    s = SphereManifold()
    result = s.index_sum(s2_rotation_field())
    assert result.total == 2 == result.chi_oracle
    assert result.agree
    assert len(result.zeros) == 2
    poles = sorted(z.ambient[2] for z in result.zeros)
    assert np.allclose(poles, [-1.0, 1.0], atol=1e-8)
    assert all(z.winding == 1 for z in result.zeros)


def test_height_gradient_on_sphere():
    result = SphereManifold().index_sum(s2_height_gradient_field())
    assert result.total == 2
    assert result.agree
    assert sorted(z.winding for z in result.zeros) == [1, 1]


def test_offset_scaled_sphere():
    c = np.array([0.5, -1.0, 2.0])
    r = 1.7

    def ev(pts):
        # rotation about the axis through the shifted center
        q = pts - c
        return np.column_stack([-q[:, 1], q[:, 0], np.zeros(len(q))])

    rot = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    f = CallableField(3, ev, jac=constant_jacobian(rot), name="shifted-rotation", batch=True)
    result = SphereManifold(radius=r, center=c).index_sum(f)
    assert result.total == 2
    tips = sorted(z.ambient[2] for z in result.zeros)
    assert np.allclose(tips, [2.0 - r, 2.0 + r], atol=1e-8)


def test_non_tangent_field_rejected():
    s = SphereManifold()
    with pytest.raises(ManifoldError):
        s.index_sum(constant_field([0.0, 0.0, 1.0]))


def test_sphere_in_r4_tangential_constant():
    # projecting e_1 onto the tangent spaces of S^3 gives two zeros at +-e_1
    # with windings summing to chi(S^3) = 0
    s = SphereManifold(ambient_dim=4)

    def ev(pts):
        e = np.zeros((len(pts), 4))
        e[:, 0] = 1.0
        return e - np.einsum("pi,i->p", pts, np.array([1.0, 0, 0, 0]))[:, None] * pts

    def jac(pts):  # d(e_1 - x_1 x) = -x e_1^T - x_1 I
        out = -pts[:, 0, None, None] * np.eye(4)
        out[:, :, 0] -= pts
        return out

    f = CallableField(4, ev, jac=jac, name="tangential-e1", batch=True)
    result = s.index_sum(f)
    assert result.total == 0 == result.chi_oracle
    assert len(result.zeros) == 2
    assert sorted(z.winding for z in result.zeros) == [-1, 1]


def test_circle_index_sums_are_chi_of_s1():
    # the rotation field is tangent and nowhere zero; the tangential part of
    # e_1 - x_1 x vanishes at +-e_1 with windings summing to chi(S^1) = 0
    s = SphereManifold(ambient_dim=2)
    result = s.index_sum(rotation_field())
    assert result.total == 0 == result.chi_oracle and result.agree
    assert result.zeros == ()
    f = linear_field(-np.eye(2), offset=[1.0, 0.0])
    result = s.tangential_index_sum(f)
    assert result.total == 0 and result.agree
    assert sorted(z.ambient[0] for z in result.zeros) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert sorted(z.winding for z in result.zeros) == [-1, 1]


def test_hopf_field_on_s3_has_no_zeros():
    # (-y, x, -w, z): nowhere-zero tangent field, so chi(S^3) = 0 trivially
    def ev(pts):
        x, y, z, w = pts.T
        return np.column_stack([-y, x, -w, z])

    hopf = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    f = CallableField(4, ev, jac=constant_jacobian(hopf), name="hopf", batch=True)
    result = SphereManifold(ambient_dim=4).index_sum(f)
    assert result.total == 0
    assert result.zeros == ()


def test_torus_constant_field_no_zeros():
    t = FlatTorus()
    result = t.index_sum(constant_field([0.7, 0.4]))
    assert result.total == 0 == result.chi_oracle
    assert result.zeros == ()
    assert result.agree


def shifted_sines(periods, shifts):
    """(sin 2 pi (x - sx)/px, sin 2 pi (y - sy)/py): zeros at shifts + (i px/2, j py/2)."""
    k = 2.0 * np.pi / np.asarray(periods, dtype=float)
    s = np.asarray(shifts, dtype=float)

    def jac(pts):
        out = np.zeros((len(pts), 2, 2))
        out[:, [0, 1], [0, 1]] = k * np.cos(k * (pts - s))
        return out

    return CallableField(2, lambda pts: np.sin(k * (pts - s)), jac=jac,
                         name="shifted-sines", batch=True)


def assert_torus_zeros(result, periods, shifts):
    """Index +1 at shifts + (i px/2, j py/2) for i == j, -1 otherwise, once each."""
    p = np.asarray(periods, dtype=float)
    assert result.total == 0 == result.chi_oracle and result.agree
    assert len(result.zeros) == 4
    for i in (0, 1):
        for j in (0, 1):
            want = np.asarray(shifts) + 0.5 * p * (i, j)
            gaps = [np.subtract(z.ambient, want) for z in result.zeros]
            hits = [z for z, d in zip(result.zeros, gaps)
                    if np.max(np.abs(d - p * np.round(d / p))) < 1e-9 * p.min()]
            assert len(hits) == 1, (want, result.zeros)
            assert hits[0].winding == (1 if i == j else -1)


def test_torus_sines_field():
    # two of the four zeros sit on the tile corners and edges
    result = FlatTorus().index_sum(torus_sines_field())
    assert_torus_zeros(result, (1.0, 1.0), (0.0, 0.0))
    assert result.attempts == 1 and result.flags == ()


def _x_rotation():
    u = [1.0, 0.0, 0.0]
    return CallableField(3, lambda pts: np.cross(u, pts),
                         jac=constant_jacobian(np.cross(u, np.eye(3)).T),
                         name="x-rotation", batch=True)


@pytest.mark.parametrize("manifold,field,count", [
    (FlatTorus(), torus_sines_field(), 4),
    (SphereManifold(), _x_rotation(), 2),
], ids=["torus-sines", "s2-rotation-about-e_x"])
def test_each_zero_is_wound_once(monkeypatch, manifold, field, count):
    # torus-sines has 9 sightings of its 4 zeros in the tile, and the
    # rotation about e_x sees both its zeros in both charts, on |xi| = 1
    centers = []
    real = zeros.winding_number

    def spy(f, center, *args, **kw):
        centers.append(tuple(np.asarray(center).tolist()))
        return real(f, center, *args, **kw)

    monkeypatch.setattr(zeros, "winding_number", spy)
    result = manifold.index_sum(field)
    assert len(centers) == count == len(result.zeros)
    assert sorted(centers) == sorted(z.chart_location for z in result.zeros)


def test_torus_zeros_near_every_tile_edge():
    # x in {0.075, 0.575}, y in {0.21, 0.71}: each of the old retry tiles
    # had a zero in its guard band
    result = FlatTorus().index_sum(shifted_sines((1.0, 1.0), (0.575, 0.21)))
    assert_torus_zeros(result, (1.0, 1.0), (0.575, 0.21))


_PERIOD = st.floats(0.5, 2.0)
_SHIFT = st.one_of(st.integers(0, 7).map(lambda k: k / 8.0), st.floats(0.0, 1.0))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(px=_PERIOD, py=_PERIOD, fx=_SHIFT, fy=_SHIFT)
def test_shifted_sines_torus_property(px, py, fx, fy):
    periods = (px, py)
    shifts = (fx * px, fy * py)
    assert_torus_zeros(FlatTorus(periods).index_sum(shifted_sines(periods, shifts)),
                       periods, shifts)


_AXIS = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(axis=_AXIS, radius=st.floats(0.5, 2.0))
def test_rotation_about_any_axis_property(axis, radius):
    # u x p vanishes at +-r u; equatorial axes put both zeros on |xi| = 1
    # in both charts, where each must still count once
    u = np.asarray(axis) / np.linalg.norm(axis)
    f = CallableField(3, lambda pts: np.cross(u, pts),
                      jac=constant_jacobian(np.cross(u, np.eye(3)).T),
                      name="axis-rotation", batch=True)
    result = SphereManifold(radius=radius).index_sum(f)
    assert result.total == 2 == result.chi_oracle
    assert len(result.zeros) == 2 and all(z.winding == 1 for z in result.zeros)
    tips = sorted(np.asarray(z.ambient) @ u for z in result.zeros)
    assert np.allclose(tips, [-radius, radius], atol=1e-8)


def test_torus_rejects_non_periodic_field():
    from eulerchar.fields import identity_field
    with pytest.raises(ManifoldError):
        FlatTorus().index_sum(identity_field(2))


def test_report_dict_shape():
    result = SphereManifold().index_sum(s2_rotation_field())
    d = result.to_dict()
    assert d["total"] == 2 and d["agree"] is True
    assert len(d["zeros"]) == 2
    assert {"ambient", "chart", "chart_location"} <= set(d["zeros"][0])
