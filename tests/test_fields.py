"""Vector field battery: evaluation, Jacobians, serialization."""

import numpy as np
import pytest

from eulerchar.fields import (
    CallableField,
    ComplexProductField,
    FieldError,
    PolynomialField,
    builtin_field,
    builtin_names,
    complex_power_field,
    constant_field,
    field_from_spec,
    identity_field,
    linear_field,
    quaternion_square_field,
    rotation_field,
    s2_height_gradient_field,
    s2_rotation_field,
    saddle_field,
    torus_sines_field,
)
from eulerchar.manifolds import SphereManifold

RNG_SEED = 8675309


def fd_jacobian(field, x, h=1e-6):
    """Central differences at one point; row j of each batch is the step along e_j."""
    steps = h * np.eye(len(x))
    return ((field.evaluate_many(x + steps) - field.evaluate_many(x - steps)) / (2 * h)).T


def test_polynomial_evaluation():
    # phi = (x^2 - y, 3 x y)
    f = PolynomialField(2, [
        [((2, 0), 1.0), ((0, 1), -1.0)],
        [((1, 1), 3.0)],
    ])
    assert np.allclose(f.evaluate_many([[2.0, 5.0]])[0], [-1.0, 30.0])
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 2.0]])
    assert np.allclose(f.evaluate_many(pts), [[0, 0], [0, 3], [-1, -6]])


def test_polynomial_jacobian_is_analytic():
    rng = np.random.default_rng(RNG_SEED)
    f = PolynomialField(3, [
        [((2, 0, 0), 1.0), ((0, 1, 1), -2.0)],
        [((1, 1, 0), 0.5), ((0, 0, 3), 1.0)],
        [((0, 0, 0), 4.0), ((1, 0, 1), -1.0)],
    ])
    for _ in range(10):
        x = rng.uniform(-2, 2, size=3)
        assert np.allclose(f.jet_many([x])[1][0], fd_jacobian(f, x), atol=1e-7)


def test_polynomial_component_count_checked():
    with pytest.raises(FieldError):
        PolynomialField(3, [[((1, 0, 0), 1.0)]])


def test_linear_field_with_offset():
    f = linear_field([[0.0, 1.0], [1.0, 0.0]], offset=[5.0, -1.0])
    assert np.allclose(f.evaluate_many([[2.0, 3.0]])[0], [8.0, 1.0])
    assert np.allclose(f.jet_many([[0.3, 0.4]])[1][0], [[0, 1], [1, 0]])


def test_complex_product_matches_explicit_polynomial():
    # (z - 1)(z + i) = z^2 + (i - 1) z - i
    f = ComplexProductField(roots=[1.0, -1j])
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, size=2)
        z = complex(x, y)
        w = (z - 1.0) * (z + 1j)
        got = f.evaluate_many([[x, y]])[0]
        assert abs(complex(got[0], got[1]) - w) < 1e-12


def test_complex_product_conjugate_factor():
    f = ComplexProductField(conj_roots=[0.5 + 0.5j])
    z = complex(1.0, 2.0)
    w = np.conj(z - (0.5 + 0.5j))
    got = f.evaluate_many([[1.0, 2.0]])[0]
    assert abs(complex(got[0], got[1]) - w) < 1e-12


def test_complex_product_jacobian_finite_at_repeated_root():
    f = ComplexProductField(roots=[0.2 + 0.1j, 0.2 + 0.1j])
    j = f.jet_many([[0.2, 0.1]])[1][0]
    assert np.all(np.isfinite(j))
    assert np.allclose(j, 0.0)  # derivative of (z-c)^2 vanishes at c


def test_complex_product_jacobian_matches_fd():
    f = ComplexProductField(roots=[1.0, -0.3 + 0.4j], conj_roots=[0.1j])
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, size=2)
        assert np.allclose(f.jet_many([x])[1][0], fd_jacobian(f, x), atol=1e-6)


def test_rotation_field_blocks():
    f = rotation_field(4)
    assert np.allclose(f.evaluate_many([[1.0, 2.0, 3.0, 4.0]])[0], [-2.0, 1.0, -4.0, 3.0])
    with pytest.raises(FieldError):
        rotation_field(3)


def test_saddle_and_identity():
    assert np.allclose(saddle_field().evaluate_many([[2.0, 3.0]])[0], [2.0, -3.0])
    assert np.allclose(identity_field(4).evaluate_many([[1, 2, 3, 4]])[0], [1, 2, 3, 4])


def test_constant_field_jacobian_zero():
    f = constant_field([0.7, 0.4])
    assert np.allclose(f.jet_many([[10.0, -3.0]])[1][0], np.zeros((2, 2)))


def test_complex_power_degrees():
    f = complex_power_field(3)
    z = complex(0.3, -0.2)
    got = f.evaluate_many([[z.real, z.imag]])[0]
    assert abs(complex(got[0], got[1]) - z ** 3) < 1e-12
    g = complex_power_field(-2)
    got = g.evaluate_many([[z.real, z.imag]])[0]
    assert abs(complex(got[0], got[1]) - np.conj(z) ** 2) < 1e-12
    with pytest.raises(FieldError):
        complex_power_field(0)


def test_quaternion_square_components():
    # (w + xi + yj + zk)^2 expanded
    f = quaternion_square_field()
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(10):
        w, x, y, z = rng.uniform(-1, 1, size=4)
        want = np.array([
            w * w - x * x - y * y - z * z,
            2 * w * x, 2 * w * y, 2 * w * z,
        ])
        assert np.allclose(f.evaluate_many([[w, x, y, z]])[0], want, atol=1e-12)


def test_s2_fields_are_tangent_to_unit_sphere():
    rng = np.random.default_rng(RNG_SEED + 4)
    rot = s2_rotation_field()
    grad = s2_height_gradient_field()
    for _ in range(20):
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        assert abs(np.dot(rot.evaluate_many([p])[0], p)) < 1e-12
        assert abs(np.dot(grad.evaluate_many([p])[0], p)) < 1e-12


def test_height_gradient_zeros_at_poles():
    f = s2_height_gradient_field()
    assert np.allclose(f.evaluate_many([[0.0, 0.0, 1.0]])[0], 0.0)
    assert np.allclose(f.evaluate_many([[0.0, 0.0, -1.0]])[0], 0.0)
    assert np.linalg.norm(f.evaluate_many([[1.0, 0.0, 0.0]])[0]) > 0.5


def test_torus_sines_zeros_and_jacobian():
    f = torus_sines_field()
    for p in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]):
        assert np.allclose(f.evaluate_many([p])[0], 0.0, atol=1e-15)
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(10):
        x = rng.uniform(0, 1, size=2)
        assert np.allclose(f.jet_many([x])[1][0], fd_jacobian(f, x), atol=1e-6)


def test_callable_field_requires_jacobian():
    func = lambda x: np.array([x[0] ** 3, x[0] * x[1]])
    with pytest.raises(TypeError):
        CallableField(2, func)
    f = CallableField(2, func, jac=lambda x: np.array([[3 * x[0] ** 2, 0.0], [x[1], x[0]]]))
    x = np.array([2.0, 1.0])
    assert np.array_equal(f.jet_many([x])[1][0], [[12.0, 0.0], [1.0, 2.0]])
    assert np.allclose(f.jet_many([x])[1][0], fd_jacobian(f, x), atol=1e-6)


def _cubic_per_point():
    func = lambda x: np.array([x[0] ** 3 - x[1], x[0] * x[1]])
    jac = lambda x: np.array([[3 * x[0] ** 2, -1.0], [x[1], x[0]]])
    return CallableField(2, func, jac=jac)


JET_CASES = {
    "polynomial": PolynomialField(3, [
        [((2, 0, 0), 1.0), ((0, 1, 1), -2.0), ((0, 0, 0), 0.5)],
        [((1, 1, 0), 0.5), ((0, 0, 3), 1.0)],
        [((0, 0, 0), 4.0), ((1, 0, 1), -1.0), ((2, 0, 2), 0.25)],
    ]),
    "linear": linear_field([[1.0, 2.0], [-3.0, 0.5]], offset=[0.1, -0.2]),
    "quaternion-square": quaternion_square_field(),
    "complex-product": ComplexProductField(roots=[1.0, -0.3 + 0.4j], conj_roots=[0.1j]),
    "conj-power": complex_power_field(-3),
    "callable-batch": torus_sines_field(),
    "callable-per-point": _cubic_per_point(),
    "chart-s2": SphereManifold(radius=1.3, center=[0.1, -0.2, 0.3]).pushforward(
        s2_height_gradient_field(), 1.0),
    "chart-s3": SphereManifold(ambient_dim=4).pushforward(quaternion_square_field(), -1.0),
}


@pytest.mark.parametrize("case", sorted(JET_CASES))
def test_jet_is_evaluate_many_and_the_exact_jacobian(case):
    # phi of a jet has evaluate_many's bits; J matches central differences
    f = JET_CASES[case]
    pts = np.random.default_rng(RNG_SEED + 8).uniform(-1.2, 1.2, size=(40, f.dimension))
    phi, jac = f.jet_many(pts)
    want = f.evaluate_many(pts)
    assert phi.shape == want.shape and phi.tobytes() == want.tobytes()
    assert jac.shape == (40, f.dimension, f.dimension)
    for k in range(0, 40, 8):
        fd = fd_jacobian(f, pts[k])
        assert np.max(np.abs(jac[k] - fd)) <= 1e-7 * max(1.0, np.max(np.abs(jac[k])))


def test_builtin_registry_round_trip():
    names = builtin_names()
    assert "identity" in names and "quaternion-square" in names
    f = builtin_field("identity", dimension=4)
    assert f.dimension == 4
    with pytest.raises(FieldError):
        builtin_field("no-such-field")


def test_polynomial_spec_round_trip():
    f = PolynomialField(2, [
        [((2, 0), 1.0), ((0, 1), -1.0)],
        [((1, 1), 3.0)],
    ])
    g = field_from_spec(f.to_spec())
    rng = np.random.default_rng(RNG_SEED + 6)
    pts = rng.uniform(-2, 2, size=(20, 2))
    assert np.allclose(f.evaluate_many(pts), g.evaluate_many(pts))


def test_complex_product_spec_round_trip():
    f = ComplexProductField(roots=[0.5 - 0.25j], conj_roots=[1.0j])
    g = field_from_spec(f.to_spec())
    rng = np.random.default_rng(RNG_SEED + 7)
    pts = rng.uniform(-2, 2, size=(20, 2))
    assert np.allclose(f.evaluate_many(pts), g.evaluate_many(pts))


def test_field_from_spec_rejects_unknown_kind():
    with pytest.raises(FieldError):
        field_from_spec({"kind": "mystery"})
    with pytest.raises(FieldError):
        field_from_spec({"no": "kind"})
