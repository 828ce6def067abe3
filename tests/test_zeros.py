"""Zero finding, per-zero indices, and the excision cross-check."""

import numpy as np
import pytest

from eulerchar.domains import BallDomain, BoxDomain
from eulerchar.fields import (
    ComplexProductField,
    complex_power_field,
    constant_field,
    identity_field,
    linear_field,
    quaternion_square_field,
    saddle_field,
    torus_sines_field,
)
from eulerchar.zeros import (
    BoundaryZoneError,
    ZeroFindingError,
    find_zeros,
    index_sum_with_excision,
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
    assert np.allclose(b.outward_normal([4.0, -2.0]), [1.0, 0.0])


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
