"""Euler characteristic on manifolds with boundary: B^2 and B^4."""

import math

import numpy as np
import pytest

from eulerchar.boundary import (
    BoundaryError,
    alpha_angle,
    boundary_zeros,
    chi_with_boundary,
)
from eulerchar.domains import BallDomain
from eulerchar.fields import (
    constant_field,
    identity_field,
    linear_field,
    rotation_field,
    saddle_field,
)

DISK = BallDomain((0.0, 0.0), 1.0)
BALL4 = BallDomain((0.0, 0.0, 0.0, 0.0), 1.0)


def test_alpha_angle_values():
    m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    fields = (identity_field(2), linear_field(-np.eye(2)), rotation_field(2))
    phi = np.stack([f.evaluate_many(row[None])[0] for f, row in zip(fields, m)])
    assert np.allclose(alpha_angle(phi, m), [0.0, math.pi, math.pi / 2], rtol=0.0, atol=1e-14)
    with pytest.raises(BoundaryError):
        alpha_angle(np.array([[0.0, 1e-9]]), m[:1])
    # each row has the bits a one-point computation gives it
    rng = np.random.default_rng(2718)
    for n in (2, 4):
        phi, m = rng.standard_normal((2, 40, n))
        m /= np.linalg.norm(m, axis=1)[:, None]
        want = [math.acos(np.clip(np.dot(f, u) / np.linalg.norm(f), -1.0, 1.0))
                for f, u in zip(phi, m)]
        assert alpha_angle(phi, m) == want


def test_outward_radial_disk():
    rep = chi_with_boundary(identity_field(2), DISK)
    assert rep.chi_morse == 1 == rep.chi_oracle
    assert rep.chi_paper == 1.0
    assert rep.endorsed
    assert rep.flags == ("transversal-outward",)
    assert rep.interior_sum == 1
    assert rep.boundary_zeros == ()


def test_inward_radial_disk():
    rep = chi_with_boundary(linear_field(-np.eye(2), name="inward"), DISK)
    assert rep.chi_morse == 1
    assert rep.endorsed
    assert rep.flags == ("transversal-inward",)
    assert rep.interior_sum == 1  # det(-I) = +1 in even dimension


def test_rotation_disk_tangent_boundary():
    rep = chi_with_boundary(rotation_field(2), DISK)
    assert rep.chi_morse == 1
    assert rep.endorsed
    assert rep.flags == ("constant-alpha-tangent",)
    assert rep.boundary_all_half == 0.0


def test_constant_field_disk():
    rep = chi_with_boundary(constant_field([1.0, 0.0]), DISK)
    assert rep.interior_sum == 0
    assert len(rep.boundary_zeros) == 2
    # tangential zeros where the field is radial: outward at (1,0), inward at (-1,0)
    by_loc = {tuple(np.round(z.location, 9)): z for z in rep.boundary_zeros}
    out_z = by_loc[(1.0, 0.0)]
    in_z = by_loc[(-1.0, 0.0)]
    assert not out_z.inward and out_z.winding == -1
    assert in_z.inward and in_z.winding == 1
    assert abs(out_z.alpha) < 1e-9
    assert abs(in_z.alpha - math.pi) < 1e-9
    # half-sum cancels: chi_paper misses the oracle and gets flagged
    assert rep.boundary_all_half == 0.0
    assert rep.chi_paper == 0.0
    assert rep.chi_morse == 1 == rep.chi_oracle
    assert not rep.endorsed
    assert rep.flags == ("paper-halfsum-not-endorsed",)


def test_saddle_field_disk():
    rep = chi_with_boundary(saddle_field(), DISK)
    assert rep.interior_sum == -1
    assert len(rep.boundary_zeros) == 4
    assert sum(z.winding for z in rep.boundary_zeros) == 0
    assert rep.boundary_inward == 2
    assert rep.chi_morse == 1
    assert rep.chi_paper == -1.0
    assert not rep.endorsed


def test_boundary_zero_winding_is_crossing_sign():
    ws = sorted(z.winding for z in boundary_zeros(saddle_field(), DISK))
    assert ws == [-1, -1, 1, 1]


def test_outward_radial_ball4():
    rep = chi_with_boundary(identity_field(4), BALL4)
    assert rep.chi_morse == 1 == rep.chi_oracle
    assert rep.endorsed and rep.flags == ("transversal-outward",)


def test_rotation_ball4():
    rep = chi_with_boundary(rotation_field(4), BALL4)
    assert rep.chi_morse == 1
    assert rep.endorsed and rep.flags == ("constant-alpha-tangent",)


def test_constant_field_ball4():
    f = constant_field([0.0, 0.0, 0.0, 1.0])
    rep = chi_with_boundary(f, BALL4)
    assert rep.interior_sum == 0
    assert len(rep.boundary_zeros) == 2
    tips = sorted(z.location[3] for z in rep.boundary_zeros)
    assert np.allclose(tips, [-1.0, 1.0], atol=1e-8)
    # S^3 tangential windings sum to chi(S^3) = 0
    assert sum(z.winding for z in rep.boundary_zeros) == 0
    assert rep.chi_morse == 1 == rep.chi_oracle
    assert not rep.endorsed


def test_ball4_boundary_zeros_near_the_chart_seam():
    # the fourth draw of (A, c) puts boundary zeros of the tangential part
    # of A(x - c) near the seam of every chart pair the old retries tried
    rng = np.random.default_rng(1)
    for _ in range(4):
        a = rng.normal(size=(4, 4))
        c = 0.2 * rng.normal(size=4)
    zs = boundary_zeros(linear_field(a, offset=-a @ c), BALL4)
    assert len(zs) == 8
    assert sum(z.winding for z in zs) == 0
    assert all(abs(np.linalg.norm(z.location) - 1.0) < 1e-12 for z in zs)


def test_field_vanishing_on_boundary_rejected():
    f = linear_field(np.eye(2), offset=[-1.0, 0.0])  # zero at (1, 0)
    with pytest.raises(BoundaryError):
        chi_with_boundary(f, DISK)


def test_dimension_three_unsupported():
    with pytest.raises(BoundaryError):
        chi_with_boundary(identity_field(3), BallDomain((0.0, 0.0, 0.0), 1.0))


def test_report_dict_round_trip():
    rep = chi_with_boundary(constant_field([1.0, 0.0]), DISK)
    d = rep.to_dict()
    assert d["chi_morse"] == 1 and d["chi_paper"] == 0.0
    assert d["flags"] == ["paper-halfsum-not-endorsed"]
    assert len(d["boundary_zeros"]) == 2
