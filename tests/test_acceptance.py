"""Acceptance gate: one test per primary correctness claim.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Tolerances here are contractual; loosening them is a
behavior change, not a test fix.
"""

import json
import math

import numpy as np
import pytest

from eulerchar.boundary import chi_with_boundary
from eulerchar.cli import bundled_scenarios, main
from eulerchar.clifford import (
    Multivector,
    gamma,
    random_rotor,
    sandwich_factor,
    sandwich_sum,
    versor_frame,
)
from eulerchar.connection import (
    annulus_grid,
    decompose_check,
    flatness_scan,
    hedgehog_frame_field,
    random_connection,
    random_rotor_frame_field,
)
from eulerchar.domains import BallDomain
from eulerchar.fields import (
    ComplexProductField,
    complex_power_field,
    constant_field,
    identity_field,
    linear_field,
    quaternion_square_field,
    rotation_field,
    s2_height_gradient_field,
    s2_rotation_field,
    saddle_field,
)
from eulerchar.gbc import (
    EmbeddedTorus,
    FlatTorusMetric,
    RoundSphere2,
    RoundSphere4,
    integrate_euler,
)
from eulerchar.manifolds import FlatTorus, SphereManifold
from eulerchar.winding import (
    oracle_degree_anglesum,
    oracle_degree_preimage,
    winding_number,
)
from eulerchar.zeros import index_sum_with_excision

SEED = 20240515


def test_criterion_01_clifford_identities():
    """Anticommutation exact; frame sandwich identity < 1e-10, N in 2..6,
    100 random rotor frames per dimension."""
    rng = np.random.default_rng(SEED)
    for n in range(2, 7):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                anti = gamma(n, a) * gamma(n, b) + gamma(n, b) * gamma(n, a)
                want = Multivector.scalar(n, 2.0 if a == b else 0.0)
                assert np.array_equal(anti.coeffs, want.coeffs)
        worst = 0.0
        for _ in range(100):
            frame = versor_frame(random_rotor(n, rng))
            for r in range(n + 1):
                blade = Multivector.blade(n, (1 << r) - 1, 1.0)
                got = sandwich_sum(blade, frame)
                dev = (got - blade * sandwich_factor(n, r)).norm()
                worst = max(worst, dev)
        assert worst < 1e-10, f"N={n}: sandwich deviation {worst:.3e}"


def test_criterion_02_decomposition_second_order():
    """Connection reconstruction residual is O(h^2): log-log slope within
    2 +- 0.2 over h in {1e-2, 1e-3, 1e-4} for 20 random pairs, N in {2, 4}."""
    rng = np.random.default_rng(SEED + 1)
    hs = np.array([1e-2, 1e-3, 1e-4])
    for n in (2, 4):
        for trial in range(20):
            ff = random_rotor_frame_field(n, rng)
            conn = random_connection(n, rng)
            x = rng.uniform(-0.7, 0.7, size=n)
            res = np.array([decompose_check(ff, conn(x), x, h) for h in hs])
            assert np.all(res > 0.0)
            slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
            assert 1.8 <= slope <= 2.2, (
                f"N={n} trial {trial}: slope {slope:.3f}, residuals {res}"
            )


def test_criterion_03_pseudo_flat_dichotomy():
    """Hedgehog frame: curvature < 1e-6 off the singularity at h = 1e-4;
    holonomy flux = 2 pi k within 1e-4 for k in {1, 2}."""
    grid = annulus_grid(0.5, 1.4, radial=6, angular=12)
    for k in (1, 2):
        ff = hedgehog_frame_field(k)
        rep = flatness_scan(ff, grid_points=grid, h=1e-4, loop_radius=0.9)
        assert rep.max_curvature_norm < 1e-6, (
            f"k={k}: max ||F(omega_0)|| = {rep.max_curvature_norm:.3e}"
        )
        assert len(rep.fluxes) == 1
        flux = rep.fluxes[0]
        assert abs(flux.flux - 2.0 * math.pi * k) < 1e-4, (
            f"k={k}: flux {flux.flux!r}"
        )
        assert flux.quantum_rounded == k


def test_criterion_04_winding_quantization_and_oracles():
    """12-field catalog: quadrature residual < 1e-6 (N=2) / 1e-3 (N=4) and
    integer agreement with the angle-sum and preimage oracles."""
    planar = [
        (complex_power_field(-2), -2),
        (complex_power_field(-1), -1),
        (constant_field([0.3, 0.8]), 0),
        (complex_power_field(1), 1),
        (complex_power_field(2), 2),
        (complex_power_field(3), 3),
        (rotation_field(2), 1),
        (saddle_field(), -1),
        (linear_field(-np.eye(2), name="inward"), 1),
    ]
    four = [
        (identity_field(4), 1),
        (constant_field([0.1, -0.2, 0.4, 0.9]), 0),
        (quaternion_square_field(), 2),
    ]
    assert len(planar) + len(four) == 12
    for field, expected in planar:
        w = winding_number(field, (0.0, 0.0), 1.0)
        assert abs(w.residual) < 1e-6, f"{field.name}: residual {w.residual!r}"
        assert w.rounded == expected
        assert oracle_degree_anglesum(field, (0.0, 0.0), 1.0) == expected
        assert oracle_degree_preimage(field, (0.0, 0.0), 1.0) == expected
    for field, expected in four:
        w = winding_number(field, (0.0,) * 4, 1.0)
        assert abs(w.residual) < 1e-3, f"{field.name}: residual {w.residual!r}"
        assert w.rounded == expected
        assert oracle_degree_preimage(field, (0.0,) * 4, 1.0) == expected


def test_criterion_05_excision_three_zeros():
    """Field with zeros of index +1, -1, +2: per-zero sum = enclosing
    winding = 2, exact integers, preimage oracle agrees."""
    f = ComplexProductField(
        roots=[-0.6 + 0.1j, 0.5 - 0.3j, 0.5 - 0.3j],
        conj_roots=[0.2 + 0.6j],
        name="three-zeros",
    )
    result = index_sum_with_excision(f, BallDomain((0.0, 0.0), 2.0))
    assert sorted(z.winding for z in result.zeros) == [-1, 1, 2]
    assert result.zero_sum == 2
    assert result.enclosing_winding == 2
    assert result.oracle_degree == 2
    assert result.agree and result.oracle_agree


def test_criterion_06_hopf_closed_manifolds():
    """S^2 rotation and height-gradient fields sum to 2; torus constant
    field sums to 0; each equals the triangulation oracle exactly."""
    sphere = SphereManifold()
    for field in (s2_rotation_field(), s2_height_gradient_field()):
        result = sphere.index_sum(field)
        assert result.total == 2 == result.chi_oracle, field.name
        assert result.agree
    torus = FlatTorus()
    result = torus.index_sum(constant_field([0.7, 0.4]))
    assert result.total == 0 == result.chi_oracle
    assert result.agree


def test_criterion_07_gbc_integrals():
    """Curvature integrals: 2 +- 1e-6 on S^2(r), r in {0.5, 1, 3};
    0 +- 1e-8 on both tori; 2 +- 1e-4 on S^4 at default resolution."""
    for r in (0.5, 1.0, 3.0):
        res = integrate_euler(RoundSphere2(radius=r))
        assert abs(res.raw - 2.0) < 1e-6, f"S2({r}): {res.raw!r}"
    for torus in (FlatTorusMetric(), EmbeddedTorus()):
        res = integrate_euler(torus)
        assert abs(res.raw) < 1e-8, f"{torus.name}: {res.raw!r}"
    res = integrate_euler(RoundSphere4())
    assert abs(res.raw - 2.0) < 1e-4, f"S4: {res.raw!r}"


def test_criterion_08_boundary_endorsed_cases():
    """Outward radial, inward radial, and rotation fields on B^2 and B^4:
    chi = 1 with a vanishing boundary term and the transversal or
    constant-alpha flag set, matching the triangulation oracle."""
    cases = []
    for n in (2, 4):
        ball = BallDomain((0.0,) * n, 1.0)
        cases.extend([
            (identity_field(n), ball, "transversal-outward"),
            (linear_field(-np.eye(n), name="inward"), ball, "transversal-inward"),
            (rotation_field(n), ball, "constant-alpha-tangent"),
        ])
    for field, ball, flag in cases:
        rep = chi_with_boundary(field, ball)
        label = f"{field.name} on B^{ball.dimension}"
        assert rep.endorsed, label
        assert rep.flags == (flag,), label
        assert rep.boundary_all_half == 0.0, label
        assert rep.chi_paper == 1.0, label
        assert rep.chi_morse == 1 == rep.chi_oracle, label


def test_criterion_09_boundary_internal_consistency():
    """Constant and saddle fields on B^2: boundary windings sum to
    chi(S^1) = 0 exactly; chi_morse = 1 = oracle; chi_paper is reported
    and flagged, not asserted."""
    disk = BallDomain((0.0, 0.0), 1.0)
    for field, n_bz in ((constant_field([1.0, 0.0]), 2), (saddle_field(), 4)):
        rep = chi_with_boundary(field, disk)
        assert len(rep.boundary_zeros) == n_bz, field.name
        assert sum(z.winding for z in rep.boundary_zeros) == 0, field.name
        assert rep.chi_morse == 1 == rep.chi_oracle, field.name
        assert not rep.endorsed
        assert rep.flags == ("paper-halfsum-not-endorsed",)
        assert isinstance(rep.chi_paper, float)  # computed and reported


def test_criterion_10_suite_determinism(tmp_path):
    """Two consecutive runs of every bundled scenario produce
    byte-identical report files."""
    names = sorted(bundled_scenarios())
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        for name in names:
            code = main(["run", name, "--out", str(out)])
            assert code == 0, f"{name} exited {code}"
    for name in names:
        a = (outs[0] / f"{name}.report.json").read_bytes()
        b = (outs[1] / f"{name}.report.json").read_bytes()
        assert a == b, f"{name}: reports differ between runs"
        json.loads(a)  # and they stay valid JSON
