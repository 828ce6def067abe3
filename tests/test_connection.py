"""Frame fields, spin connections, curvature, holonomy flux."""

import math

import numpy as np
import pytest

from eulerchar.connection import (
    ChartError,
    annulus_grid,
    constant_frame_field,
    covariant_frame_derivatives,
    curvature,
    decompose_check,
    flatness_scan,
    frame_derivatives,
    hedgehog_frame_field,
    holonomy_flux,
    pseudo_flat_connection,
    random_connection,
    random_rotor_frame_field,
)

RNG_SEED = 555001


def test_constant_frame_has_zero_connection():
    ff = constant_frame_field(2)
    sample = pseudo_flat_connection(ff, [0.2, -0.4])
    assert sample.max_norm() < 1e-12


def test_pseudo_flat_connection_is_grade_two():
    rng = np.random.default_rng(RNG_SEED)
    for n in (2, 4):
        ff = random_rotor_frame_field(n, rng)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=n)
            sample = pseudo_flat_connection(ff, x)
            assert sample.grade2_leakage() < 1e-7  # O(h^2) from the stencil


def test_hedgehog_connection_closed_form():
    # u_1 = (cos k theta, sin k theta) gives omega_0 = -(k/2) d theta g12
    for k in (1, 2, 3):
        ff = hedgehog_frame_field(k)
        x = np.array([0.8, 0.3])
        r2 = float(x @ x)
        sample = pseudo_flat_connection(ff, x)
        # d theta = (-y dx + x dy) / r^2
        want = np.array([0.5 * k * x[1] / r2, -0.5 * k * x[0] / r2])
        got = np.array([w.coeffs[0b11] for w in sample.omegas])
        assert np.allclose(got, want, atol=1e-7)


def test_frame_derivatives_match_analytic():
    ff = hedgehog_frame_field(1)
    x = np.array([1.0, 0.0])  # theta = 0: du_1/dy = gamma_2 / r
    du = frame_derivatives(ff, x)
    assert abs(du[0][0].norm()) < 1e-7
    assert np.allclose(du[1][0].vector_part(), [0.0, 1.0], atol=1e-7)


def test_covariant_derivative_vanishes_for_own_connection():
    # with omega = omega_0 the frame is parallel: D u_i = O(h^2)
    rng = np.random.default_rng(RNG_SEED + 1)
    ff = random_rotor_frame_field(2, rng)
    x = np.array([0.3, -0.2])
    h = 1e-4
    omegas = pseudo_flat_connection(ff, x, h).omegas
    cov = covariant_frame_derivatives(ff, omegas, x, h)
    worst = max(cov[mu][i].norm() for mu in range(2) for i in range(2))
    assert worst < 1e-6


def test_decompose_check_second_order():
    rng = np.random.default_rng(RNG_SEED + 2)
    for n in (2, 4):
        ff = random_rotor_frame_field(n, rng)
        conn = random_connection(n, rng)
        x = rng.uniform(-0.8, 0.8, size=n)
        res = {h: decompose_check(ff, conn(x), x, h)
               for h in (1e-2, 1e-3, 1e-4)}
        slope = (math.log(res[1e-2]) - math.log(res[1e-4])) / math.log(1e2)
        assert 1.8 < slope < 2.2
        assert res[1e-4] < 1e-5


def test_decompose_check_rejects_non_grade_two():
    from eulerchar.clifford import Multivector, gamma
    rng = np.random.default_rng(RNG_SEED + 3)
    ff = random_rotor_frame_field(2, rng)
    bad = (gamma(2, 1), Multivector.zero(2))
    with pytest.raises(Exception):
        decompose_check(ff, bad, [0.1, 0.1])


def test_pseudo_flat_curvature_vanishes():
    rng = np.random.default_rng(RNG_SEED + 4)
    ff = random_rotor_frame_field(2, rng)
    conn_fn = lambda y: pseudo_flat_connection(ff, y, 1e-4)
    f = curvature(conn_fn, [0.25, -0.35], 1e-4)
    assert f.max_norm() < 1e-6


def test_hedgehog_curvature_vanishes_off_origin():
    ff = hedgehog_frame_field(2)
    conn_fn = lambda y: pseudo_flat_connection(ff, y, 1e-4)
    for x in ([0.9, 0.0], [0.5, 0.5], [-0.3, 0.8]):
        f = curvature(conn_fn, x, 1e-4)
        assert f.max_norm() < 1e-6


def test_holonomy_flux_quantized():
    for k in (1, 2):
        ff = hedgehog_frame_field(k)
        flux = holonomy_flux(ff, (0.0, 0.0), 0.9)
        assert flux.quantum_rounded == k
        assert abs(flux.flux - 2.0 * math.pi * k) < 1e-4
        assert abs(flux.residual) < 1e-4 / (2 * math.pi)


def test_holonomy_flux_radius_independent():
    ff = hedgehog_frame_field(1)
    f1 = holonomy_flux(ff, (0.0, 0.0), 0.4)
    f2 = holonomy_flux(ff, (0.0, 0.0), 1.2)
    assert abs(f1.flux - f2.flux) < 1e-6


def test_holonomy_rejects_higher_dimensions():
    rng = np.random.default_rng(RNG_SEED + 5)
    ff = random_rotor_frame_field(4, rng)
    with pytest.raises(ChartError):
        holonomy_flux(ff, (0.0,) * 4, 0.5)


def test_flatness_scan_hedgehog_report():
    ff = hedgehog_frame_field(1)
    grid = annulus_grid(0.5, 1.4, radial=4, angular=8)
    rep = flatness_scan(ff, grid_points=grid, loop_radius=0.9)
    assert rep.points_checked == 32
    assert rep.max_curvature_norm < 1e-6
    assert rep.max_grade2_leakage < 1e-7
    assert len(rep.fluxes) == 1
    assert rep.fluxes[0].quantum_rounded == 1


def test_chart_bounds_enforced():
    ff = hedgehog_frame_field(1)  # chart is the +-1.5 box
    with pytest.raises(ChartError):
        pseudo_flat_connection(ff, [5.0, 0.0])


def test_annulus_grid_stays_in_annulus():
    grid = annulus_grid(0.5, 1.4, radial=6, angular=10)
    r = np.linalg.norm(grid, axis=1)
    assert grid.shape == (60, 2)
    assert r.min() > 0.5 - 1e-12 and r.max() < 1.4 + 1e-12


def test_batched_connection_and_curvature_match_per_point():
    rng = np.random.default_rng(RNG_SEED + 6)
    fields = [(hedgehog_frame_field(2), annulus_grid(0.5, 1.2, radial=2, angular=3)),
              (random_rotor_frame_field(3, rng), rng.uniform(-1.0, 1.0, size=(4, 3))),
              (random_rotor_frame_field(4, rng), rng.uniform(-1.0, 1.0, size=(3, 4)))]
    for ff, pts in fields:
        conn_fn = lambda y: pseudo_flat_connection(ff, y, 1e-4)
        sample = conn_fn(pts)
        f = curvature(conn_fn, pts, 1e-4)
        for i, p in enumerate(pts):
            one = conn_fn(p)
            for mu in range(ff.dimension):
                assert np.array_equal(sample.omegas[mu].coeffs[i], one.omegas[mu].coeffs)
            f_one = curvature(conn_fn, p, 1e-4)
            for key, comp in f_one.components.items():
                assert np.array_equal(f.components[key].coeffs[i], comp.coeffs)


def test_holonomy_flux_matches_sequential_loop():
    ff = hedgehog_frame_field(3)
    radius, segments = 0.7, 64
    theta = 2.0 * math.pi * np.arange(segments) / segments
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    tangents = radius * np.column_stack([-np.sin(theta), np.cos(theta)])
    total = 0.0
    for p, dx in zip(pts, tangents):
        sample = pseudo_flat_connection(ff, p)
        for mu in range(2):
            total += -2.0 * sample.omegas[mu].coeffs[0b11] * dx[mu]
    total *= 2.0 * math.pi / segments
    flux = holonomy_flux(ff, (0.0, 0.0), radius, segments)
    assert flux.flux == total
    assert flux.residual == total / (2.0 * math.pi) - 3


def test_check_point_batch_names_first_bad_row():
    ff = hedgehog_frame_field(1)
    pts = annulus_grid(0.5, 1.2, radial=3, angular=4)
    ff.check_point(pts, margin=1e-4)
    bad = pts.copy()
    bad[5] = [1e-5, 0.0]
    bad[7] = [1.5, 0.2]
    with pytest.raises(ChartError, match=r"\[1e-05, 0\.0\] within"):
        ff.check_point(bad, margin=1e-4)
    bad[5] = pts[5]
    with pytest.raises(ChartError, match=r"\[1\.5, 0\.2\] too close to chart edge"):
        ff.check_point(bad, margin=1e-4)
