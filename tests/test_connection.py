"""Frame fields, spin connections, curvature, holonomy flux."""

import math

import numpy as np
import pytest

from eulerchar.clifford import CliffordError, Frame, Multivector, gamma
from eulerchar.connection import (
    FrameField,
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


def test_constant_frame_field_batches():
    ff = constant_frame_field(2)
    batch = np.zeros((5, 2))
    assert all(u.coeffs.shape == (5, 4) for u in ff.frame(batch).vectors)
    sample = pseudo_flat_connection(ff, batch)
    assert all(w.coeffs.shape == (5, 4) for w in sample.omegas)
    assert sample.max_norm() == 0.0


def test_frame_names_first_non_orthonormal_row():
    def frame_fn(x):
        stretch = np.where(x[..., :1] > 0.5, 1.5, 1.0)  # broken where x_1 > 0.5
        return Frame(2, (Multivector(2, stretch * gamma(2, 1).coeffs),
                         Multivector(2, np.broadcast_to(gamma(2, 2).coeffs,
                                                        x.shape[:-1] + (4,)))))

    ff = FrameField(2, frame_fn)
    ff.frame([[0.0, 0.0], [0.3, 0.1]])
    with pytest.raises(CliffordError, match=r"^frame at \[0\.7, 0\.2\] not orthonormal"):
        ff.frame([[0.0, 0.0], [0.3, 0.1], [0.7, 0.2], [0.9, 0.3]])


# the nested sampler the stencil replaced: every derivative resamples its
# own +-h neighbours, and the curvature resamples the whole connection there


def _nested_connection(ff, x, h):
    x = np.asarray(x, dtype=float)
    u = ff.frame(x).vectors
    omegas = []
    for step in h * np.eye(ff.dimension):
        hi, lo = ff.frame(x + step).vectors, ff.frame(x - step).vectors
        acc = Multivector.zero(ff.dimension)
        for a, b, ui in zip(hi, lo, u):
            acc = acc + (a - b) * (0.5 / h) * ui
        omegas.append(acc * 0.25)
    return omegas


def _nested_curvature(ff, x, h):
    n = ff.dimension
    here = _nested_connection(ff, x, h)
    plus = [_nested_connection(ff, x + step, h) for step in h * np.eye(n)]
    minus = [_nested_connection(ff, x - step, h) for step in h * np.eye(n)]
    comps = {}
    for mu in range(n):
        for nu in range(mu + 1, n):
            d_mu_w_nu = (plus[mu][nu] - minus[mu][nu]) * (0.5 / h)
            d_nu_w_mu = (plus[nu][mu] - minus[nu][mu]) * (0.5 / h)
            wm, wn = here[mu], here[nu]
            comps[(mu, nu)] = d_mu_w_nu - d_nu_w_mu - (wm * wn - wn * wm)
    return comps


def test_stencil_sampler_matches_nested_sampler_bit_for_bit():
    rng = np.random.default_rng(RNG_SEED + 7)
    h = 1e-4
    fields = [(hedgehog_frame_field(2), annulus_grid(0.5, 1.2, radial=3, angular=5), 0.9),
              (random_rotor_frame_field(3, rng), rng.uniform(-1.0, 1.0, size=(6, 3)), None),
              (random_rotor_frame_field(4, rng), rng.uniform(-1.0, 1.0, size=(5, 4)), None)]
    for ff, pts, radius in fields:
        want = _nested_connection(ff, pts, h)
        got = pseudo_flat_connection(ff, pts, h).omegas
        assert all(np.array_equal(g.coeffs, w.coeffs) for g, w in zip(got, want))
        want_f = _nested_curvature(ff, pts, h)
        got_f = curvature(lambda y: pseudo_flat_connection(ff, y, h), pts, h).components
        assert want_f.keys() == got_f.keys()
        assert all(np.array_equal(got_f[k].coeffs, want_f[k].coeffs) for k in want_f)
        rep = flatness_scan(ff, grid_points=pts, h=h, loop_radius=radius)
        assert rep.max_curvature_norm == max(f.norm() for f in want_f.values())
        assert rep.max_grade2_leakage == max((w - w.grade_project(2)).norm() for w in want)


def _count_frames(ff):
    calls = []
    frame = ff.frame

    def counted(x):
        calls.append(np.asarray(x).reshape(-1, ff.dimension).shape[0])
        return frame(x)

    ff.frame = counted
    return calls


def test_flatness_scan_and_flux_make_one_frame_call():
    rng = np.random.default_rng(RNG_SEED + 8)
    ff = random_rotor_frame_field(4, rng)
    calls = _count_frames(ff)
    flatness_scan(ff, grid_points=rng.uniform(-1.0, 1.0, size=(20, 4)))
    # distinct stencil offsets: at most 2N^2 + 4N + 1 = 49 in floating point
    assert len(calls) == 1 and calls[0] <= 49 * 20
    hedgehog = hedgehog_frame_field(1)
    calls = _count_frames(hedgehog)
    holonomy_flux(hedgehog, (0.0, 0.0), 0.9, segments=64)
    assert calls == [64 * 5]


def test_decompose_check_makes_one_frame_call():
    from eulerchar.connection import _frames

    rng = np.random.default_rng(RNG_SEED + 9)
    ff = random_rotor_frame_field(3, rng)
    x = rng.uniform(-0.8, 0.8, size=3)
    omegas = random_connection(3, rng)(x)
    h = 1e-3
    # three samples: x alone, then the stencil for each derivative
    u = _frames(ff, x)
    du = frame_derivatives(ff, x, h)
    cov = covariant_frame_derivatives(ff, omegas, x, h)
    want = max((sum(((d - c) * ui for d, c, ui in zip(du[mu], cov[mu], u)),
                    Multivector.zero(3)) * 0.25 - omegas[mu]).norm() for mu in range(3))
    calls = _count_frames(ff)
    assert decompose_check(ff, omegas, x, h) == want
    assert len(calls) == 1


@pytest.mark.parametrize("n, points, seed, want", [
    (4, 20, 4, "FlatnessReport(points_checked=20, max_curvature_norm=3.300908435477368e-08, "
               "max_grade2_leakage=1.0330624084257597e-08, step=0.0001, fluxes=())"),
    (3, 8, 3, "FlatnessReport(points_checked=8, max_curvature_norm=1.4390534097685759e-08, "
              "max_grade2_leakage=6.341233042134187e-09, step=0.0001, fluxes=())"),
], ids=["cl4-20-points", "cl3-8-points"])
def test_rotor_flatness_scan_bits_are_pinned(n, points, seed, want):
    # the reprs of the dense Cayley-table product: a product change that moves one bit fails
    rng = np.random.default_rng(seed)
    ff = random_rotor_frame_field(n, rng)
    grid = rng.uniform(-1.2, 1.2, size=(points, n))
    assert repr(flatness_scan(ff, grid)) == want


def test_flatness_scan_needs_loop_radius_around_singular_points():
    with pytest.raises(ChartError, match="loop_radius"):
        flatness_scan(hedgehog_frame_field(1), grid_points=annulus_grid(0.5, 1.4, 2, 4))
