"""Curvature-integral route to chi: pfaffians, densities, quadrature."""

import math
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import eulerchar
from eulerchar.gbc import (
    EmbeddedTorus,
    FlatTorusMetric,
    GbcError,
    RoundSphere2,
    RoundSphere4,
    catalog_manifold,
    catalog_manifold_names,
    chart_rule,
    euler_density_value,
    frame_contraction,
    integrate_euler,
    pfaffian,
    space_form,
)
from eulerchar.winding import UndersampledError, ladder, scaled_count

RNG_SEED = 1729


def random_antisymmetric(n, rng):
    a = rng.standard_normal((n, n))
    return a - a.T


def random_curvature(n, rng, batch=()):
    """Antisymmetric in (a, b) and in (c, d), but neither decomposable nor pair-symmetric."""
    f = rng.standard_normal(batch + (n,) * 4)
    f = f - np.swapaxes(f, -4, -3)
    return f - np.swapaxes(f, -2, -1)


def permutation_sign(p):
    return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def brute_force_contraction(f):
    """eps_a eps_c F...F / (4^m m!) by the definition: every pair of permutations."""
    n = f.shape[-1]
    m = n // 2
    signed = [(p, permutation_sign(p)) for p in permutations(range(n))]
    total = 0.0
    for pa, sa in signed:
        for pc, sc in signed:
            term = sa * sc
            for k in range(0, n, 2):
                term *= f[pa[k], pa[k + 1], pc[k], pc[k + 1]]
            total += term
    return total / (4 ** m * math.factorial(m))


def test_pfaffian_small_cases():
    assert pfaffian(np.array([[0.0, 3.0], [-3.0, 0.0]])) == 3.0
    a = np.zeros((4, 4))
    a[0, 1], a[2, 3] = 2.0, 5.0
    a[0, 2], a[1, 3] = 1.0, 7.0
    a[0, 3], a[1, 2] = 4.0, -3.0
    a = a - a.T
    # Pf = a01 a23 - a02 a13 + a03 a12
    assert abs(pfaffian(a) - (2 * 5 - 1 * 7 + 4 * -3)) < 1e-12


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(RNG_SEED)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            a = random_antisymmetric(n, rng)
            assert abs(pfaffian(a) ** 2 - np.linalg.det(a)) < 1e-8 * max(
                1.0, abs(np.linalg.det(a)))


def test_pfaffian_rejects_bad_input():
    with pytest.raises(GbcError):
        pfaffian(np.ones((3, 3)))
    with pytest.raises(GbcError):
        pfaffian(np.ones((2, 2)))  # not antisymmetric
    with pytest.raises(GbcError):
        pfaffian(np.zeros((10, 10)))


def test_frame_contraction_decomposable():
    # for F^{ab}_{cd} = B_ab B_cd the contraction collapses to 2 Pf(B)^2
    rng = np.random.default_rng(RNG_SEED + 1)
    for n in (2, 4):
        b = random_antisymmetric(n, rng)
        f = np.einsum("ab,cd->abcd", b, b)
        got = frame_contraction(f)
        want = 2.0 * pfaffian(b) ** 2 if n == 4 else pfaffian(b) ** 2
        # n = 2: eps eps F = 2 F^{12}_{12} ... realized as Pf(F_(12)) = B_12^2
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_sphere_density_matches_gauss_curvature():
    # surface: density = K / (2 pi); round sphere K = 1 / r^2
    for r in (0.5, 1.0, 3.0):
        s = RoundSphere2(radius=r)
        for val in (s.euler_density(np.zeros((1, 2))),
                    euler_density_value(space_form(2) / (r * r))):
            assert abs(val - 1.0 / (2.0 * math.pi * r * r)) < 1e-14


def test_s4_constant_curvature_density():
    # constant curvature kappa: eps eps F F = 96 kappa^2, density 3 kappa^2 / (2 pi)^2
    s = RoundSphere4(radius=1.0)
    for val in (s.euler_density(np.zeros((1, 4))), euler_density_value(space_form(4))):
        assert abs(val - 3.0 / (2.0 * math.pi) ** 2) < 1e-14


def test_flat_torus_zero_density():
    t = FlatTorusMetric()
    pts, _ = chart_rule(t.axes, t.top)
    assert np.allclose(t.euler_density(pts), 0.0)


def test_embedded_torus_gauss_curvature_signs():
    # K = cos v / (r (R + r cos v)): positive outside, negative inside
    t = EmbeddedTorus(big_radius=2.0, small_radius=1.0)
    pts = np.array([[0.3, 0.0], [0.3, math.pi]])
    dens = t.euler_density(pts)
    assert dens[0] > 0.0 > dens[1]


@pytest.mark.parametrize("radius", [0.5, 1.0, 3.0])
def test_sphere_integral_radius_independent(radius):
    res = integrate_euler(RoundSphere2(radius=radius))
    assert res.rounded == 2
    assert abs(res.raw - 2.0) < 1e-6


def test_flat_torus_integral():
    res = integrate_euler(FlatTorusMetric())
    assert res.rounded == 0
    assert abs(res.raw) < 1e-8


def test_embedded_torus_integral():
    res = integrate_euler(EmbeddedTorus())
    assert res.rounded == 0
    assert abs(res.raw) < 1e-8


def test_s4_integral():
    res = integrate_euler(RoundSphere4())
    assert res.rounded == 2
    assert abs(res.raw - 2.0) < 1e-4


def test_sphere_area_normalization():
    # weights x sqrt_g integrate the volume: 4 pi r^2 and (8/3) pi^2 r^4
    s2 = RoundSphere2(radius=2.0)
    pts, wts = chart_rule(s2.axes, s2.top)
    vol = float(np.dot(wts, s2.sqrt_g(pts)))
    assert abs(vol - 4.0 * math.pi * 4.0) < 1e-8
    s4 = RoundSphere4(radius=1.0)
    pts, wts = chart_rule(s4.axes, s4.top)
    vol = float(np.dot(wts, s4.sqrt_g(pts)))
    assert abs(vol - 8.0 * math.pi ** 2 / 3.0) < 1e-8
    t = FlatTorusMetric()
    pts, wts = chart_rule(t.axes, t.top)
    assert abs(float(np.dot(wts, t.sqrt_g(pts))) - 1.0) < 1e-12


def test_scale_refinement_keeps_answer():
    # the scale sets only the top rule: both climbs stop at the same level below it
    coarse = integrate_euler(RoundSphere2(), scale=0.5)
    fine = integrate_euler(RoundSphere2(), scale=2.0)
    assert coarse.rounded == fine.rounded == 2
    assert (coarse.raw, coarse.error, coarse.nodes) == (fine.raw, fine.error, fine.nodes)
    tops = [tuple(scaled_count(c, s) for c in RoundSphere2().top) for s in (0.5, 2.0)]
    assert tops == [(32, 64), (128, 256)]
    assert ladder(tops[0], (4, 4)) == ladder(tops[1], (4, 4))[:4]


def test_s2_climb_stops_where_two_levels_agree():
    # (4, 8) is 1.6e-5 off and (8, 16) 4e-15: the climb stops at (16, 32)
    res = integrate_euler(RoundSphere2())
    assert res.nodes == 4 * 8 + 8 * 16 + 16 * 32
    assert abs(res.raw - 2.0) <= res.error + 1e-14 and res.error <= 1e-5


def test_s4_climbs_to_its_top_rule():
    # (4, 4, 4, 8) is 0.026 off, so the climb needs (8, 8, 8, 16) and the top
    res = integrate_euler(RoundSphere4())
    assert res.nodes == 4 ** 3 * 8 + 8 ** 3 * 16 + 16 ** 3 * 32
    assert abs(res.raw - 2.0) < 1e-12 and 1e-9 < res.error < 1e-6


def test_catalog_manifold_lookup():
    assert set(catalog_manifold_names()) == {"s2", "s4", "torus-embedded",
                                             "torus-flat"}
    m = catalog_manifold({"name": "s2", "radius": 3.0})
    assert m.name == "s2(r=3)" and m.oracle == "S2"
    assert catalog_manifold("torus-flat").name == FlatTorusMetric().name
    with pytest.raises(GbcError):
        catalog_manifold("hyperbolic")


def test_residual_guard():
    # a deliberately starved quadrature must refuse to round: at scale 0.125
    # the S^4 top rule is (4, 4, 4, 4), which reads 1.974, within 0.1 of 2,
    # but the level below it, (2, 2, 2, 2), reads 0.8
    with pytest.raises(UndersampledError, match="from the level below"):
        integrate_euler(RoundSphere4(), scale=0.125)


def test_contract_batch_rejects_non_antisymmetric():
    rng = np.random.default_rng(RNG_SEED + 2)
    fs = np.zeros((5, 2, 2, 2, 2))
    for p in range(5):
        b = random_antisymmetric(2, rng)
        fs[p, :, :, 0, 1], fs[p, :, :, 1, 0] = b, -b
    assert np.array_equal(frame_contraction(fs), fs[:, 0, 1, 0, 1])
    fs[3, 0, 0, 0, 1] = 0.5
    with pytest.raises(GbcError, match="not antisymmetric"):
        frame_contraction(fs)
    # N = 4 too, and a break in one pair that keeps the other antisymmetric:
    # F^{kk}_{01} = -F^{kk}_{10} != 0, or F^{01}_{kk} = -F^{10}_{kk} != 0
    for n in (2, 4):
        fs = random_curvature(n, rng, batch=(5,))
        frame_contraction(fs)
        k = n - 1
        for one, other in (((k, k, 0, 1), (k, k, 1, 0)), ((0, 1, k, k), (1, 0, k, k))):
            bad = fs.copy()
            bad[(3,) + one], bad[(3,) + other] = 0.5, -0.5
            with pytest.raises(GbcError, match="not antisymmetric"):
                frame_contraction(bad)


def test_frame_contraction_matches_brute_force():
    # the matching sum is 1 term for N = 2 and 18 for N = 4; the definition 4 and 576
    rng = np.random.default_rng(RNG_SEED + 4)
    for n in (2, 4):
        fs = random_curvature(n, rng, batch=(4,))
        got = frame_contraction(fs)
        for f, value in zip(fs, got):
            want = brute_force_contraction(f)
            assert abs(value - want) <= 1e-12 * abs(want)


def test_frame_contraction_batch_matches_per_tensor():
    rng = np.random.default_rng(RNG_SEED + 3)
    for n in (2, 4):
        fs = np.stack([np.einsum("ab,cd->abcd", random_antisymmetric(n, rng),
                                 random_antisymmetric(n, rng)) for _ in range(6)])
        got = frame_contraction(fs)
        assert got.shape == (6,)
        assert np.array_equal(got, [frame_contraction(f) for f in fs])
        assert np.array_equal(frame_contraction(fs.reshape(2, 3, *fs.shape[1:])),
                              got.reshape(2, 3))


def test_s4_gbc_report_is_independent_of_blas_threads():
    # a BLAS dot product splits a long sum across threads and rounds it
    # differently on each count; the quadrature sum must not
    code = ("import sys\n"
            "from eulerchar.cli import load_scenario, run_scenario\n"
            "from eulerchar.report import render_report\n"
            "sys.stdout.write(render_report(run_scenario(load_scenario('s4-gbc'))[0]))\n")
    src = str(Path(eulerchar.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        reports.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      stdout=subprocess.PIPE).stdout)
    assert reports[0] and reports[0] == reports[1]
