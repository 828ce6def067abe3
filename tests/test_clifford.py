"""Clifford algebra layer: products, reversion, rotors, frames."""

import math

import numpy as np
import pytest

from eulerchar import clifford
from eulerchar.clifford import (
    Multivector,
    commutator,
    exp,
    gamma,
    generator,
    pseudoscalar,
    random_bivector,
    random_rotor,
    sandwich_factor,
    sandwich_sum,
    versor_frame,
)

RNG_SEED = 20240301


def _close(a, b, tol):
    """Same algebra, and every coefficient within tol of the other's."""
    return a.dimension == b.dimension and np.max(np.abs(a.coeffs - b.coeffs)) <= tol


def test_gamma_anticommutation_exact():
    for n in range(2, 7):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                g = gamma(n, a) * gamma(n, b) + gamma(n, b) * gamma(n, a)
                want = Multivector.scalar(n, 2.0 if a == b else 0.0)
                assert np.array_equal(g.coeffs, want.coeffs)


def test_known_bivector_products():
    # gamma_1 gamma_2 squared is -1 in the plane it spans
    n = 3
    b = gamma(n, 1) * gamma(n, 2)
    sq = b * b
    assert _close(sq, Multivector.scalar(n, -1.0), 0.0)


def test_associativity_random():
    rng = np.random.default_rng(RNG_SEED)
    for n in (2, 3, 4):
        for _ in range(20):
            a = Multivector(n, rng.standard_normal(2 ** n))
            b = Multivector(n, rng.standard_normal(2 ** n))
            c = Multivector(n, rng.standard_normal(2 ** n))
            left = (a * b) * c
            right = a * (b * c)
            assert _close(left, right, 1e-10)


def test_reversion_is_antiautomorphism():
    rng = np.random.default_rng(RNG_SEED + 1)
    for n in (2, 3, 4, 5):
        a = Multivector(n, rng.standard_normal(2 ** n))
        b = Multivector(n, rng.standard_normal(2 ** n))
        assert _close((a * b).reverse(), b.reverse() * a.reverse(), 1e-10)


def test_reversion_signs_per_grade():
    # grade r picks up (-1)^(r(r-1)/2)
    n = 5
    for r in range(n + 1):
        mask = (1 << r) - 1  # lowest r generators
        blade = Multivector.blade(n, mask, 1.0)
        sign = (-1) ** (r * (r - 1) // 2)
        assert np.array_equal(blade.reverse().coeffs, sign * blade.coeffs)


def test_pseudoscalar_square():
    for n in range(2, 7):
        i = pseudoscalar(n)
        want = Multivector.scalar(n, (-1.0) ** (n * (n - 1) // 2))
        assert _close(i * i, want, 1e-13)


def test_grade_projection_partitions():
    rng = np.random.default_rng(RNG_SEED + 2)
    n = 4
    a = Multivector(n, rng.standard_normal(2 ** n))
    total = Multivector.zero(n)
    for r in range(n + 1):
        total = total + a.grade_project(r)
    assert _close(total, a, 0.0)


def test_exp_of_plane_bivector_is_rotor():
    n = 2
    theta = 0.73
    u = exp(generator(1, 2, n) * (2.0 * theta))  # = exp(theta gamma_1 gamma_2)
    want = Multivector.scalar(n, math.cos(theta)) + \
        Multivector.blade(n, 0b11, math.sin(theta))
    assert _close(u, want, 1e-13)


def test_exp_large_argument_scaling():
    n = 3
    u = exp(generator(1, 3, n) * 40.0)  # a bivector: the closed form, no squarings
    norm = (u * u.reverse()).coeffs[..., 0]
    assert abs(norm - 1.0) < 1e-10


def test_series_exp_large_argument_scaling(monkeypatch):
    # arguments outside the closed form: a Cl(5) bivector, a Cl(3) bivector plus a scalar
    closed = clifford._bivector_exp
    monkeypatch.setattr(clifford, "_bivector_exp", None)
    u = exp(generator(1, 3, 5) * 40.0)  # forces many squarings
    assert abs((u * u.reverse()).coeffs[..., 0] - 1.0) < 1e-10
    b = generator(1, 3, 3) * 40.0
    shifted = exp(b + Multivector.scalar(3, 0.5)).coeffs
    want = math.exp(0.5) * closed(b).coeffs
    assert np.max(np.abs(shifted - want)) <= 1e-12 * np.max(np.abs(want))


def _isoclinic(rng, theta):
    """R (theta (gamma_12 + gamma_34)) R~ in Cl(4): B^2 = s + p I with s + p = 0."""
    r = random_rotor(4, rng)
    return r * (generator(1, 2, 4) + generator(3, 4, 4)) * (2.0 * theta) * r.reverse()


def _bivector_cases(n, rng):
    yield Multivector.zero(n)
    yield generator(1, 2, n) * 1.3 + generator(1, n, n) * -0.4  # simple: one plane
    for scale in (0.01, 0.1, 0.5, 1.5, 5.0, 40.0):
        for _ in range(20):
            yield random_bivector(n, rng, scale)
    if n == 4:
        yield (generator(1, 2, 4) + generator(3, 4, 4)) * 1.1   # exactly s + p = 0
        yield (generator(1, 2, 4) - generator(3, 4, 4)) * 0.7   # exactly s - p = 0
        for theta in np.geomspace(0.05, 20.0, 30):
            b = _isoclinic(rng, theta)
            # a rotated isoclinic B keeps rounding outside grade 2; drop it
            yield b.grade_project(2)


def test_bivector_exp_matches_series():
    rng = np.random.default_rng(RNG_SEED + 11)
    above_zero = 0
    for n in (2, 3, 4):
        for b in _bivector_cases(n, rng):
            got = exp(b).coeffs
            want = clifford._series_exp(b).coeffs
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            square = (b * b).coeffs
            above_zero += n == 4 and square[0] + square[-1] > 0
    assert np.array_equal(exp(Multivector.zero(4)).coeffs, Multivector.scalar(4, 1.0).coeffs)
    # rounding pushed s + p above zero on some isoclinic cases
    assert above_zero > 0


def test_batched_bivector_exp_matches_per_point():
    rng = np.random.default_rng(RNG_SEED + 12)
    for n in (2, 3, 4):
        x = np.stack([b.coeffs for b in _bivector_cases(n, rng)])
        batch = exp(Multivector(n, x)).coeffs
        for i in range(len(x)):
            assert np.array_equal(batch[i], exp(Multivector(n, x[i])).coeffs)
    # a batch mixing bivectors and other points takes the closed form per point
    x[::3, 0] = 0.25
    batch = exp(Multivector(4, x)).coeffs
    for i in range(len(x)):
        assert np.array_equal(batch[i], exp(Multivector(4, x[i])).coeffs)


def test_generator_commutation_with_gammas():
    # bare commutator: [G_12, gamma_1] = -gamma_2, [G_12, gamma_2] = gamma_1;
    # the frame sandwich U~ gamma U undoes the sign, hence counterclockwise
    n = 4
    g = generator(1, 2, n)
    assert _close(commutator(g, gamma(n, 1)), -gamma(n, 2), 1e-13)
    assert _close(commutator(g, gamma(n, 2)), gamma(n, 1), 1e-13)
    assert commutator(g, gamma(n, 3)).norm() < 1e-13


def test_versor_frame_quarter_turn():
    n = 2
    theta = math.pi / 2.0
    rotor = exp(generator(1, 2, n) * theta)
    frame = versor_frame(rotor)
    assert _close(frame.vectors[0], gamma(n, 2), 1e-12)
    assert _close(frame.vectors[1], -gamma(n, 1), 1e-12)


def test_versor_frame_general_angle():
    n = 2
    theta = 0.41
    rotor = exp(generator(1, 2, n) * theta)
    frame = versor_frame(rotor)
    want = gamma(n, 1) * math.cos(theta) + gamma(n, 2) * math.sin(theta)
    assert _close(frame.vectors[0], want, 1e-12)


def test_versor_frames_are_orthonormal():
    rng = np.random.default_rng(RNG_SEED + 3)
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            frame = versor_frame(random_rotor(n, rng))
            m = frame.matrix()
            assert np.abs(m @ m.T - np.eye(n)).max() < 1e-10
            assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-10


def test_frame_matrix_is_rotation():
    rng = np.random.default_rng(RNG_SEED + 4)
    n = 4
    frame = versor_frame(random_rotor(n, rng))
    m = frame.matrix()
    assert np.allclose(m @ m.T, np.eye(n), atol=1e-12)
    assert abs(np.linalg.det(m) - 1.0) < 1e-10


def test_sandwich_identity_all_grades():
    rng = np.random.default_rng(RNG_SEED + 5)
    for n in (2, 3, 4, 5):
        frame = versor_frame(random_rotor(n, rng))
        for r in range(n + 1):
            blade = Multivector.blade(n, (1 << r) - 1, 1.0)
            got = sandwich_sum(blade, frame)
            want = blade * sandwich_factor(n, r)
            assert _close(got, want, 1e-10)


def test_sandwich_factor_table():
    # (-1)^r (N - 2r) straight from the anticommutation count
    assert sandwich_factor(4, 0) == 4.0
    assert sandwich_factor(4, 1) == -2.0
    assert sandwich_factor(4, 2) == 0.0
    assert sandwich_factor(4, 3) == 2.0
    assert sandwich_factor(4, 4) == -4.0


def test_versor_frame_rejects_odd_elements():
    with pytest.raises(ValueError):
        versor_frame(gamma(3, 1))


def test_versor_frame_rejects_non_unit():
    with pytest.raises(ValueError):
        versor_frame(Multivector.scalar(2, 2.0))


def test_versor_frame_matches_two_product_reference():
    rng = np.random.default_rng(RNG_SEED + 13)
    for n in range(2, 7):
        one = random_rotor(n, rng)
        batch = Multivector(n, np.stack([random_rotor(n, rng).coeffs for _ in range(6)]))
        for rotor in (one, batch):
            frame = versor_frame(rotor)
            for a in range(1, n + 1):
                want = (rotor.reverse() * gamma(n, a) * rotor).grade_project(1)
                assert np.array_equal(frame.vectors[a - 1].coeffs, want.coeffs)
        with pytest.raises(ValueError, match="not unit"):
            versor_frame(one * 1.001)
        with pytest.raises(ValueError, match="odd-grade"):
            versor_frame(one * gamma(n, 1))


def test_random_bivector_is_grade_two():
    rng = np.random.default_rng(RNG_SEED + 6)
    for n in (2, 4, 6):
        b = random_bivector(n, rng)
        assert b.grades() == [2]


def test_vector_round_trip():
    v = np.array([0.3, -1.2, 0.5])
    mv = Multivector.from_vector(3, v)
    assert np.allclose(mv.vector_part(), v)
    assert mv.grades() == [1]


def _bincount_product(n, a, b):
    """Reference product of one pair: scatter-add over the Cayley table.

    Blade i times blade j lands on blade i ^ j; its sign counts the
    generators of j that move left past a higher generator of i.
    """
    size = 1 << n
    blades = np.arange(size)
    index = (blades[:, None] ^ blades[None, :]).ravel()
    signs = np.array([[(-1.0) ** sum(bin(i >> (k + 1)).count("1")
                                     for k in range(n) if j >> k & 1)
                       for j in range(size)] for i in range(size)])
    terms = (a[:, None] * b[None, :]) * signs
    return np.bincount(index, weights=terms.ravel(), minlength=size)


def test_batched_product_matches_per_point():
    rng = np.random.default_rng(RNG_SEED + 7)
    for n in (2, 3, 4, 5):
        a = rng.standard_normal((3, 4, 2 ** n))
        b = rng.standard_normal((3, 4, 2 ** n))
        batch = (Multivector(n, a) * Multivector(n, b)).coeffs
        assert batch.shape == a.shape
        for i in np.ndindex(3, 4):
            one = (Multivector(n, a[i]) * Multivector(n, b[i])).coeffs
            assert np.array_equal(batch[i], one)
        # a single multivector broadcasts against the batch
        g = gamma(n, 2)
        left = (g * Multivector(n, b)).coeffs
        assert np.array_equal(left[1, 2], (g * Multivector(n, b[1, 2])).coeffs)


def test_product_matches_bincount_reference():
    rng = np.random.default_rng(RNG_SEED + 8)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            a = rng.standard_normal(2 ** n)
            b = rng.standard_normal(2 ** n)
            got = (Multivector(n, a) * Multivector(n, b)).coeffs
            assert np.array_equal(got, _bincount_product(n, a, b))


def _dense_product(n, a, b):
    """The product over the full Cayley table, every blade of a times every
    blade of b, summed over a in ascending order."""
    partner, signs, _ = clifford._tables(n)
    return ((a[..., :, None] * b[..., partner]) * signs).sum(axis=-2)


def _operand_kinds(n, rng):
    """(3, 4) batches: dense, even, odd, each single grade, one blade, zero,
    and a batch whose points each keep their own random blades."""
    g = clifford.blade_grades(n)
    x = rng.standard_normal((3, 4, 1 << n))
    yield x
    yield x * (g % 2 == 0)
    yield x * (g % 2 == 1)
    for r in range(n + 1):
        yield x * (g == r)
    yield x * (np.arange(1 << n) == (1 << n) - 2)
    yield np.zeros_like(x)
    yield x * (rng.random(x.shape) < 0.4)


def test_product_is_bitwise_the_dense_product():
    # only exact-zero terms are skipped, so only the sign of a zero sum may move
    rng = np.random.default_rng(RNG_SEED + 14)
    for n in range(1, 7):
        kinds = list(_operand_kinds(n, rng))
        for a in kinds:
            for b in kinds:
                for x, y in ((a, b), (a[1, 2], b), (a, b[0, 3])):
                    got = (Multivector(n, x) * Multivector(n, y)).coeffs + 0.0
                    want = _dense_product(n, x, y) + 0.0
                    assert got.shape == want.shape == (3, 4, 1 << n)
                    assert got.tobytes() == want.tobytes()


def test_batched_exp_matches_per_point():
    rng = np.random.default_rng(RNG_SEED + 9)
    n = 4
    # scales from 0.01 to 40: from no squaring up to eight in one batch
    scales = np.geomspace(0.01, 40.0, 12)[:, None]
    x = rng.standard_normal((12, 2 ** n)) * scales
    batch = exp(Multivector(n, x)).coeffs
    for i in range(12):
        assert np.array_equal(batch[i], exp(Multivector(n, x[i])).coeffs)


def test_batched_frame_matrix_and_grades():
    rng = np.random.default_rng(RNG_SEED + 10)
    n = 3
    rotors = [random_rotor(n, rng) for _ in range(5)]
    batch = versor_frame(Multivector(n, np.stack([u.coeffs for u in rotors])))
    m = batch.matrix()
    assert m.shape == (5, n, n)
    for i, u in enumerate(rotors):
        assert np.array_equal(m[i], versor_frame(u).matrix())
    assert np.abs(m @ m.transpose(0, 2, 1) - np.eye(n)).max() < 1e-10
    v = Multivector.from_vector(n, rng.standard_normal((5, n)))
    assert v.coeffs.shape == (5, 2 ** n) and v.grades() == [1]
