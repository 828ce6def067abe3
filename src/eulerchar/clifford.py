"""Real Clifford algebra Cl(N) with positive-definite signature.

A multivector is stored densely as 2^N coefficients indexed by blade
bitmasks: bit a of the index set means the basis vector gamma_{a+1} is a
factor of that blade, so index 0 is the scalar, index 0b11 is
gamma_1 gamma_2, and index 2^N - 1 is the pseudoscalar.  A batch of
points stacks coefficients along leading axes, (..., 2^N).  A product
multiplies only the blades present in its operands (nonzero at any point
of the batch), through the sign/index Cayley table restricted to that
pair of supports and cached per pair, so it is one vectorized gather and
signed sum with the dense table's bits.

exp takes a closed form, exp B = C + B S with C and S in span{1, I},
for bivectors in Cl(2)-Cl(4), and a scaled series for every other
argument.  A product with a basis vector or the pseudoscalar is a signed
permutation of coefficients, read from the same tables: versor_frame
and the closed form use it in place of a full product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DIMENSION = 8
VERSOR_TOL = 1e-10

# exp() series control: scale argument below this norm, then square back up
_EXP_SCALE_LIMIT = 0.5
_EXP_TERMS = 16


class CliffordError(ValueError):
    """Structural misuse of the algebra (bad dimension, grade, versor...)."""


def _merge_sign(a: int, b: int) -> float:
    """Sign from reordering the blade product a * b into canonical order.

    Counts transpositions needed to move each generator of b past the
    higher-index generators of a; odd count flips the sign.
    """
    a >>= 1
    swaps = 0
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1.0 if swaps & 1 else 1.0


@lru_cache(maxsize=MAX_DIMENSION + 1)
def _tables(n: int):
    """(partner[a, k] = a ^ k, sign of blade a times its partner, grades) for Cl(n)."""
    if not 1 <= n <= MAX_DIMENSION:
        raise CliffordError(f"dimension must be in 1..{MAX_DIMENSION}, got {n}")
    size = 1 << n
    blades = np.arange(size)
    partner = blades[:, None] ^ blades[None, :]
    signs = np.array([[_merge_sign(a, b) for b in row] for a, row in enumerate(partner)])
    grades = np.array([bin(b).count("1") for b in range(size)])
    return partner, signs, grades


def blade_grades(n: int) -> np.ndarray:
    return _tables(n)[2]


def _support(coeffs: np.ndarray) -> int:
    """Bitmask of the blades with a nonzero coefficient at any point."""
    present = coeffs.reshape(-1, coeffs.shape[-1]).any(axis=0)
    return int.from_bytes(np.packbits(present, bitorder="little").tobytes(), "little")


@lru_cache(maxsize=256)
def _product_tables(n: int, support_a: int, support_b: int):
    """(rows, cols, src, signs): the Cayley table of Cl(n) restricted to the
    present blades of a (rows) and the blades a ^ b they reach (cols);
    blade a = rows[i] times blade src[i, j] lands on cols[j]."""
    partner, signs, _ = _tables(n)
    rows, bs = ([k for k in range(1 << n) if s >> k & 1] for s in (support_a, support_b))
    cols = np.unique(partner[np.ix_(rows, bs)])
    cut = np.ix_(rows, cols)
    return np.array(rows, dtype=int), cols, partner[cut], signs[cut]


class Multivector:
    """Element of Cl(N) or a batch; immutable by convention (do not mutate coeffs)."""

    __slots__ = ("dimension", "coeffs")

    def __init__(self, dimension: int, coeffs):
        _tables(dimension)  # validates the dimension
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1:] != (1 << dimension,):
            raise CliffordError(
                f"expected {1 << dimension} coefficients for Cl({dimension}), "
                f"got shape {coeffs.shape}"
            )
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is read-only")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dimension: int) -> "Multivector":
        return Multivector(dimension, np.zeros(1 << dimension))

    @staticmethod
    def scalar(dimension: int, value: float) -> "Multivector":
        c = np.zeros(1 << dimension)
        c[0] = value
        return Multivector(dimension, c)

    @staticmethod
    def blade(dimension: int, mask: int, value: float = 1.0) -> "Multivector":
        if not 0 <= mask < (1 << dimension):
            raise CliffordError(f"blade mask {mask} out of range for Cl({dimension})")
        c = np.zeros(1 << dimension)
        c[mask] = value
        return Multivector(dimension, c)

    @staticmethod
    def from_vector(dimension: int, components) -> "Multivector":
        components = np.asarray(components, dtype=float)
        if components.shape[-1:] != (dimension,):
            raise CliffordError(
                f"vector needs {dimension} components, got {components.shape}"
            )
        c = np.zeros(components.shape[:-1] + (1 << dimension,))
        c[..., [1 << a for a in range(dimension)]] = components
        return Multivector(dimension, c)

    # -- ring operations ----------------------------------------------

    def _check_peer(self, other: "Multivector"):
        if self.dimension != other.dimension:
            raise CliffordError(
                f"mixed algebras Cl({self.dimension}) and Cl({other.dimension})"
            )

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check_peer(other)
            return Multivector(self.dimension, self.coeffs + other.coeffs)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Multivector):
            self._check_peer(other)
            return Multivector(self.dimension, self.coeffs - other.coeffs)
        return NotImplemented

    def __neg__(self):
        return Multivector(self.dimension, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_peer(other)
            rows, cols, src, signs = _product_tables(
                self.dimension, _support(self.coeffs), _support(other.coeffs))
            # ascending sum over a, row by row: a batch row has a single point's bits;
            # the rows and columns left out hold only exact-zero terms
            terms = (self.coeffs[..., rows, None] * other.coeffs[..., src]) * signs
            out = np.zeros(np.broadcast_shapes(self.coeffs.shape, other.coeffs.shape))
            out[..., cols] = terms.sum(axis=-2)
            return Multivector(self.dimension, out)
        if isinstance(other, (int, float)):
            return Multivector(self.dimension, self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.dimension, self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.dimension, self.coeffs / other)
        return NotImplemented

    # -- involutions and projections ----------------------------------

    def reverse(self) -> "Multivector":
        """Reversal: each grade-r part picks up (-1)^(r(r-1)/2)."""
        g = blade_grades(self.dimension)
        signs = np.where((g * (g - 1) // 2) % 2 == 0, 1.0, -1.0)
        return Multivector(self.dimension, self.coeffs * signs)

    def grade_project(self, r: int) -> "Multivector":
        if not 0 <= r <= self.dimension:
            raise CliffordError(
                f"grade {r} out of range for Cl({self.dimension})"
            )
        g = blade_grades(self.dimension)
        return Multivector(self.dimension, np.where(g == r, self.coeffs, 0.0))

    def grades(self, tol: float = 0.0) -> list[int]:
        """Grades with any coefficient magnitude above tol, at any point."""
        g = blade_grades(self.dimension)
        present = (np.abs(self.coeffs) > tol).reshape(-1, g.size).any(axis=0)
        return sorted(set(g[present].tolist()))

    def vector_part(self) -> np.ndarray:
        return self.coeffs[..., [1 << a for a in range(self.dimension)]]

    # -- metrics -------------------------------------------------------

    def norm(self) -> float:
        """Max-abs over blade coefficients (and over the points of a batch)."""
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self):
        if self.coeffs.ndim > 1:
            return f"<Cl({self.dimension}) batch of shape {self.coeffs.shape[:-1]}>"
        terms = []
        for mask in np.flatnonzero(np.abs(self.coeffs) > 1e-14):
            name = "1" if mask == 0 else "g" + "".join(
                str(a + 1) for a in range(self.dimension) if mask >> a & 1
            )
            terms.append(f"{self.coeffs[mask]:+.6g}*{name}")
        body = " ".join(terms) if terms else "0"
        return f"<Cl({self.dimension}) {body}>"


# -- module-level operation spellings ---------------------------------


def gamma(dimension: int, a: int) -> Multivector:
    """Basis vector gamma_a, 1-indexed."""
    if not 1 <= a <= dimension:
        raise CliffordError(f"gamma index {a} out of range 1..{dimension}")
    return Multivector.blade(dimension, 1 << (a - 1))


def pseudoscalar(dimension: int) -> Multivector:
    return Multivector.blade(dimension, (1 << dimension) - 1)


def commutator(a: Multivector, b: Multivector) -> Multivector:
    return a * b - b * a


def generator(a: int, b: int, dimension: int) -> Multivector:
    """Rotation generator in the (a,b) coordinate plane, a != b.

    Quarter commutator of the two basis vectors; for orthogonal gammas this
    is half their product, and exp(theta * generator) rotates by theta.
    """
    if a == b:
        raise CliffordError("generator needs two distinct axes")
    ga, gb = gamma(dimension, a), gamma(dimension, b)
    return (ga * gb - gb * ga) * 0.25


def _times_blade(a: Multivector, mask: int) -> np.ndarray:
    """Coefficients of a * blade(mask), a signed permutation of a's: blade
    k ^ mask times blade mask lands on k."""
    partner, signs, _ = _tables(a.dimension)
    src = partner[:, mask]
    return a.coeffs[..., src] * signs[src, np.arange(src.size)]


def _bivector_exp(b: Multivector) -> Multivector:
    """exp B = C + B S for a bivector B in Cl(2)-Cl(4), where B^2 = s + p I.

    I commutes with the even part, and in Cl(4) I^2 = 1, so span{1, I}
    splits over the idempotents (1 +- I)/2 and C, S are cos r, sin r / r
    at r+- = sqrt(-(s +- p)) (Roelfs & De Keninck, arXiv:2107.03771).
    Below N = 4, p = 0 and this is Rodrigues' formula.
    """
    top = (1 << b.dimension) - 1
    square = (b * b).coeffs
    s, p = square[..., 0], square[..., top]
    r = np.sqrt(np.maximum(0.0, -np.stack([s + p, s - p])))
    cos, sinc = np.cos(r), np.sinc(r / np.pi)
    out = b.coeffs * ((sinc[0] + sinc[1]) / 2)[..., None] \
        + _times_blade(b, top) * ((sinc[0] - sinc[1]) / 2)[..., None]
    out[..., 0] += (cos[0] + cos[1]) / 2
    out[..., top] += (cos[0] - cos[1]) / 2
    return Multivector(b.dimension, out)


def _series_exp(a: Multivector) -> Multivector:
    """Series exponential with scaling and squaring, point by point."""
    n = np.max(np.abs(a.coeffs), axis=-1)
    squarings = np.zeros(n.shape, dtype=int)
    while np.any(big := n * 0.5 ** squarings > _EXP_SCALE_LIMIT):
        squarings += big
    base = Multivector(a.dimension, a.coeffs * (0.5 ** squarings)[..., None])
    acc = Multivector.scalar(a.dimension, 1.0)
    term = Multivector.scalar(a.dimension, 1.0)
    for k in range(1, _EXP_TERMS + 1):
        term = term * base * (1.0 / k)
        acc = acc + term
    for j in range(squarings.max()):
        squared = np.where((squarings > j)[..., None], (acc * acc).coeffs, acc.coeffs)
        acc = Multivector(a.dimension, squared)
    return acc


def exp(a: Multivector) -> Multivector:
    """Exponential, point by point.

    In Cl(2)-Cl(4), points whose coefficients are exactly zero outside
    grade 2 take the closed form of _bivector_exp.  Every other point (any
    point for N >= 5, a non-bivector, a bivector with rounding leakage)
    takes the series with scaling and squaring.
    """
    if not 2 <= a.dimension <= 4:
        return _series_exp(a)
    bivector = ~np.any(a.coeffs[..., blade_grades(a.dimension) != 2], axis=-1)
    out = np.empty_like(a.coeffs)
    for points, method in ((bivector, _bivector_exp), (~bivector, _series_exp)):
        if np.any(points):
            out[points] = method(Multivector(a.dimension, a.coeffs[points])).coeffs
    return Multivector(a.dimension, out)


def random_bivector(dimension: int, rng: np.random.Generator,
                    scale: float = 1.0) -> Multivector:
    g = blade_grades(dimension)
    c = np.zeros(1 << dimension)
    idx = np.flatnonzero(g == 2)
    c[idx] = rng.normal(scale=scale, size=idx.size)
    return Multivector(dimension, c)


def random_rotor(dimension: int, rng: np.random.Generator,
                 scale: float = 1.0) -> Multivector:
    """exp of a random bivector: a unit versor in the spin group.

    One Newton-Schulz step U (3 - U~U)/2 squares away the small
    non-unitarity the truncated series leaves on large arguments.  It
    matters for N >= 5: in Cl(2)-Cl(4) exp takes its closed form, which
    is unit to rounding.
    """
    u = exp(random_bivector(dimension, rng, scale))
    correction = Multivector.scalar(dimension, 1.5) - (u.reverse() * u) * 0.5
    return u * correction


@dataclass(frozen=True)
class Frame:
    """Orthonormal vector frame u_i, each a grade-1 multivector (or a batch)."""

    dimension: int
    vectors: tuple

    def __post_init__(self):
        if len(self.vectors) != self.dimension:
            raise CliffordError(
                f"frame in Cl({self.dimension}) needs {self.dimension} vectors"
            )

    def matrix(self) -> np.ndarray:
        """Rows are the frame vectors' components in the gamma basis."""
        return np.stack([u.vector_part() for u in self.vectors], axis=-2)

    def orthonormality_residual(self) -> float:
        m = self.matrix()
        return float(np.max(np.abs(m @ np.swapaxes(m, -1, -2) - np.eye(self.dimension))))


def versor_frame(rotor: Multivector) -> Frame:
    """Frame u_i = U~ gamma_i U obtained by rotating the gamma basis.

    The reverse acts on the left so that exp(theta * generator(1,2,N))
    turns gamma_1 toward +gamma_2: versor_frame is counterclockwise in
    each generator plane.  Rejects versors that are not unit-normalized
    or carry odd-grade content, reporting the offending deviation.
    """
    n = rotor.dimension
    unit_dev = (rotor * rotor.reverse() - Multivector.scalar(n, 1.0)).norm()
    if unit_dev > VERSOR_TOL:
        raise CliffordError(f"versor is not unit: |UU~ - 1| = {unit_dev:.3e}")
    odd = sum(1 for r in rotor.grades(VERSOR_TOL) if r % 2)
    if odd:
        raise CliffordError("versor has odd-grade components; rotors only")
    rrev = rotor.reverse()
    vectors = []
    for a in range(1, n + 1):
        u = Multivector(n, _times_blade(rrev, 1 << (a - 1))) * rotor  # (U~ gamma_a) U
        leak = (u - u.grade_project(1)).norm()
        if leak > VERSOR_TOL:
            raise CliffordError(f"frame vector {a} is not grade 1 (leak {leak:.3e})")
        vectors.append(u.grade_project(1))
    return Frame(n, tuple(vectors))


def sandwich_sum(a: Multivector, frame: Frame) -> Multivector:
    """Sum_i u_i A u_i for homogeneous A of grade r.

    Equals (-1)^r (N - 2r) A for any orthonormal frame, which is the
    workhorse identity behind the connection decomposition.
    """
    if frame.dimension != a.dimension:
        raise CliffordError("frame and multivector dimensions differ")
    gs = a.grades(tol=1e-13)
    if len(gs) > 1:
        raise CliffordError(f"sandwich_sum needs homogeneous input, grades {gs}")
    acc = Multivector.zero(a.dimension)
    for u in frame.vectors:
        acc = acc + u * a * u
    return acc


def sandwich_factor(dimension: int, r: int) -> float:
    """Predicted eigenvalue (-1)^r (N - 2r) of the frame sandwich sum."""
    return float((-1) ** r * (dimension - 2 * r))
