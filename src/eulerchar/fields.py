"""Smooth vector fields phi: R^N -> R^N with batch evaluation.

Every field evaluates a batch of points, evaluate_many, and returns its
jet, jet_many: phi, with the bits evaluate_many gives, and its exact
Jacobian J from one call, so no layer evaluates phi twice; one point is a
batch of one.  A polynomial computes each coordinate power once a call for
phi and J; a complex product shares its factors; a generic callable comes
with its own Jacobian, and the chart pushforward applies the chain rule to
its inner field's jet.  Nothing is differenced.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import add, mul

import numpy as np


class FieldError(ValueError):
    pass


class VectorField:
    """Base class; subclasses must set dimension, evaluate_many and jet_many."""

    dimension: int
    name: str = "field"

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jet_many(self, pts: np.ndarray):
        """(phi, J): values (m, N) and exact Jacobians (m, N, N), J[p, i, j] = d phi_i / d x_j."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} N={self.dimension}>"


class PolynomialField(VectorField):
    """Components are real polynomials given as (exponent-tuple, coeff) terms."""

    def __init__(self, dimension, components, name="polynomial"):
        if len(components) != dimension:
            raise FieldError(
                f"need {dimension} components, got {len(components)}"
            )
        self.dimension = dimension
        self.name = name
        self.components = []
        for terms in components:
            clean = []
            for exps, coeff in terms:
                exps = tuple(int(e) for e in exps)
                if len(exps) != dimension or any(e < 0 for e in exps):
                    raise FieldError(f"bad exponent tuple {exps}")
                clean.append((exps, float(coeff)))
            self.components.append(tuple(clean))
        # partial derivatives, differentiated term by term
        self._deriv = []
        for terms in self.components:
            row = []
            for j in range(dimension):
                dterms = []
                for exps, coeff in terms:
                    if exps[j] == 0:
                        continue
                    d = list(exps)
                    d[j] -= 1
                    dterms.append((tuple(d), coeff * exps[j]))
                row.append(tuple(dterms))
            self._deriv.append(row)

    @staticmethod
    def _eval_terms(terms, power):
        """Sum of the terms from 0.0 on, in term order; a float while every term is constant."""
        acc = 0.0
        for exps, coeff in terms:
            mono = coeff
            for j, e in enumerate(exps):
                if e:
                    mono = mono * power(j, e)
            acc = acc + mono
        return acc

    def _jet(self, pts, jacobian: bool):
        pts = np.asarray(pts, dtype=float)
        power = lru_cache(maxsize=None)(lambda j, e: pts[:, j] ** e)  # each power once a call
        phi = np.empty(pts.shape)
        for i, terms in enumerate(self.components):
            phi[:, i] = self._eval_terms(terms, power)
        if not jacobian:
            return phi
        jac = np.empty((len(pts), self.dimension, self.dimension))
        for i, row in enumerate(self._deriv):
            for j, terms in enumerate(row):
                jac[:, i, j] = self._eval_terms(terms, power)
        return phi, jac

    def evaluate_many(self, pts):
        return self._jet(pts, jacobian=False)

    def jet_many(self, pts):
        return self._jet(pts, jacobian=True)

    def to_spec(self):
        return {
            "kind": "polynomial",
            "dimension": self.dimension,
            "components": [
                [[list(exps), coeff] for exps, coeff in terms]
                for terms in self.components
            ],
        }


class ComplexProductField(VectorField):
    """Planar field f(z) = prod (z - a_i) * prod (conj(z) - conj(b_j)).

    Zeros at the a_i carry index +1 each (counted with multiplicity) and
    zeros at the b_j carry index -1 each; repeated roots give degenerate
    zeros of higher |index|.  Jacobians come from the Wirtinger
    derivatives, accumulated by the product rule so they stay finite at
    repeated roots.
    """

    def __init__(self, roots=(), conj_roots=(), name="complex-product"):
        self.dimension = 2
        self.name = name
        self.roots = tuple(complex(r) for r in roots)
        self.conj_roots = tuple(complex(r) for r in conj_roots)
        if not self.roots and not self.conj_roots:
            raise FieldError("need at least one factor")

    def _factors(self, pts):
        z = pts[:, 0] + 1j * pts[:, 1]
        return [z - a for a in self.roots] + [np.conj(z) - np.conj(b) for b in self.conj_roots]

    def evaluate_many(self, pts):
        f = reduce(mul, self._factors(np.asarray(pts, dtype=float)), 1.0)
        return np.column_stack([f.real, f.imag])

    def jet_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        factors, h = self._factors(pts), len(self.roots)
        # the product with one factor removed, from prefix and suffix products;
        # the last prefix is f itself
        prefix = list(accumulate(factors, mul, initial=1.0))
        suffix = list(accumulate(reversed(factors), mul, initial=1.0))
        rest = [prefix[i] * suffix[-2 - i] for i in range(len(factors))]
        p, q = reduce(add, rest[:h], 0.0), reduce(add, rest[h:], 0.0)  # d/dz, d/dconj(z)
        # f = u + iv, z = x + iy: J = [[Re(p+q), -Im(p-q)], [Im(p+q), Re(p-q)]]
        jac = np.empty((len(pts), 2, 2))
        jac[:, 0, 0], jac[:, 0, 1] = (p + q).real, -(p - q).imag
        jac[:, 1, 0], jac[:, 1, 1] = (p + q).imag, (p - q).real
        return np.column_stack([prefix[-1].real, prefix[-1].imag]), jac

    def to_spec(self):
        enc = lambda r: [r.real, r.imag]
        return {
            "kind": "complex-product",
            "roots": [enc(r) for r in self.roots],
            "conj_roots": [enc(r) for r in self.conj_roots],
        }


class CallableField(VectorField):
    """Wrap a plain callable and its Jacobian; vectorizes per point unless batch=True."""

    def __init__(self, dimension, func, jac, name="callable", batch=False):
        self.dimension = dimension
        self.name = name
        self._func = func
        self._jac = jac
        self._batch = batch

    def _apply(self, fn, pts):
        pts = np.asarray(pts, dtype=float)
        if self._batch:
            return np.asarray(fn(pts), dtype=float)
        return np.stack([np.asarray(fn(p), dtype=float) for p in pts])

    def evaluate_many(self, pts):
        return self._apply(self._func, pts)

    def jet_many(self, pts):
        return self._apply(self._func, pts), self._apply(self._jac, pts)


def linear_field(matrix, offset=None, name="linear") -> PolynomialField:
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise FieldError("linear field needs a square matrix")
    offset = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    comps = []
    for i in range(n):
        terms = []
        if offset[i] != 0.0:
            terms.append((tuple([0] * n), offset[i]))
        for j in range(n):
            if matrix[i, j] != 0.0:
                e = [0] * n
                e[j] = 1
                terms.append((tuple(e), matrix[i, j]))
        if not terms:
            terms.append((tuple([0] * n), 0.0))
        comps.append(terms)
    return PolynomialField(n, comps, name=name)


def identity_field(dimension, name="identity") -> PolynomialField:
    return linear_field(np.eye(dimension), name=name)


def constant_field(components, name="constant") -> PolynomialField:
    components = np.asarray(components, dtype=float)
    n = components.size
    return linear_field(np.zeros((n, n)), offset=components, name=name)


def rotation_field(dimension=2, name="rotation") -> PolynomialField:
    """(-y, x) in the plane; block-diagonal copies in higher even dims."""
    if dimension % 2:
        raise FieldError("rotation field needs even dimension")
    m = np.zeros((dimension, dimension))
    for k in range(0, dimension, 2):
        m[k, k + 1] = -1.0
        m[k + 1, k] = 1.0
    return linear_field(m, name=name)


def saddle_field(name="saddle") -> PolynomialField:
    return linear_field(np.diag([1.0, -1.0]), name=name)


def complex_power_field(k: int, name=None) -> ComplexProductField:
    """z^k for k > 0, conj(z)^|k| for k < 0; planar degree-k model field."""
    if k == 0:
        raise FieldError("use constant_field for degree 0")
    nm = name or f"z^{k}" if k > 0 else name or f"conj(z)^{-k}"
    if k > 0:
        return ComplexProductField(roots=[0.0] * k, name=nm)
    return ComplexProductField(conj_roots=[0.0] * (-k), name=nm)


def quaternion_square_field(name="quaternion-square") -> PolynomialField:
    """q -> q^2 on R^4 read as quaternions (w, x, y, z); Brouwer degree 2."""
    w, x, y, z = range(4)

    def mono(axis, power_axes):
        e = [0, 0, 0, 0]
        for a in power_axes:
            e[a] += 1
        return tuple(e)

    comps = [
        [(mono(0, [w, w]), 1.0), (mono(0, [x, x]), -1.0),
         (mono(0, [y, y]), -1.0), (mono(0, [z, z]), -1.0)],
        [(mono(0, [w, x]), 2.0)],
        [(mono(0, [w, y]), 2.0)],
        [(mono(0, [w, z]), 2.0)],
    ]
    return PolynomialField(4, comps, name=name)


def s2_rotation_field(name="s2-rotation") -> PolynomialField:
    """Ambient R^3 field (-y, x, 0); tangent to every centered sphere."""
    m = np.zeros((3, 3))
    m[0, 1] = -1.0
    m[1, 0] = 1.0
    return linear_field(m, name=name)


def s2_height_gradient_field(name="s2-height-gradient") -> PolynomialField:
    """Tangential gradient of the height z on the unit sphere: e_z - z p."""
    comps = [
        [((1, 0, 1), -1.0)],
        [((0, 1, 1), -1.0)],
        [((0, 0, 0), 1.0), ((0, 0, 2), -1.0)],
    ]
    return PolynomialField(3, comps, name=name)


def torus_sines_field(name="torus-sines") -> CallableField:
    """(sin 2 pi x, sin 2 pi y): four unit-period zeros with indices summing to 0."""
    tau = 2.0 * np.pi

    def ev(pts):
        return np.sin(tau * pts)

    def jac(pts):
        m = pts.shape[0]
        out = np.zeros((m, 2, 2))
        out[:, 0, 0] = tau * np.cos(tau * pts[:, 0])
        out[:, 1, 1] = tau * np.cos(tau * pts[:, 1])
        return out

    return CallableField(2, ev, jac=jac, name=name, batch=True)


_BUILTINS = {
    "identity": lambda p: identity_field(int(p.get("dimension", 2))),
    "inward-radial": lambda p: linear_field(
        -np.eye(int(p.get("dimension", 2))), name="inward-radial"),
    "constant": lambda p: constant_field(p["components"]),
    "rotation": lambda p: rotation_field(int(p.get("dimension", 2))),
    "saddle": lambda p: saddle_field(),
    "complex-power": lambda p: complex_power_field(int(p["degree"])),
    "quaternion-square": lambda p: quaternion_square_field(),
    "s2-rotation": lambda p: s2_rotation_field(),
    "s2-height-gradient": lambda p: s2_height_gradient_field(),
    "torus-sines": lambda p: torus_sines_field(),
}


def builtin_field(name, **params) -> VectorField:
    try:
        make = _BUILTINS[name]
    except KeyError:
        raise FieldError(
            f"unknown builtin field {name!r}; have {sorted(_BUILTINS)}"
        ) from None
    field = make(params)
    field.name = name
    return field


def builtin_names():
    return sorted(_BUILTINS)


def field_from_spec(spec: dict) -> VectorField:
    """Build a field from its JSON description."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FieldError("field spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "polynomial":
        return PolynomialField(int(spec["dimension"]), [
            [(tuple(exps), coeff) for exps, coeff in comp]
            for comp in spec["components"]
        ])
    if kind == "complex-product":
        dec = lambda pair: complex(pair[0], pair[1])
        return ComplexProductField(
            roots=[dec(r) for r in spec.get("roots", [])],
            conj_roots=[dec(r) for r in spec.get("conj_roots", [])],
        )
    if kind == "builtin":
        params = {k: v for k, v in spec.items() if k not in ("kind", "name")}
        return builtin_field(spec["name"], **params)
    raise FieldError(f"unknown field kind {kind!r}")
