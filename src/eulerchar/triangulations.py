"""Reference triangulations and combinatorial Euler characteristics.

The alternating face-count sum over a finite simplicial complex is the
one route to chi in this package that involves no analysis at all, so it
serves as the oracle the winding, boundary, and curvature routes are
checked against.  Complexes are stored as sorted vertex-id tuples per
dimension and validated for face closure on construction.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np


class ComplexError(ValueError):
    pass


class SimplicialComplex:
    """Finite abstract simplicial complex, closed under taking faces."""

    def __init__(self, simplices, name="complex"):
        self.name = name
        self.by_dim = {}
        for s in simplices:
            key = tuple(sorted(int(v) for v in s))
            if len(set(key)) != len(key):
                raise ComplexError(f"repeated vertex in simplex {s}")
            self.by_dim.setdefault(len(key) - 1, set()).add(key)
        if not self.by_dim:
            raise ComplexError("empty complex")
        self.validate()

    @classmethod
    def from_maximal(cls, facets, name="complex"):
        """Close a facet list under taking faces."""
        closed = set()
        for f in facets:
            f = tuple(sorted(int(v) for v in f))
            for k in range(1, len(f) + 1):
                closed.update(combinations(f, k))
        return cls(closed, name=name)

    def validate(self):
        for d, cells in self.by_dim.items():
            if d == 0:
                continue
            lower = self.by_dim.get(d - 1, set())
            for cell in cells:
                for face in combinations(cell, d):
                    if face not in lower:
                        raise ComplexError(
                            f"face {face} of {cell} missing from the complex"
                        )

    def face_counts(self) -> list:
        top = max(self.by_dim)
        return [len(self.by_dim.get(d, ())) for d in range(top + 1)]

    def euler_characteristic(self) -> int:
        return int(sum((-1) ** d * c for d, c in enumerate(self.face_counts())))

    @property
    def dimension(self) -> int:
        return max(self.by_dim)

    def __repr__(self):
        return f"<SimplicialComplex {self.name!r} counts={self.face_counts()}>"


def euler_characteristic(c: SimplicialComplex) -> int:
    return c.euler_characteristic()


def barycentric_subdivision(c: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision: simplices are chains of faces."""
    # grow chains in order of increasing dimension so every face's chain
    # list is complete before it gets extended
    all_simplices = sorted((s for cells in c.by_dim.values() for s in cells),
                           key=lambda s: (len(s), s))
    ident = {s: i for i, s in enumerate(all_simplices)}
    chains = {s: [(s,)] for s in all_simplices}
    for s in all_simplices:
        if len(s) == 1:
            continue
        grown = []
        for k in range(1, len(s)):
            for face in combinations(s, k):
                grown.extend(ch + (s,) for ch in chains[face])
        chains[s].extend(grown)
    out = set()
    for s in all_simplices:
        for ch in chains[s]:
            out.add(tuple(ident[f] for f in ch))
    return SimplicialComplex(out, name=f"subdiv({c.name})")


# -- catalog ------------------------------------------------------------


def cross_polytope_facets(d: int) -> list:
    """Facets of the boundary of the d-dimensional cross-polytope.

    Vertices 2a and 2a+1 are the opposite pair on axis a; facets pick one
    vertex from each pair.
    """
    return [tuple(2 * a + s for a, s in enumerate(signs))
            for signs in np.ndindex(*(2,) * d)]


def cross_polytope_boundary(d: int, name=None) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope: a sphere S^(d-1)."""
    return SimplicialComplex.from_maximal(
        cross_polytope_facets(d), name=name or f"cross-polytope-S{d - 1}"
    )


def _torus_7() -> SimplicialComplex:
    """Minimal 7-vertex triangulation of the 2-torus."""
    facets = []
    for i in range(7):
        facets.append((i, (i + 1) % 7, (i + 3) % 7))
        facets.append((i, (i + 2) % 7, (i + 3) % 7))
    return SimplicialComplex.from_maximal(facets, name="torus-7")

def _cone(base: SimplicialComplex, name) -> SimplicialComplex:
    """Cone over a complex: join every simplex to one new apex vertex."""
    apex = 1 + max(v for cells in base.by_dim.values()
                   for s in cells for v in s)
    facets = [s + (apex,) for s in base.by_dim[base.dimension]]
    return SimplicialComplex.from_maximal(facets, name=name)


_CATALOG = {
    "S2": lambda: cross_polytope_boundary(3, name="octahedron-S2"),
    "S4": lambda: cross_polytope_boundary(5, name="cross-polytope-S4"),
    "T2": _torus_7,
    "B2": lambda: SimplicialComplex.from_maximal([(0, 1, 2)], name="triangle-B2"),
    "B4": lambda: _cone(cross_polytope_boundary(4), name="cone-B4"),
    "S1": lambda: cross_polytope_boundary(2, name="square-S1"),
    "S3": lambda: cross_polytope_boundary(4, name="cross-polytope-S3"),
}


def catalog(name: str) -> SimplicialComplex:
    try:
        make = _CATALOG[name]
    except KeyError:
        raise ComplexError(
            f"unknown catalog complex {name!r}; have {sorted(_CATALOG)}"
        ) from None
    return make()


def catalog_names() -> list:
    return sorted(_CATALOG)


@lru_cache(maxsize=None)
def chi_oracle(name: str) -> int:
    return catalog(name).euler_characteristic()
