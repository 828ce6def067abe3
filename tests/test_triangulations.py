"""Combinatorial Euler characteristics: the analysis-free oracle."""

import pytest

from eulerchar.triangulations import (
    ComplexError,
    SimplicialComplex,
    catalog,
    catalog_names,
    chi_oracle,
    cross_polytope_boundary,
)

EXPECTED_CHI = {
    "S2": 2, "S4": 2, "T2": 0, "B2": 1, "B4": 1, "S1": 0, "S3": 0,
}


def test_catalog_names_complete():
    assert set(catalog_names()) == set(EXPECTED_CHI)


@pytest.mark.parametrize("name", sorted(EXPECTED_CHI))
def test_catalog_chi(name):
    assert chi_oracle(name) == EXPECTED_CHI[name]
    c = catalog(name)
    assert c.euler_characteristic() == EXPECTED_CHI[name]


def test_triangle_counts():
    c = SimplicialComplex.from_maximal([(0, 1, 2)])
    assert c.face_counts() == [3, 3, 1]
    assert c.euler_characteristic() == 1


def test_circle_counts():
    c = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
    assert c.face_counts() == [3, 3]
    assert c.euler_characteristic() == 0


def test_cross_polytope_boundary_spheres():
    # boundary of the d-cross-polytope is S^(d-1): chi alternates 0 / 2
    for d in (2, 3, 4, 5):
        c = cross_polytope_boundary(d)
        assert c.euler_characteristic() == (2 if (d - 1) % 2 == 0 else 0)
        assert c.face_counts()[0] == 2 * d
        assert c.face_counts()[-1] == 2 ** d


def test_octahedron_counts():
    c = cross_polytope_boundary(3)
    assert c.face_counts() == [6, 12, 8]


def test_torus_is_a_closed_surface():
    t = catalog("T2")
    assert t.face_counts() == [7, 21, 14]
    # every edge in exactly two triangles
    from collections import Counter
    cnt = Counter()
    for tri in t.by_dim[2]:
        for e in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
            cnt[e] += 1
    assert set(cnt.values()) == {2}


def test_face_closure_enforced():
    with pytest.raises(ComplexError):
        SimplicialComplex([(0, 1, 2)])  # missing edges and vertices
    with pytest.raises(ComplexError):
        SimplicialComplex([(0, 0, 1)])  # repeated vertex


def test_from_maximal_closes_faces():
    c = SimplicialComplex.from_maximal([(3, 1, 7)])
    assert (1, 3) in c.by_dim[1]
    assert (7,) in c.by_dim[0]


def test_chi_oracle_unknown_name():
    with pytest.raises(ComplexError):
        chi_oracle("K3")
