"""A seeded census of linear fields on B^4: every draw certifies or says it cannot.

The draws are A(x - c) on the unit B^4 with A = normal(4, 4) and
c = 0.2 * normal(4), taken in turn from default_rng(1); draw k is the
k-th pair, counted from 0.  The census lists the draws that one fixed
rule per winding (221,184 nodes in R^4, 4,608 in the S^3 charts) could
not certify: 28 interior windings off an integer at cond(A) from 42 to
674, two confident wrong integers at cond(A) 1,600 and 7,500, and four
S^3 boundary charts.  The preconditioned ladder certifies all of them
but draw 165, and three draws that always passed stay in as controls.

The same draws also go through the index-sum route.  The plain winding
of the enclosing sphere could not certify 61 of them (cond(A) from 13
to 7,537); its affine-fit preconditioner certifies them all, at the
default rule and at the coarse rule of resolution scale 0.2, where the
plain winding certified 0 for draws 50 and 128.  At that scale a fit read
off the rule's moments, which miss those of the sphere by 1.4e-3, left
four draws 0.10 to 0.16 apart on the top rule and the level below.  The
least-squares fit recovers A to rounding, so P phi is s - a to rounding and
its homotopy margin certifies the enclosing degree with no quadrature, for
all six and for every other draw.

The close-pair family puts k = 3 or 4 pairs of opposite-index zeros 0.01
apart in the unit disk.  The grid scan cannot separate a pair, so most
fields lose zeros: CLOSE_PAIR_OUTCOMES pins what each of the 30 fields
gives, so that a change to zero finding or winding shows field by field.
"""

import numpy as np
import pytest

from eulerchar.boundary import chi_with_boundary
from eulerchar.domains import BallDomain
from eulerchar.fields import ComplexProductField, VectorField, linear_field
from eulerchar.winding import UndersampledError, ZeroOnSphereError, default_quadrature
from eulerchar.zeros import ZeroFindingError, index_sum_with_excision

INTERIOR_UNDERSAMPLED = (22, 24, 25, 37, 50, 62, 72, 80, 83, 88, 104, 105, 107, 119,
                         128, 142, 145, 153, 161, 163, 169, 175, 178, 181, 186, 188,
                         195)
WRONG_INTEGER = (191, 192)
BOUNDARY_UNDERSAMPLED = (33, 155, 190, 193)
PASSING = (0, 1, 2)
# cond(A) = 60.6: a tangential zero in an S^3 chart whose winding has not
# converged at the 18,432-node top rule (1.315, and 0.51 from the level below)
STILL_UNCERTIFIED = (165,)
# the plain enclosing winding raised UndersampledError on these
ENCLOSING_UNDERSAMPLED = (2, 4, 6, 7, 11, 14, 22, 24, 30, 37, 46, 50, 51, 57, 59, 61, 62,
                          64, 65, 69, 70, 72, 76, 80, 83, 84, 88, 89, 101, 102, 104, 105,
                          107, 108, 112, 119, 124, 128, 130, 132, 134, 137, 138, 142, 145,
                          152, 153, 155, 157, 161, 163, 165, 169, 175, 178, 181, 186, 188,
                          191, 192, 195)
# at resolution scale 0.2 the plain enclosing winding certified 0 for these
COARSE_WRONG_INTEGER = (50, 128)
# at resolution scale 0.2 the moment-fitted enclosing winding read 0.990-1.002 at the
# top rule (10, 10, 19) and 0.10-0.16 from that at (5, 5, 10), the level below
COARSE_UNDERSAMPLED = (38, 122, 167, 183)


def _draws():
    rng = np.random.default_rng(1)
    out = []
    for _ in range(max(INTERIOR_UNDERSAMPLED + WRONG_INTEGER + BOUNDARY_UNDERSAMPLED
                       + STILL_UNCERTIFIED + ENCLOSING_UNDERSAMPLED
                       + COARSE_UNDERSAMPLED) + 1):
        a = rng.normal(size=(4, 4))
        out.append((a, 0.2 * rng.normal(size=4)))
    return out


DRAWS = _draws()
BALL = BallDomain((0.0,) * 4, 1.0)


@pytest.mark.parametrize("k", sorted(INTERIOR_UNDERSAMPLED + WRONG_INTEGER
                                     + BOUNDARY_UNDERSAMPLED + PASSING))
def test_census_draw_certifies(k):
    a, c = DRAWS[k]
    rep = chi_with_boundary(linear_field(a, offset=-a @ c), BALL)
    assert rep.chi_morse == rep.chi_oracle == 1
    assert rep.interior_sum == (1 if np.linalg.det(a) > 0 else -1)


@pytest.mark.parametrize("k", STILL_UNCERTIFIED)
def test_census_draw_left_uncertified_raises(k):
    a, c = DRAWS[k]
    with pytest.raises(UndersampledError):
        chi_with_boundary(linear_field(a, offset=-a @ c), BALL)


def assert_index_sum_certifies(k, quadrature=None):
    a, c = DRAWS[k]
    res = index_sum_with_excision(linear_field(a, offset=-a @ c), BALL, quadrature=quadrature)
    sign = 1 if np.linalg.det(a) > 0 else -1
    assert res.enclosing_winding == res.zero_sum == res.oracle_degree == sign
    assert res.agree and res.oracle_agree


@pytest.mark.parametrize("k", ENCLOSING_UNDERSAMPLED + PASSING[:2])
def test_census_index_sum_certifies(k):
    assert_index_sum_certifies(k)


@pytest.mark.parametrize("k", COARSE_WRONG_INTEGER + COARSE_UNDERSAMPLED)
def test_census_index_sum_certifies_at_a_coarse_rule(k):
    assert_index_sum_certifies(k, default_quadrature(4, 0.2))


class _PointCount(VectorField):
    """Delegates to a field and counts the points of its evaluate_many and jet_many calls."""

    def __init__(self, inner):
        self.inner, self.dimension, self.name, self.points = inner, inner.dimension, inner.name, 0

    def evaluate_many(self, pts):
        self.points += len(pts)
        return self.inner.evaluate_many(pts)

    def jet_many(self, pts):
        self.points += len(pts)
        return self.inner.jet_many(pts)


def test_census_draw_0_evaluates_each_point_once():
    # one jet per batch: no layer evaluates phi again at points it just evaluated
    # (the chart Jacobians once did, for 55,505 points in all)
    a, c = DRAWS[0]
    field = _PointCount(linear_field(a, offset=-a @ c))
    assert chi_with_boundary(field, BALL).chi_morse == 1
    assert field.points <= 41_000


def test_census_draw_0_index_sum_stops_the_enclosing_winding_early():
    # the margin certifies the enclosing sphere and the zero from 432 nodes each, with
    # no climb, 17,002 points in all; the plain enclosing winding went on to the
    # 27,648-node level, 51,994 points in all
    a, c = DRAWS[0]
    field = _PointCount(linear_field(a, offset=-a @ c))
    res = index_sum_with_excision(field, BALL)
    assert res.enclosing_winding == res.zero_sum == res.oracle_degree
    assert res.homotopy_margin is not None and res.zeros[0].homotopy_margin is not None
    assert field.points <= 18_000


def _close_pair_fields():
    """15 draws of k = 3 then k = 4 roots c in [-0.6, 0.6]^2, each with a conjugate
    root 0.01 away, from default_rng(3)."""
    rng = np.random.default_rng(3)
    for _ in range(15):
        for k in (3, 4):
            c = rng.uniform(-0.6, 0.6, (k, 2))
            angle = rng.uniform(0.0, 2.0 * np.pi, k)
            partners = c + 0.01 * np.column_stack([np.cos(angle), np.sin(angle)])
            yield k, ComplexProductField(roots=c[:, 0] + 1j * c[:, 1],
                                         conj_roots=partners[:, 0] + 1j * partners[:, 1])


# per field: "right", the number of zeros found where whole pairs are missed and the
# excision still agrees, or the error raised
CLOSE_PAIR_OUTCOMES = (
    4, ZeroFindingError, ZeroFindingError, 4, 4, ZeroOnSphereError, ZeroFindingError, 4,
    "right", ZeroOnSphereError, ZeroFindingError, 4, 4, ZeroFindingError, 4,
    ZeroFindingError, ZeroFindingError, ZeroFindingError, ZeroFindingError, 5,
    ZeroFindingError, ZeroFindingError, ZeroFindingError, ZeroFindingError,
    ZeroFindingError, ZeroFindingError, ZeroFindingError, ZeroFindingError,
    ZeroFindingError, 4)


def test_close_pair_family_outcomes():
    outcomes = []
    for k, field in _close_pair_fields():
        try:
            res = index_sum_with_excision(field, BallDomain((0.0, 0.0), 1.0))
        except (ZeroFindingError, ZeroOnSphereError) as err:
            outcomes.append(type(err))
            continue
        assert res.agree and res.oracle_agree and res.zero_sum == 0
        outcomes.append("right" if len(res.zeros) == 2 * k else len(res.zeros))
    assert tuple(outcomes) == CLOSE_PAIR_OUTCOMES
