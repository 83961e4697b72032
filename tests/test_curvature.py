import random
from fractions import Fraction

import pytest

from starweight.curvature import CurvatureExpr, region_curvature

from spherical_diagrams import (
    FOUR_PI,
    DiagramError,
    grow_random,
    tetrahedron,
    total_curvature,
    vertex_curvature,
)


def pi_frac(n, d=1):
    return CurvatureExpr(Fraction(n, d))


# the twelve values cited in the case analysis
PAPER_VALUES = [
    ((4, 6, 6), False, CurvatureExpr(Fraction(1, 6))),
    ((4, 4, 6, 6), False, CurvatureExpr(Fraction(-1, 3))),
    ((3, 3, 3, 3, 5), False, CurvatureExpr(Fraction(1, 15))),
    ((3, 3, 3, 3, 3, 5), False, CurvatureExpr(Fraction(-4, 15))),
    ((3, 4, 4, 4), False, CurvatureExpr(Fraction(1, 6))),
    ((3, 4, 4, 5), False, CurvatureExpr(Fraction(1, 15))),
    ((4, 4, 4, 4, 4), False, CurvatureExpr(Fraction(-1, 2))),
    ((3, 4, 4, 4, 4), False, CurvatureExpr(Fraction(-1, 3))),
    ((3, 3, 4, 4, 4), False, CurvatureExpr(Fraction(-1, 6))),
    ((4, 4, 4, 6), False, CurvatureExpr(Fraction(-1, 6))),
    ((3, 3, 3), True, CurvatureExpr(Fraction(0), Fraction(2))),
    ((3, 3, 3, 3), True, CurvatureExpr(Fraction(-1, 3), Fraction(2))),
]


@pytest.mark.parametrize("degrees,boundary,expected", PAPER_VALUES)
def test_cited_curvature_values(degrees, boundary, expected):
    assert region_curvature(degrees, boundary=boundary) == expected


def test_region_curvature_square():
    assert region_curvature((4, 4, 4, 4)) == CurvatureExpr()


def test_region_curvature_rejects_degree_two():
    with pytest.raises(ValueError):
        region_curvature((2, 4, 4))


def test_region_curvature_monotone():
    for k in range(1, 6):
        for base in range(3, 12):
            degrees = [base] * k
            c0 = region_curvature(degrees)
            bumped = degrees[:-1] + [base + 1]
            assert region_curvature(bumped).a < c0.a
            assert region_curvature(degrees + [12]).a < c0.a


def test_vertex_curvature_uniform_triangles():
    # eight corners in 3-gons: 2*pi - 8*(pi/3) = -2*pi/3
    assert vertex_curvature([3] * 8) == CurvatureExpr(Fraction(-2, 3))


def test_vertex_curvature_case3_boundary():
    # corners (2,2,2,3,3,3,3,k0): 2*pi - [4*(pi/3) + (k0-2)*pi/k0]
    got = vertex_curvature([2, 2, 2, 3, 3, 3, 3], boundary=True)
    assert got == CurvatureExpr(Fraction(2) - Fraction(4, 3) - 1, Fraction(2))
    assert got == CurvatureExpr(Fraction(-1, 3), Fraction(2))


def test_vertex_curvature_single_two_gon_corner():
    assert vertex_curvature([2]) == CurvatureExpr(Fraction(2))


def test_expr_formatting():
    assert str(CurvatureExpr(Fraction(1, 6))) == "pi/6"
    assert str(CurvatureExpr(Fraction(-1, 3))) == "-pi/3"
    assert str(CurvatureExpr(Fraction(-1, 3), Fraction(2))) == "-pi/3 + 2*pi/k0"
    assert str(CurvatureExpr(Fraction(0), Fraction(2))) == "2*pi/k0"
    assert str(CurvatureExpr()) == "0"
    assert str(CurvatureExpr(Fraction(2, 3))) == "2*pi/3"


def compare(x: CurvatureExpr, other: CurvatureExpr) -> str:
    """'always-less' | 'always-geq' | 'depends', quantified over integer
    k0 >= 3: the paper's comparisons of curvature against multiples of
    pi/k0."""
    da, db = x.a - other.a, x.b - other.b
    if db == 0:
        return "always-less" if da < 0 else "always-geq"
    # d(k0) = da + db/k0 is monotone in k0; check k0 = 3 and the limit da
    at3 = da + Fraction(db, 3)
    if at3 < 0 and da <= 0:
        return "always-less"
    if at3 >= 0 and da >= 0:
        return "always-geq"
    return "depends"


def test_compare_against_4pi_over_k0():
    four = CurvatureExpr(Fraction(0), Fraction(4))
    # c(k0,3,3,3) = 2*pi/k0 < 4*pi/k0 always
    assert compare(region_curvature((3, 3, 3), boundary=True), four) == "always-less"
    # c(k0,3,3,3,3,3) + pi/15 = 2*pi/k0 - 3*pi/5 < 4*pi/k0
    e = region_curvature((3, 3, 3, 3, 3), boundary=True) + CurvatureExpr(Fraction(1, 15))
    assert e == CurvatureExpr(Fraction(-3, 5), Fraction(2))
    assert compare(e, four) == "always-less"
    # 4*pi is not always below 4*pi/k0
    assert compare(FOUR_PI, four) == "always-geq"


def test_tetrahedron_total_curvature():
    d = tetrahedron()
    assert total_curvature(d, "vertex-angles") == FOUR_PI
    assert total_curvature(d, "corner-angles") == FOUR_PI
    # each region of the tetrahedral map has curvature pi
    assert region_curvature([3, 3, 3]) == CurvatureExpr(Fraction(1))


def test_cube_like_regions():
    # cube map: six squares, eight degree-3 vertices, c(3,3,3,3) = 2*pi/3 each
    assert region_curvature([3, 3, 3, 3]) == CurvatureExpr(Fraction(2, 3))
    assert sum([region_curvature([3, 3, 3, 3])] * 6, CurvatureExpr()) == FOUR_PI


def test_total_curvature_invalid_diagram():
    d = tetrahedron()
    d.faces[0] = [0, 1]  # break the pairing/Euler structure
    with pytest.raises(DiagramError):
        total_curvature(d)


@pytest.mark.parametrize("seed", range(20))
def test_total_curvature_random_growth(seed):
    rng = random.Random(seed)
    d = grow_random(rng, n_ops=rng.randrange(1, 14))
    assert total_curvature(d, "vertex-angles") == FOUR_PI
    assert total_curvature(d, "corner-angles") == FOUR_PI
