from fractions import Fraction

from hypothesis import given, strategies as st

from cjl.field import GFp, QQ
from cjl.linalg import (Echelon, bareiss_rank, generic_rank_bareiss,
                        nullspace, poly_exact_div, rank, rref, solve)
from cjl.parse import parse_poly
from cjl.poly import RingContext

F = QQ()


def M(*rows):
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


def test_rref_and_rank_basic():
    A = M([1, 2, 3], [2, 4, 6], [1, 1, 1])
    R, piv = rref(F, A)
    assert rank(F, A) == 2
    assert piv == (0, 1)
    # canonical: identity block on the pivot columns
    assert R[0][0] == 1 and R[0][1] == 0
    assert R[1][0] == 0 and R[1][1] == 1


def test_nullspace_annihilates():
    A = M([1, 2, 3], [4, 5, 6])
    ns = nullspace(F, A, 3)
    assert len(ns) == 1
    v = ns[0]
    for row in A:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve():
    A = M([1, 1], [1, -1])
    x = solve(F, A, (Fraction(3), Fraction(1)), 2)
    assert x == (Fraction(2), Fraction(1))
    assert solve(F, M([1, 1], [2, 2]), (Fraction(0), Fraction(1)), 2) is None


def test_rank_over_fp():
    Fp = GFp(3)
    A = ((1, 2), (2, 1))  # det = 1-4 = -3 = 0 mod 3
    assert rank(Fp, A) == 1
    assert bareiss_rank(Fp, A) == 1


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_bareiss_agrees_with_rref(rows):
    A = tuple(tuple(Fraction(x) for x in r) for r in rows)
    assert bareiss_rank(F, A) == rank(F, A)


def test_echelon_membership():
    e = Echelon(F, 3)
    assert e.add((Fraction(1), Fraction(1), Fraction(0)))
    assert e.add((Fraction(0), Fraction(1), Fraction(1)))
    assert not e.add((Fraction(1), Fraction(2), Fraction(1)))  # sum of the two
    assert e.contains((Fraction(2), Fraction(3), Fraction(1)))
    assert not e.contains((Fraction(0), Fraction(0), Fraction(1)))


def test_poly_exact_div():
    ctx = RingContext(QQ(), ("x", "y"))
    f = parse_poly(ctx, "x^2 - y^2")
    g = parse_poly(ctx, "x - y")
    q = poly_exact_div(f, g)
    assert q == parse_poly(ctx, "x + y")


def test_generic_rank_bareiss():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    z = ctx.zero()
    assert generic_rank_bareiss(ctx, ((x,), (y,))) == 1
    assert generic_rank_bareiss(ctx, ((x, y), (x, y))) == 1
    assert generic_rank_bareiss(ctx, ((x, z), (z, y))) == 2
    assert generic_rank_bareiss(ctx, ((z, z), (z, z))) == 0
    # a matrix whose rank drops on a locus but is generically full
    assert generic_rank_bareiss(ctx, ((x, y), (y, x))) == 2
