from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cjl.errors import RingMismatchError, ValidationError
from cjl.field import GFp, QQ
from cjl.parse import parse_poly
from cjl.poly import RingContext, format_poly


def ctx2():
    return RingContext(QQ(), ("x0", "x1"))


def test_parse_format_roundtrip_examples():
    ctx = RingContext(QQ(), ("x0", "x1", "x2"))
    s = "3/2*x0^2*x1 - x2 + 1"
    f = parse_poly(ctx, s)
    assert format_poly(f) == s
    coeffs = dict(f.terms)
    assert coeffs[(2, 1, 0)] == Fraction(3, 2)
    assert coeffs[(0, 0, 1)] == Fraction(-1)
    assert coeffs[(0, 0, 0)] == 1


def test_parse_rejects_garbage():
    ctx = ctx2()
    for bad in ["", "x9", "x0 +", "1//2", "x0^", "3 x0", "x0*", "@", "x0^-1"]:
        with pytest.raises(ValidationError):
            parse_poly(ctx, bad)


def test_parse_reports_the_bad_character_position():
    ctx = ctx2()
    for text, msg in [("x0   # 1", "'#' at 5"), ("@", "'@' at 0"),
                      ("x0 +\t $x1", "'$' at 6")]:
        with pytest.raises(ValidationError) as err:
            parse_poly(ctx, text)
        assert str(err.value) == f"unexpected character {msg}"


def test_zero_and_constants():
    ctx = ctx2()
    assert format_poly(ctx.zero()) == "0"
    assert parse_poly(ctx, "0").terms == ()
    assert parse_poly(ctx, "5 - 5").terms == ()
    assert format_poly(ctx.from_int(-7)) == "-7"


def test_degrevlex_term_order():
    # leading term comes first; for degrevlex x0^2 > x0*x1 > x1^2 > x0 > x1
    ctx = ctx2()
    f = parse_poly(ctx, "x1^2 + x0*x1 + x0^2 + x1 + x0")
    monos = [m for m, _ in f.terms]
    assert monos == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]


def test_lex_order_differs():
    ctx = RingContext(QQ(), ("x", "y"), order="lex")
    f = parse_poly(ctx, "y^3 + x")
    assert f.lm() == (1, 0)  # x beats y^3 under lex


def test_arithmetic_invariants():
    ctx = ctx2()
    x0, x1 = ctx.gens()
    f = (x0 + x1) ** 2
    assert format_poly(f) == "x0^2 + 2*x0*x1 + x1^2"
    g = f - f
    assert g.terms == ()
    # no zero coefficients may survive cancellation
    h = (x0 - x1) * (x0 + x1)
    assert format_poly(h) == "x0^2 - x1^2"
    assert all(c != 0 for _, c in h.terms)


def test_ring_mismatch_rejected():
    a = RingContext(QQ(), ("x0", "x1"))
    b = RingContext(QQ(), ("x0", "y1"))
    with pytest.raises(RingMismatchError):
        a.var(0) + b.var(0)


def test_fp_arithmetic():
    ctx = RingContext(GFp(5), ("x",))
    x, = ctx.gens()
    f = (x + ctx.from_int(2)) ** 5
    # Frobenius: (x+2)^5 = x^5 + 2^5 = x^5 + 2 over F_5
    assert format_poly(f) == "x^5 + 2"


def test_gfp_rejects_composite():
    with pytest.raises(ValidationError):
        GFp(6)


def test_evaluate():
    ctx = ctx2()
    f = parse_poly(ctx, "x0^2*x1 - 3*x1 + 1/2")
    v = f.evaluate((Fraction(2), Fraction(-1)))
    assert v == Fraction(-4) + 3 + Fraction(1, 2)


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 3), st.integers(0, 3)),
                max_size=6))
def test_format_parse_is_identity(triples):
    ctx = ctx2()
    d = {}
    for c, e0, e1 in triples:
        d[(e0, e1)] = d.get((e0, e1), Fraction(0)) + Fraction(c)
    f = ctx.from_dict(d)
    assert parse_poly(ctx, format_poly(f)) == f
