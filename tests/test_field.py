"""The field layer against the arithmetic it replaced.

``QQ`` keeps each rational in one canonical form, an ``int`` exactly when
the value is an integer and a ``Fraction`` otherwise.  Its operations are
checked against plain ``Fraction`` arithmetic on operands of every form
the package meets, including integral values given as ``Fraction(n, 1)``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cjl.errors import ValidationError
from cjl.field import GFp, QQ, read_scalar

ints = st.integers(-10**6, 10**6)
operands = st.one_of(
    ints,                                   # the canonical form
    st.fractions(max_denominator=10**4),    # reduced, any value
    ints.map(Fraction),                     # Fraction(n, 1)
)


def canonical(r) -> bool:
    """``r`` is an ``int`` exactly when it is integral, else a ``Fraction``."""
    if type(r) is int:
        return True
    return type(r) is Fraction and r.denominator != 1


def fraction_format(a) -> str:
    """The formatter of the ``Fraction``-only field."""
    a = Fraction(a)
    if a.denominator == 1:
        return str(a.numerator)
    return f"{a.numerator}/{a.denominator}"


@given(operands, operands)
def test_arithmetic_matches_fraction(a, b):
    x, y = Fraction(a), Fraction(b)
    results = [(QQ.add(a, b), x + y), (QQ.sub(a, b), x - y), (QQ.mul(a, b), x * y),
               (QQ.scale(a, b), x * y), (QQ.neg(a), -x)]
    if y:
        results.append((QQ.div(a, b), x / y))
    if x:
        results.append((QQ.inv(a), 1 / x))
    for got, want in results:
        assert got == want and canonical(got)
    assert QQ.eq(a, b) == (x == y) and QQ.is_zero(a) == (x == 0)


@given(operands)
def test_format_matches_fraction_and_parses_back(a):
    text = QQ.format(a)
    assert text == fraction_format(a)
    back = QQ.parse(text)
    assert back == a and canonical(back)


@given(ints, st.integers(-50, 50).filter(bool), st.booleans())
def test_parse_and_from_int_are_canonical(n, d, slash):
    literal = f"{n}/{d}" if slash else str(n)
    got = QQ.parse(literal)
    assert got == (Fraction(n, d) if slash else n) and canonical(got)
    assert QQ.from_int(n) == n and canonical(QQ.from_int(n))


def test_zero_has_no_inverse():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)
        with pytest.raises(ZeroDivisionError):
            QQ.div(1, zero)
    assert QQ.zero == 0 and QQ.one == 1 and canonical(QQ.zero) and canonical(QQ.one)


@pytest.mark.parametrize("F", [QQ(), GFp(7)], ids=["Q", "F7"])
def test_read_scalar_zero_literals(F):
    """"0" is read without parsing; every other zero literal takes the
    parser and reads as zero too, and bad literals keep their error and
    JSON path."""
    for x in ("0", "-0", "0/3", 0):
        got = read_scalar(F, x, "/doc", "mult", 2)
        assert got == F.zero and type(got) is int, x
    for bad in ("0/0", "", False):
        with pytest.raises(ValidationError) as exc:
            read_scalar(F, bad, "/doc", "mult", 2)
        assert exc.value.path == "/doc/mult/2", bad
