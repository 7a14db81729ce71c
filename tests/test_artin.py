from fractions import Fraction

import pytest

from cjl.artin import ArtinIdeal, ArtinLocalAlgebra, artin_from_json, make_artin
from cjl.errors import (AxiomError, NotFiniteError, NotLocalError,
                        ValidationError)
from cjl.field import QQ
from cjl.groebner import Ideal
from cjl.poly import RingContext


def dual_numbers():
    ctx = RingContext(QQ(), ("e",))
    e, = ctx.gens()
    return make_artin(ctx, [e**2])


def t_cubed():
    ctx = RingContext(QQ(), ("t",))
    t, = ctx.gens()
    return make_artin(ctx, [t**3])


def test_make_artin_t3():
    A = t_cubed()
    assert A.dim == 3
    assert A.labels == ("1", "t", "t^2")
    assert A.nilpotency_index == 3
    t = A.basis(1)
    assert A.mul(t, t) == A.basis(2)
    assert A.is_zero(A.mul(A.basis(2), t))


def test_make_artin_dual_numbers():
    A = dual_numbers()
    assert A.dim == 2
    assert A.nilpotency_index == 2


def test_make_artin_square_zero_plane():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    A = make_artin(ctx, [x**2, x * y, y**2])
    assert A.dim == 3
    assert A.nilpotency_index == 2
    assert A.labels == ("1", "x", "y")


def test_make_artin_rejects_nonfinite():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    with pytest.raises(NotFiniteError):
        make_artin(ctx, [x**2])


def test_make_artin_rejects_nonlocal():
    ctx = RingContext(QQ(), ("x",))
    x, = ctx.gens()
    with pytest.raises(NotLocalError):
        make_artin(ctx, [x**2 - ctx.one()])  # two points: x = +-1


def test_make_artin_rejects_unit_ideal():
    ctx = RingContext(QQ(), ("x",))
    with pytest.raises(ValidationError):
        make_artin(ctx, [ctx.one()])


def test_inverse_geometric_series():
    A = t_cubed()
    a = (Fraction(1), Fraction(1), Fraction(0))  # 1 + t
    inv = A.inverse(a)
    assert inv == (Fraction(1), Fraction(-1), Fraction(1))  # 1 - t + t^2
    assert A.eq(A.mul(a, inv), A.one())
    with pytest.raises(ZeroDivisionError):
        A.inverse(A.basis(1))


def test_residue_and_units():
    A = t_cubed()
    a = (Fraction(2), Fraction(5), Fraction(-1))
    assert A.residue(a) == 2
    assert A.is_unit(a)
    assert not A.is_unit(A.basis(1))
    assert A.in_max_ideal(A.basis(2))


def test_ideal_powers():
    A = t_cubed()
    m = ArtinIdeal(A, [A.basis(1)])
    assert m.dim() == 2  # t, t^2
    m2 = m.times(m)
    assert m2.dim() == 1
    assert m2.contains(A.basis(2))
    assert m2.times(m).is_zero()
    assert m.contained_in_max_ideal()
    assert not ArtinIdeal(A, [A.one()]).contained_in_max_ideal()
    assert ArtinIdeal(A, [A.add(A.one(), A.basis(1))]).is_unit()


def test_ideal_equality_canonical():
    A = t_cubed()
    t, t2 = A.basis(1), A.basis(2)
    I = ArtinIdeal(A, [t])
    J = ArtinIdeal(A, [A.add(t, t2), t2])
    assert I.equals(J)
    assert not I.equals(ArtinIdeal(A, [t2]))


def test_quotient_map():
    A = t_cubed()
    B, pi = A.quotient([A.basis(2)])
    assert B.dim == 2
    assert B.nilpotency_index == 2
    t_img = pi.apply(A.basis(1))
    assert B.is_zero(B.mul(t_img, t_img))
    # extension of ideals along the projection
    I = ArtinIdeal(A, [A.basis(1)])
    assert pi.extend_ideal(I).equals(ArtinIdeal(B, [t_img]))


def test_residue_map():
    A = dual_numbers()
    r = A.residue_map()
    assert r.target.dim == 1
    v = r.apply((Fraction(3), Fraction(7)))
    assert v == (Fraction(3),)


def test_axiom_checker_catches_bad_table():
    F = QQ()
    one = (F.one, F.zero)
    e = (F.zero, F.one)
    # e*e = 1 makes e invertible, hence not nilpotent: not local
    bad = ((one, e), (e, one))
    with pytest.raises(NotLocalError):
        ArtinLocalAlgebra(F, ("1", "e"), bad)
    # non-commutative table
    bad2 = ((one, e), ((F.zero, F.zero), (F.zero, F.zero)))
    with pytest.raises(AxiomError):
        ArtinLocalAlgebra(F, ("1", "e"), bad2)


def test_json_roundtrip():
    A = t_cubed()
    B = artin_from_json(A.to_json())
    assert A.same(B)
    C = artin_from_json({"ring": {"field": "Q", "vars": ["t"],
                                  "order": "degrevlex", "quotient": ["t^3"]}})
    assert A.same(C)


def test_quotient_context_make_artin():
    ctx = RingContext(QQ(), ("t",))
    t, = ctx.gens()
    qctx = RingContext(QQ(), ("t",), quotient=[t**3])
    A = make_artin(qctx, Ideal(qctx, [qctx.var(0) ** 2]))
    assert A.dim == 2  # (S/t^3)/(t^2) = Q[t]/(t^2)
