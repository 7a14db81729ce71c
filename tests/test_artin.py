from collections import deque
from fractions import Fraction

import pytest

from cjl.artin import ArtinIdeal, ArtinLocalAlgebra, artin_from_json, make_artin
from cjl.errors import (AxiomError, NotFiniteError, NotLocalError,
                        ValidationError)
from cjl.field import QQ, GFp
from cjl.groebner import Ideal
from cjl.linalg import Echelon
from cjl.parse import parse_poly
from cjl.poly import RingContext
from test_readers import T3_TABLE


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
    assert len(m.basis) == 2  # t, t^2
    m2 = m.times(m)
    assert len(m2.basis) == 1
    assert m2.contains(A.basis(2))
    assert m2.times(m).is_zero()
    assert m.contained_in_max_ideal()
    assert not ArtinIdeal(A, [A.one()]).contained_in_max_ideal()
    assert ArtinIdeal(A, [A.add(A.one(), A.basis(1))]).contains(A.one())


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
    B = artin_from_json(T3_TABLE)
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


# the rings of the artin-deformation benchmark workload, and one over F_5
UNIT_IDEAL_RINGS = {
    "t3": (QQ(), ("t",), ["t^3"]),
    "t4": (QQ(), ("t",), ["t^4"]),
    "xy2": (QQ(), ("x", "y"), ["x^2", "x*y", "y^2"]),
    "t3s2": (QQ(), ("t", "s"), ["t^3", "s^2"]),
    "t3s2-F5": (GFp(5), ("t", "s"), ["t^3", "s^2"]),
}


def closure_basis(A, gens):
    """Reference: the reduced echelon basis and pivots of the span of the
    generators closed under multiplication by every basis element."""
    ech = Echelon(A.field, A.dim)
    work = deque(gens)
    while work:
        v = work.popleft()
        if ech.add(v):
            work.extend(A.mul(v, A.basis(j)) for j in range(1, A.dim))
    return ech.basis(), ech.pivots


def power_dims(A):
    """Reference: dim_k m^s for s = 0, 1, ... while m^s != 0, with m^{s+1}
    spanned by the products of a basis of m^s and every b_j, j >= 1."""
    cur = Echelon(A.field, A.dim)
    for j in range(1, A.dim):
        cur.add(A.basis(j))
    dims = [A.dim, cur.rank]
    while cur.rank:
        nxt = Echelon(A.field, A.dim)
        for v in cur.basis():
            for j in range(1, A.dim):
                nxt.add(A.mul(v, A.basis(j)))
        cur = nxt
        dims.append(cur.rank)
    return tuple(dims)


@pytest.mark.parametrize("ring, size", [("t3", 1), ("t4", 1), ("xy2", 2), ("t3s2", 2),
                                        ("t3s2-F5", 2)])
def test_generators_of_m_are_the_variables(ring, size):
    """On a ring of ``make_artin`` the basis G of m/m^2 is the variables,
    the basis elements that follow the unit."""
    F, names, rels = UNIT_IDEAL_RINGS[ring]
    ctx = RingContext(F, names)
    A = make_artin(ctx, [parse_poly(ctx, r) for r in rels])
    assert len(A.generators) == size == len(names)
    assert A.generators == tuple(A.basis(j) for j in range(1, size + 1))
    assert A.labels[1:size + 1] == names
    assert A.power_dims == power_dims(A)


@pytest.mark.parametrize("ring", sorted(UNIT_IDEAL_RINGS))
def test_unit_generator_gives_the_closure_basis(ring):
    """An ideal with a unit among its generators takes the identity rows
    without forming products; they must equal the full closure's basis."""
    F, names, rels = UNIT_IDEAL_RINGS[ring]
    ctx = RingContext(F, names)
    A = make_artin(ctx, [parse_poly(ctx, r) for r in rels])
    m = [A.basis(j) for j in range(1, A.dim)]
    three = F.from_int(3)
    unit = A.add(A.scale(A.one(), three), A.scale(m[-1], F.from_int(2)))
    for gens in ([A.one()], [unit], m + [unit], [m[0], A.sub(A.one(), m[0])]):
        I = ArtinIdeal(A, gens)
        basis, pivots = closure_basis(A, gens)
        assert I.basis == basis and I.ech.pivots == pivots, (ring, gens)
        assert I.contains(A.one()) and len(I.basis) == A.dim
        assert I.gens == tuple(gens)
