from fractions import Fraction

import pytest

from cjl.dgla import Dgla, DglaPair, GradedVectorSpace, check_dgla, check_pair
from cjl.errors import ValidationError
from cjl.field import QQ
from cjl.models import exterior_pair
from cjl.resonance import (pointwise_resonance, quadratic_cone_ideal,
                           resonance_ideal, universal_aomoto)

F = QQ()
ONE = F.one


def heis_dgla():
    """H^1 = <e1,e2>, H^2 = <f>, [e1,e2] = f, zero differential."""
    gvs = GradedVectorSpace(1, 2, (2, 1), (("e1", "e2"), ("f",)))
    zero_d = (((F.zero, F.zero),),)
    bracket = {(1, 0, 1, 1): (ONE,)}
    return Dgla(F, gvs, zero_d, bracket)


def heis_pair():
    """heis_dgla acting on a three-step module m0 -> m1 -> m2."""
    C = heis_dgla()
    m = GradedVectorSpace(0, 2, (1, 1, 1))
    m_d = (((F.zero,),), ((F.zero,),))
    action = {
        (1, 0, 0, 0): (ONE,),   # e1.m0 = m1
        (1, 1, 1, 0): (ONE,),   # e2.m1 = m2
        (2, 0, 0, 0): (ONE,),   # f.m0 = m2, forced by the pair axiom
    }
    return DglaPair(C, m, m_d, action)


def torus_with_acyclic_module():
    """exterior_pair(2) with an extra acyclic summand glued to M."""
    P = exterior_pair(2)
    m = GradedVectorSpace(0, 2, (2, 3, 1))
    # basis: (m0, s) in degree 0, (m1a, m1b, ds) in degree 1, (m2,) on top
    Z = F.zero
    m_d = (
        ((Z, Z), (Z, Z), (Z, ONE)),
        ((Z, Z, Z),),
    )
    action = {}
    for (i, a, j, b), vec in P.action.entries.items():
        out = m.dim(i + j)
        action[(i, a, j, b)] = tuple(vec) + (Z,) * (out - len(vec))
    return DglaPair(P.lie, m, m_d, action)


def test_cone_of_torus_is_zero():
    P = exterior_pair(2)
    S, IQ = quadratic_cone_ideal(P.lie)
    assert S.names == ("x0", "x1")
    assert IQ.groebner() == ()


def test_cone_heisenberg():
    S, IQ = quadratic_cone_ideal(heis_dgla())
    assert len(IQ.gens) == 1
    x0, x1 = S.gens()
    # the self-bracket picks up both orientations: coefficient 2, as-is
    assert IQ.gens[0].terms == (x0 * x1 * S.from_int(2)).terms
    assert IQ.equals(S.ideal([x0 * x1]))


def test_cone_computed_on_cohomology():
    # same structure with an acyclic arm u -> v added in degrees 0 -> 1
    Z = F.zero
    gvs = GradedVectorSpace(0, 2, (1, 3, 1))
    d = (
        ((Z,), (Z,), (ONE,)),
        ((Z, Z, Z),),
    )
    bracket = {(1, 0, 1, 1): (ONE,)}
    C = Dgla(F, gvs, d, bracket)
    assert check_dgla(C) == []
    S, IQ = quadratic_cone_ideal(C)
    assert S.nvars == 2
    x0, x1 = S.gens()
    assert IQ.equals(S.ideal([x0 * x1]))


def test_universal_aomoto_torus():
    E = universal_aomoto(exterior_pair(2))
    S = E.ring
    assert not S.has_quotient()
    x0, x1 = S.gens()
    assert E.diff(0) == (((x0,)), ((x1,)))
    assert E.diff(1) == (((x1 * S.from_int(-1), x0)),)
    assert [E.rank(i) for i in (0, 1, 2)] == [1, 2, 1]


def test_universal_aomoto_needs_zero_differentials():
    with pytest.raises(ValidationError):
        universal_aomoto(torus_with_acyclic_module())


def test_universal_aomoto_on_quotient():
    P = heis_pair()
    assert check_dgla(P.lie) == []
    assert check_pair(P) == []
    E = universal_aomoto(P)
    # d1 . d0 = x0*x1, which only dies modulo the cone relation
    assert E.ring.has_quotient()
    x0, x1 = (E.ring.var(0), E.ring.var(1))
    assert E.diff(0) == ((x0,),)
    assert E.diff(1) == ((x1,),)


def test_resonance_torus_frozen_values():
    P = exterior_pair(2)
    S = resonance_ideal(P, 0, 1).ctx
    x0, x1 = S.gens()
    want = {
        (1, 1): S.ideal([x0 * x0, x0 * x1, x1 * x1]),
        (1, 2): S.ideal([x0, x1]),
        (0, 1): S.ideal([x0, x1]),
        (2, 1): S.ideal([x0, x1]),
    }
    for (i, k), J in want.items():
        assert resonance_ideal(P, i, k).equals(J), (i, k)
    assert resonance_ideal(P, 1, 3).contains(S.one())
    assert resonance_ideal(P, 0, 2).contains(S.one())


def test_resonance_monotone_in_k():
    P = exterior_pair(2)
    a = resonance_ideal(P, 1, 1)
    b = resonance_ideal(P, 1, 2)
    assert all(b.contains(g) for g in a.gens)
    assert not all(a.contains(g) for g in b.gens)


def test_resonance_contains_cone_relations():
    P = heis_pair()
    R = resonance_ideal(P, 0, 1)
    S = R.ctx
    assert not S.has_quotient()
    x0, x1 = S.gens()
    assert R.contains(x0 * x1 * S.from_int(2))
    assert R.equals(S.ideal([x0]))


def test_resonance_computes_cohomology_first():
    P = exterior_pair(2)
    Q = torus_with_acyclic_module()
    for i in (0, 1, 2):
        for k in (1, 2):
            assert resonance_ideal(Q, i, k).equals(resonance_ideal(P, i, k))


def test_pointwise_at_zero_is_betti():
    P = exterior_pair(2)
    assert pointwise_resonance(P, (0, 0), 0) == 1
    assert pointwise_resonance(P, (0, 0), 1) == 2
    assert pointwise_resonance(P, (0, 0), 2) == 1


def test_pointwise_torus_vanishing():
    P = exterior_pair(2)
    for i in (0, 1, 2):
        assert pointwise_resonance(P, (ONE, F.zero), i) == 0
        assert pointwise_resonance(P, (Fraction(2), Fraction(-3)), i) == 0


def test_pointwise_checks_cone():
    P = heis_pair()
    assert pointwise_resonance(P, (ONE, F.zero), 0) == 0
    with pytest.raises(ValidationError):
        pointwise_resonance(P, (ONE, ONE), 0)
    with pytest.raises(ValidationError):
        pointwise_resonance(P, (ONE,), 0)


def test_pointwise_consistency_with_ideal():
    P = exterior_pair(2)
    R = resonance_ideal(P, 1, 1)
    for eta in [(0, 0), (1, 0), (0, 1), (2, 3), (-1, 5)]:
        pt = tuple(Fraction(x) for x in eta)
        vanishes = all(F.is_zero(g.evaluate(pt)) for g in R.gens)
        assert vanishes == (pointwise_resonance(P, pt, 1) >= 1)
