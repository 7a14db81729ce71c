from fractions import Fraction

import pytest

from cjl.dgla import (Dgla, DglaPair, GradedVectorSpace, check_dgla,
                      check_pair, cohomology_pair, pair_from_json, pair_to_json)
from cjl.errors import AxiomError, ValidationError
from cjl.field import QQ

F = QQ()
ZERO = F.zero
ONE = F.one


def dense(table, i, a, j, b, out_dim):
    """The vector of a structure-constant table at (i,a,j,b), stored or
    skew-derived, with ``out_dim`` zeros where there is neither."""
    v = table.find(i, a, j, b)
    return (table.field.zero,) * out_dim if v is None else v


def zero_mat(rows, cols):
    return tuple((ZERO,) * cols for _ in range(rows))


def abelian_pair(dims, m_dims, lo=0, m_lo=0):
    g = GradedVectorSpace(lo, lo + len(dims) - 1, dims)
    m = GradedVectorSpace(m_lo, m_lo + len(m_dims) - 1, m_dims)
    d = [zero_mat(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    md = [zero_mat(m_dims[i + 1], m_dims[i]) for i in range(len(m_dims) - 1)]
    return DglaPair(Dgla(F, g, d, {}), m, md, {})


def gl2_dgla():
    # gl_2 in degree 0, zero differential; basis E11, E12, E21, E22
    # (row-major), bracket [x, y] = xy - yx.
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    bracket = {}
    for (p, q), a in idx.items():
        for (r, s), b in idx.items():
            vec = [Fraction(0)] * 4
            if q == r:
                vec[idx[(p, s)]] += 1
            if s == p:
                vec[idx[(r, q)]] -= 1
            if any(vec):
                bracket[(0, a, 0, b)] = tuple(vec)
    g = GradedVectorSpace(0, 0, (4,))
    return Dgla(F, g, [], bracket)


def adjoint_pair(C):
    # the algebra acting on itself by its own bracket
    action = dict(C.bracket.entries)
    return DglaPair(C, C.gvs, list(C.d), action)


def test_abelian_pair_valid():
    P = abelian_pair((1, 1), (1, 1))
    assert check_dgla(P.lie) == []
    assert check_pair(P) == []
    P.validate()


def test_gl2_axioms():
    C = gl2_dgla()
    assert check_dgla(C) == []
    P = adjoint_pair(C)
    assert check_pair(P) == []


def test_gl2_perturbed_bracket_reports_jacobi():
    C = gl2_dgla()
    bad = dict(C.bracket.entries)
    # E11*E12 = E12: tamper with that structure vector
    bad[(0, 0, 0, 1)] = (ZERO, F.from_int(2), ZERO, ZERO)
    Cbad = Dgla(F, C.gvs, [], bad)
    report = check_dgla(Cbad)
    assert any(v["axiom"] == "jacobi" for v in report)
    with pytest.raises(AxiomError):
        adjoint_pair(Cbad).validate()


def test_skew_violation_detected():
    g = GradedVectorSpace(0, 0, (2,))
    C = Dgla(F, g, [], {(0, 0, 0, 1): (ONE, ZERO), (0, 1, 0, 0): (ONE, ZERO)})
    report = check_dgla(C)
    assert any(v["axiom"] == "skew" for v in report)


def test_even_self_bracket_must_vanish():
    g = GradedVectorSpace(0, 0, (1,))
    C = Dgla(F, g, [], {(0, 0, 0, 0): (ONE,)})
    assert any(v["axiom"] == "skew" for v in check_dgla(C))


def test_odd_self_bracket_allowed():
    # heisenberg-flavored: z | e1, e2 | f with [e1,e2] = [e2,e1] = f
    P = heisenberg_pair()
    assert check_dgla(P.lie) == []
    assert check_pair(P) == []


def heisenberg_pair():
    g = GradedVectorSpace(0, 2, (1, 2, 1))
    d = [zero_mat(2, 1), zero_mat(1, 2)]
    bracket = {(1, 0, 1, 1): (ONE,), (1, 1, 1, 0): (ONE,)}
    C = Dgla(F, g, d, bracket)
    m = GradedVectorSpace(0, 2, (1, 2, 1))
    # e_i moves m0 up, meets the partner in the top class; [e1,e2]=f must
    # act by the symmetrized product, f.m0 = 2 m3
    action = {(1, 0, 0, 0): (ONE, ZERO), (1, 1, 0, 0): (ZERO, ONE),
              (1, 0, 1, 1): (ONE,), (1, 1, 1, 0): (ONE,),
              (2, 0, 0, 0): (F.from_int(2),)}
    return DglaPair(C, m, [zero_mat(2, 1), zero_mat(1, 2)], action)


def test_leibniz_violation_detected():
    # d[e0,e1] = d(e1) = 0 but [d(e0), e1] = [f, e1] = f: derivation fails
    g = GradedVectorSpace(0, 1, (2, 1))
    d = [((ONE, ZERO),)]
    C = Dgla(F, g, d, {(0, 0, 0, 1): (ZERO, ONE), (1, 0, 0, 1): (ONE,)})
    report = check_dgla(C)
    assert any(v["axiom"] == "leibniz" for v in report)


def test_d_squared_checked():
    g = GradedVectorSpace(0, 2, (1, 1, 1))
    C = Dgla(F, g, [((ONE,),), ((ONE,),)], {})
    assert any(v["axiom"] == "d_squared" for v in check_dgla(C))


def test_pair_action_violation():
    C = gl2_dgla()
    P = adjoint_pair(C)
    bad = dict(P.action.entries)
    bad[(0, 0, 0, 1)] = (ZERO, F.from_int(3), ZERO, ZERO)
    Pbad = DglaPair(C, P.m_gvs, list(P.m_d), bad)
    report = check_pair(Pbad)
    assert any(v["axiom"] == "lie_action" for v in report)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

def contractible_pair():
    """1 | a in degree 0, b = d(a) in degree 1; module = the same complex."""
    g = GradedVectorSpace(0, 1, (2, 1))
    d = [((ZERO, ONE),)]
    # algebra multiplication as a bracket would not be skew; use the
    # abelian bracket here, the module action carries the content
    C = Dgla(F, g, d, {})
    m = GradedVectorSpace(0, 1, (2, 1))
    action = {(0, 0, 0, 0): (ONE, ZERO), (0, 0, 0, 1): (ZERO, ONE),
              (0, 0, 1, 0): (ONE,), (0, 1, 0, 0): (ZERO, ONE),
              (1, 0, 0, 0): (ONE,)}
    # unit acts as identity; a*m0 = m1, b*m0 = mb (forced by the
    # derivation rule since d(a) = b), a*a = 0, a*b = 0
    return DglaPair(C, m, [((ZERO, ONE),)], action)


def test_cohomology_of_contractible():
    P = contractible_pair()
    P.validate()
    H = cohomology_pair(P)
    assert [H.lie.dim(i) for i in (0, 1)] == [1, 0]
    assert [H.m_dim(i) for i in (0, 1)] == [1, 0]
    H.validate()


def test_cohomology_zero_differential_is_copy():
    C = gl2_dgla()
    P = adjoint_pair(C)
    H = cohomology_pair(P)
    assert H.lie.dim(0) == 4 and H.m_dim(0) == 4
    for a in range(4):
        for b in range(4):
            assert dense(H.lie.bracket, 0, a, 0, b, 4) == dense(C.bracket, 0, a, 0, b, 4)
            assert dense(H.action, 0, a, 0, b, 4) == dense(P.action, 0, a, 0, b, 4)


def test_cohomology_betti_match_rank_nullity():
    P = contractible_pair()
    assert cohomology_pair(P).m_gvs.dims == (1, 0)
    Q = abelian_pair((1,), (1, 2, 1))
    assert cohomology_pair(Q).m_gvs.dims == (1, 2, 1)


def test_cohomology_output_passes_checks():
    H = cohomology_pair(heisenberg_pair())
    assert check_dgla(H.lie) == []
    assert check_pair(H) == []
    # zero differential everywhere means H is its own cohomology
    assert H.has_zero_differentials()


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_json_round_trip():
    P = heisenberg_pair()
    obj = pair_to_json(P)
    Q = pair_from_json(obj)
    assert Q.lie.gvs.dims == P.lie.gvs.dims
    for key, vec in P.lie.bracket.entries.items():
        assert dense(Q.lie.bracket, *key, Q.lie.dim(key[0] + key[2])) == vec
    for key, vec in P.action.entries.items():
        assert Q.action.find(*key) == vec


def test_json_rejects_bad_entries():
    P = abelian_pair((1, 1), (1,))
    obj = pair_to_json(P)
    obj["lie"]["bracket"] = [{"i": 0, "a": 5, "j": 0, "b": 0, "out": ["1", "0"]}]
    with pytest.raises(ValidationError):
        pair_from_json(obj)
    obj2 = pair_to_json(P)
    obj2["module"]["dims"] = [-1]
    with pytest.raises(ValidationError):
        pair_from_json(obj2)


def test_json_validates_axioms():
    # both orientations stored with the same sign: graded skew fails
    g = GradedVectorSpace(0, 0, (2,))
    C = Dgla(F, g, [], {(0, 0, 0, 1): (ONE, ZERO), (0, 1, 0, 0): (ONE, ZERO)})
    P = DglaPair(C, GradedVectorSpace(0, 0, (1,)), [], {})
    obj = pair_to_json(P)
    with pytest.raises(AxiomError):
        pair_from_json(obj)
