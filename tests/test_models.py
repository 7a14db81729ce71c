from itertools import combinations
from math import comb

import pytest

from cjl.dgla import check_algebra, check_dgla, check_pair
from cjl.errors import AxiomError, ValidationError
from cjl.field import QQ
from cjl.linalg import Echelon, vec_is_zero
from cjl.models import (MAX_HYPERPLANES, Arrangement, Cdga, cdga_to_pair,
                        exterior, exterior_pair, orlik_solomon, os_pair,
                        surface_cdga, surface_pair)
from test_dgla import dense, find

F = QQ()


def test_exterior_dims_and_signs():
    E = exterior(3)
    assert E.gvs.dims == (1, 3, 3, 1)
    check_algebra(E.table, E.gvs)
    # e1 * e2 = e1e2, e2 * e1 = -e1e2
    assert dense(E.table, 1, 0, 1, 1, 3) == (F.one, F.zero, F.zero)
    assert dense(E.table, 1, 1, 1, 0, 3) == (F.neg(F.one), F.zero, F.zero)
    # e1 * e1 = 0
    assert all(F.is_zero(x) for x in dense(E.table, 1, 0, 1, 0, 3))
    # (e1e2) * e3 = e1e2e3 with positive sign
    assert dense(E.table, 2, 0, 1, 2, 1) == (F.one,)


def test_exterior_pair_matches_wedge_action():
    P = exterior_pair(2)
    assert check_dgla(P.lie) == []
    assert check_pair(P) == []
    assert P.lie.gvs.dims == (1, 2, 1)
    # abelian at rank one
    assert P.lie.bracket.entries == {}
    # e2 . e1 = -e1e2
    assert find(P.action, 1, 1, 1, 0) == (F.neg(F.one),)


def test_exterior_rejects_bad_n():
    with pytest.raises(ValidationError):
        exterior(0)


def test_cdga_validator_catches_broken_commutativity():
    E = exterior(2)
    bad = dict(E.table.entries)
    bad[(1, 1, 1, 0)] = (F.one,)  # same sign as e1*e2: not skew
    with pytest.raises(AxiomError):
        check_algebra(Cdga(F, E.gvs, bad).table, E.gvs)


def test_arrangement_validation():
    with pytest.raises(ValidationError):
        Arrangement([(0, 0), (1, 0)])
    with pytest.raises(ValidationError):
        Arrangement([(1, 1), (2, 2)])
    Arrangement([(1, k) for k in range(MAX_HYPERPLANES)])
    with pytest.raises(ValidationError, match="too many hyperplanes"):
        Arrangement([(1, k) for k in range(MAX_HYPERPLANES + 1)])
    with pytest.raises(ValidationError):
        Arrangement([])
    with pytest.raises(ValidationError):
        Arrangement([(1, 0), (0, 1, 3)])


def test_arrangement_circuits():
    assert Arrangement([(1, 0), (0, 1)]).circuits() == []
    assert Arrangement([(1, 0), (0, 1), (1, 1)]).circuits() == [(0, 1, 2)]
    # four lines in the plane: every triple is a circuit
    circ = Arrangement([(1, 0), (0, 1), (1, 1), (1, -1)]).circuits()
    assert circ == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_os_generic_two_lines():
    A = orlik_solomon(Arrangement([(1, 0), (0, 1)]))
    assert A.gvs.dims == (1, 2, 1)
    check_algebra(A.table, A.gvs)


def test_os_three_concurrent_lines():
    A = orlik_solomon(Arrangement([(1, 0), (0, 1), (1, 1)]))
    assert A.gvs.dims == (1, 3, 2)
    assert A.gvs.labels[2] == ("e1e3", "e2e3")
    check_algebra(A.table, A.gvs)
    # e1 * e2 rewrites into the kept basis: e1e2 = e1e3 + e2e3... check
    # against the boundary relation e2e3 - e1e3 + e1e2 = 0
    prod = dense(A.table, 1, 0, 1, 1, 2)
    assert prod == (F.one, F.neg(F.one))


def test_os_boolean_is_exterior():
    B = orlik_solomon(Arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    E = exterior(3)
    assert B.gvs.dims == E.gvs.dims
    assert B.gvs.labels == E.gvs.labels
    for key, vec in E.table.entries.items():
        assert dense(B.table, *key, B.dim(key[0] + key[2])) == vec
    for key, vec in B.table.entries.items():
        assert dense(E.table, *key, E.dim(key[0] + key[2])) == vec


def test_os_four_lines():
    # m central lines in the plane give b = (1, m, m-1)
    A = orlik_solomon(Arrangement([(1, 0), (0, 1), (1, 1), (1, -1)]))
    assert A.gvs.dims == (1, 4, 3)
    check_algebra(A.table, A.gvs)


def nbc_count(arr, k):
    """Oracle: k-subsets of the hyperplanes containing no broken circuit
    (a circuit minus its smallest element)."""
    broken = [set(c[1:]) for c in arr.circuits()]
    return sum(1 for S in combinations(range(arr.m), k)
               if not any(b <= set(S) for b in broken))


SMALL_ARRANGEMENTS = {
    "2-lines": [[1, 0], [0, 1]],
    "3-lines": [[1, 0], [0, 1], [1, 1]],
    "4-lines": [[1, 0], [0, 1], [1, 1], [1, -1]],
    "near-pencil": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
    "generic-4-planes": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    "braid-plus": [[1, -1, 0], [1, 0, -1], [0, 1, -1], [1, 0, 0], [0, 1, 0]],
}


@pytest.mark.parametrize("normals", SMALL_ARRANGEMENTS.values(), ids=SMALL_ARRANGEMENTS)
def test_os_dims_match_nbc_count(normals):
    arr = Arrangement(normals)
    A = orlik_solomon(arr)
    assert [A.dim(k) for k in range(arr.m + 1)] == [nbc_count(arr, k) for k in range(arr.m + 1)]


def relation_span_os(arr):
    """Oracle: the Orlik-Solomon algebra as the quotient of the exterior
    algebra by the span of (monomial) * (circuit boundary) in each degree,
    kept on the non-pivot monomials of that span's RREF; returns (dims,
    labels, {(i, a, j, b): product vector}) with only nonzero products."""
    m = arr.m
    E = exterior(m)
    by_deg = [list(combinations(range(1, m + 1), k)) for k in range(m + 1)]
    index = [{S: a for a, S in enumerate(lst)} for lst in by_deg]

    def unit(k, a):
        return tuple(F.one if t == a else F.zero for t in range(len(by_deg[k])))

    rel = [Echelon(F, len(lst)) for lst in by_deg]
    for C in arr.circuits():
        S = tuple(c + 1 for c in C)
        boundary = [F.zero] * len(by_deg[len(S) - 1])
        for pos in range(len(S)):
            boundary[index[len(S) - 1][S[:pos] + S[pos + 1:]]] = F.from_int((-1) ** pos)
        for extra in range(m - len(S) + 2):
            for a in range(len(by_deg[extra])):
                v = E.table.contract(extra, unit(extra, a), len(S) - 1, tuple(boundary),
                                     E.dim(extra + len(S) - 1))
                if not vec_is_zero(F, v):
                    rel[extra + len(S) - 1].add(v)
    keep = []
    for k in range(m + 1):
        pivots = {next(c for c, x in enumerate(row) if x != 0) for row in rel[k].basis()}
        keep.append([a for a in range(len(by_deg[k])) if a not in pivots])
    top = max(k for k in range(m + 1) if keep[k])
    mult = {}
    for i in range(top + 1):
        for j in range(top + 1 - i):
            for a2, a in enumerate(keep[i]):
                for b2, b in enumerate(keep[j]):
                    red = rel[i + j].reduce(E.table.contract(i, unit(i, a), j, unit(j, b),
                                                             E.dim(i + j)))
                    assert all(red[c] == 0 for c in range(len(red)) if c not in keep[i + j])
                    v = tuple(red[c] for c in keep[i + j])
                    if not vec_is_zero(F, v):
                        mult[(i, a2, j, b2)] = v
    dims = tuple(len(keep[k]) for k in range(top + 1))
    labels = tuple(tuple(E.gvs.label(k, a) for a in keep[k]) for k in range(top + 1))
    return dims, labels, mult


ORACLE_ARRANGEMENTS = dict(
    SMALL_ARRANGEMENTS,
    **{"braid-A3": [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1],
                    [0, 1, -1, 0], [0, 1, 0, -1], [0, 0, 1, -1]],
       # X3: xyz(x+y)(x+z)(y+z)
       "X3": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]]})


@pytest.mark.parametrize("normals", ORACLE_ARRANGEMENTS.values(), ids=ORACLE_ARRANGEMENTS)
def test_os_matches_relation_span(normals):
    arr = Arrangement(normals)
    A = orlik_solomon(arr)
    dims, labels, mult = relation_span_os(arr)
    assert A.gvs.dims == dims
    assert A.gvs.labels == labels
    nonzero = {key: v for key, v in A.table.entries.items() if not vec_is_zero(F, v)}
    assert nonzero == mult


def test_os_deletion_never_raises_b1():
    rows = [(1, 0), (0, 1), (1, 1), (1, -1)]
    full = orlik_solomon(Arrangement(rows))
    for drop in range(4):
        sub = orlik_solomon(Arrangement(rows[:drop] + rows[drop + 1:]))
        assert sub.gvs.dim(1) <= full.gvs.dim(1)


def test_cdga_to_pair_shapes():
    P = cdga_to_pair(exterior(1), 2)
    assert P.lie.gvs.dims == (4, 4)
    assert check_dgla(P.lie) == []
    assert check_pair(P) == []
    # dim C^1 = (dim A^1) r^2
    Q = cdga_to_pair(exterior(2), 2)
    assert Q.lie.dim(1) == 2 * 4
    R = cdga_to_pair(exterior(1), 2, 1)
    assert R.m_dim(0) == 2 and R.m_dim(1) == 2


def test_cdga_to_pair_gl2_bracket_is_commutator():
    P = cdga_to_pair(exterior(1), 2)
    # degree 0 is gl_2 itself: [E00, E01] = E01 in basis order
    # (1@E00, 1@E01, 1@E10, 1@E11)
    assert dense(P.lie.bracket, 0, 0, 0, 1, 4) == \
        (F.zero, F.one, F.zero, F.zero)
    assert dense(P.lie.bracket, 0, 1, 0, 2, 4) == \
        (F.one, F.zero, F.zero, F.neg(F.one))


def test_cdga_to_pair_nonabelian_in_degree_one():
    P = cdga_to_pair(exterior(1), 2)
    # odd-degree elements bracket symmetrically: [e1@E01, e1@E10] lands
    # in degree 2, which is out of window, so test a mixed pair instead
    v = dense(P.lie.bracket, 0, 1, 1, 2, 4)  # [1@E01, e1@E10]
    assert any(not F.is_zero(x) for x in v)


def test_surface_cdga():
    S = surface_cdga(2)
    check_algebra(S.table, S.gvs)
    assert S.gvs.dims == (1, 4, 1)
    assert dense(S.table, 1, 0, 1, 1, 1) == (F.one,)   # a1 b1 = f
    assert dense(S.table, 1, 1, 1, 0, 1) == (F.neg(F.one),)
    assert all(F.is_zero(x) for x in dense(S.table, 1, 0, 1, 2, 1))  # a1 a2 = 0
    with pytest.raises(ValidationError):
        surface_cdga(0)


def test_surface_genus_one_is_torus():
    S = surface_pair(1)
    T = exterior_pair(2)
    assert S.lie.gvs.dims == T.lie.gvs.dims
    for key, vec in T.action.entries.items():
        assert find(S.action, *key) == vec
    for key, vec in S.action.entries.items():
        assert find(T.action, *key) == vec


def test_surface_pair_valid():
    P = surface_pair(2)
    assert check_dgla(P.lie) == []
    assert check_pair(P) == []


def test_os_pair_valid():
    P = os_pair(Arrangement([(1, 0), (0, 1), (1, 1)]))
    assert check_dgla(P.lie) == []
    assert check_pair(P) == []
    assert P.m_gvs.dims == (1, 3, 2)


def test_boolean_betti_binomials():
    B = orlik_solomon(Arrangement([(1, 0, 0, 0), (0, 1, 0, 0),
                                   (0, 0, 1, 0), (0, 0, 0, 1)]))
    assert B.gvs.dims == tuple(comb(4, k) for k in range(5))


def test_arrangement_json():
    arr = Arrangement.from_json({"normals": [[1, 0], [0, 1], ["1/2", 1]]})
    assert arr.m == 3
    with pytest.raises(ValidationError):
        Arrangement.from_json({"normals": "nope"})
    with pytest.raises(ValidationError):
        Arrangement.from_json({})
    with pytest.raises(ValidationError):
        Arrangement.from_json({"normals": [["x", 1]]})
