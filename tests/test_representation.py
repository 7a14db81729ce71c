"""Differential tests of the axiom checkers and of the structure-constant
contraction.

The reference checker below is written from the literal axioms on basis
vectors, with dense vectors and full double sums over structure constants
read straight from the stored entries: d^2 = 0, graded skew symmetry,
Jacobi in Leibniz form [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]],
d a derivation of the bracket and of the action, and the Lie action
[x,y].m = x.(y.m) - (-1)^{|x||y|} y.(x.m).  ``check_dgla + check_pair``
must return the same witness list, in the same order.
"""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from cjl.acceptance import _solvable_pair
from cjl.dgla import (Dgla, DglaPair, GradedVectorSpace, _GradedTable,
                      check_algebra, check_dgla, check_pair)
from cjl.errors import AxiomError
from cjl.field import QQ
from cjl.models import (Arrangement, Cdga, cdga_to_pair, exterior, exterior_pair,
                        orlik_solomon, surface_cdga, surface_pair)
from test_dgla import adjoint_pair, gl2_dgla, heisenberg_pair

F = QQ()


def _sign(n):
    return 1 if n % 2 == 0 else -1


def _structure(entries, skew, n_out, i, a, j, b):
    """The structure vector at (i,a,j,b), with a missing orientation
    derived from [x,y] = -(-1)^{ij} [y,x] when ``skew``."""
    if (i, a, j, b) in entries:
        return list(entries[(i, a, j, b)])
    if skew and (j, b, i, a) in entries:
        return [-_sign(i * j) * t for t in entries[(j, b, i, a)]]
    return [0] * n_out


def _dense(entries, skew, dim, i, u, j, v):
    out = [0] * dim(i + j)
    for a, x in enumerate(u):
        for b, y in enumerate(v):
            if x and y:
                w = _structure(entries, skew, dim(i + j), i, a, j, b)
                for k in range(len(out)):
                    out[k] += x * y * w[k]
    return out


def _mat_vec(mat, u):
    return [sum(r * x for r, x in zip(row, u)) for row in mat]


def _unit(n, a):
    return [int(t == a) for t in range(n)]


def reference_witnesses(P):
    C = P.lie
    g, m = C.gvs, P.m_gvs

    def br(i, u, j, v):
        return _dense(C.bracket.entries, True, C.dim, i, u, j, v)

    def act(i, u, j, v):
        return _dense(P.action.entries, False, P.m_dim, i, u, j, v)

    def d_c(i, u):
        return _mat_vec(C.d_mat(i), u)

    def d_m(i, u):
        return _mat_vec(P.m_d_mat(i), u)

    def plus(sgn, p, q):
        return [x + sgn * y for x, y in zip(p, q)]

    bad = []
    for i in range(g.lo, g.hi - 1):
        for c in range(C.dim(i)):
            if any(d_c(i + 1, d_c(i, _unit(C.dim(i), c)))):
                bad.append({"axiom": "d_squared", "at": (i, c)})
    for i, j in product(g.degrees(), repeat=2):
        if not g.lo <= i + j <= g.hi:
            continue
        for a, b in product(range(C.dim(i)), range(C.dim(j))):
            x, y = _unit(C.dim(i), a), _unit(C.dim(j), b)
            if any(plus(_sign(i * j), br(i, x, j, y), br(j, y, i, x))):
                bad.append({"axiom": "skew", "at": (i, a, j, b)})
    for i, j, k in product(g.degrees(), repeat=3):
        for a, b, c in product(range(C.dim(i)), range(C.dim(j)),
                               range(C.dim(k))):
            x, y, z = _unit(C.dim(i), a), _unit(C.dim(j), b), _unit(C.dim(k), c)
            lhs = br(i, x, j + k, br(j, y, k, z))
            rhs = plus(_sign(i * j), br(i + j, br(i, x, j, y), k, z),
                       br(j, y, i + k, br(i, x, k, z)))
            if lhs != rhs:
                bad.append({"axiom": "jacobi", "at": (i, a, j, b, k, c)})
    for i, j in product(g.degrees(), repeat=2):
        for a, b in product(range(C.dim(i)), range(C.dim(j))):
            x, y = _unit(C.dim(i), a), _unit(C.dim(j), b)
            lhs = d_c(i + j, br(i, x, j, y))
            rhs = plus(_sign(i), br(i + 1, d_c(i, x), j, y),
                       br(i, x, j + 1, d_c(j, y)))
            if lhs != rhs:
                bad.append({"axiom": "leibniz", "at": (i, a, j, b)})
    for i in range(m.lo, m.hi - 1):
        for c in range(P.m_dim(i)):
            if any(d_m(i + 1, d_m(i, _unit(P.m_dim(i), c)))):
                bad.append({"axiom": "module_d_squared", "at": (i, c)})
    for i, j, k in product(g.degrees(), g.degrees(), m.degrees()):
        for a, b, c in product(range(C.dim(i)), range(C.dim(j)),
                               range(P.m_dim(k))):
            x, y, v = _unit(C.dim(i), a), _unit(C.dim(j), b), _unit(P.m_dim(k), c)
            lhs = act(i + j, br(i, x, j, y), k, v)
            rhs = plus(-_sign(i * j), act(i, x, j + k, act(j, y, k, v)),
                       act(j, y, i + k, act(i, x, k, v)))
            if lhs != rhs:
                bad.append({"axiom": "lie_action", "at": (i, a, j, b, k, c)})
    for i, k in product(g.degrees(), m.degrees()):
        for a, c in product(range(C.dim(i)), range(P.m_dim(k))):
            x, v = _unit(C.dim(i), a), _unit(P.m_dim(k), c)
            lhs = d_m(i + k, act(i, x, k, v))
            rhs = plus(_sign(i), act(i + 1, d_c(i, x), k, v),
                       act(i, x, k + 1, d_m(k, v)))
            if lhs != rhs:
                bad.append({"axiom": "action_leibniz", "at": (i, a, k, c)})
    return bad


def corpus():
    return {
        "exterior-2": exterior_pair(2),
        "exterior-3": exterior_pair(3),
        "surface-2": surface_pair(2),
        "glr-1-2": cdga_to_pair(exterior(1), 2),
        "gl2-adjoint": adjoint_pair(gl2_dgla()),
        "heisenberg": heisenberg_pair(),
        "solvable": _solvable_pair(),
    }


def perturb(P, rng, fresh=False):
    """Change one coordinate of one bracket or action vector (stored, or
    new at a random index) by a nonzero integer; with ``fresh``, at an
    index where the table had no vector, in neither orientation."""
    C = P.lie
    bracket, action = dict(C.bracket.entries), dict(P.action.entries)
    while True:
        on_lie = rng.random() < 0.5
        table, dim_out = (bracket, C.dim) if on_lie else (action, P.m_dim)
        dim_in = C.dim if on_lie else P.m_dim
        space = C.gvs if on_lie else P.m_gvs
        i = rng.choice(list(C.gvs.degrees()))
        j = rng.choice(list(space.degrees()))
        if C.dim(i) and dim_in(j) and dim_out(i + j):
            key = (i, rng.randrange(C.dim(i)), j, rng.randrange(dim_in(j)))
            if not fresh or not (key in table or
                                 on_lie and key[2:] + key[:2] in table):
                break
    vec = list(table.get(key, (F.zero,) * dim_out(i + j)))
    vec[rng.randrange(len(vec))] += rng.choice([-2, -1, 1, 2])
    table[key] = tuple(vec)
    lie = Dgla(F, C.gvs, list(C.d), bracket)
    return DglaPair(lie, P.m_gvs, list(P.m_d), action)


def _checked(P):
    return check_dgla(P.lie) + check_pair(P)


def test_checkers_match_reference_on_model_corpus():
    for name, P in corpus().items():
        assert _checked(P) == reference_witnesses(P) == [], name


def test_checkers_match_reference_on_perturbations():
    rng = random.Random(20260418)
    seen = set()
    cases = 0
    for name, P in corpus().items():
        for t in range(4):
            Q = perturb(P, rng)
            got = _checked(Q)
            assert got == reference_witnesses(Q), (name, t)
            seen.update(w["axiom"] for w in got)
            cases += 1
    assert cases >= 20
    # d^2 != 0 on both sides, with the ad and module witnesses after it
    g = GradedVectorSpace(0, 2, (1, 1, 1))
    one = ((F.one,),)
    C = Dgla(F, g, [one, one], {})
    Q = DglaPair(C, g, [one, one], {(1, 0, 0, 0): (F.one,)})
    got = _checked(Q)
    assert got == reference_witnesses(Q)
    seen.update(w["axiom"] for w in got)
    assert {"d_squared", "skew", "jacobi", "leibniz", "module_d_squared",
            "lie_action", "action_leibniz"} <= seen


def test_checkers_match_reference_on_inserted_entries():
    """Vectors at indices where the tables had none: the triples and pairs
    the checkers visit must follow the new support, not only the old."""
    rng = random.Random(20261019)
    seen = set()
    for name, P in corpus().items():
        for t in range(6):
            Q = perturb(P, rng, fresh=True)
            got = _checked(Q)
            assert got == reference_witnesses(Q), (name, t)
            seen.update(w["axiom"] for w in got)
    assert {"skew", "jacobi", "leibniz", "lie_action", "action_leibniz"} <= seen


def reference_algebra_witness(A):
    """The first failure, in dense loop order, of the unit, graded
    commutativity and associativity of the Cdga A, or None."""
    dim = A.dim
    degrees = list(A.gvs.degrees())

    def mul(i, u, j, v):
        return _dense(A.table.entries, False, dim, i, u, j, v)

    one = _unit(dim(0), 0)
    for j in degrees:
        for b in range(dim(j)):
            y = _unit(dim(j), b)
            if mul(0, one, j, y) != y or mul(j, y, 0, one) != y:
                return {"axiom": "unit", "at": (j, b)}
    for i, j in product(degrees, repeat=2):
        for a, b in product(range(dim(i)), range(dim(j))):
            x, y = _unit(dim(i), a), _unit(dim(j), b)
            if mul(i, x, j, y) != [_sign(i * j) * t for t in mul(j, y, i, x)]:
                return {"axiom": "commutativity", "at": (i, a, j, b)}
    for i, j, k in product(degrees, repeat=3):
        for a, b, c in product(range(dim(i)), range(dim(j)), range(dim(k))):
            x, y, z = _unit(dim(i), a), _unit(dim(j), b), _unit(dim(k), c)
            if mul(i + j, mul(i, x, j, y), k, z) != mul(i, x, j + k, mul(j, y, k, z)):
                return {"axiom": "associativity", "at": (i, a, j, b, k, c)}
    return None


def perturb_algebra(A, rng, fresh):
    """Change one coordinate of one product of two basis vectors other
    than the unit by a nonzero integer, at a stored index or (``fresh``)
    at one where neither orientation is stored; on half the draws change
    the mirror product by the graded-commutative amount too, so that
    associativity is what breaks."""
    mult = dict(A.table.entries)
    degrees = list(A.gvs.degrees())
    while True:
        i, j = rng.choice(degrees), rng.choice(degrees)
        if A.dim(i) and A.dim(j) and A.dim(i + j):
            key = (i, rng.randrange(A.dim(i)), j, rng.randrange(A.dim(j)))
            if (0, 0) in (key[:2], key[2:]):
                continue
            mirror = key[2:] + key[:2]
            if (key in mult) != fresh and not (fresh and mirror in mult):
                break
    k, delta = rng.randrange(A.dim(i + j)), rng.choice([-2, -1, 1, 2])
    changes = [(key, delta), (mirror, _sign(i * j) * delta)]
    for at, t in changes[:1 + (rng.random() < 0.5)]:
        vec = list(mult.get(at, (F.zero,) * A.dim(i + j)))
        vec[k] += t
        mult[at] = tuple(vec)
    return Cdga(F, A.gvs, mult)


def _algebra_witness(A):
    try:
        check_algebra(A.table, A.gvs)
    except AxiomError as exc:
        return exc.witness
    return None


def test_algebra_check_matches_reference_on_graded_algebras():
    """check_algebra in odd degrees, where the signs are not all +1, on
    perturbed and inserted products."""
    rng = random.Random(20261020)
    seen = set()
    algebras = {"exterior-3": exterior(3), "surface-2": surface_cdga(2),
                "3-line": orlik_solomon(Arrangement([[1, 0], [0, 1], [1, 1]]))}
    for name, A in algebras.items():
        assert _algebra_witness(A) is None is reference_algebra_witness(A)
        for t in range(16):
            B = perturb_algebra(A, rng, fresh=t % 2 == 1)
            got = _algebra_witness(B)
            assert got == reference_algebra_witness(B), (name, t)
            seen.add(got and got["axiom"])
    assert {"commutativity", "associativity"} <= seen


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_contraction_matches_dense_double_sum(data):
    i = data.draw(st.integers(-1, 2))
    j = data.draw(st.integers(-1, 2))
    n_i = data.draw(st.integers(0, 3))
    n_j = n_i if i == j else data.draw(st.integers(0, 3))
    n_out = data.draw(st.integers(0, 3))
    skew = data.draw(st.booleans())
    scalar = st.integers(-3, 3).map(Fraction)

    def vec(n):
        return st.lists(scalar, min_size=n, max_size=n).map(tuple)

    keys = sorted({(i, a, j, b) for a in range(n_i) for b in range(n_j)}
                  | {(j, b, i, a) for a in range(n_i) for b in range(n_j)})
    entries = {key: data.draw(vec(n_out)) for key in keys
               if data.draw(st.booleans())}
    u, v = data.draw(vec(n_i)), data.draw(vec(n_j))
    expected = tuple(
        sum(u[a] * v[b] * _structure(entries, skew, n_out, i, a, j, b)[k]
            for a in range(n_i) for b in range(n_j))
        for k in range(n_out))
    assert _GradedTable(F, entries, skew).contract(i, u, j, v, n_out) == expected
