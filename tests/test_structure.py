"""Differential tests of the structure equation and the twisted complex.

``mc`` builds both once, over any coefficient ring; ``resonance`` applies
them to the tautological element over a polynomial ring.  The references
below are written in the test from the literal formulas, with the structure
constants read straight from the stored table entries:

* twisted complex: entry (c, b) of the matrix out of degree j is
  d_M[c][b] + sum_a omega_a * action(1, a, j, b)[c];
* quadratic cone: for H^1 representatives u_a, u_b, the class of
  [u_a, u_b] on H^2 representatives adds its coordinate c to the
  coefficient of x_a x_b in generator c;
* flat connections: generator c has d^1[c][a] on x_a and
  (1/2) [e_a, e_b]_c on x_a x_b, summed over ordered pairs (a, b).

Every comparison is term for term: the same generators (or entries), in
the same order, with the same terms.
"""

import json
import random

import pytest

from cjl.acceptance import _solvable_pair
from cjl.artin import make_artin
from cjl.dgla import (Dgla, GradedVectorSpace, _DegreeHomology, check_dgla,
                      cohomology_pair, pair_from_json)
from cjl.field import QQ
from cjl.linalg import solve
from cjl.mc import aomoto_complex
from cjl.models import (Arrangement, cdga_to_pair, exterior, exterior_pair,
                        os_pair, surface_pair)
from cjl.parse import parse_poly
from cjl.poly import RingContext
from cjl.resonance import (coefficient_ring, flat_connection_ideal,
                           quadratic_cone_ideal, universal_aomoto)
from test_dgla import heisenberg_pair
from test_golden import ACYCLIC_ARM

F = QQ()


def corpus():
    return {
        "exterior-2": exterior_pair(2),
        "exterior-3": exterior_pair(3),
        "surface-2": surface_pair(2),
        "3-line": os_pair(Arrangement([[1, 0], [0, 1], [1, 1]])),
        "glr": cdga_to_pair(exterior(2), 2, 2),
        "heisenberg": heisenberg_pair(),
        "solvable": _solvable_pair(),
        "acyclic-arm": pair_from_json(json.loads(ACYCLIC_ARM)),
    }


def _mono(n, *idx):
    e = [0] * n
    for a in idx:
        e[a] += 1
    return tuple(e)


def _entry(table, key, k):
    v = table.get(key)
    return v[k] if v is not None else F.zero


# -- references -------------------------------------------------------------

def reference_twisted(P, A, omega):
    """The matrices of (M (x) A, d_M + omega.) from the literal formula."""
    m = P.m_gvs
    mats = []
    for j in range(m.lo, m.hi):
        d_m = P.m_d_mat(j)
        mat = []
        for c in range(P.m_dim(j + 1)):
            row = []
            for b in range(P.m_dim(j)):
                entry = [d_m[c][b]] + [F.zero] * (A.dim - 1)
                for a in range(P.lie.dim(1)):
                    t = _entry(P.action.entries, (1, a, j, b), c)
                    entry = [x + y * t for x, y in zip(entry, omega[a])]
                row.append(tuple(entry))
            mat.append(tuple(row))
        mats.append(tuple(mat))
    return mats


def reference_cone(C):
    h1, h2 = (_DegreeHomology(F, C.d_mat(i - 1), C.d_mat(i), C.dim(i),
                              C.dim(i - 1)) for i in (1, 2))
    S = coefficient_ring(F, h1.h)
    coeffs = {}
    for a, u in enumerate(h1.reps):
        for b, v in enumerate(h1.reps):
            w = h2.classify(C.bracket_elem(1, u, 1, v))
            for c, t in enumerate(w):
                if t:
                    cur = coeffs.setdefault(c, {})
                    m = _mono(h1.h, a, b)
                    cur[m] = cur.get(m, F.zero) + t
    gens = [S.from_dict(coeffs.get(c, {})) for c in range(h2.h)]
    return S, [g.terms for g in gens if g.terms]


def reference_flat(C):
    n = C.dim(1)
    S = coefficient_ring(F, n)
    d1 = C.d_mat(1)
    coeffs = {c: {} for c in range(C.dim(2))}
    for c in range(C.dim(2)):
        for a in range(n):
            if d1[c][a]:
                m = _mono(n, a)
                coeffs[c][m] = coeffs[c].get(m, F.zero) + d1[c][a]
    for a in range(n):
        for b in range(n):
            for c in range(C.dim(2)):
                t = C.bracket_vec(1, a, 1, b)[c]
                if t:
                    m = _mono(n, a, b)
                    coeffs[c][m] = coeffs[c].get(m, F.zero) + t / 2
    gens = [S.from_dict(coeffs[c]) for c in range(C.dim(2))]
    return S, [g.terms for g in gens if g.terms]


# -- seeded non-formal algebras ---------------------------------------------

def _rows(cols, nrows):
    """The matrix with the given columns, as rows over the target."""
    return tuple(tuple(col[r] for col in cols) for r in range(nrows))


def _unit(n, a):
    return [F.one if t == a else F.zero for t in range(n)]


# products of the basis 1, a, b of the arm algebra (parts 0, 1, 2)
ARM_PRODUCTS = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2}


def with_arm(C):
    """C (x) (k[a]/(a^2) + kb) with |a| = 0, |b| = 1, d a = b and
    ab = b^2 = 0: the same cohomology as C, with an acyclic arm on every
    basis vector.  Degree i has the basis C^i (x) 1, C^i (x) a,
    C^{i-1} (x) b (parts 0, 1, 2), and [x (x) p, y (x) q] =
    (-1)^{|p||y|} [x, y] (x) pq."""
    lo, hi = C.gvs.lo, C.gvs.hi + 1

    def dim(i):
        return 2 * C.dim(i) + C.dim(i - 1)

    def pos(i, part, a):
        return a + part * C.dim(i)

    d = []
    for i in range(lo, hi):
        cols = []
        for part, src in ((0, i), (1, i), (2, i - 1)):
            for a in range(C.dim(src)):
                col = [F.zero] * dim(i + 1)
                # d(x p) = dx p + (-1)^{|x|} x dp, with da = b
                for k, t in enumerate(C.d_apply(src, _unit(C.dim(src), a))):
                    col[pos(i + 1, part, k)] = t
                if part == 1:
                    col[pos(i + 1, 2, a)] = F.one if i % 2 == 0 else -F.one
                cols.append(col)
        d.append(_rows(cols, dim(i + 1)))
    bracket = {}
    g = C.gvs
    for (p, q), r in ARM_PRODUCTS.items():
        for ci in g.degrees():
            for cj in g.degrees():
                if not g.lo <= ci + cj <= g.hi:
                    continue
                i, j = ci + (p == 2), cj + (q == 2)
                sgn = -F.one if p == 2 and cj % 2 else F.one
                for a in range(C.dim(ci)):
                    for b in range(C.dim(cj)):
                        w = C.bracket_vec(ci, a, cj, b)
                        if not any(w):
                            continue
                        out = [F.zero] * dim(i + j)
                        for k, t in enumerate(w):
                            out[pos(i + j, r, k)] = sgn * t
                        bracket[(i, pos(i, p, a), j, pos(j, q, b))] = tuple(out)
    return Dgla(F, GradedVectorSpace(lo, hi, [dim(i) for i in range(lo, hi + 1)]),
                d, bracket)


def rebase(C, rng):
    """C in a random basis: basis vector a of degree i becomes column a
    of a lower unitriangular integer matrix U_i."""
    g = C.gvs
    U = {i: tuple(tuple(F.one if r == c else
                        F.from_int(rng.randint(-2, 2)) if r > c else F.zero
                        for c in range(C.dim(i))) for r in range(C.dim(i)))
         for i in g.degrees()}

    def back(i, v):
        return solve(F, U[i], tuple(v), C.dim(i))

    def col(i, a):
        return [U[i][r][a] for r in range(C.dim(i))]

    d = [_rows([back(i + 1, C.d_apply(i, col(i, a))) for a in range(C.dim(i))],
               C.dim(i + 1))
         for i in range(g.lo, g.hi)]
    bracket = {}
    for i in g.degrees():
        for j in g.degrees():
            if not g.lo <= i + j <= g.hi:
                continue
            for a in range(C.dim(i)):
                for b in range(C.dim(j)):
                    w = back(i + j, C.bracket_elem(i, col(i, a), j, col(j, b)))
                    if any(w):
                        bracket[(i, a, j, b)] = tuple(w)
    return Dgla(F, g, d, bracket)


def non_formal_algebras():
    rng = random.Random(20)
    out = {}
    for name, P in corpus().items():
        if name in ("exterior-3", "glr"):
            continue
        out[f"{name}-arm"] = rebase(with_arm(P.lie), rng)
    out["solvable"] = _solvable_pair().lie
    out["acyclic-arm"] = corpus()["acyclic-arm"].lie
    return out


@pytest.fixture(scope="module")
def non_formal():
    return non_formal_algebras()


@pytest.fixture(scope="module")
def algebras(non_formal):
    out = {name: P.lie for name, P in corpus().items()}
    out.update(non_formal)
    return out


def test_non_formal_algebras_are_dglas(non_formal):
    for name, C in non_formal.items():
        assert check_dgla(C) == [], name
        assert not C.has_zero_differential(), name


def test_cone_matches_classification_loop(algebras):
    nonzero = 0
    for name, C in algebras.items():
        S, I = quadratic_cone_ideal(C)
        R, ref = reference_cone(C)
        assert S.names == R.names, name
        assert [g.terms for g in I.gens] == ref, name
        nonzero += bool(ref)
    assert nonzero >= 5


def test_flat_ideal_matches_monomial_loop(algebras):
    linear = 0
    for name, C in algebras.items():
        S, I = flat_connection_ideal(C)
        R, ref = reference_flat(C)
        assert S.names == R.names, name
        assert [g.terms for g in I.gens] == ref, name
        linear += any(sum(m) == 1 for terms in ref for m, _ in terms)
    assert linear >= 6


def test_universal_aomoto_matches_action_formula():
    for name, P in corpus().items():
        Pc = cohomology_pair(P)
        E = universal_aomoto(Pc)
        ctx = E.ring
        _, cone = reference_cone(Pc.lie)
        assert [g.terms for g in ctx.quotient_gens] == cone, name
        n = Pc.lie.dim(1)
        for j in range(E.lo, E.hi):
            want = tuple(
                tuple(ctx.from_dict({_mono(n, a): _entry(Pc.action.entries,
                                                         (1, a, j, b), c)
                                     for a in range(n)}).terms
                      for b in range(Pc.m_dim(j)))
                for c in range(Pc.m_dim(j + 1)))
            got = tuple(tuple(e.terms for e in row) for row in E.diff(j))
            assert got == want, (name, j)


RINGS = {
    "t^4": ("t", ["t^4"]),
    "(x,y)^2": ("x y", ["x^2", "x*y", "y^2"]),
    "(t^3,s^2)": ("t s", ["t^3", "s^2"]),
}


def _artin(names, gens):
    ctx = RingContext(F, tuple(names.split()), "degrevlex")
    return make_artin(ctx, [parse_poly(ctx, g) for g in gens])


def flat_connections(P, A, rng, count):
    """omega = x (x) eta for x in the maximal ideal and eta a cocycle with
    [eta, eta] = 0 (flat, as (1/2)[omega, omega] = x^2 (1/2)[eta, eta]),
    plus x (x) eta + y (x) eta' when every product in the maximal ideal
    vanishes (then only d omega = 0 is needed)."""
    C = P.lie
    n = C.dim(1)
    square_zero = all(not any(A.mul(x, y)) for x in A.max_ideal_basis()
                      for y in A.max_ideal_basis())

    def elem():
        return tuple([F.zero] + [F.from_int(rng.randint(-2, 2))
                                 for _ in range(A.dim - 1)])

    etas = []
    for _ in range(200):
        eta = [F.zero] * n
        for a in rng.sample(range(n), min(n, rng.randint(1, 2))):
            eta[a] = F.from_int(rng.choice((-2, -1, 1, 3)))
        if any(C.d_apply(1, eta)):
            continue
        if square_zero or not any(C.bracket_elem(1, eta, 1, eta)):
            etas.append(eta)
        if len(etas) == count:
            break
    out = []
    for eta in etas:
        x = elem()
        omega = tuple(A.scale(x, c) for c in eta)
        if square_zero and out:
            omega = tuple(A.add(u, v) for u, v in zip(omega, out[-1]))
        out.append(omega)
    return out


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_aomoto_complex_matches_action_formula(ring):
    A = _artin(*RINGS[ring])
    rng = random.Random(ring)
    checked = 0
    for name, P in corpus().items():
        omegas = flat_connections(P, A, rng, 12)
        assert omegas, name
        for omega in omegas:
            E = aomoto_complex(P, A, omega)
            got = [E.diff(j) for j in range(E.lo, E.hi)]
            assert got == reference_twisted(P, A, omega), (name, omega)
            checked += 1
    assert checked >= 90
