import functools
import json
import math
import time
from collections import Counter

import pytest

from cjl import complexes
from cjl.artin import ArtinLocalAlgebra, ArtinMap, make_artin
from cjl.cli import run
from cjl.complexes import (FreeComplex, base_change, block_diag_determinantal,
                           determinantal_ideal, fiber_cohomology_rank,
                           jump_ideal, minimize_complex)
from cjl.errors import InternalCheckError, ResourceLimitError, ValidationError
from cjl.field import GFp, QQ
from cjl.groebner import DEFAULT_BUDGET, Ideal
from cjl.linalg import rref
from cjl.parse import parse_poly
from cjl.poly import RingContext, format_poly
from cjl.rng import Rng


def is_whole(I) -> bool:
    """The polynomial ideal ``I`` is the whole ring: it contains 1."""
    return I.contains(I.ctx.one())


def ctx_xyzw():
    return RingContext(QQ(), ("x", "y", "z", "w"))


def one_map(ring, M):
    """The two-term complex whose one differential is the matrix ``M``."""
    return FreeComplex(ring, 0, 1, (len(M[0]), len(M)), (M,))


def test_determinantal_ideal_2x2():
    ctx = ctx_xyzw()
    x, y, z, w = ctx.gens()
    E = one_map(ctx, ((x, y), (z, w)))
    I = determinantal_ideal(E, 0, 2)
    assert I.equals(Ideal(ctx, [x * w - y * z]))
    assert is_whole(determinantal_ideal(E, 0, 0))
    assert is_whole(determinantal_ideal(E, 0, -3))
    assert determinantal_ideal(E, 0, 3).groebner() == ()


def test_determinantal_ideal_2x3_vs_bruteforce():
    ctx = RingContext(QQ(), ("a", "b", "c", "d", "e", "f"))
    a, b, c, d, e, f = ctx.gens()
    E = one_map(ctx, ((a, b, c), (d, e, f)))
    I = determinantal_ideal(E, 0, 2)
    # oracle: the three 2x2 determinants written out by hand
    expected = Ideal(ctx, [a * e - b * d, a * f - c * d, b * f - c * e])
    assert I.equals(expected)
    # Laplace monotonicity: I_2 inside I_1
    I1 = determinantal_ideal(E, 0, 1)
    assert all(I1.contains(g) for g in I.gens)


def block_diag(ring, A, B, r, ra, ca, rb, cb):
    """:func:`block_diag_determinantal` of two raw blocks, each read through
    the span of its minors (:func:`complexes.span_of_minors`)."""
    return block_diag_determinantal(
        ring, r, ra, ca, rb, cb,
        functools.partial(complexes.span_of_minors, ring, A, nrows=ra, ncols=ca),
        functools.partial(complexes.span_of_minors, ring, B, nrows=rb, ncols=cb))


def test_block_diag_determinantal():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    A = ((x,),)
    B = ((y,),)
    assert block_diag(ctx, A, B, 2, 1, 1, 1, 1).equals(Ideal(ctx, [x * y]))
    assert block_diag(ctx, A, B, 1, 1, 1, 1, 1).equals(Ideal(ctx, [x, y]))


def test_block_diag_torus_shape():
    # blocks (x1,x2)^T and (-x2, x1); minors of size 2 of their sum give
    # the squares of the maximal ideal
    ctx = RingContext(QQ(), ("x1", "x2"))
    x1, x2 = ctx.gens()
    A = ((x1,), (x2,))
    B = ((-x2, x1),)
    I = block_diag(ctx, A, B, 2, 2, 1, 1, 2)
    assert I.equals(Ideal(ctx, [x1 ** 2, x1 * x2, x2 ** 2]))


def convolution_ideal(ring, A, B, r, ra, ca, rb, cb):
    """Oracle: the minor ideal of A (+) B as sum_j I_j(A) * I_{r-j}(B),
    generated by the products of the raw minors of the two factors (zeros
    included, no span taken)."""
    if r <= 0:
        return ring.unit_ideal()
    return ring.ideal([ring.mul(f, g) for j in range(r + 1)
                       for f in complexes.matrix_minors(ring, A, j, ra, ca)
                       for g in complexes.matrix_minors(ring, B, r - j, rb, cb)])


def assembled_ideal(ring, A, B, r, ra, ca, rb, cb):
    """Oracle: the raw r x r minors of the assembled matrix [[A, 0], [0, B]]."""
    if r <= 0:
        return ring.unit_ideal()
    z = ring.zero()
    top = tuple(tuple(A[i]) + (z,) * cb for i in range(ra))
    bot = tuple((z,) * ca + tuple(B[i]) for i in range(rb))
    return ring.ideal(complexes.matrix_minors(ring, top + bot, r, ra + rb, ca + cb))


def _linear_entry(ring, rng):
    x, y = ring.gens()
    return (ring.from_int(rng.randint(-2, 2)) * x
            + ring.from_int(rng.randint(-2, 2)) * y)


def _artin_entry(A, rng):
    # mostly in the maximal ideal, so that the minor ideals stay proper
    c = [rng.randint(-2, 2) if k or rng.below(4) == 0 else 0 for k in range(A.dim)]
    out = A.zero()
    for k, ck in enumerate(c):
        out = A.add(out, A.scale(A.basis(k), A.field.from_int(ck)))
    return out


def _max_ideal_entry(A, rng):
    # every entry in m: the sizes at and above the nilpotency index vanish
    out = _artin_entry(A, rng)
    return A.sub(out, A.scale(A.one(), out[0]))


def _artin(names, quotient, field=QQ()):
    ctx = RingContext(field, names)
    return make_artin(ctx, [parse_poly(ctx, q) for q in quotient])


def _convolution_cases():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    qctx = RingContext(QQ(), ("x", "y"), quotient=[x * y, y ** 3])
    t3 = _artin(("t",), ["t^3"])
    t3s2 = _artin(("t", "s"), ["t^3", "s^2"])
    return [pytest.param(ctx, _linear_entry, _linear_entry, id="poly"),
            pytest.param(qctx, _linear_entry, _linear_entry, id="quotient"),
            pytest.param(t3, _artin_entry, _artin_entry, id="artin"),
            pytest.param(t3, _max_ideal_entry, _max_ideal_entry, id="t3-in-m"),
            pytest.param(t3, _max_ideal_entry, _artin_entry, id="t3-units-in-B"),
            pytest.param(t3s2, _max_ideal_entry, _max_ideal_entry, id="t3s2-in-m"),
            pytest.param(t3s2, _artin_entry, _max_ideal_entry, id="t3s2-units-in-A"),
            pytest.param(t3s2, _artin_entry, _artin_entry, id="t3s2-units")]


@pytest.mark.parametrize("ring,entry_a,entry_b", _convolution_cases())
@pytest.mark.parametrize("seed", range(3))
def test_block_diag_matches_convolution(ring, entry_a, entry_b, seed):
    """Production against both oracles, every size from 0 to past the shape
    (over the Artin rings that includes every size at and above the
    nilpotency index: 3 for k[t]/(t^3), 4 for k[t,s]/(t^3,s^2))."""
    rng = Rng(seed)
    for ra, ca, rb, cb in ((1, 2, 2, 1), (2, 1, 1, 2), (2, 2, 1, 2), (2, 2, 2, 2),
                           (3, 2, 2, 3)):
        A = tuple(tuple(entry_a(ring, rng) for _ in range(ca)) for _ in range(ra))
        B = tuple(tuple(entry_b(ring, rng) for _ in range(cb)) for _ in range(rb))
        for r in range(min(ra + rb, ca + cb) + 2):
            direct = block_diag(ring, A, B, r, ra, ca, rb, cb)
            case = ((ra, ca, rb, cb), r)
            assert direct.equals(convolution_ideal(ring, A, B, r, ra, ca, rb, cb)), case
            assert direct.equals(assembled_ideal(ring, A, B, r, ra, ca, rb, cb)), case


def _count_minor_calls(monkeypatch):
    """Record each minor enumeration, (size, rows, columns): the lazy one
    that the Artin spans read and that :func:`complexes.matrix_minors`
    lists."""
    calls = []
    real = complexes._iter_minors

    def counted(ring, mat, r, nrows, ncols):
        calls.append((r, nrows, ncols))
        return real(ring, mat, r, nrows, ncols)

    monkeypatch.setattr(complexes, "_iter_minors", counted)
    return calls


def test_jump_at_nilpotency_index_expands_no_minor(monkeypatch):
    """After minimization every entry lies in m, so at a size r at or above
    the nilpotency index the jump ideal is zero without any expansion."""
    calls = _count_minor_calls(monkeypatch)
    for A in (_artin(("t",), ["t^3"]), _artin(("t", "s"), ["t^3", "s^2"])):
        rng = Rng(A.dim)
        z = A.zero()
        d = tuple(tuple(_max_ideal_entry(A, rng) for _ in range(4)) for _ in range(4))
        # d (+) 1: a unit summand that minimization splits off
        E = FreeComplex(A, 0, 1, (5, 5),
                        (tuple(row + (z,) for row in d) + ((z,) * 4 + (A.one(),),),))
        M = minimize_complex(E)
        assert M.ranks == (4, 4)
        for i in (0, 1):
            for k in range(1, M.rank(i) - A.nilpotency_index + 2):
                calls.clear()
                J = jump_ideal(E, i, k)
                assert calls == [] and J.is_zero(), (A, i, k)
                r = M.rank(i) - k + 1
                assert assembled_ideal(A, M.diff(i - 1), M.diff(i), r, M.rank(i),
                                       M.rank(i - 1), M.rank(i + 1), M.rank(i)).is_zero()


def test_nilpotency_shortcut_reads_the_minimal_model(monkeypatch):
    """The nilpotency shortcut compares the size on the minimal model:
    1_2 (+) (t) over k[t]/(t^3) asks at i = 0, k = 1 for size 3, the
    nilpotency index, and has the nonzero 3 x 3 minor t; its minimal model
    (t) asks for size 1, so minors are expanded and the ideal is (t)."""
    A = _artin(("t",), ["t^3"])
    one, z, t = A.one(), A.zero(), A.basis(1)
    E = one_map(A, ((one, z, z), (z, one, z), (z, z, t)))
    M = E.minimal
    assert E.rank(0) == A.nilpotency_index == 3 and M.ranks == (1, 1)
    calls = _count_minor_calls(monkeypatch)
    J = jump_ideal(E, 0, 1)
    assert calls and J.equals(A.ideal([t]))
    assert J.equals(assembled_ideal(A, M.diff(-1), M.diff(0), 1, 1, 0, 1, 1))


def test_minor_budget_refuses_before_expanding(tmp_path, capsys, monkeypatch):
    """jump --i 0 --k 7 on a 14 x 14 matrix of distinct variables needs the
    C(14, 8)^2 = 9 018 009 minors of size 8: exit 3 at once."""
    monkeypatch.delenv("CJL_STEP_BUDGET", raising=False)
    names = [f"x{j}" for j in range(196)]
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({
        "ring": {"field": "Q", "vars": names, "order": "degrevlex"},
        "lo": 0, "ranks": [14, 14],
        "diffs": [[names[14 * r:14 * r + 14] for r in range(14)]]}))
    real = complexes._minor

    def empty_only(ring, mat, rows, cols, cache):
        # the 14 x 0 block has one minor, the empty one; without the budget
        # the 8 x 8 minors of the 14 x 14 block would be expanded here
        assert not rows, "a minor was expanded"
        return real(ring, mat, rows, cols, cache)

    monkeypatch.setattr(complexes, "_minor", empty_only)
    start = time.perf_counter()
    code = run(["jump", "--complex", str(cx), "--i", "0", "--k", "7"])
    assert time.perf_counter() - start < 2.0
    err = json.loads(capsys.readouterr().err)
    assert code == 3 and err["budget"] == DEFAULT_BUDGET
    assert err["error"].startswith("9018009 index pairs of 8 x 8 minors")


def test_minor_budget_counts_products_of_block_minors(monkeypatch):
    # (x y) (+) (z w)^T at size 2: blocks of 2 index pairs each, 4 products
    ctx = RingContext(QQ(), ("x", "y", "z", "w"))
    x, y, z, w = ctx.gens()
    A, B = ((x, y),), ((z,), (w,))
    monkeypatch.setenv("CJL_STEP_BUDGET", "4")
    I = block_diag(ctx, A, B, 2, 1, 2, 2, 1)
    assert [format_poly(g) for g in I.gens] == ["x*z", "x*w", "y*z", "y*w"]
    monkeypatch.setenv("CJL_STEP_BUDGET", "3")
    with pytest.raises(ResourceLimitError, match="4 products"):
        block_diag(ctx, A, B, 2, 1, 2, 2, 1)


# ---------------------------------------------------------------------------
# kept minor spans against the raw minors
# ---------------------------------------------------------------------------

def _poly_entry(ring, rng, unit):
    """A seeded linear form in the first two variables, plus a nonzero
    constant when ``unit``."""
    out = _linear_entry(ring, rng)
    return ring.add(out, ring.one()) if unit else out


def _local_entry(A, rng, unit):
    """A seeded element of the maximal ideal, plus the unit when ``unit``."""
    out = _max_ideal_entry(A, rng)
    return A.add(out, A.one()) if unit else out


def _unit_upper(ring, rng, entry, n):
    """A seeded unit upper triangular n x n matrix and its inverse
    (I + N)^-1 = I - N + N^2 - ..."""
    z, one = ring.zero(), ring.one()
    N = tuple(tuple(entry(ring, rng, (r + c) % 2 == 1) if c > r else z for c in range(n))
              for r in range(n))
    inv = power = tuple(tuple(one if r == c else z for c in range(n)) for r in range(n))
    for j in range(1, n):
        power = _mat_mul(ring, power, N)
        inv = tuple(tuple(ring.add(x, y) if j % 2 == 0 else ring.sub(x, y)
                          for x, y in zip(ri, rp)) for ri, rp in zip(inv, power))
    G = tuple(tuple(ring.add(N[r][c], one) if r == c else N[r][c] for c in range(n))
              for r in range(n))
    return G, inv


# two-term pieces (position, unit entry?) and extra free slots per position
SPAN_PIECES = [(0, False), (1, False), (1, True), (2, False), (0, True), (2, False)]
SPAN_FREE = [1, 0, 1, 1]


def seeded_complex(ring, entry, seed, pieces=SPAN_PIECES):
    """A direct sum of two-term pieces R -f-> R (``pieces``) and free
    slots, seen through seeded unit upper triangular changes of basis, so
    that most entries are nonzero; the pieces with a unit entry are split
    off by minimization over an Artin ring."""
    rng = Rng(seed)
    ranks = list(SPAN_FREE)
    entries = {}
    for p, unit in pieces:
        entries[(p, ranks[p + 1], ranks[p])] = entry(ring, rng, unit)
        ranks[p] += 1
        ranks[p + 1] += 1
    z = ring.zero()
    D = [tuple(tuple(entries.get((p, r, c), z) for c in range(ranks[p]))
               for r in range(ranks[p + 1])) for p in range(len(ranks) - 1)]
    G = [_unit_upper(ring, rng, entry, n) for n in ranks]
    mats = [_mat_mul(ring, _mat_mul(ring, G[p + 1][0], D[p]), G[p][1])
            for p in range(len(D))]
    return FreeComplex(ring, 0, len(ranks) - 1, ranks, mats)


def _span_cases():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    return [pytest.param(_artin(("t",), ["t^3"]), _local_entry, id="t3"),
            pytest.param(_artin(("t", "s"), ["t^3", "s^2"]), _local_entry, id="t3s2"),
            pytest.param(_artin(("x", "y"), ["x^2", "x*y", "y^2"]), _local_entry, id="xy2"),
            pytest.param(ctx, _poly_entry, id="poly"),
            pytest.param(RingContext(QQ(), ("x", "y"), quotient=[x * y, y ** 3]),
                         _poly_entry, id="quotient")]


def _levels(E):
    return [(i, k) for i in range(E.lo - 1, E.hi + 2) for k in range(1, E.rank(i) + 2)]


@pytest.mark.parametrize("ring,entry", _span_cases())
@pytest.mark.parametrize("seed", range(2))
def test_kept_spans_match_raw_minors(ring, entry, seed):
    """Every jump ideal of a complex, read from its kept spans (over an
    Artin ring, those of its minimal model), equals both raw-minor oracles
    on the complex's own matrices, and every Fitting ideal equals the
    ideal of the raw minors."""
    E = seeded_complex(ring, entry, seed)
    if not isinstance(ring, RingContext):
        assert E.minimal.ranks != E.ranks  # units were split off
    for i, k in _levels(E):
        r = E.rank(i) - k + 1
        shape = (E.rank(i), E.rank(i - 1), E.rank(i + 1), E.rank(i))
        J = jump_ideal(E, i, k)
        case = (i, k)
        assert J.equals(convolution_ideal(ring, E.diff(i - 1), E.diff(i), r, *shape)), case
        assert J.equals(assembled_ideal(ring, E.diff(i - 1), E.diff(i), r, *shape)), case
    for i in range(E.lo, E.hi):
        for s in range(min(E.rank(i), E.rank(i + 1)) + 2):
            raw = ring.ideal(complexes.matrix_minors(ring, E.diff(i), s, E.rank(i + 1), E.rank(i)))
            assert determinantal_ideal(E, i, s).equals(raw), (i, s)


@pytest.mark.parametrize("ring,entry", _span_cases())
def test_each_block_is_enumerated_once_per_complex(ring, entry, monkeypatch):
    """Work pin: across every (i, k), asked twice in opposite orders, each
    (degree, size) of the complex that the jump ideals read is enumerated
    once, and the Fitting ideals read the same spans."""
    E = seeded_complex(ring, entry, 5)
    M = E if isinstance(ring, RingContext) else E.minimal
    calls = Counter()
    real = complexes._iter_minors

    def counted(ring, mat, r, nrows, ncols):
        deg = next((M.lo + j for j, m in enumerate(M.diffs) if m is mat), (nrows, ncols))
        calls[(deg, r)] += 1
        return real(ring, mat, r, nrows, ncols)

    monkeypatch.setattr(complexes, "_iter_minors", counted)
    levels = _levels(E)
    first = [jump_ideal(E, i, k) for i, k in levels]
    second = [jump_ideal(E, i, k) for i, k in reversed(levels)]
    assert all(a.equals(b) for a, b in zip(first, reversed(second)))
    for i in range(M.lo, M.hi):
        for s in range(1, min(M.rank(i), M.rank(i + 1)) + 1):
            determinantal_ideal(M, i, s)
    assert calls and set(calls.values()) == {1}, calls


def two_term(ctx, f):
    return FreeComplex(ctx, 0, 1, (1, 1), (((f,),),))


def test_jump_ideal_multiplication_by_x():
    ctx = RingContext(QQ(), ("x0",))
    x, = ctx.gens()
    E = two_term(ctx, x)
    assert jump_ideal(E, 0, 1).equals(Ideal(ctx, [x]))
    assert jump_ideal(E, 1, 1).equals(Ideal(ctx, [x]))
    assert is_whole(jump_ideal(E, 1, 2))
    assert is_whole(jump_ideal(E, 5, 1))  # outside the window: no cohomology
    with pytest.raises(ValidationError):
        jump_ideal(E, 0, 0)


def test_jump_ideal_identity_and_zero_complex():
    ctx = RingContext(QQ(), ("x0",))
    E = two_term(ctx, ctx.one())
    assert is_whole(jump_ideal(E, 0, 1))
    assert is_whole(jump_ideal(E, 1, 1))
    Z = FreeComplex(ctx, 0, 0, (0,), ())
    assert is_whole(jump_ideal(Z, 0, 1))


def test_jump_monotone_in_k():
    # J(i, k) sits inside J(i, k+1): jumping higher is harder
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    E = FreeComplex(ctx, 0, 1, (2, 1), (((x, y),),))
    for i in (0, 1):
        J1 = jump_ideal(E, i, 1)
        J2 = jump_ideal(E, i, 2)
        assert all(J2.contains(g) for g in J1.gens) or is_whole(J2)
        # containment the right way round
        assert all(J2.contains(g) for g in J1.gens)


def test_dd_validation():
    ctx = RingContext(QQ(), ("x",))
    x, = ctx.gens()
    with pytest.raises(ValidationError):
        FreeComplex(ctx, 0, 2, (1, 1, 1), (((x,),), ((x,),)))  # x*x != 0
    qctx = RingContext(QQ(), ("x",), quotient=[x * x])
    FreeComplex(qctx, 0, 2, (1, 1, 1),
                (((qctx.var(0),),), ((qctx.var(0),),)))  # fine mod x^2


# ---------------------------------------------------------------------------
# Artin coefficients: minimization and fibers
# ---------------------------------------------------------------------------

def dual_t():
    ctx = RingContext(QQ(), ("t",))
    t, = ctx.gens()
    return make_artin(ctx, [t ** 2])


def test_minimize_identity_collapses():
    A = dual_t()
    E = FreeComplex(A, 0, 1, (1, 1), (((A.one(),),),))
    M = minimize_complex(E)
    assert M.ranks == (0, 0)


def test_minimize_t_map_unchanged():
    A = dual_t()
    t = A.basis(1)
    E = FreeComplex(A, 0, 1, (1, 1), (((t,),),))
    M = minimize_complex(E)
    assert M.ranks == (1, 1)
    assert M.diffs[0][0][0] == t


def test_minimize_direct_sum_and_mixed_basis():
    A = dual_t()
    t, one, z = A.basis(1), A.one(), A.zero()
    E = FreeComplex(A, 0, 1, (2, 2), ((((t, z), (z, one))),))
    M = minimize_complex(E)
    assert M.ranks == (1, 1)
    assert jump_ideal(E, 0, 1).equals(jump_ideal(M, 0, 1))
    # same complex in a mixed basis
    Emix = FreeComplex(A, 0, 1, (2, 2), ((((t, one), (z, one))),))
    Mmix = minimize_complex(Emix)
    assert Mmix.ranks == (1, 1)
    assert jump_ideal(Emix, 0, 1).equals(jump_ideal(E, 0, 1))


def test_minimize_longer_complex():
    A = dual_t()
    t, one, z = A.basis(1), A.one(), A.zero()
    # 0 -> A --[t,0]--> A^2 --[[0,1],[0,0]]-ish mess with a unit to split
    d0 = ((t,), (z,))
    d1 = ((z, one),)
    E = FreeComplex(A, 0, 2, (1, 2, 1), (d0, d1))
    M = minimize_complex(E)
    assert M.ranks == (1, 1, 0)
    assert M.diffs[0][0][0] == t
    for i in range(3):
        assert jump_ideal(E, i, 1).equals(jump_ideal(M, i, 1))


def test_jump_over_artin():
    A = dual_t()
    t = A.basis(1)
    E = FreeComplex(A, 0, 1, (1, 1), (((t,),),))
    J = jump_ideal(E, 0, 1)
    assert J.contained_in_max_ideal()
    assert J.equals(A.ideal([t]))
    assert jump_ideal(E, 1, 2).contains(A.one())


def _mat_mul(A, X, Y):
    return tuple(tuple(functools.reduce(A.add, (A.mul(x, Y[s][c]) for s, x in enumerate(row)),
                                        A.zero())
                       for c in range(len(Y[0]) if Y else 0)) for row in X)


def test_minimal_model_is_built_once_per_complex(monkeypatch):
    """Every jump ideal of a complex reads one minimal model: the family
    over all (i, k) minimizes once, and a fresh copy of the complex, asked
    in the reverse order, gives the same echelon bases."""
    A = _artin(("t", "s"), ["t^3", "s^2"])
    one, z, m1, m2 = A.one(), A.zero(), A.basis(1), A.basis(2)
    # (m1) (+) 1 out of degree 0 and (m2, 1) out of f3 in degree 1, seen
    # through the unit upper triangular change of basis G on degree 1
    G = ((one, m1, one), (z, one, m2), (z, z, one))
    Ginv = ((one, A.neg(m1), A.sub(A.mul(m1, m2), one)), (z, one, A.neg(m2)), (z, z, one))
    d0 = _mat_mul(A, G, ((m1, z), (z, one), (z, z)))
    d1 = _mat_mul(A, ((z, z, m2), (z, z, one)), Ginv)
    E = FreeComplex(A, 0, 2, (2, 3, 2), (d0, d1))
    calls = []
    real = complexes.minimize_complex

    def counted(C):
        calls.append(C)
        return real(C)

    monkeypatch.setattr(complexes, "minimize_complex", counted)
    levels = [(i, k) for i in range(E.lo - 1, E.hi + 2) for k in range(1, E.rank(i) + 2)]
    first = {ik: jump_ideal(E, *ik).basis for ik in levels}
    assert calls == [E]
    M = E.minimal
    assert M.ranks == (1, 1, 1) and M.minimal is M and calls == [E]
    copy = FreeComplex(A, E.lo, E.hi, E.ranks, E.diffs)
    assert {ik: jump_ideal(copy, *ik).basis for ik in reversed(levels)} == first
    assert calls == [E, copy]
    assert first[(0, 1)] == A.ideal([m1]).basis
    # a complex with no unit entry is its own model
    N = FreeComplex(A, 0, 1, (1, 1), (((m1,),),))
    assert N.minimal is N and N.minimal.minimal is N and calls[-1] is N


def test_fiber_cohomology_rank():
    A = dual_t()
    t = A.basis(1)
    E = FreeComplex(A, 0, 1, (1, 1), (((t,),),))
    assert fiber_cohomology_rank(E, 0) == 1
    assert fiber_cohomology_rank(E, 1) == 1
    E2 = FreeComplex(A, 0, 1, (1, 1), (((A.one(),),),))
    assert fiber_cohomology_rank(E2, 0) == 0
    assert fiber_cohomology_rank(E2, 1) == 0


# ---------------------------------------------------------------------------
# base change
# ---------------------------------------------------------------------------

def t_cubed():
    ctx = RingContext(QQ(), ("t",))
    t, = ctx.gens()
    return make_artin(ctx, [t ** 3])


def test_base_change_to_quotient_commutes_with_jump():
    A = t_cubed()
    t, t2 = A.basis(1), A.basis(2)
    E = two_term(A, t)
    for kill, zero in (([t2], False), ([t], True)):
        B, pi = A.quotient(kill)
        Eq = base_change(E, pi)
        J_then = pi.extend_ideal(jump_ideal(E, 0, 1))
        then_J = jump_ideal(Eq, 0, 1)
        assert J_then.equals(then_J)
        # t dies in A/(t): constant cohomology jumps
        assert then_J.is_zero() == zero


def test_base_change_evaluation_fiber():
    A = t_cubed()
    t = A.basis(1)
    res = A.residue_map()
    at0 = base_change(two_term(A, t), res)
    at1 = base_change(two_term(A, A.add(A.one(), t)), res)
    assert jump_ideal(at0, 0, 1).is_zero()
    assert jump_ideal(at1, 0, 1).contains(res.target.one())
    ext0 = res.extend_ideal(jump_ideal(two_term(A, t), 0, 1))
    assert ext0.equals(jump_ideal(at0, 0, 1))


def test_base_change_identity():
    A = t_cubed()
    eye = tuple(A.basis(j) for j in range(A.dim))
    E = two_term(A, A.basis(1))
    E2 = base_change(E, ArtinMap(A, A, eye))
    assert E2.diffs == E.diffs


# ---------------------------------------------------------------------------
# the full-piece stop of the Artin spans
# ---------------------------------------------------------------------------

def _stop_rings():
    rings = (("t3", ("t",), ["t^3"]), ("t4", ("t",), ["t^4"]),
             ("t3s2", ("t", "s"), ["t^3", "s^2"]), ("xy2", ("x", "y"), ["x^2", "x*y", "y^2"]))
    return [pytest.param(_artin(names, quot, F), id=f"{tag}-{F.name}")
            for F in (QQ(), GFp(7)) for tag, names, quot in rings]


def _count_expanded(monkeypatch):
    """Count the minors read from the lazy enumeration, one entry each."""
    seen = []
    real = complexes._iter_minors

    def counted(ring, mat, r, nrows, ncols):
        minors = real(ring, mat, r, nrows, ncols)
        return (seen.append(r) or m for m in minors)

    monkeypatch.setattr(complexes, "_iter_minors", counted)
    return seen


@pytest.mark.parametrize("A", _stop_rings())
@pytest.mark.parametrize("seed", range(3))
def test_stopped_span_equals_the_full_enumeration(A, seed, monkeypatch):
    """Differential: at every size from 0 to past the shape, the span read
    with the stop (at dim m^s for a block in m, at dim A otherwise) is the
    echelon basis of every minor, for blocks with every entry in m and
    blocks with a unit entry; the minimal model's kept span is the same.
    Over each ring some span stops before the last minor."""
    rng = Rng(seed)
    F = A.field
    stopped = False
    seen = _count_expanded(monkeypatch)
    for nrows, ncols in ((2, 3), (3, 3), (4, 3)):
        in_m = tuple(tuple(_local_entry(A, rng, False) for _ in range(ncols))
                     for _ in range(nrows))
        mixed = list(map(list, in_m))
        mixed[nrows - 1][0] = _local_entry(A, rng, True)
        mixed = tuple(map(tuple, mixed))
        E = one_map(A, in_m)
        assert E.minimal is E
        for mat, flag in ((in_m, True), (in_m, False), (mixed, False)):
            for s in range(min(nrows, ncols) + 2):
                full = rref(F, complexes.matrix_minors(A, mat, s, nrows, ncols), A.dim)[0]
                seen.clear()
                got = complexes.span_of_minors(A, mat, s, nrows, ncols, _in_m=flag)
                case = (nrows, ncols, flag, mat is mixed, s)
                assert got == full, case
                stopped |= len(seen) < math.comb(nrows, s) * math.comb(ncols, s)
                if flag:
                    assert E.minor_span(0, s) == full, case
    assert stopped


def test_stopped_span_keeps_the_budget_preflight(monkeypatch):
    """The stop changes no refusal: over k[t]/(t^3) a block in m is refused
    on its index pairs before any minor is expanded, also at a size past
    the nilpotency index, where the span is empty without expansion."""
    A = _artin(("t",), ["t^3"])
    rng = Rng(0)
    mat = tuple(tuple(_local_entry(A, rng, False) for _ in range(4)) for _ in range(4))
    real = complexes._minor

    def none_expanded(ring, mat, rows, cols, cache):
        assert not rows, "a minor was expanded"
        return real(ring, mat, rows, cols, cache)

    monkeypatch.setattr(complexes, "_minor", none_expanded)
    for s, pairs in ((2, 36), (3, 16)):
        monkeypatch.setenv("CJL_STEP_BUDGET", str(pairs - 1))
        with pytest.raises(ResourceLimitError, match=f"{pairs} index pairs of {s} x {s}"):
            complexes.span_of_minors(A, mat, s, 4, 4, _in_m=True)
        monkeypatch.setenv("CJL_STEP_BUDGET", str(pairs))
        if s == 3:
            assert complexes.span_of_minors(A, mat, s, 4, 4, _in_m=True) == ()


def test_minimal_model_expands_fewer_minors(monkeypatch):
    """Work pin: on a seeded minimal model over k[t]/(t^3), reading every
    kept span expands fewer minors than the blocks have, and the spans
    equal the full enumeration's."""
    A = _artin(("t",), ["t^3"])
    M = seeded_complex(A, _local_entry, 5).minimal
    seen = _count_expanded(monkeypatch)
    full_count = 0
    spans = {}
    for i in range(M.lo, M.hi):
        for s in range(1, min(M.rank(i), M.rank(i + 1)) + 1):
            spans[(i, s)] = M.minor_span(i, s)
            full_count += math.comb(M.rank(i + 1), s) * math.comb(M.rank(i), s)
    assert 0 < len(seen) < full_count, (len(seen), full_count)
    for (i, s), span in spans.items():
        minors = complexes.matrix_minors(A, M.diff(i), s, M.rank(i + 1), M.rank(i))
        assert span == rref(A.field, minors, A.dim)[0], (i, s)


def _dd_witness_case(ring, x):
    """d(0) = [[1, 0, 1], [1, 1, 0]] and d(1) = [[x, -x], [x, 0]]: d.d is
    [[0, -x, x], [x, 0, x]], zero at (0,0) only by cancellation; row-major
    order meets (0,1) first, column-major (1,0), a reversed row (0,2)."""
    one, z = ring.one(), ring.zero()
    d0 = ((one, z, one), (one, one, z))
    d1 = ((x, ring.sub(z, x)), (x, z))
    return FreeComplex(ring, 0, 2, (3, 2, 2), (d0, d1))


def test_dd_check_names_the_first_failing_entry():
    """d.d is checked on nonzero entries only, and the first failing entry
    in row-major order is named, over an Artin and a polynomial ring."""
    A = _artin(("t",), ["t^3"])
    ctx = RingContext(QQ(), ("x",))
    for ring, x in ((A, A.basis(1)), (ctx, ctx.gens()[0])):
        with pytest.raises(ValidationError, match=r"degrees 0 -> 2, entry \(0,1\)$"):
            _dd_witness_case(ring, x)


# ---------------------------------------------------------------------------
# minimization: one Schur complement step per pivot, against the reference
# ---------------------------------------------------------------------------

def reference_minimize(E: FreeComplex) -> FreeComplex:
    """Reference for :func:`complexes.minimize_complex`: the routine with
    mirrored neighbour updates that it replaced, kept as it was.

    Split off unit pivots until every differential entry lies in the
    maximal ideal.  The result is the minimal model of the complex; over
    an Artin local ring it exists and is unique up to isomorphism.
    :attr:`FreeComplex.minimal` calls it once per complex.  A complex with
    no unit entry is returned as it is; the result is its own model.
    """
    A = E.ring
    if not isinstance(A, ArtinLocalAlgebra):
        raise ValidationError("minimization needs Artin local coefficients")
    ranks = list(E.ranks)
    diffs = [[list(row) for row in m] for m in E.diffs]

    def find_unit():
        for j, m in enumerate(diffs):
            for r, row in enumerate(m):
                for c, a in enumerate(row):
                    if A.is_unit(a):
                        return j, r, c
        return None

    while True:
        spot = find_unit()
        if spot is None:
            break
        j, r, c = spot
        d = diffs[j]
        ainv = A.inverse(d[r][c])
        # clear the pivot row via column ops; mirror as row ops on d(j-1).
        # An update whose source entry is zero adds zero and is skipped;
        # these ops leave column c unchanged.
        col = [(r2, d[r2][c]) for r2 in range(ranks[j + 1])
               if not A.is_zero(d[r2][c])]
        for c2 in range(ranks[j]):
            if c2 == c or A.is_zero(d[r][c2]):
                continue
            lam = A.neg(A.mul(d[r][c2], ainv))     # col c2 += lam * col c
            for r2, x in col:
                d[r2][c2] = A.add(d[r2][c2], A.mul(lam, x))
            if j > 0:
                prev = diffs[j - 1]                # row c -= lam * row c2
                for t, x in enumerate(prev[c2]):
                    if not A.is_zero(x):
                        prev[c][t] = A.sub(prev[c][t], A.mul(lam, x))
        # clear the pivot column via row ops; mirror as column ops on d(j+1)
        row = [(c2, x) for c2, x in enumerate(d[r]) if not A.is_zero(x)]
        for r2 in range(ranks[j + 1]):
            if r2 == r or A.is_zero(d[r2][c]):
                continue
            lam = A.neg(A.mul(d[r2][c], ainv))     # row r2 += lam * row r
            for c2, x in row:
                d[r2][c2] = A.add(d[r2][c2], A.mul(lam, x))
            if j + 1 < len(diffs):
                nxt = diffs[j + 1]                 # col r -= lam * col r2
                for t in range(ranks[j + 2]):
                    x = nxt[t][r2]
                    if not A.is_zero(x):
                        nxt[t][r] = A.sub(nxt[t][r], A.mul(lam, x))
        # the cleared row/column of the neighbors must now vanish (d.d = 0)
        if j > 0:
            for t in range(ranks[j - 1]):
                if not A.is_zero(diffs[j - 1][c][t]):
                    raise InternalCheckError("pivot row of previous "
                                             "differential did not clear")
        if j + 1 < len(diffs):
            for t in range(ranks[j + 2]):
                if not A.is_zero(diffs[j + 1][t][r]):
                    raise InternalCheckError("pivot column of next "
                                             "differential did not clear")
        # drop basis vector c in degree j and r in degree j+1
        for r2 in range(ranks[j + 1]):
            del d[r2][c]
        del d[r]
        if j > 0:
            del diffs[j - 1][c]
        if j + 1 < len(diffs):
            for row in diffs[j + 1]:
                del row[r]
        ranks[j] -= 1
        ranks[j + 1] -= 1

    M = E if tuple(ranks) == E.ranks else FreeComplex(
        A, E.lo, E.hi, ranks, [tuple(tuple(row) for row in m) for m in diffs])
    M._minimal = M
    return M


# unit pieces one and two degrees up, on top of the pieces of SPAN_PIECES;
# unit pieces in d(2) and d(1), where splitting d(2) first gives other
# (isomorphic) matrices
SCHUR_PADS = [(1, True), (2, True)]
SCHUR_ADJACENT = [(2, True), (1, False), (0, False), (1, True)]


def _schur_corpus(A):
    """Hand-made complexes over ``A`` (a unit that appears only after a
    split, splits in two adjacent matrices, a degree of rank 0, no unit)
    and seeded ones with unit pieces, shifted unit pads, none, and a
    degree of rank 0, each also in the reversed basis."""
    one, z, t = A.one(), A.zero(), A.basis(1)
    cases = [
        one_map(A, ((one, one), (one, z))),  # Schur complement -1
        FreeComplex(A, 0, 2, (1, 2, 1), (((one,), (t,)), ((A.neg(t), one),))),
        FreeComplex(A, 0, 2, (0, 2, 2), (((), ()), ((t, one), (one, z)))),
        FreeComplex(A, 0, 2, (2, 1, 0), (((t, one),), ())),
        one_map(A, ((t, z), (z, t))),
    ]
    in_m = [(p, False) for p, _ in SPAN_PIECES]
    rank_0 = [(2, False), (2, True)]  # degree 1 keeps rank 0
    for seed in range(3):
        for pieces in (SPAN_PIECES, SPAN_PIECES + SCHUR_PADS, SCHUR_ADJACENT, in_m, rank_0):
            E = seeded_complex(A, _local_entry, seed, pieces)
            # and in the reversed basis of every degree, where the changes
            # of basis are lower triangular and pivots leave row 0
            cases += [E, FreeComplex(A, E.lo, E.hi, E.ranks,
                                     [tuple(row[::-1] for row in m[::-1]) for m in E.diffs])]
    return cases


@pytest.mark.parametrize("A", _stop_rings())
def test_schur_minimize_matches_reference(A):
    """Differential: minimize_complex gives the reference's ranks and
    matrices, by tuple equality, and a complex with no unit is its own
    model."""
    corpus = _schur_corpus(A)
    kinds = Counter()
    for E in corpus:
        M, R = minimize_complex(E), reference_minimize(E)
        assert (M.ranks, M.diffs) == (R.ranks, R.diffs), E
        assert M.minimal is M
        if R is E:
            assert M is E
        kinds["own model" if R is E else "split"] += 1
        kinds["rank 0"] += 0 in E.ranks or 0 in M.ranks
    assert kinds["own model"] >= 4 and kinds["split"] >= 8 and kinds["rank 0"] >= 3, kinds
    assert minimize_complex(corpus[0]).ranks == (0, 0)  # the -1 split too
    assert minimize_complex(corpus[1]).ranks == (0, 0, 0)


def test_schur_minimize_work_pin(monkeypatch):
    """Work pin: the one split of a fixed complex over k[t]/(t^3), in d(1)
    with both neighbours nonzero next to the pivot, multiplies at most
    (row entries) x (column entries) + (row entries) times, counting the
    nonzero off-pivot entries of the pivot row and column; the products of
    the inverse and of the model's d.d check are counted apart."""
    A = _artin(("t",), ["t^3"])
    one, z, t = A.one(), A.zero(), A.basis(1)
    # 0 -> A -t-> A^3 -(0 (+) 1 (+) t)-> A^3 -(t, 0, t^2)-> A, with the
    # middle degrees seen through G = U U^T for U unit upper triangular
    lift = lambda M: tuple(tuple(A.scale(one, A.field.from_int(x)) for x in row) for row in M)
    U, Uinv = ((1, 1, 1), (0, 1, 1), (0, 0, 1)), ((1, -1, 0), (0, 1, -1), (0, 0, 1))
    G = _mat_mul(A, lift(U), lift(zip(*U)))
    Ginv = _mat_mul(A, lift(zip(*Uinv)), lift(Uinv))
    d0, d1 = ((t,), (z,), (z,)), ((z, z, z), (z, one, z), (z, z, t))
    d2 = ((t, z, A.mul(t, t)),)
    E = FreeComplex(A, 0, 3, (1, 3, 3, 1), (_mat_mul(A, G, d0),
                                           _mat_mul(A, _mat_mul(A, G, d1), Ginv),
                                           _mat_mul(A, d2, Ginv)))
    j, r, c = next((j, r, c) for j, m in enumerate(E.diffs) for r, row in enumerate(m)
                   for c, a in enumerate(row) if A.is_unit(a))
    d = E.diffs[j]
    assert j == 1 and not A.is_zero(E.diffs[0][c][0]) and not A.is_zero(E.diffs[2][0][r])
    k_row = sum(not A.is_zero(x) for c2, x in enumerate(d[r]) if c2 != c)
    k_col = sum(not A.is_zero(row[c]) for r2, row in enumerate(d) if r2 != r)
    counts = Counter()
    where = ["split"]
    real_mul, real_inverse, real_dd = (ArtinLocalAlgebra.mul, ArtinLocalAlgebra.inverse,
                                       FreeComplex._check_dd)

    def apart(name, real):
        def call(*args):
            where.append(name)
            try:
                return real(*args)
            finally:
                where.pop()
        return call

    def mul(self, a, b):
        counts[where[-1]] += 1
        return real_mul(self, a, b)

    monkeypatch.setattr(ArtinLocalAlgebra, "mul", mul)
    monkeypatch.setattr(ArtinLocalAlgebra, "inverse", apart("inverse", real_inverse))
    monkeypatch.setattr(FreeComplex, "_check_dd", apart("dd", real_dd))
    M = minimize_complex(E)
    assert M.ranks == (1, 2, 2, 1) and (k_row, k_col) == (2, 2) and counts["dd"], counts
    assert counts["split"] <= k_row * k_col + k_row, counts
