import json
import time

import pytest

from cjl import complexes
from cjl.artin import ArtinMap, make_artin
from cjl.cli import run
from cjl.complexes import (FreeComplex, base_change, block_diag_determinantal,
                           determinantal_ideal, fiber_cohomology_rank,
                           jump_ideal, minimize_complex)
from cjl.errors import ResourceLimitError, ValidationError
from cjl.field import QQ
from cjl.groebner import DEFAULT_BUDGET, Ideal
from cjl.parse import parse_poly
from cjl.poly import RingContext, format_poly
from cjl.rng import Rng


def ctx_xyzw():
    return RingContext(QQ(), ("x", "y", "z", "w"))


def test_determinantal_ideal_2x2():
    ctx = ctx_xyzw()
    x, y, z, w = ctx.gens()
    M = ((x, y), (z, w))
    I = determinantal_ideal(ctx, M, 2)
    assert I.equals(Ideal(ctx, [x * w - y * z]))
    assert determinantal_ideal(ctx, M, 0).is_unit()
    assert determinantal_ideal(ctx, M, -3).is_unit()
    assert determinantal_ideal(ctx, M, 3).is_zero()


def test_determinantal_ideal_2x3_vs_bruteforce():
    ctx = RingContext(QQ(), ("a", "b", "c", "d", "e", "f"))
    a, b, c, d, e, f = ctx.gens()
    M = ((a, b, c), (d, e, f))
    I = determinantal_ideal(ctx, M, 2)
    # oracle: the three 2x2 determinants written out by hand
    expected = Ideal(ctx, [a * e - b * d, a * f - c * d, b * f - c * e])
    assert I.equals(expected)
    # Laplace monotonicity: I_2 inside I_1
    I1 = determinantal_ideal(ctx, M, 1)
    assert all(I1.contains(g) for g in I.gens)


def test_block_diag_determinantal():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    A = ((x,),)
    B = ((y,),)
    assert block_diag_determinantal(ctx, A, B, 2, 1, 1, 1, 1).equals(Ideal(ctx, [x * y]))
    assert block_diag_determinantal(ctx, A, B, 1, 1, 1, 1, 1).equals(Ideal(ctx, [x, y]))


def test_block_diag_torus_shape():
    # blocks (x1,x2)^T and (-x2, x1); minors of size 2 of their sum give
    # the squares of the maximal ideal
    ctx = RingContext(QQ(), ("x1", "x2"))
    x1, x2 = ctx.gens()
    A = ((x1,), (x2,))
    B = ((-x2, x1),)
    I = block_diag_determinantal(ctx, A, B, 2, 2, 1, 1, 2)
    assert I.equals(Ideal(ctx, [x1 ** 2, x1 * x2, x2 ** 2]))


def convolution_ideal(ring, A, B, r, ra, ca, rb, cb):
    """Oracle: the minor ideal of A (+) B as sum_j I_j(A) * I_{r-j}(B)."""
    if r <= 0:
        return ring.unit_ideal()
    out = ring.zero_ideal()
    for j in range(r + 1):
        out = out.plus(determinantal_ideal(ring, A, j, ra, ca).times(
            determinantal_ideal(ring, B, r - j, rb, cb)))
    return out


def assembled_ideal(ring, A, B, r, ra, ca, rb, cb):
    """Oracle: the r x r minors of the assembled matrix [[A, 0], [0, B]]."""
    z = ring.zero()
    top = tuple(tuple(A[i]) + (z,) * cb for i in range(ra))
    bot = tuple((z,) * ca + tuple(B[i]) for i in range(rb))
    return determinantal_ideal(ring, top + bot, r, ra + rb, ca + cb)


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


def _artin(names, quotient):
    ctx = RingContext(QQ(), names)
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
            direct = block_diag_determinantal(ring, A, B, r, ra, ca, rb, cb)
            case = ((ra, ca, rb, cb), r)
            assert direct.equals(convolution_ideal(ring, A, B, r, ra, ca, rb, cb)), case
            assert direct.equals(assembled_ideal(ring, A, B, r, ra, ca, rb, cb)), case


def _count_minor_calls(monkeypatch):
    calls = []
    real = complexes.matrix_minors

    def counted(ring, mat, r, nrows, ncols):
        calls.append((r, nrows, ncols))
        return real(ring, mat, r, nrows, ncols)

    monkeypatch.setattr(complexes, "matrix_minors", counted)
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


def test_nilpotency_shortcut_needs_every_entry_in_m(monkeypatch):
    """A block holding a unit is expanded at every size: 1_2 (+) (t) over
    k[t]/(t^3) has the nonzero 3 x 3 minor t, and 3 is the nilpotency index."""
    A = _artin(("t",), ["t^3"])
    one, z, t = A.one(), A.zero(), A.basis(1)
    calls = _count_minor_calls(monkeypatch)
    J = block_diag_determinantal(A, ((one, z), (z, one)), ((t,),), 3, 2, 2, 1, 1)
    assert calls and J.equals(A.ideal([t]))


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
    I = block_diag_determinantal(ctx, A, B, 2, 1, 2, 2, 1)
    assert [format_poly(g) for g in I.gens] == ["x*z", "x*w", "y*z", "y*w"]
    monkeypatch.setenv("CJL_STEP_BUDGET", "3")
    with pytest.raises(ResourceLimitError, match="4 products"):
        block_diag_determinantal(ctx, A, B, 2, 1, 2, 2, 1)


def two_term(ctx, f):
    return FreeComplex(ctx, 0, 1, (1, 1), (((f,),),))


def test_jump_ideal_multiplication_by_x():
    ctx = RingContext(QQ(), ("x0",))
    x, = ctx.gens()
    E = two_term(ctx, x)
    assert jump_ideal(E, 0, 1).equals(Ideal(ctx, [x]))
    assert jump_ideal(E, 1, 1).equals(Ideal(ctx, [x]))
    assert jump_ideal(E, 1, 2).is_unit()
    assert jump_ideal(E, 5, 1).is_unit()  # outside the window: no cohomology
    with pytest.raises(ValidationError):
        jump_ideal(E, 0, 0)


def test_jump_ideal_identity_and_zero_complex():
    ctx = RingContext(QQ(), ("x0",))
    E = two_term(ctx, ctx.one())
    assert jump_ideal(E, 0, 1).is_unit()
    assert jump_ideal(E, 1, 1).is_unit()
    Z = FreeComplex.zero(ctx)
    assert jump_ideal(Z, 0, 1).is_unit()


def test_jump_monotone_in_k():
    # J(i, k) sits inside J(i, k+1): jumping higher is harder
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    E = FreeComplex(ctx, 0, 1, (2, 1), (((x, y),),))
    for i in (0, 1):
        J1 = jump_ideal(E, i, 1)
        J2 = jump_ideal(E, i, 2)
        assert all(J2.contains(g) for g in J1.gens) or J2.is_unit()
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
    assert jump_ideal(E, 1, 2).is_unit()


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
    assert jump_ideal(at1, 0, 1).is_unit()
    ext0 = res.extend_ideal(jump_ideal(two_term(A, t), 0, 1))
    assert ext0.equals(jump_ideal(at0, 0, 1))


def test_base_change_identity():
    A = t_cubed()
    eye = tuple(A.basis(j) for j in range(A.dim))
    E = two_term(A, A.basis(1))
    E2 = base_change(E, ArtinMap(A, A, eye))
    assert E2.diffs == E.diffs
