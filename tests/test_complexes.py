import itertools

import pytest

from cjl.artin import ArtinMap, make_artin
from cjl.complexes import (FreeComplex, base_change, block_diag_determinantal,
                           determinantal_ideal, fiber_cohomology_rank,
                           jump_ideal, minimize_complex)
from cjl.errors import ValidationError
from cjl.field import QQ
from cjl.groebner import Ideal
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


def _convolution_rings():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    qctx = RingContext(QQ(), ("x", "y"), quotient=[x * y, y ** 3])
    tctx = RingContext(QQ(), ("t",))
    t, = tctx.gens()
    A = make_artin(tctx, [t ** 3])
    return [pytest.param(ctx, _linear_entry, id="poly"),
            pytest.param(qctx, _linear_entry, id="quotient"),
            pytest.param(A, _artin_entry, id="artin")]


@pytest.mark.parametrize("ring,entry", _convolution_rings())
@pytest.mark.parametrize("seed", range(3))
def test_block_diag_matches_convolution(ring, entry, seed):
    rng = Rng(seed)
    for ra, ca, rb, cb in ((1, 2, 2, 1), (2, 1, 1, 2), (2, 2, 1, 2), (2, 2, 2, 2)):
        A = tuple(tuple(entry(ring, rng) for _ in range(ca)) for _ in range(ra))
        B = tuple(tuple(entry(ring, rng) for _ in range(cb)) for _ in range(rb))
        for r in range(min(ra + rb, ca + cb) + 2):
            direct = block_diag_determinantal(ring, A, B, r, ra, ca, rb, cb)
            assert direct.equals(convolution_ideal(ring, A, B, r, ra, ca, rb, cb)), \
                ((ra, ca, rb, cb), r)


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
