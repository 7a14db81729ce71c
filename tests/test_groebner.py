import itertools
import random

import pytest

from cjl.errors import ResourceLimitError, ValidationError
from cjl.field import GFp, QQ
from cjl.groebner import (Ideal, buchberger, krull_dimension,
                          krull_dimension_by_enumeration, reduce_full)
from cjl.parse import parse_poly
from cjl.poly import RingContext, format_poly, mono_div, mono_divides, mono_lcm


def naive_buchberger(gens, ctx):
    """Textbook Buchberger: no selection strategy, no criteria.  Used as an
    independent oracle against the production engine."""
    G = [g.monic() for g in gens if g.terms]
    pairs = list(itertools.combinations(range(len(G)), 2))
    while pairs:
        i, j = pairs.pop(0)
        f, g = G[i], G[j]
        L = mono_lcm(f.lm(), g.lm())
        s = f.mul_mono(mono_div(L, f.lm())) - g.mul_mono(mono_div(L, g.lm()))
        h = reduce_full(s, G)
        if h.terms:
            G.append(h.monic())
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    # minimalize + autoreduce, smallest leading monomial first
    G.sort(key=lambda p: ctx.key(p.lm()))
    minimal = []
    for p in G:
        if not any(mono_divides(q.lm(), p.lm()) for q in minimal):
            minimal.append(p)
    out = [reduce_full(p, [q for q in minimal if q is not p]).monic() for p in minimal]
    out.sort(key=lambda p: ctx.key(p.lm()))
    return out


def test_groebner_matches_naive_oracle_on_fixture():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    gens = [x**2 - y, x * y - ctx.one()]
    fast = buchberger(gens, ctx)
    slow = naive_buchberger(gens, ctx)
    assert [format_poly(g) for g in fast] == [format_poly(g) for g in slow]
    assert [format_poly(g) for g in fast] == ["y^2 - x", "x*y - 1", "x^2 - y"]


def test_groebner_matches_naive_oracle_batch():
    ctx = RingContext(QQ(), ("x", "y", "z"))
    cases = [
        ["x^2 + y", "y^2 + z", "z^2 + x"],
        ["x*y - z^2", "y*z - 1"],
        ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"],
        ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"],
    ]
    for strs in cases:
        gens = [parse_poly(ctx, s) for s in strs]
        fast = buchberger(gens, ctx)
        slow = naive_buchberger(gens, ctx)
        assert [g.terms for g in fast] == [g.terms for g in slow], strs


def test_groebner_is_deterministic():
    ctx = RingContext(QQ(), ("x", "y", "z"))
    gens = [parse_poly(ctx, s) for s in ["x*y - z", "y*z - x", "z*x - y"]]
    a = buchberger(gens, ctx)
    b = buchberger(list(gens), ctx)
    assert [g.terms for g in a] == [g.terms for g in b]


def test_zero_and_unit_ideals():
    ctx = RingContext(QQ(), ("x", "y"))
    assert buchberger([], ctx) == ()
    assert buchberger([ctx.zero()], ctx) == ()
    gb = buchberger([ctx.from_int(3)], ctx)
    assert [format_poly(g) for g in gb] == ["1"]
    assert Ideal(ctx, [ctx.from_int(3)]).is_unit()
    assert Ideal(ctx, []).is_zero()


def test_ideal_membership():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    I = Ideal(ctx, [x**2 - y, x * y - ctx.one()])
    # x^3 - 1 = x*(x^2 - y) + (x*y - 1)
    assert I.contains(x**3 - ctx.one())
    assert not I.contains(x)
    assert I.contains(ctx.zero())


def test_ideal_equal_across_presentations():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    I = Ideal(ctx, [x + y, x - y])
    J = Ideal(ctx, [x, y])
    K = Ideal(ctx, [x])
    assert I.equals(J)
    assert not I.equals(K)


def test_ideal_sum_and_product():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    A = Ideal(ctx, [x])
    B = Ideal(ctx, [y])
    assert A.plus(B).equals(Ideal(ctx, [x, y]))
    assert A.times(B).equals(Ideal(ctx, [x * y]))


def test_radical_membership():
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    I = Ideal(ctx, [x**3, y**2])
    assert I.radical_contains(x)
    assert I.radical_contains(x * y)
    assert I.radical_contains(x + y)
    assert not I.radical_contains(x + ctx.one())
    # radical membership asks for the quotient-free world
    qctx = RingContext(QQ(), ("x", "y"), quotient=[x * y])
    with pytest.raises(ValidationError):
        Ideal(qctx, [qctx.var(0)]).radical_contains(qctx.var(1))


def raw_rabinowitsch(gens, f, ctx):
    """f in rad(I) iff 1 in I + (1 - t f), started from the raw generators."""
    big = RingContext(ctx.field, ctx.names + ("t",), ctx.order)
    keep = list(range(ctx.nvars))
    t = big.var(ctx.nvars)
    lifted = [g.embed(big, keep) for g in gens]
    gb = buchberger(lifted + [big.one() - t * f.embed(big, keep)], big)
    return len(gb) == 1 and gb[0].lm() == (0,) * big.nvars


@pytest.mark.parametrize("field", [QQ(), GFp(5)], ids=["QQ", "F5"])
def test_radical_contains_matches_raw_rabinowitsch(field):
    """Seeded ideals (l^k, products of powers of linear forms), most of them
    not radical, against Rabinowitsch on the raw generators.  l and its
    multiples lie in the radical, often outside the ideal itself."""
    rng = random.Random(11)
    ctx = RingContext(field, ("x", "y", "z"))
    x, y, z = ctx.gens()
    # x lies in rad(x^2, y) but not in (x^2, y)
    I = Ideal(ctx, [x**2, y])
    assert I.radical_contains(x) and not I.contains(x)
    assert raw_rabinowitsch(I.gens, x, ctx)

    def linear():
        return sum((v.scale(field.from_int(rng.randint(-1, 1)))
                    for v in (x, y, z)), ctx.zero()) + ctx.from_int(rng.randint(0, 1))

    seen = set()
    for _ in range(30):
        lead = linear()
        gens = [lead ** rng.randint(1, 3)] + [
            linear() ** rng.randint(1, 2) * (linear() if rng.random() < 0.5 else ctx.one())
            for _ in range(rng.randint(0, 2))]
        I = Ideal(ctx, gens)
        for f in (lead, lead * linear(), linear()):
            got = I.radical_contains(f)
            assert got == raw_rabinowitsch(gens, f, ctx), (gens, f)
            seen.add((got, I.contains(f)))
    assert {(True, True), (True, False), (False, False)} <= seen


def test_krull_dimension_fixtures():
    ctx = RingContext(QQ(), ("x", "y", "z"))
    x, y, z = ctx.gens()
    assert krull_dimension(Ideal(ctx, [])) == 3
    assert krull_dimension(Ideal(ctx, [x, y, z])) == 0
    assert krull_dimension(Ideal(ctx, [x * y])) == 1 + 1  # hypersurface: dim 2
    assert krull_dimension(Ideal(ctx, [x * y, x * z])) == 2  # x=0 plane union a line
    assert krull_dimension(Ideal(ctx, [ctx.one()])) == -1
    assert krull_dimension(Ideal(ctx, [x**2 - y])) == 2


def test_krull_dimension_matches_enumeration():
    ctx = RingContext(QQ(), ("a", "b", "c", "d"))
    a, b, c, d = ctx.gens()
    cases = [
        [],
        [a * b, c * d],
        [a * b * c],
        [a, b * c, b * d],
        [a * a, a * b, b * b],
        [ctx.one()],
    ]
    for gens in cases:
        I = Ideal(ctx, gens)
        assert krull_dimension(I) == krull_dimension_by_enumeration(I)


def test_quotient_context_ideals_live_upstairs():
    base = RingContext(QQ(), ("x", "y"))
    x, y = base.gens()
    qctx = RingContext(QQ(), ("x", "y"), quotient=[x**2, x * y, y**2])
    xq, yq = qctx.gens()
    I = Ideal(qctx, [xq])
    # the preimage contains the quotient ideal automatically
    assert I.contains(yq * yq)
    assert not I.contains(yq)
    assert not I.is_zero()
    assert Ideal(qctx, []).is_zero()
    assert Ideal(qctx, [xq * yq]).is_zero()
    # dimension of (S/J)/I computed upstairs
    assert krull_dimension(I) == 0


def test_normal_form_in_quotient_context():
    x0 = RingContext(QQ(), ("t",)).var(0)
    qctx = RingContext(QQ(), ("t",), quotient=[x0**3])
    t = qctx.var(0)
    f = (t + qctx.one()) ** 4
    nf = qctx.normal_form(f)
    # (t+1)^4 = t^4 + 4t^3 + 6t^2 + 4t + 1 -> 6t^2 + 4t + 1 mod t^3
    assert format_poly(nf) == "6*t^2 + 4*t + 1"


def test_budget_limit_raises():
    ctx = RingContext(QQ(), ("x", "y", "z"))
    gens = [parse_poly(ctx, s) for s in ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x", "y^3*z - x"]]
    with pytest.raises(ResourceLimitError):
        buchberger(gens, ctx, budget=1)


def test_budget_env_var(monkeypatch):
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    monkeypatch.setenv("CJL_STEP_BUDGET", "1")
    with pytest.raises(ResourceLimitError):
        buchberger([x**2 - y, x * y - ctx.one(), y**3 - x], ctx)
    monkeypatch.setenv("CJL_STEP_BUDGET", "notanint")
    with pytest.raises(ValidationError):
        buchberger([x**2 - y, x * y - ctx.one()], ctx)


def test_groebner_over_fp():
    ctx = RingContext(GFp(7), ("x", "y"))
    x, y = ctx.gens()
    gb = buchberger([x**2 - y, x * y - ctx.one()], ctx)
    slow = naive_buchberger([x**2 - y, x * y - ctx.one()], ctx)
    assert [g.terms for g in gb] == [g.terms for g in slow]
    I = Ideal(ctx, [x**2 - y, x * y - ctx.one()])
    assert I.contains(x**3 - ctx.one())
