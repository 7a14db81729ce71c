import heapq
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cjl.errors import ResourceLimitError, ValidationError
from cjl.field import GFp, QQ
from cjl.groebner import (Ideal, _reduced_basis, _spoly, buchberger, krull_dimension,
                          krull_dimension_by_enumeration, reduce_full, step_budget)
from cjl.parse import parse_poly
from cjl.poly import (RingContext, format_poly, mono_deg, mono_div, mono_divides,
                      mono_lcm, mono_mul)


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


def reference_buchberger(gens, ctx, budget=None):
    """Buchberger as the engine ran it before the linear interreduction:
    every nonzero raw generator enters the basis and is paired with every
    other, under the same selection strategy, criteria and budget."""
    limit = step_budget(budget)
    G = [g.monic() for g in gens if g.terms]
    sugar = [g.degree() for g in G]
    if not G:
        return ()
    pairs = []
    done = set()

    def push_pair(i, j):
        L = mono_lcm(G[i].lm(), G[j].lm())
        s = max(sugar[i] + mono_deg(mono_div(L, G[i].lm())),
                sugar[j] + mono_deg(mono_div(L, G[j].lm())))
        heapq.heappush(pairs, (ctx.key(L), s, i, j))

    for i, j in itertools.combinations(range(len(G)), 2):
        push_pair(i, j)
    steps = 0
    while pairs:
        steps += 1
        if steps > limit:
            raise ResourceLimitError("Groebner basis computation", limit)
        _, s, i, j = heapq.heappop(pairs)
        done.add((i, j))
        li, lj = G[i].lm(), G[j].lm()
        L = mono_lcm(li, lj)
        if L == mono_mul(li, lj):
            continue
        if any(k not in (i, j) and mono_divides(G[k].lm(), L)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(G))):
            continue
        h = reduce_full(_spoly(G[i], G[j]), G)
        if h.terms:
            G.append(h.monic())
            sugar.append(max(s, h.degree()))
            for k in range(len(G) - 1):
                push_pair(k, len(G) - 1)
    return _reduced_basis(G)


@st.composite
def generator_lists(draw, ctx):
    """Small generator lists padded with the redundancy the minors of a
    complex produce: zeros, repeats, scalar multiples, sometimes a unit."""
    F = ctx.field
    n = ctx.nvars
    coeff = st.integers(-3, 3).filter(bool).map(F.from_int)
    homogeneous = draw(st.booleans())
    if homogeneous:
        d = draw(st.integers(1, 3))
        monos = [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]
        mono = st.sampled_from(monos)
    else:
        mono = st.tuples(*[st.integers(0, 2)] * n)

    def poly():
        return ctx.from_dict(draw(st.dictionaries(mono, coeff, min_size=1, max_size=3)))

    gens = [poly() for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple", "sum"]))
        g = draw(st.sampled_from(gens))
        if kind == "zero":
            gens.append(ctx.zero())
        elif kind == "repeat":
            gens.append(g)
        elif kind == "multiple":
            gens.append(g.scale(draw(coeff)))
        else:
            gens.append(g + draw(st.sampled_from(gens)).scale(draw(coeff)))
    if draw(st.integers(0, 9)) == 0:
        gens.append(ctx.constant(draw(coeff)))
    return draw(st.permutations(gens))


@pytest.mark.parametrize("field", [QQ(), GFp(5)], ids=["QQ", "F5"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_interreduced_buchberger_matches_reference(field, data):
    ctx = RingContext(field, data.draw(st.sampled_from([("x", "y"), ("x", "y", "z")])))
    gens = data.draw(generator_lists(ctx))
    fast = buchberger(gens, ctx)
    assert [g.terms for g in fast] == [g.terms for g in reference_buchberger(gens, ctx)]


@pytest.mark.parametrize("field", [QQ(), GFp(5)], ids=["QQ", "F5"])
def test_interreduced_buchberger_matches_reference_seeded(field):
    """Seeded lists in the shape of Fitting-ideal inputs: many dependent
    homogeneous minors, zeros among them, plus non-homogeneous lists."""
    rng = random.Random(7)
    ctx = RingContext(field, ("a", "b", "c"))
    a, b, c = ctx.gens()
    for trial in range(12):
        base = [rng.choice([a, b, c]) * rng.choice([a, b, c])
                + rng.choice([a, b, c]) ** 2 * ctx.from_int(rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3))]
        if trial % 3 == 2:
            base.append(rng.choice([a, b, c]) - ctx.from_int(rng.randint(0, 2)))
        gens = list(base)
        for _ in range(rng.randint(4, 12)):
            f, g = rng.choice(base), rng.choice(base)
            gens.append(f.scale(field.from_int(rng.randint(-3, 3))) + g)
        if trial == 11:
            gens.append(ctx.from_int(2))
        rng.shuffle(gens)
        fast = buchberger(gens, ctx)
        assert [g.terms for g in fast] == [g.terms for g in reference_buchberger(gens, ctx)]


def test_budget_counts_pairs_among_interreduced_rows():
    """Twenty dependent copies of two generators pair like the two: the
    budget of a two-generator run suffices, where pairing the raw list
    pops more than a hundred S-pairs."""
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    f, g = x**2 - y, x * y - ctx.one()
    gens = [(f + g).scale(QQ().from_int(k)) if k % 2 else f.scale(QQ().from_int(k))
            for k in range(1, 11)] + [g] * 10
    want = [t.terms for t in buchberger([f, g], ctx)]
    assert [t.terms for t in buchberger(gens, ctx, budget=10)] == want
    with pytest.raises(ResourceLimitError):
        reference_buchberger(gens, ctx, budget=100)


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
    # one base ring per quotient context, shared by every upstairs computation
    assert qctx.base() is qctx.base() and not qctx.base().has_quotient()
    assert qctx.base().same(base)
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
