import heapq
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cjl import groebner
from cjl.errors import ResourceLimitError, ValidationError
from cjl.field import GFp, QQ
from cjl.groebner import (Ideal, buchberger, krull_dimension,
                          krull_dimension_by_enumeration, reduce_full, step_budget)
from cjl.models import exterior_pair
from cjl.parse import parse_poly
from cjl.poly import (ORDER_KEYS, Polynomial, RingContext, format_poly, mono_deg, mono_div,
                      mono_divides, mono_lcm, mono_mul)
from cjl.resonance import resonance_ideal


def reference_reduce_full(f, basis):
    """Normal form by the textbook loop: cancel the leading term of the
    remainder with the first basis element, in basis order, whose leading
    monomial divides it, else move that term to the result."""
    ctx = f.ctx
    F = ctx.field
    if not basis:
        return f
    done = {}
    work = f
    while work.terms:
        m, c = work.terms[0]
        reducer = None
        for g in basis:
            if mono_divides(g.lm(), m):
                reducer = g
                break
        if reducer is None:
            done[m] = c
            work = Polynomial(ctx, work.terms[1:])
        else:
            coef = F.div(c, reducer.lc())
            work = work - reducer.mul_mono(mono_div(m, reducer.lm()), coef)
    return ctx.from_dict(done)


def reference_reduced_basis(G, ctx):
    """Minimalize and autoreduce with the reference normal form, smallest
    leading monomial first."""
    G = sorted(G, key=lambda p: ctx.key(p.lm()))
    minimal = []
    for p in G:
        if not any(mono_divides(q.lm(), p.lm()) for q in minimal):
            minimal.append(p)
    out = [reference_reduce_full(p, [q for q in minimal if q is not p]).monic()
           for p in minimal]
    out.sort(key=lambda p: ctx.key(p.lm()))
    return tuple(out)


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
        h = reference_reduce_full(s, G)
        if h.terms:
            G.append(h.monic())
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return list(reference_reduced_basis(G, ctx))


def _spoly(f, g):
    """The S-polynomial of f and g, from the whole of both, scaled by the
    inverses of their leading coefficients."""
    F = f.ctx.field
    L = mono_lcm(f.lm(), g.lm())
    a = f.mul_mono(mono_div(L, f.lm()), F.inv(f.lc()))
    b = g.mul_mono(mono_div(L, g.lm()), F.inv(g.lc()))
    return a - b


def reference_buchberger(gens, ctx, budget=None):
    """Buchberger as the engine ran it before the linear interreduction and
    the Gebauer-Moeller criteria: every nonzero raw generator enters the
    basis and is paired with every other, under the same selection
    strategy, with the product criterion and the chain criterion tested
    when a pair is popped; each popped pair is one step of the budget."""
    limit = step_budget() if budget is None else budget
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
        h = reference_reduce_full(_spoly(G[i], G[j]), G)
        if h.terms:
            G.append(h.monic())
            sugar.append(max(s, h.degree()))
            for k in range(len(G) - 1):
                push_pair(k, len(G) - 1)
    return reference_reduced_basis(G, ctx)


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


def test_budget_counts_pairs_among_interreduced_rows(monkeypatch):
    """Twenty dependent copies of two generators pair like the two: the
    budget of a two-generator run suffices, where pairing the raw list
    pops more than a hundred S-pairs."""
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    f, g = x**2 - y, x * y - ctx.one()
    gens = [(f + g).scale(QQ().from_int(k)) if k % 2 else f.scale(QQ().from_int(k))
            for k in range(1, 11)] + [g] * 10
    want = [t.terms for t in buchberger([f, g], ctx)]
    monkeypatch.setenv("CJL_STEP_BUDGET", "10")
    assert [t.terms for t in buchberger(gens, ctx)] == want
    with pytest.raises(ResourceLimitError):
        reference_buchberger(gens, ctx, budget=100)


@st.composite
def polys(draw, ctx, max_terms=5, max_exp=3):
    """A nonzero polynomial with small coefficients and exponents."""
    coeff = st.integers(-3, 3).filter(bool).map(ctx.field.from_int)
    mono = st.tuples(*[st.integers(0, max_exp)] * ctx.nvars)
    f = ctx.from_dict(draw(st.dictionaries(mono, coeff, min_size=1, max_size=max_terms)))
    return f if f.terms else ctx.one()


@pytest.mark.parametrize("order", sorted(ORDER_KEYS))
@pytest.mark.parametrize("field", [QQ(), GFp(5)], ids=["QQ", "F5"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reduce_full_matches_reference(field, order, data):
    """The heap-based normal form against the textbook loop, on arbitrary
    (not monic, not Groebner) bases and on reduced bases, in every order:
    each order has its own reversed heap key."""
    ctx = RingContext(field, data.draw(st.sampled_from([("x", "y"), ("x", "y", "z")])),
                      order)
    f = data.draw(polys(ctx, max_terms=8))
    basis = data.draw(st.lists(polys(ctx, max_exp=2), max_size=4))
    if data.draw(st.booleans()):
        basis = list(buchberger(basis, ctx))
    got = reduce_full(f, basis)
    assert got.terms == reference_reduce_full(f, basis).terms
    assert list(got.terms) == sorted(got.terms, key=lambda t: ctx.key(t[0]), reverse=True)


@st.composite
def monomial_lists(draw, ctx):
    """Lists of scaled monomials: zeros, repeats, scalar multiples, a run of
    one degree, multiples of drawn entries (rows that are not minimal) and
    sometimes a constant."""
    F = ctx.field
    coeff = st.integers(-3, 3).filter(bool).map(F.from_int)
    mono = st.tuples(*[st.integers(0, 3)] * ctx.nvars)

    def term(m):
        return ctx.from_dict({m: draw(coeff)})

    gens = [term(m) for m in draw(st.lists(mono, min_size=1, max_size=5))]
    d = draw(st.integers(1, 3))
    level = [m for m in itertools.product(range(d + 1), repeat=ctx.nvars) if sum(m) == d]
    gens += [term(m) for m in draw(st.lists(st.sampled_from(level), max_size=4))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple", "above"]))
        g = draw(st.sampled_from(gens))
        if kind == "zero":
            gens.append(ctx.zero())
        elif kind == "repeat":
            gens.append(g)
        elif kind == "multiple":
            gens.append(g.scale(draw(coeff)))
        else:
            gens.append(g.mul_mono(draw(mono)))
    if draw(st.integers(0, 9)) == 0:
        gens.append(ctx.constant(draw(coeff)))
    return draw(st.permutations(gens))


def _refuse_pairs(f, g, L):
    raise AssertionError("an S-pair was formed")


@pytest.mark.parametrize("order", sorted(ORDER_KEYS))
@pytest.mark.parametrize("field", [QQ(), GFp(5)], ids=["QQ", "F5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monomial_input_matches_reference_without_pairs(field, order, data):
    """A monomial ideal's reduced basis is its minimal monomials: the
    engine returns it without forming an S-pair, and it matches the
    reference run that pairs every generator."""
    ctx = RingContext(field, data.draw(st.sampled_from([("x", "y"), ("x", "y", "z")])),
                      order)
    gens = data.draw(monomial_lists(ctx))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_spair", _refuse_pairs)
        fast = buchberger(gens, ctx)
    assert [g.terms for g in fast] == [g.terms for g in reference_buchberger(gens, ctx)]


def test_monomial_resonance_ideal_forms_no_pair(monkeypatch):
    """Work pin: the exterior-4 resonance ideal in degree 3 at level 2 is
    generated by 60 monomial minors, 20 distinct ones, and its basis is
    built without an S-pair."""
    seen = []

    def counting(gens, ctx, **kw):
        seen.append(len(gens))
        return plain(gens, ctx, **kw)

    plain = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(groebner, "_spair", _refuse_pairs)
    I = resonance_ideal(exterior_pair(4), 3, 2)
    assert len(I.groebner()) == 20 and seen == [60]


@pytest.mark.parametrize("field", [QQ(), GFp(5)], ids=["QQ", "F5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_settled_start_matches_buchberger_on_the_union(field, data):
    """Extending a reduced basis G by new generators gives the basis that
    ``buchberger`` computes from G and those generators together, also
    when G or the new generators are monomials: a settled start takes the
    pair route."""
    order = data.draw(st.sampled_from(sorted(ORDER_KEYS)))
    ctx = RingContext(field, data.draw(st.sampled_from([("x", "y"), ("x", "y", "z")])),
                      order)
    lists = st.one_of(generator_lists(ctx), monomial_lists(ctx))
    G = buchberger(data.draw(lists), ctx)
    new = data.draw(lists)
    got = buchberger(new, ctx, _settled=G)
    assert [g.terms for g in got] == [g.terms for g in buchberger(list(G) + new, ctx)]
    assert [g.terms for g in got] == [g.terms for g in reference_buchberger(list(G) + new, ctx)]


def test_budget_counts_pairs_with_the_settled_basis_only(monkeypatch):
    """The 28 squarefree quadrics in x0..x7 form a reduced basis whose
    mutual pairs all survive to be reduced in a run on the union; started
    as settled, only the pairs with the new element are formed."""
    ctx = RingContext(QQ(), tuple(f"x{i}" for i in range(8)) + ("t",))
    X = ctx.gens()
    t = X[-1]
    G = buchberger([X[i] * X[j] for i in range(8) for j in range(i + 1, 8)], ctx)
    f = t**3 * X[0] - ctx.one()
    want = [g.terms for g in buchberger(list(G) + [f], ctx)]
    monkeypatch.setenv("CJL_STEP_BUDGET", "40")
    assert [g.terms for g in buchberger([f], ctx, _settled=G)] == want
    with pytest.raises(ResourceLimitError):
        buchberger(list(G) + [f], ctx)


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
    assert Ideal(ctx, [ctx.from_int(3)]).contains(ctx.one())
    assert Ideal(ctx, []).groebner() == ()


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


@pytest.mark.parametrize("field", [QQ(), GFp(5)], ids=["QQ", "F5"])
def test_radical_contains_routes_match_raw_rabinowitsch(field, monkeypatch):
    """Seeded homogeneous ideals against Rabinowitsch on the raw generators:
    zero-dimensional ones (a power of m plus forms), positive-dimensional
    ones (the square or the cube of a linear form plus a form) and the unit
    ideal, at forms, forms plus a constant and 0.  Each route of
    radical_contains is taken: (a) f in I, (b) a homogeneous ideal of
    dimension 0, (p) f^2 in I, and (c) an extra-variable run (a buchberger
    call with settled rows), which answers both ways: l lies in the radical
    of (l^3, q) but l^2 does not lie in the ideal."""
    rng = random.Random(19)
    ctx = RingContext(field, ("x", "y", "z"))
    extra = []  # one entry per extra-variable run

    def counting(gens, ring, **kw):
        if kw.get("_settled"):
            extra.append(gens)
        return plain(gens, ring, **kw)

    plain = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", counting)

    def monomials(d):
        return [m for m in itertools.product(range(d + 1), repeat=3) if sum(m) == d]

    def form(d):
        picked = rng.sample(monomials(d), min(3, len(monomials(d))))
        f = ctx.from_dict({m: field.from_int(rng.randint(-2, 2)) for m in picked})
        return f if f.terms else ctx.var(rng.randrange(3)) ** d

    seen = set()
    for case in range(48):
        kind = case % 4
        if kind == 0:
            gens = [Polynomial(ctx, ((m, field.one),)) for m in monomials(rng.randint(2, 3))]
            gens += [form(rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        elif kind in (1, 3):
            lead = form(1)
            gens = [lead ** (2 if kind == 1 else 3), form(rng.randint(1, 2))]
        else:
            gens = [ctx.one(), form(1)]
        I = Ideal(ctx, gens)
        tests = [gens[0], gens[-1] * form(1), form(1), form(1) * form(1),
                 form(1) + ctx.one(), ctx.zero()]
        if kind in (1, 3):
            tests += [lead, lead * form(1)]
        for f in tests:
            before = len(extra)
            got = I.radical_contains(f)
            route = ("c" if len(extra) > before else "a" if I.contains(f)
                     else "b" if I._origin else "p")
            assert route != "p" or I.contains(f * f)
            assert got == raw_rabinowitsch(gens, f, ctx), (gens, f)
            seen.add((route, got))
    assert {("a", True), ("b", True), ("b", False), ("p", True),
            ("c", True), ("c", False)} <= seen


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
    # the zero ideal's preimage is the quotient ideal
    assert Ideal(qctx, []).groebner() == qctx.quotient_gb()
    assert not I.equals(qctx.zero_ideal())
    assert Ideal(qctx, [xq * yq]).equals(qctx.zero_ideal())
    # dimension of (S/J)/I computed upstairs
    assert krull_dimension(I) == 0


def test_normal_form_in_quotient_context(monkeypatch):
    """Each normal form of a nonzero polynomial is one reduction by the
    reducer triples built once with the quotient basis; the zero
    polynomial takes none, and neither does 6t^2 + 4t + 1, whose degree
    is below that of t^3."""
    calls = []

    def counting(name):
        step = getattr(groebner, name)

        def count(*args):
            calls.append(name)
            return step(*args)
        monkeypatch.setattr(groebner, name, count)

    counting("_reduce")
    counting("_reducer")
    counting("buchberger")
    x0 = RingContext(QQ(), ("t",)).var(0)
    qctx = RingContext(QQ(), ("t",), quotient=[x0**3])
    t = qctx.var(0)
    f = (t + qctx.one()) ** 4
    nf = qctx.normal_form(f)
    # (t+1)^4 = t^4 + 4t^3 + 6t^2 + 4t + 1 -> 6t^2 + 4t + 1 mod t^3
    assert format_poly(nf) == "6*t^2 + 4*t + 1"
    assert nf.ctx is qctx
    triples = calls.count("_reducer")
    assert qctx.is_zero(t**3 - t**4) and not qctx.is_zero(nf)
    assert qctx.is_zero(qctx.zero()) and not qctx.normal_form(qctx.zero()).terms
    assert calls.count("buchberger") == 1 and calls.count("_reduce") == 2
    assert calls.count("_reducer") == triples


def test_budget_limit_raises(monkeypatch):
    ctx = RingContext(QQ(), ("x", "y", "z"))
    gens = [parse_poly(ctx, s) for s in ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x", "y^3*z - x"]]
    monkeypatch.setenv("CJL_STEP_BUDGET", "1")
    with pytest.raises(ResourceLimitError):
        buchberger(gens, ctx)


def test_budget_env_var(monkeypatch):
    ctx = RingContext(QQ(), ("x", "y"))
    x, y = ctx.gens()
    monkeypatch.setenv("CJL_STEP_BUDGET", "1")
    with pytest.raises(ResourceLimitError):
        buchberger([x**2 - y, x * y - ctx.one(), y**3 - x], ctx)
    for raw in ("notanint", "0", "-5"):
        monkeypatch.setenv("CJL_STEP_BUDGET", raw)
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
