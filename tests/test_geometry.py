import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cjl import complexes, geometry, groebner
from cjl.dgla import Dgla, DglaPair, GradedVectorSpace
from cjl.errors import InternalCheckError, ResourceLimitError, ValidationError
from cjl.field import QQ
from cjl.geometry import (ChernSeries, _Geometry, _locus_inside,
                          _series_product, _support_claims, alternating_sum,
                          analyze, binomial_bound, chern_exponent,
                          chern_series, exactness_threshold,
                          schur_nonnegativity, tor_crosscheck)
from cjl.linalg import generic_rank_bareiss
from cjl.models import (Arrangement, cdga_to_pair, exterior, exterior_pair, os_pair,
                        surface_pair)
from cjl.poly import RingContext
from cjl.resonance import pointwise_resonance
from cjl.rng import Rng

F = QQ()
ONE = F.one


def heis_pair():
    gvs = GradedVectorSpace(1, 2, (2, 1), (("e1", "e2"), ("f",)))
    zero_d = (((F.zero, F.zero),),)
    C = Dgla(F, gvs, zero_d, {(1, 0, 1, 1): (ONE,)})
    m = GradedVectorSpace(0, 2, (1, 1, 1))
    m_d = (((F.zero,),), ((F.zero,),))
    action = {
        (1, 0, 0, 0): (ONE,),
        (1, 1, 1, 0): (ONE,),
        (2, 0, 0, 0): (ONE,),
    }
    return DglaPair(C, m, m_d, action)


def inert_pair():
    """Two-variable abelian lie part acting by zero on a rank-one module
    sitting in degree one; degree zero is empty."""
    gvs = GradedVectorSpace(1, 1, (2,))
    C = Dgla(F, gvs, (), {})
    m = GradedVectorSpace(0, 1, (0, 1))
    return DglaPair(C, m, (((),),), {})


def concurrent():
    return os_pair(Arrangement([[1, 0], [0, 1], [1, 1]]))


# -- generic ranks and threshold ------------------------------------------

def test_generic_ranks_torus():
    g = _Geometry(exterior_pair(2))
    assert (g.b, g.beta) == ((1, 2, 1), (1, 1, 0))


def test_generic_ranks_torus3():
    g = _Geometry(exterior_pair(3))
    assert (g.b, g.beta) == ((1, 3, 3, 1), (1, 2, 1, 0))


def test_generic_ranks_surface():
    g = _Geometry(surface_pair(2))
    assert (g.b, g.beta) == ((1, 4, 1), (1, 1, 0))


def test_generic_ranks_arrangement():
    g = _Geometry(concurrent())
    assert (g.b, g.beta) == ((1, 3, 2), (1, 2, 0))


FREE_MODELS = {
    "exterior-2": lambda: exterior_pair(2),
    "exterior-3": lambda: exterior_pair(3),
    "exterior-4": lambda: exterior_pair(4),
    "surface-2": lambda: surface_pair(2),
    "surface-3": lambda: surface_pair(3),
    "surface-4": lambda: surface_pair(4),
    "3-line": concurrent,
    "4-line": lambda: os_pair(Arrangement([[1, 0], [0, 1], [1, 1], [1, -1]])),
}


@pytest.mark.parametrize("make", FREE_MODELS.values(), ids=FREE_MODELS.keys())
def test_generic_ranks_match_bareiss(make):
    """Oracle for beta: on each free built-in model the top-down search
    over the kept minor spans gives the rank of fraction-free elimination
    with symbolic pivots, differential by differential."""
    g = _Geometry(make())
    assert not g.ctx.has_quotient()
    assert g.beta == tuple(generic_rank_bareiss(g.ctx, g.E.diff(g.lo + p))
                           for p in range(g.npos))


def _enumerations(monkeypatch, most=None) -> list:
    """(size, rows, columns) of each minor enumeration from now on; a size
    above ``most`` fails the test before it is expanded."""
    calls = []
    enumerate_minors = complexes.matrix_minors

    def counting(ring, mat, r, nrows, ncols):
        calls.append((r, nrows, ncols))
        assert most is None or r <= most, calls
        return enumerate_minors(ring, mat, r, nrows, ncols)

    monkeypatch.setattr(complexes, "matrix_minors", counting)
    return calls


def test_generic_rank_search_starts_within_the_bound(monkeypatch):
    """Over a free ring the search starts at b_p - beta_{p-1}: on exterior-6
    the 20 x 15 block d out of degree 2 starts at 15 - 5 = 10, whose index
    pairs are refused at once, and never expands its 15 x 15 minors (15 504
    index pairs, within the budget, which take minutes and gigabytes)."""
    monkeypatch.delenv("CJL_STEP_BUDGET", raising=False)
    calls = _enumerations(monkeypatch, most=10)
    with pytest.raises(ResourceLimitError, match="554822268 index pairs of 10 x 10"):
        _Geometry(exterior_pair(6))
    assert calls == [(1, 6, 1), (5, 15, 6), (10, 20, 15)]


@pytest.mark.parametrize("name, count, pairs", [("exterior-4", 12, 405), ("3-line", 5, 14)])
def test_analyze_span_enumerations(monkeypatch, name, count, pairs):
    """Work pin: a whole report makes the same enumerations of minors
    (calls, index pairs) as when the generic ranks came from symbolic
    elimination, so reading beta off the kept spans adds none."""
    calls = _enumerations(monkeypatch)
    analyze(FREE_MODELS[name]())
    assert len(calls) == count
    assert sum(math.comb(n, r) * math.comb(c, r) for r, n, c in calls) == pairs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_threshold_torus_hits_top(n):
    assert exactness_threshold(exterior_pair(n)) == n


def test_threshold_surface():
    assert exactness_threshold(surface_pair(2)) == 1


def test_threshold_arrangement():
    assert exactness_threshold(concurrent()) == 2


def test_threshold_zero_action_exact_start():
    # b = (0, 1): degree zero is exactly zero, so the threshold moves up
    assert exactness_threshold(inert_pair()) == 1


def test_threshold_on_quotient_cone():
    # the kernel of the degree-zero map meets one cone component
    assert exactness_threshold(heis_pair()) == 0


@pytest.mark.parametrize("P", [exterior_pair(2), exterior_pair(3), surface_pair(2),
                               concurrent()],
                         ids=["exterior-2", "exterior-3", "surface-2", "3-line"])
def test_threshold_confirmed_at_a_cone_point(P):
    """Oracle for the symbolic threshold: some cone point has vanishing
    twisted cohomology in every degree below it."""
    a = exactness_threshold(P)
    F = P.field
    n = P.lie.dim(1)
    rng = Rng(7)
    for _ in range(25):
        eta = tuple(F.from_int(rng.randint(-5, 5)) for _ in range(n))
        if all(F.is_zero(x) for x in eta):
            continue
        if any(not F.is_zero(x) for x in P.lie.bracket_elem(1, eta, 1, eta)):
            continue
        if all(pointwise_resonance(P, eta, i) == 0 for i in range(P.m_gvs.lo, a)):
            return
    pytest.fail(f"no cone point in 25 draws confirms the threshold {a}")


# -- rank-drop loci --------------------------------------------------------

def test_fitting_locus_torus():
    g = _Geometry(exterior_pair(2))
    assert g.lo == 0
    fl = g.fit(1, g.beta[1])
    x0, x1 = fl.ctx.gens()
    assert fl.equals(fl.ctx.ideal([x0, x1]))


def test_fitting_locus_deep_drop_is_unit():
    g = _Geometry(exterior_pair(2))
    I = g.fit(1, g.beta[1] - 1)
    assert I.contains(I.ctx.one())


def test_minor_ideals_are_enumerated_once(monkeypatch):
    """Over a quotient ring the generic rank, the Fitting loci and the jump
    ideals read the same minor spans: on glr (n = 2, r = 2) each (size,
    shape) is enumerated once, the beta x beta minors included, and the
    res ideals at every level enumerate no block the Fitting loci did."""
    calls = _enumerations(monkeypatch)
    g = _Geometry(cdga_to_pair(exterior(2), 2, 2))
    assert g.ctx.has_quotient() and g.beta == (4, 4, 0)
    g.threshold_pos()
    for pos in range(g.npos):
        if g.beta[pos]:
            g.fit(pos, g.beta[pos])
    assert Counter(calls) == {(4, 4, 8): 1, (4, 8, 4): 1}
    for pos in range(g.npos):
        for k in range(1, g.b[pos] + 2):
            g.res(pos, k)
    # d out of each degree has its own shape (4 x 0, 8 x 4, 4 x 8, 0 x 4)
    seen = Counter(calls)
    assert len(seen) > 2 and set(seen.values()) == {1}, seen


def test_inclusion_claims_torus3():
    claims = analyze(exterior_pair(3), claims=["9.1c", "9.1j"])["claims"]
    ids = [c["id"] for c in claims]
    assert "9.1c:i=1" in ids and "9.1c:i=2" in ids
    assert "9.1j:i=0" in ids and "9.1j:i=1" in ids
    assert all(c["holds"] for c in claims)


def four_lines():
    return os_pair(Arrangement([[1, 0], [0, 1], [1, 1], [1, -1]]))


@pytest.mark.parametrize("make", [lambda: exterior_pair(2), lambda: exterior_pair(3),
                                  lambda: surface_pair(2), concurrent, four_lines],
                         ids=["exterior-2", "exterior-3", "surface-2", "3-line", "4-line"])
def test_support_claims_match_radical_route(make):
    """Oracle for 9.1b/9.1g: below the threshold the three inclusions that
    hold by construction are ideal memberships, and the radical route
    (9.1b both ways, 9.1g through the product ideal fit2.res1) agrees
    with the verdicts that analyze reports."""
    P = make()
    g = _Geometry(P)
    a_pos = g.threshold_pos()
    report = {c["id"]: c for c in analyze(P, claims=["9.1b", "9.1g"])["claims"]}
    assert len(report) == 2 * a_pos
    for pos in range(a_pos):
        i = g.lo + pos
        fit1, fit2 = g.fit(pos, g.beta[pos]), g.fit(pos, g.beta[pos] - 1)
        res1, res2 = g.res(pos, 1), g.res(pos, 2)
        for small, big in ((res1, fit1), (res2, fit2), (res1, res2)):
            assert all(big.contains(f) for f in small.groebner())
        same = _locus_inside(fit1, res1) and _locus_inside(res1, fit1)
        assert report[f"9.1b:i={i}"]["holds"] == same
        contained = _locus_inside(res2, fit2)
        product = g.S.ideal([a * b for a in fit2.groebner() for b in res1.groebner()])
        off_level_one = _locus_inside(product, res2)
        assert report[f"9.1g:i={i},k=2"] == {
            "id": f"9.1g:i={i},k=2", "holds": contained and off_level_one,
            "witness": {"contained": contained, "equal_off_level_one": off_level_one}}


@pytest.mark.parametrize("n, key, broken, what", [
    (2, (1, 1), "unit_ideal", "res1 in fit1"),
    (3, (1, 2), "unit_ideal", "res2 in fit2"),
    (2, (1, 2), "zero_ideal", "res1 in res2"),
])
def test_support_claims_refuse_a_broken_construction(n, key, broken, what):
    """A jump ideal that misses an inclusion the block minors guarantee is
    a bug, reported as InternalCheckError rather than as a false claim."""
    g = _Geometry(exterior_pair(n))
    g._res[key] = getattr(g.S, broken)()
    with pytest.raises(InternalCheckError, match=what):
        _support_claims(g, g.threshold_pos())


@pytest.mark.parametrize("n", [2, 3])
def test_support_claims_report_a_failing_9_1b(n):
    """The zero ideal as level-1 jump ideal passes the membership guards,
    but its locus is the whole cone, which V(fit1) does not contain: every
    9.1b verdict then reads false, so none is wired to true."""
    g = _Geometry(exterior_pair(n))
    a_pos = g.threshold_pos()
    for pos in range(a_pos):
        g._res[(pos, 1)] = g.S.zero_ideal()
    verdicts = [c["holds"] for c in _support_claims(g, a_pos) if c["id"].startswith("9.1b")]
    assert len(verdicts) == a_pos > 0 and not any(verdicts)


def test_locus_inside_non_homogeneous():
    """V(x - 1) is a point, and (x) has no constant term, yet the point
    is not inside V(x)."""
    ctx = RingContext(F, ("x",))
    x = ctx.var(0)
    assert not _locus_inside(ctx.ideal([x]), ctx.ideal([x - ctx.one()]))
    assert _locus_inside(ctx.ideal([x]), ctx.ideal([x * x]))


@pytest.mark.parametrize("make", [lambda: exterior_pair(3), lambda: exterior_pair(4),
                                  concurrent],
                         ids=["exterior-3", "exterior-4", "3-line"])
def test_analyze_settles_radical_tests_by_shortcuts(monkeypatch, make):
    """Work pin: the radical tests of an analyze report are all settled by
    the exact shortcuts, with no extra-variable run (exterior-3: 44 runs
    when every test took one; exterior-4: 298; 3-line: 18, and f^2 lies in
    the ideal in each of its tests outside routes (a) and (b)), and no two
    basis runs of one report start from the same generator list."""
    runs = []

    def counting(gens, ctx, **kw):
        runs.append((ctx.names, tuple(g.terms for g in gens), bool(kw.get("_settled"))))
        return buchberger(gens, ctx, **kw)

    buchberger = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", counting)
    analyze(make())
    assert not any(settled for _, _, settled in runs)
    plain = [run[:2] for run in runs if not run[2]]
    assert len(set(plain)) == len(plain)


def test_analyze_computes_each_dimension_once(monkeypatch):
    """Work pin: an exterior-4 report asks for Krull dimensions more often
    than it has ideals (the threshold scan, the codimensions and route (b)
    of the radical tests reach the same ideals), but each ideal runs one
    hitting-set search, from its cached basis."""
    asked, searched = [], []
    real_dim, real_supports = groebner.krull_dimension, groebner.Ideal.leading_supports

    def dimension(I):
        asked.append(I)
        return real_dim(I)

    def supports(I):
        searched.append(I)
        return real_supports(I)

    monkeypatch.setattr(geometry, "krull_dimension", dimension)
    monkeypatch.setattr(groebner, "krull_dimension", dimension)
    monkeypatch.setattr(groebner.Ideal, "leading_supports", supports)
    analyze(exterior_pair(4))
    ideals = {id(I) for I in asked}
    assert len(asked) > len(ideals) and len(searched) == len(ideals)


def codim_report(P):
    """The 9.1d/9.1e/9.1h claims of the report, the codimension of each
    level-1 locus by degree, and the report flags."""
    rep = analyze(P, claims=["9.1d", "9.1e", "9.1h"])
    codims = {int(c["id"].split("=")[1]): c["witness"]["codim"]
              for c in rep["claims"] if c["id"].startswith("9.1d")}
    return rep["claims"], codims, rep["flags"]


def test_codim_claims_torus():
    claims, codims, flags = codim_report(exterior_pair(2))
    assert codims == {0: 2, 1: 2}
    d0 = next(c for c in claims if c["id"] == "9.1d:i=0")
    assert d0["holds"] and d0["witness"]["empty"]
    assert "cm_assumed" not in flags


def test_codim_claims_arrangement():
    claims, codims, flags = codim_report(concurrent())
    # the degree-one locus is the honest hyperplane, codimension one
    assert codims[1] == 1
    d1 = next(c for c in claims if c["id"] == "9.1d:i=1")
    assert d1["holds"] and not d1["witness"]["empty"]
    e1 = next(c for c in claims if c["id"] == "9.1e:i=1")
    assert e1["holds"] and e1["witness"]["max"] == 2


# -- characteristic series -------------------------------------------------

def test_alternating_sum():
    assert alternating_sum((1, 2, 1), 2) == 0
    assert alternating_sum((1, 4, 1), 1) == 3
    assert alternating_sum((1, 3, 2), 2) == 0


def test_chern_exponent_rule():
    b = (1, 2, 2)
    assert chern_exponent(b, 1, 1) == -2
    assert chern_exponent(b, 1, 2) == 1
    assert chern_exponent(b, 1, 3) == 0


def test_chern_series_example():
    assert chern_series((1, 2, 2), 1, 2, 2).coeffs == (1, 0, -1)
    assert chern_series((1, 2, 2), 1, 2, 3).coeffs == (1, 0, -1, -2)


def test_chern_series_integer_coefficients():
    for b, i, a in [((1, 3, 5, 2), 1, 3), ((1, 3, 5, 2), 2, 3),
                    ((2, 1, 4), 1, 2), ((1, 2, 2, 7, 1), 3, 4)]:
        cs = chern_series(b, i, a, 6)
        assert all(isinstance(c, int) for c in cs.coeffs)
        assert cs.coeffs[0] == 1


def _series_by_log(exps, trunc):
    """Oracle: the product through the logarithmic-derivative recurrence
    (j+1) c_{j+1} = sum_s c_s g_{j-s} with g_m = -sum_k e_k k**(m+1)."""
    g = [-sum(e * k ** (m + 1) for k, e in exps.items()) for m in range(trunc + 1)]
    c = [Fraction(1)]
    for j in range(trunc):
        c.append(sum(c[s] * g[j - s] for s in range(j + 1)) / (j + 1))
    return c


@given(st.dictionaries(st.integers(1, 6), st.integers(-5, 5), max_size=5),
       st.integers(0, 8))
def test_series_product_matches_log_recurrence(exps, trunc):
    assert _series_product(exps, trunc) == _series_by_log(exps, trunc)


def test_chern_series_refusals():
    with pytest.raises(ValidationError):
        chern_series((1, 2, 1), 1, 2, 3)      # alternating sum vanishes
    with pytest.raises(ValidationError):
        chern_series((1, 2, 2), 0, 2, 3)      # i outside (0, a)
    with pytest.raises(ValidationError):
        chern_series((1, 2, 2), 2, 2, 3)


def test_schur_weight_two_values():
    out = schur_nonnegativity(ChernSeries(1, (1, 0, -1)), 3)
    assert [c["id"] for c in out] == [
        "9.1l:i=1,lam=1", "9.1l:i=1,lam=1.1", "9.1l:i=1,lam=2"]
    assert [c["witness"]["value"] for c in out] == [0, 1, -1]
    assert [c["holds"] for c in out] == [True, True, False]


def test_schur_needs_enough_coefficients():
    with pytest.raises(ValidationError):
        schur_nonnegativity(ChernSeries(1, (1, 0)), 3)


def test_schur_trivial_window():
    assert schur_nonnegativity(ChernSeries(1, (1,)), 1) == []


def test_binomial_bounds_torus():
    out = binomial_bound((1, 3, 3, 1), (1, 2, 1, 0), 3, True, True)
    assert all(c["holds"] for c in out)
    ids = [c["id"] for c in out]
    assert "9.1k:i=1" in ids and "9.1k:beta:i=2" in ids
    # the bottom image is free, so no rank claim is made there
    assert "9.1k:beta:i=0" not in ids


def test_binomial_bound_detects_deficit():
    out = binomial_bound((1, 2, 3, 1), (1, 2, 1, 0), 3, True, False)
    bad = next(c for c in out if c["id"] == "9.1k:i=1")
    assert not bad["holds"]
    assert bad["witness"] == {"b_i": 2, "bound": 3}


# -- crosscheck ------------------------------------------------------------

@pytest.mark.parametrize("eta", [(1, 0), (0, 1), (2, 3)])
def test_tor_crosscheck_torus_vanishes(eta):
    P = exterior_pair(2)
    for i in range(4):
        assert tor_crosscheck(P, eta, i) == (0, 0)


def test_tor_crosscheck_arrangement_resonance_point():
    P = concurrent()
    assert tor_crosscheck(P, (1, -1, 0), 0) == (1, 1)
    assert tor_crosscheck(P, (1, -1, 0), 1) == (1, 1)
    assert tor_crosscheck(P, (1, -1, 0), 2) == (0, 0)


def test_tor_crosscheck_arrangement_generic_point():
    P = concurrent()
    assert tor_crosscheck(P, (1, 1, 3), 0) == (0, 0)
    assert tor_crosscheck(P, (1, 1, 3), 1) == (0, 0)


def test_tor_crosscheck_surface():
    P = surface_pair(2)
    left, right = tor_crosscheck(P, (1, 0, 0, 0), 0)
    assert left == right == 3


def test_tor_crosscheck_rejects_bad_points():
    P = exterior_pair(2)
    with pytest.raises(ValidationError):
        tor_crosscheck(P, (0, 0), 0)
    with pytest.raises(ValidationError):
        tor_crosscheck(P, (1, 0, 0), 0)
    with pytest.raises(ValidationError):
        tor_crosscheck(P, (1, 0), -1)
    with pytest.raises(ValidationError):
        tor_crosscheck(heis_pair(), (1, 1), 0)   # off the cone


# -- report ----------------------------------------------------------------

def test_analyze_torus_report():
    rep = analyze(exterior_pair(2))
    assert rep["a"] == 2
    assert rep["b"] == [1, 2, 1] and rep["beta"] == [1, 1, 0]
    assert rep["chi_a"] == 0
    assert "chi_zero" in rep["flags"] and "cm_assumed" not in rep["flags"]
    assert rep["chern"] == {}
    assert all(c["holds"] for c in rep["claims"])
    ids = [c["id"] for c in rep["claims"]]
    for want in ["9.1a:i=0", "9.1b:i=1", "9.1c:i=1", "9.1d:i=0",
                 "9.1j:i=0", "9.1k:i=1", "9.1k:beta:i=1"]:
        assert want in ids


def test_analyze_surface_report():
    rep = analyze(surface_pair(2))
    assert rep["a"] == 1 and rep["chi_a"] == 3
    assert rep["chern"] == {} and rep["flags"] == []
    ids = [c["id"] for c in rep["claims"]]
    assert "9.1a:i=0" in ids and "9.1k:i=0" in ids
    assert not any(i.startswith("9.1c") or i.startswith("9.1l") for i in ids)
    assert all(c["holds"] for c in rep["claims"])


def test_analyze_arrangement_report():
    rep = analyze(concurrent())
    assert rep["a"] == 2 and rep["chi_a"] == 0
    assert all(c["holds"] for c in rep["claims"])
    b1 = next(c for c in rep["claims"] if c["id"] == "9.1b:i=1")
    assert b1["holds"]
    g1 = next(c for c in rep["claims"] if c["id"] == "9.1g:i=1,k=2")
    assert g1["witness"] == {"contained": True, "equal_off_level_one": True}


def test_analyze_quotient_cone_report():
    rep = analyze(heis_pair())
    assert rep["a"] == 0 and rep["chi_a"] == 1
    assert rep["claims"] == [] and rep["flags"] == []


def test_analyze_claim_filter():
    rep = analyze(exterior_pair(2), claims=["9.1d", "9.1e"])
    assert rep["claims"]
    assert all(c["id"].startswith(("9.1d", "9.1e")) for c in rep["claims"])


def test_analyze_is_json_ready():
    rep = analyze(concurrent())
    assert json.loads(json.dumps(rep)) == rep
