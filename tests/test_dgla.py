import json
import random
from fractions import Fraction

import pytest

from cjl import dgla
from cjl.acceptance import _solvable_pair
from cjl.artin import make_artin
from cjl.dgla import (Dgla, DglaPair, GradedVectorSpace, _d_rows, _d_squared,
                      _GradedTable, _leibniz, _product_rule, _symmetry, _witnesses,
                      check_algebra, check_dgla, check_pair, cohomology_pair,
                      pair_from_json, pair_to_json)
from cjl.errors import AxiomError, ValidationError
from cjl.field import QQ, GFp
from cjl.models import cdga_to_pair, exterior, exterior_pair
from cjl.poly import RingContext
from test_golden import ACYCLIC_ARM

F = QQ()
ZERO = F.zero
ONE = F.one


def find(table, i, a, j, b):
    """Reference: the vector of a structure-constant table at (i,a,j,b),
    stored or, in a skew table, derived from its stored mirror by graded
    skew symmetry; None where there is neither."""
    v = table.entries.get((i, a, j, b))
    if v is None and table.skew:
        v = table.entries.get((j, b, i, a))
        if v is not None and (i * j) % 2 == 0:
            return tuple(table.field.neg(c) for c in v)
    return v


def dense(table, i, a, j, b, out_dim):
    """The vector of a structure-constant table at (i,a,j,b), stored or
    skew-derived, with ``out_dim`` zeros where there is neither."""
    v = find(table, i, a, j, b)
    return (table.field.zero,) * out_dim if v is None else v


def zero_mat(rows, cols):
    return tuple((ZERO,) * cols for _ in range(rows))


def abelian_pair(dims, m_dims, lo=0, m_lo=0):
    g = GradedVectorSpace(lo, lo + len(dims) - 1, dims)
    m = GradedVectorSpace(m_lo, m_lo + len(m_dims) - 1, m_dims)
    d = [zero_mat(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    md = [zero_mat(m_dims[i + 1], m_dims[i]) for i in range(len(m_dims) - 1)]
    return DglaPair(Dgla(F, g, d, {}), m, md, {})


def gl2_dgla():
    # gl_2 in degree 0, zero differential; basis E11, E12, E21, E22
    # (row-major), bracket [x, y] = xy - yx.
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    bracket = {}
    for (p, q), a in idx.items():
        for (r, s), b in idx.items():
            vec = [Fraction(0)] * 4
            if q == r:
                vec[idx[(p, s)]] += 1
            if s == p:
                vec[idx[(r, q)]] -= 1
            if any(vec):
                bracket[(0, a, 0, b)] = tuple(vec)
    g = GradedVectorSpace(0, 0, (4,))
    return Dgla(F, g, [], bracket)


def adjoint_pair(C):
    # the algebra acting on itself by its own bracket
    action = dict(C.bracket.entries)
    return DglaPair(C, C.gvs, list(C.d), action)


def test_abelian_pair_valid():
    P = abelian_pair((1, 1), (1, 1))
    assert check_dgla(P.lie) == []
    assert check_pair(P) == []
    P.validate()


def test_gl2_axioms():
    C = gl2_dgla()
    assert check_dgla(C) == []
    P = adjoint_pair(C)
    assert check_pair(P) == []


def test_gl2_perturbed_bracket_reports_jacobi():
    C = gl2_dgla()
    bad = dict(C.bracket.entries)
    # E11*E12 = E12: tamper with that structure vector
    bad[(0, 0, 0, 1)] = (ZERO, F.from_int(2), ZERO, ZERO)
    Cbad = Dgla(F, C.gvs, [], bad)
    report = check_dgla(Cbad)
    assert any(v["axiom"] == "jacobi" for v in report)
    with pytest.raises(AxiomError):
        adjoint_pair(Cbad).validate()


def test_skew_violation_detected():
    g = GradedVectorSpace(0, 0, (2,))
    C = Dgla(F, g, [], {(0, 0, 0, 1): (ONE, ZERO), (0, 1, 0, 0): (ONE, ZERO)})
    report = check_dgla(C)
    assert any(v["axiom"] == "skew" for v in report)


def test_even_self_bracket_must_vanish():
    g = GradedVectorSpace(0, 0, (1,))
    C = Dgla(F, g, [], {(0, 0, 0, 0): (ONE,)})
    assert any(v["axiom"] == "skew" for v in check_dgla(C))


def test_odd_self_bracket_allowed():
    # heisenberg-flavored: z | e1, e2 | f with [e1,e2] = [e2,e1] = f
    P = heisenberg_pair()
    assert check_dgla(P.lie) == []
    assert check_pair(P) == []


def heisenberg_pair():
    g = GradedVectorSpace(0, 2, (1, 2, 1))
    d = [zero_mat(2, 1), zero_mat(1, 2)]
    bracket = {(1, 0, 1, 1): (ONE,), (1, 1, 1, 0): (ONE,)}
    C = Dgla(F, g, d, bracket)
    m = GradedVectorSpace(0, 2, (1, 2, 1))
    # e_i moves m0 up, meets the partner in the top class; [e1,e2]=f must
    # act by the symmetrized product, f.m0 = 2 m3
    action = {(1, 0, 0, 0): (ONE, ZERO), (1, 1, 0, 0): (ZERO, ONE),
              (1, 0, 1, 1): (ONE,), (1, 1, 1, 0): (ONE,),
              (2, 0, 0, 0): (F.from_int(2),)}
    return DglaPair(C, m, [zero_mat(2, 1), zero_mat(1, 2)], action)


def test_leibniz_violation_detected():
    # d[e0,e1] = d(e1) = 0 but [d(e0), e1] = [f, e1] = f: derivation fails
    g = GradedVectorSpace(0, 1, (2, 1))
    d = [((ONE, ZERO),)]
    C = Dgla(F, g, d, {(0, 0, 0, 1): (ZERO, ONE), (1, 0, 0, 1): (ONE,)})
    report = check_dgla(C)
    assert any(v["axiom"] == "leibniz" for v in report)


def test_d_squared_checked():
    g = GradedVectorSpace(0, 2, (1, 1, 1))
    C = Dgla(F, g, [((ONE,),), ((ONE,),)], {})
    assert any(v["axiom"] == "d_squared" for v in check_dgla(C))


def test_pair_action_violation():
    C = gl2_dgla()
    P = adjoint_pair(C)
    bad = dict(P.action.entries)
    bad[(0, 0, 0, 1)] = (ZERO, F.from_int(3), ZERO, ZERO)
    Pbad = DglaPair(C, P.m_gvs, list(P.m_d), bad)
    report = check_pair(Pbad)
    assert any(v["axiom"] == "lie_action" for v in report)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

def contractible_pair():
    """1 | a in degree 0, b = d(a) in degree 1; module = the same complex."""
    g = GradedVectorSpace(0, 1, (2, 1))
    d = [((ZERO, ONE),)]
    # algebra multiplication as a bracket would not be skew; use the
    # abelian bracket here, the module action carries the content
    C = Dgla(F, g, d, {})
    m = GradedVectorSpace(0, 1, (2, 1))
    action = {(0, 0, 0, 0): (ONE, ZERO), (0, 0, 0, 1): (ZERO, ONE),
              (0, 0, 1, 0): (ONE,), (0, 1, 0, 0): (ZERO, ONE),
              (1, 0, 0, 0): (ONE,)}
    # unit acts as identity; a*m0 = m1, b*m0 = mb (forced by the
    # derivation rule since d(a) = b), a*a = 0, a*b = 0
    return DglaPair(C, m, [((ZERO, ONE),)], action)


def test_cohomology_of_contractible():
    P = contractible_pair()
    P.validate()
    H = cohomology_pair(P)
    assert [H.lie.dim(i) for i in (0, 1)] == [1, 0]
    assert [H.m_dim(i) for i in (0, 1)] == [1, 0]
    H.validate()


def test_cohomology_zero_differential_is_copy():
    C = gl2_dgla()
    P = adjoint_pair(C)
    H = cohomology_pair(P)
    assert H.lie.dim(0) == 4 and H.m_dim(0) == 4
    for a in range(4):
        for b in range(4):
            assert dense(H.lie.bracket, 0, a, 0, b, 4) == dense(C.bracket, 0, a, 0, b, 4)
            assert dense(H.action, 0, a, 0, b, 4) == dense(P.action, 0, a, 0, b, 4)


def test_cohomology_betti_match_rank_nullity():
    P = contractible_pair()
    assert cohomology_pair(P).m_gvs.dims == (1, 0)
    Q = abelian_pair((1,), (1, 2, 1))
    assert cohomology_pair(Q).m_gvs.dims == (1, 2, 1)


def test_cohomology_output_passes_checks():
    H = cohomology_pair(heisenberg_pair())
    assert check_dgla(H.lie) == []
    assert check_pair(H) == []
    # zero differential everywhere means H is its own cohomology
    assert H.has_zero_differentials()


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_json_round_trip():
    P = heisenberg_pair()
    obj = pair_to_json(P)
    Q = pair_from_json(obj)
    assert Q.lie.gvs.dims == P.lie.gvs.dims
    for key, vec in P.lie.bracket.entries.items():
        assert dense(Q.lie.bracket, *key, Q.lie.dim(key[0] + key[2])) == vec
    for key, vec in P.action.entries.items():
        assert find(Q.action, *key) == vec


def test_json_rejects_bad_entries():
    P = abelian_pair((1, 1), (1,))
    obj = pair_to_json(P)
    obj["lie"]["bracket"] = [{"i": 0, "a": 5, "j": 0, "b": 0, "out": ["1", "0"]}]
    with pytest.raises(ValidationError):
        pair_from_json(obj)
    obj2 = pair_to_json(P)
    obj2["module"]["dims"] = [-1]
    with pytest.raises(ValidationError):
        pair_from_json(obj2)


def test_json_validates_axioms():
    # both orientations stored with the same sign: graded skew fails
    g = GradedVectorSpace(0, 0, (2,))
    C = Dgla(F, g, [], {(0, 0, 0, 1): (ONE, ZERO), (0, 1, 0, 0): (ONE, ZERO)})
    P = DglaPair(C, GradedVectorSpace(0, 0, (1,)), [], {})
    obj = pair_to_json(P)
    with pytest.raises(AxiomError):
        pair_from_json(obj)


# ---------------------------------------------------------------------------
# references: d.d and Leibniz summed into coordinate dicts (the checkers'
# former route, before both walked operator rows), and a reader of the
# table index in the form they take
# ---------------------------------------------------------------------------

_NO_OP = {}


def _sign(field, n: int):
    return field.one if n % 2 == 0 else field.neg(field.one)


def _d_images(F, space, d_mat) -> dict:
    """d of each unit vector, as nonzero coordinates, per degree: the
    image of unit vector c is column c of the matrix of d."""
    out = {}
    for i in space.degrees():
        m = d_mat(i)
        out[i] = [[(r, row[c]) for r, row in enumerate(m) if not F.is_zero(row[c])]
                  for c in range(space.dim(i))]
    return out


def _apply(F, images, terms) -> dict:
    """The linear map with column ``images[c]`` on nonzero coordinates."""
    out = {}
    for c, s in terms:
        for r, t in images[c]:
            out[r] = F.add(out.get(r, F.zero), F.mul(s, t))
    return out


def _holds(F, lhs: dict, t1: dict, sgn, t2: dict) -> bool:
    """lhs == t1 + sgn * t2, on sparse coordinate dicts."""
    rhs = dict(t1)
    for k, z in t2.items():
        rhs[k] = F.add(rhs.get(k, F.zero), F.mul(sgn, z))
    return all(F.eq(lhs.get(k, F.zero), rhs.get(k, F.zero))
               for k in lhs.keys() | rhs.keys())


def reference_d_squared(F, space, d_img, axiom: str) -> list:
    bad = []
    for i in range(space.lo, space.hi - 1):
        for c, dc in enumerate(d_img[i]):
            if any(not F.is_zero(x)
                   for x in _apply(F, d_img[i + 1], dc).values()):
                bad.append({"axiom": axiom, "at": (i, c)})
    return bad


def _support(table) -> tuple:
    """The keys (i, a, j, b) of the nonzero vectors of ``table``, stored or
    derived by skew symmetry, its operator rows x = (i, a) -> {v: terms of
    x.v} over v = (j, b), and by v the list of its x."""
    return [x + v for x, op in table.ops.items() for v in op], table.ops, table.rev


def reference_leibniz(table: _GradedTable, d_c, d_v, axiom: str) -> list:
    """Violations of d(x.v) = (dx).v + (-1)^{|x|} x.(dv), with d_c and d_v
    the images of unit vectors under the differentials of the two spaces,
    witness (i, a, k, c).  Only pairs where x.v is nonzero, a term of dx
    acts on v, or x acts on a term of dv are visited."""
    F = table.field
    support, left, right = _support(table)
    visit = set(support)
    for i, images in d_c.items():
        for a, dx in enumerate(images):
            for e, _ in dx:
                visit.update((i, a) + v for v in left.get((i + 1, e), ()))
    for k, images in d_v.items():
        for c, dv in enumerate(images):
            for w, _ in dv:
                visit.update(x + (k, c) for x in right.get((k + 1, w), ()))
    bad = []
    for i, a, k, c in visit:
        lhs = _apply(F, d_v.get(i + k), table.terms(i, a, k, c))
        dx, dv = d_c[i][a], d_v[k][c]  # (dx).v and x.(dv) off the operator rows
        t1 = _apply(F, {e: left.get((i + 1, e), _NO_OP).get((k, c), ()) for e, _ in dx}, dx)
        t2 = _apply(F, {w: left.get((i, a), _NO_OP).get((k + 1, w), ()) for w, _ in dv}, dv)
        if not _holds(F, lhs, t1, _sign(F, i), t2):
            bad.append((i, a, k, c))
    return _witnesses(axiom, bad)


# ---------------------------------------------------------------------------
# one identity per symmetry orbit, against the walk of every triple
# ---------------------------------------------------------------------------

def sparse_product(table, i, us, j, vs):
    """The product of the nonzero coordinates ``us`` (degree i) and ``vs``
    (degree j), as a coordinate dict, from the dense vectors of
    :meth:`_GradedTable.find`."""
    F = table.field
    out = {}
    for a, x in us:
        for b, y in vs:
            for k, t in enumerate(find(table, i, a, j, b) or ()):
                out[k] = F.add(out.get(k, F.zero), F.mul(F.mul(x, y), t))
    return out


def reference_product_rule(inner, outer, twist, axiom):
    """The product-rule walker that checks every triple it visits: those
    where x acts on a term of y.v, y (with ``twist``) on a term of x.v, or
    a term of xy on v."""
    F = outer.field
    one = F.one
    support, left, right = _support(outer)
    visit = set()
    for j, b, k, c in support:
        for w, _ in outer.terms(j, b, k, c):
            for x in right.get((j + k, w), ()):
                visit.add(x + (j, b, k, c))
                if twist:
                    visit.add((j, b) + x + (k, c))
    for i, a, j, b in _support(inner)[0]:
        for e, _ in inner.terms(i, a, j, b):
            visit.update((i, a, j, b) + v for v in left.get((i + j, e), ()))
    bad = []
    for i, a, j, b, k, c in visit:
        lhs = sparse_product(outer, i + j, inner.terms(i, a, j, b), k, ((c, one),))
        t1 = sparse_product(outer, i, ((a, one),), j + k, outer.terms(j, b, k, c))
        t2 = sparse_product(outer, j, ((b, one),), i + k,
                            outer.terms(i, a, k, c)) if twist else {}
        if not _holds(F, lhs, t1, _sign(F, i * j + 1), t2):
            bad.append((i, a, j, b, k, c))
    return _witnesses(axiom, bad)


def reference_symmetry(table, sign, axiom):
    """The skew check at both orientations of every stored entry, each a
    ``_holds`` merge of the two vectors (the route ``_symmetry`` replaced,
    which read every pair of stored mirrors twice), on the vectors of
    :func:`find`."""
    F = table.field
    keys = set(table.entries) | {(j, b, i, a) for i, a, j, b in table.entries}

    def vec(*key):
        return dict(enumerate(find(table, *key) or ()))
    return _witnesses(axiom, [
        (i, a, j, b) for i, a, j, b in keys
        if not _holds(F, vec(i, a, j, b), {}, _sign(F, i * j + sign), vec(j, b, i, a))])


def reference_violations(P):
    """check_dgla + check_pair with every identity walked in full, the
    differentials' identities included when the differentials are zero."""
    F, C = P.field, P.lie
    d_c = _d_images(F, C.gvs, C.d_mat)
    d_m = _d_images(F, P.m_gvs, P.m_d_mat)
    return (reference_d_squared(F, C.gvs, d_c, "d_squared")
            + reference_symmetry(C.bracket, 1, "skew")
            + reference_product_rule(C.bracket, C.bracket, True, "jacobi")
            + reference_leibniz(C.bracket, d_c, d_c, "leibniz")
            + reference_d_squared(F, P.m_gvs, d_m, "module_d_squared")
            + reference_product_rule(C.bracket, P.action, True, "lie_action")
            + reference_leibniz(P.action, d_c, d_m, "action_leibniz"))


def _over(F, P, bracket, action, d, m_d):
    """P with the given tables and differentials, every structure
    constant read into F."""
    def conv(table):
        return {key: tuple(F.from_int(int(t)) for t in v)
                for key, v in table.items()}

    def mats(ms):
        return [tuple(tuple(F.from_int(int(t)) for t in row) for row in m)
                for m in ms]

    C = P.lie
    return DglaPair(Dgla(F, C.gvs, mats(d), conv(bracket)), P.m_gvs,
                    mats(m_d), conv(action))


def _bump(table, key, n, k, delta):
    vec = list(table.get(key, (0,) * n))
    vec[k] += delta
    table[key] = tuple(vec)


def perturb_pair(P, rng, keep_skew):
    """Add a small integer to one coordinate of one bracket or action
    vector, stored or new, and 1 or -1 to 0-2 entries of the
    differentials: the second, where there is one, in the next matrix of
    the same side and on the column of the first's row, so that d.d can
    fail.  A bracket change is mirrored so that graded skew symmetry holds
    with ``keep_skew``, and made on one stored orientation only, so that
    skew fails, without it."""
    C = P.lie
    bracket, action = dict(C.bracket.entries), dict(P.action.entries)
    d, m_d = [list(map(list, m)) for m in C.d], [list(map(list, m)) for m in P.m_d]
    cells = [(ms, p, r, c) for ms in (d, m_d) for p, m in enumerate(ms)
             for r in range(len(m)) for c in range(len(m[r]))]
    n = rng.randint(0, 2) if cells else 0
    if n:
        ms, p, r, c = rng.choice(cells)
        ms[p][r][c] += rng.choice([-1, 1])
        if n == 2:
            nxt = ms[p + 1] if p + 1 < len(ms) else []
            ms, p, r, c = (ms, p + 1, rng.randrange(len(nxt)), r) if nxt else rng.choice(cells)
            ms[p][r][c] += rng.choice([-1, 1])
    degrees = list(C.gvs.degrees())
    on_lie = not keep_skew or rng.random() < 0.5
    while True:
        i = rng.choice(degrees)
        j = rng.choice(degrees if on_lie else list(P.m_gvs.degrees()))
        dim = C.dim if on_lie else P.m_dim
        if C.dim(i) and dim(j) and dim(i + j):
            key = (i, rng.randrange(C.dim(i)), j, rng.randrange(dim(j)))
            if not on_lie or key[:2] != key[2:]:
                break
    n, k = dim(i + j), rng.randrange(dim(i + j))
    delta = rng.choice([-2, -1, 1, 2])
    if not on_lie:
        _bump(action, key, n, k, delta)
    else:
        mirror = key[2:] + key[:2]
        if keep_skew:
            if mirror in bracket:
                _bump(bracket, mirror, n, k, -_sign_int(i * j) * delta)
        elif mirror not in bracket:
            bracket[mirror] = dense(C.bracket, *mirror, n)
        _bump(bracket, key, n, k, delta)
    return bracket, action, d, m_d


def _sign_int(n):
    return 1 if n % 2 == 0 else -1


def _message(bad):
    return (f"{len(bad)} axiom violations; first: "
            f"{bad[0]['axiom']} at {bad[0].get('at')}")


@pytest.mark.parametrize("field", [QQ(), GFp(2), GFp(3)], ids=str)
def test_orbit_walk_matches_full_walk_on_perturbed_pairs(field):
    """Witness lists of the orbit route (skew kept) and of the full route
    (skew broken) against the full walk, of the d.d and Leibniz walks
    against the coordinate-dict references, and the AxiomError of
    ``validate`` against the message the full walk gives.  Each of the
    four identities of the differentials is seen failing."""
    rng = random.Random(20261019)
    pairs = {"glr-2-2": cdga_to_pair(exterior(2), 2),
             "exterior-3": exterior_pair(3),
             "contractible": contractible_pair(),
             "solvable": _solvable_pair(),
             "acyclic-arm": pair_from_json(json.loads(ACYCLIC_ARM))}
    seen = set()
    for name, P in pairs.items():
        for t in range(24):
            keep = t % 3 != 0
            Q = _over(field, P, *perturb_pair(P, rng, keep))
            skew = not _symmetry(Q.lie.bracket, 1, "skew")
            assert skew == keep or field.char == 2, (name, t)
            br = Q.lie.bracket
            for outer, axiom in ((br, "jacobi"), (Q.action, "lie_action")):
                got = _product_rule(br, outer, True, axiom, skew)
                assert got == reference_product_rule(br, outer, True, axiom), \
                    (name, t, axiom)
                if got:
                    seen.add((skew, axiom))
            sides = {"": (Q.lie.gvs, Q.lie.d_mat, br), "module_": (Q.m_gvs, Q.m_d_mat, Q.action)}
            images = {k: _d_images(field, gvs, d_mat) for k, (gvs, d_mat, _) in sides.items()}
            for k, (gvs, d_mat, table) in sides.items():
                rows = _d_rows(field, gvs, d_mat)
                got = _d_squared(field, rows, k + "d_squared")
                assert got == reference_d_squared(field, gvs, images[k], k + "d_squared")
                axiom = "action_leibniz" if k else "leibniz"
                got = _leibniz(table, _d_rows(field, Q.lie.gvs, Q.lie.d_mat), rows, axiom)
                assert got == reference_leibniz(table, images[""], images[k], axiom), \
                    (name, t, axiom)
            want = reference_violations(Q)
            seen.update(w["axiom"] for w in want)
            assert check_dgla(Q.lie) + check_pair(Q) == want, (name, t)
            if want:
                with pytest.raises(AxiomError) as exc:
                    Q.validate()
                assert str(exc.value) == _message(want)
                assert exc.value.witness == want[0]
            else:
                Q.validate()
    assert {(True, "jacobi"), (True, "lie_action"),
            (False, "jacobi"), (False, "lie_action"),
            "d_squared", "module_d_squared", "leibniz", "action_leibniz"} <= seen, seen


def test_orbit_walk_matches_full_walk_on_perturbed_algebras():
    """Associativity once per reversal (x, y, z) <-> (z, y, x), against the
    full walk, on commutative edits of a graded algebra and an Artin
    table; ``check_algebra`` raises at the first witness of the full walk."""
    rng = random.Random(20261020)
    ctx = RingContext(QQ(), ("t", "s"))
    t_, s_ = ctx.gens()
    algebras = {"exterior-3": (exterior(3).table, exterior(3).gvs)}
    A = make_artin(ctx, [t_**3, s_**2])
    algebras["artin-t3-s2"] = (A.table, GradedVectorSpace(0, 0, (A.dim,)))
    seen = 0
    for name, (table, gvs) in algebras.items():
        for t in range(30):
            mult = dict(table.entries)
            degrees = [i for i in gvs.degrees() if gvs.dim(i)]
            while True:
                i, j = rng.choice(degrees), rng.choice(degrees)
                key = (i, rng.randrange(gvs.dim(i)), j, rng.randrange(gvs.dim(j)))
                if (gvs.dim(i + j) and (0, 0) not in (key[:2], key[2:])
                        and (i % 2 == 0 or key[:2] != key[2:])):
                    break
            n, k = gvs.dim(i + j), rng.randrange(gvs.dim(i + j))
            delta = rng.choice([-2, -1, 1, 2])
            _bump(mult, key, n, k, delta)
            if key[2:] != key[:2]:
                _bump(mult, key[2:] + key[:2], n, k, _sign_int(i * j) * delta)
            T = _GradedTable(F, mult, skew=False)
            assert _symmetry(T, 0, "commutativity") == [], (name, t)
            want = reference_product_rule(T, T, False, "associativity")
            assert _product_rule(T, T, False, "associativity", True) == want
            if want:
                seen += 1
                with pytest.raises(AxiomError) as exc:
                    check_algebra(T, gvs)
                assert exc.value.witness == want[0]
            else:
                check_algebra(T, gvs)
    assert seen >= 20


@pytest.mark.parametrize("field", [QQ(), GFp(2), GFp(3)], ids=str)
def test_skew_check_matches_mirrored_reference(field):
    """``_symmetry``, one comparison per pair of stored mirrors, gives the
    witness lists of the check at both orientations of every entry, on
    random tables: entries stored in one orientation (or both, the mirror
    often edited), diagonal keys, and commutativity tables (no skew
    derivation) whose missing mirrors fail."""
    rng = random.Random(20261021)
    gvs = GradedVectorSpace(0, 2, (2, 2, 1))
    keys = [(i, a, j, b) for i in gvs.degrees() for j in gvs.degrees()
            if gvs.dim(i + j) for a in range(gvs.dim(i)) for b in range(gvs.dim(j))]
    kinds = set()
    for t in range(120):
        skew = t % 2 == 0
        entries = {}
        for key in rng.sample(keys, rng.randint(1, 8)):
            i, a, j, b = key
            n = gvs.dim(i + j)
            vec = tuple(field.from_int(rng.choice([0, 0, 1, -1, 2])) for _ in range(n))
            entries[key] = vec
            mirror = (j, b, i, a)
            if mirror != key and rng.random() < 0.5:
                sgn = -_sign_int(i * j) if skew else _sign_int(i * j)
                vec = [field.from_int(sgn * int(x)) for x in vec]
                if rng.random() < 0.4:
                    vec[rng.randrange(n)] = field.from_int(rng.choice([1, 2]))
                entries[mirror] = tuple(vec)
            kinds.add("diagonal" if mirror == key else "both"
                      if mirror in entries else "one")
        sign = 1 if skew else 0
        table = _GradedTable(field, entries, skew)
        want = reference_symmetry(table, sign, "skew")
        assert _symmetry(_GradedTable(field, entries, skew), sign, "skew") == want, t
        if want:
            kinds.add(("fails", skew))
        if not skew and any(w["at"][2:] + w["at"][:2] not in entries for w in want):
            kinds.add("missing mirror")
    assert kinds >= {"one", "both", "diagonal", "missing mirror",
                     ("fails", True), ("fails", False)}


def test_pair_read_checks_one_identity_per_orbit(monkeypatch):
    """Work pin: reading glr n = 2, r = 2 evaluates 401 identities (1 372
    with every visited triple checked, both orientations of every skew
    pair and the Leibniz walks taken): 45 graded-skew ones, one call of
    ``_mirror_holds`` per pair of stored mirrors, and 356 product-rule
    ones, each a call of the walker's step ``_rule_holds``."""
    calls = []

    def counting(name):
        step = getattr(dgla, name)

        def count(*args):
            calls.append(name)
            return step(*args)
        monkeypatch.setattr(dgla, name, count)

    counting("_mirror_holds")
    counting("_rule_holds")
    pair_from_json(pair_to_json(cdga_to_pair(exterior(2), 2, 2)))
    assert (calls.count("_mirror_holds"), calls.count("_rule_holds")) == (45, 356)
    assert len(calls) == 401
