"""Differential tests of Artin multiplication and of the algebra-axiom
checker, which both go through the structure-constant table of
``cjl.dgla``, and of the table's contraction itself.

The references below are the dense routines the table replaced: a triple
loop over the multiplication table for products, and the unit,
commutativity and associativity loops over every basis pair and triple
with dense products.  Products are also checked against multiplication
of polynomials and normal forms, a route that reads no table at all.
The contraction, which skips factors equal to 1, is checked against a
dense loop that multiplies by every factor.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cjl.artin import MAX_ARTIN_DIM, ArtinLocalAlgebra, artin_from_json, make_artin
from cjl.cli import run
from cjl.dgla import GradedVectorSpace, _GradedTable, pair_to_json
from cjl.errors import AxiomError, NotLocalError
from cjl.field import QQ, GFp
from cjl.linalg import Echelon, solve
from cjl.models import exterior_pair
from cjl.parse import parse_poly
from cjl.poly import Polynomial, RingContext
from test_artin import UNIT_IDEAL_RINGS, closure_basis, power_dims
from test_dgla import dense, find

FIELDS = [QQ(), GFp(2), GFp(3), GFp(7)]


def dense_table(A):
    n = A.dim
    return [[dense(A.table, 0, i, 0, j, n) for j in range(n)] for i in range(n)]


def reference_mul(F, table, a, b):
    """The dense triple loop over the multiplication table."""
    out = [F.zero] * len(a)
    for i, x in enumerate(a):
        if F.is_zero(x):
            continue
        for j, y in enumerate(b):
            if F.is_zero(y):
                continue
            c = F.mul(x, y)
            for k, t in enumerate(table[i][j]):
                if not F.is_zero(t):
                    out[k] = F.add(out[k], F.mul(c, t))
    return tuple(out)


def reference_axioms(F, table):
    """The first failure of the unit (both sides), commutativity and
    associativity axioms, from dense products of basis vectors, as a
    witness with degree-0 coordinates; None when all hold."""
    n = len(table)

    def basis(i):
        return tuple(F.one if j == i else F.zero for j in range(n))

    def differ(u, v):
        return any(not F.eq(x, y) for x, y in zip(u, v))

    for j in range(n):
        if differ(table[0][j], basis(j)) or differ(table[j][0], basis(j)):
            return {"axiom": "unit", "at": (0, j)}
    for i in range(n):
        for j in range(i + 1, n):
            if differ(table[i][j], table[j][i]):
                return {"axiom": "commutativity", "at": (0, i, 0, j)}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = reference_mul(F, table, table[i][j], basis(k))
                rhs = reference_mul(F, table, basis(i), table[j][k])
                if differ(lhs, rhs):
                    return {"axiom": "associativity",
                            "at": (0, i, 0, j, 0, k)}
    return None


@st.composite
def quotient_rings(draw, max_box=12):
    """A field and k[vars]/(pure powers, extra generators without constant
    term): always finite-dimensional and local."""
    F = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 2))
    names = ("t", "s")[:nvars]
    ctx = RingContext(F, names)
    powers = draw(st.lists(st.integers(2, 4), min_size=nvars, max_size=nvars)
                  .filter(lambda ps: ps[0] * (ps[1] if len(ps) > 1 else 1) <= max_box))
    gens = [ctx.var(i) ** e for i, e in enumerate(powers)]
    for _ in range(draw(st.integers(0, 2))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            mono = tuple(draw(st.integers(0, 3)) for _ in names)
            if any(mono):
                terms[mono] = F.from_int(draw(st.integers(-3, 3)))
        gens.append(ctx.from_dict(terms))
    return ctx, make_artin(ctx, gens)


def elements(A):
    F = A.field
    return st.lists(st.integers(-4, 4).map(F.from_int), min_size=A.dim,
                    max_size=A.dim).map(tuple)


def to_poly(A, ctx, a):
    """The element with coordinates ``a`` as a polynomial in the standard
    monomials of ``make_artin``."""
    return Polynomial(ctx.base(), tuple(
        (m, c) for m, c in sorted(zip(A.monomials, a), key=lambda mc: ctx.key(mc[0]),
                                  reverse=True) if not A.field.is_zero(c)))


def combine(A, coeffs, vecs):
    out = A.zero()
    for c, v in zip(coeffs, vecs):
        out = A.add(out, A.scale(v, c))
    return out


def table_on(A, new):
    """The explicit table of A on the basis ``new`` (new[0] the unit), and
    the coordinates on that basis."""
    F, n = A.field, A.dim
    cols = tuple(tuple(v[r] for v in new) for r in range(n))

    def coords(v):
        return solve(F, cols, v, n)

    return [[coords(A.mul(x, y)) for y in new] for x in new], coords


def rebased(A, shear):
    """The explicit table of A on the basis 1, b_i + sum_{k>i} c_ik b_k:
    the same algebra, presented without monomials."""
    F = A.field
    n = A.dim
    new = [A.basis(0)] + [
        tuple(F.one if k == i else (F.from_int(shear[(i, k)]) if k > i else F.zero)
              for k in range(n)) for i in range(1, n)]
    table, coords = table_on(A, new)
    return table, new, coords


@settings(max_examples=60, deadline=None)
@given(quotient_rings().flatmap(lambda cA: st.tuples(
    st.just(cA), st.lists(st.tuples(elements(cA[1]), elements(cA[1])),
                          min_size=1, max_size=6))))
def test_mul_matches_polynomial_product_and_dense_loop(drawn):
    (ctx, A), pairs = drawn
    F = A.field
    table = dense_table(A)
    for a, b in pairs:
        got = A.mul(a, b)
        assert got == reference_mul(F, table, a, b)
        assert got == A.poly_to_vec(to_poly(A, ctx, a) * to_poly(A, ctx, b))


@settings(max_examples=40, deadline=None)
@given(quotient_rings(max_box=8).flatmap(lambda cA: st.tuples(
    st.just(cA),
    st.dictionaries(st.tuples(st.integers(1, 8), st.integers(1, 8)),
                    st.integers(-2, 2)),
    st.lists(st.tuples(elements(cA[1]), elements(cA[1])), min_size=1, max_size=4))))
def test_mul_on_explicit_tables_matches_dense_loop(drawn):
    (_, A), shear, pairs = drawn
    F = A.field
    table, new, coords = rebased(A, {(i, k): shear.get((i, k), 0)
                                     for i in range(A.dim) for k in range(A.dim)})
    B = ArtinLocalAlgebra(F, A.labels, table)
    assert B.nilpotency_index == A.nilpotency_index
    for a, b in pairs:
        got = B.mul(a, b)
        assert got == reference_mul(F, table, a, b)
        # the same product computed in A, through the change of basis
        assert got == coords(A.mul(combine(A, a, new), combine(A, b, new)))


def on_basis(A, new, labels):
    """A as an explicit table on the basis ``new`` (new[0] the unit)."""
    return ArtinLocalAlgebra(A.field, labels, table_on(A, new)[0])


@st.composite
def tables_and_ideals(draw):
    """An Artin ring (one of the benchmark's four over a drawn field, or a
    random quotient), often as an explicit table on a permuted and sheared
    basis of m, and generators of an ideal, most of them in m."""
    if draw(st.booleans()):
        _, names, rels = UNIT_IDEAL_RINGS[draw(st.sampled_from(["t3", "t4", "xy2", "t3s2"]))]
        ctx = RingContext(draw(st.sampled_from(FIELDS)), names)
        A = make_artin(ctx, [parse_poly(ctx, r) for r in rels])
    else:
        A = draw(quotient_rings(max_box=8))[1]
    F, n = A.field, A.dim
    if n > 1 and draw(st.booleans()):
        order = draw(st.permutations(range(1, n)))
        new = [A.basis(0)]
        for p, i in enumerate(order):
            v = list(A.basis(i))
            for k in order[p + 1:]:
                v[k] = F.from_int(draw(st.integers(-2, 2)))
            new.append(tuple(v))
        A = on_basis(A, new, [f"b{i}" for i in range(n)])
    gens = draw(st.lists(elements(A), min_size=0, max_size=3))
    if draw(st.booleans()):
        gens = [(F.zero,) + g[1:] for g in gens]
    return A, gens


@settings(max_examples=80, deadline=None)
@given(tables_and_ideals())
def test_generators_of_m_close_ideals_and_powers(drawn):
    """Ideals closed under G, and the powers of m built from G, against
    the closure under and the products with every b_j, j >= 1; G is a
    basis of m modulo m^2."""
    A, gens = drawn
    I = A.ideal(gens)
    basis, pivots = closure_basis(A, gens)
    assert I.basis == basis and I.ech.pivots == pivots
    assert A.power_dims == power_dims(A)
    square = Echelon(A.field, A.dim)
    for j in range(1, A.dim):
        for l in range(j, A.dim):
            square.add(A.mul(A.basis(j), A.basis(l)))
    assert len(A.generators) == A.dim - 1 - square.rank
    assert all(square.add(g) for g in A.generators)


def test_generators_of_a_table_off_the_monomials():
    """k[t]/(t^4) on the basis 1, t^2, t + t^2, t^3: the first element of m
    lies in m^2, so G is the third basis element alone, and not a label
    of one degree."""
    ctx = RingContext(QQ(), ("t",))
    A = make_artin(ctx, [ctx.var(0) ** 4])
    one, t, t2, t3 = (A.basis(j) for j in range(4))
    B = on_basis(A, [one, t2, A.add(t, t2), t3], ["1", "t^2", "t+t^2", "t^3"])
    assert B.generators == (B.basis(2),)
    assert B.power_dims == power_dims(B) == (4, 3, 2, 1, 0)
    for gens in ([B.basis(1)], [B.basis(3)], [B.add(B.basis(1), B.basis(3))]):
        assert B.ideal(gens).basis == closure_basis(B, gens)[0]


@settings(max_examples=150, deadline=None)
@given(quotient_rings(max_box=8).flatmap(lambda cA: st.tuples(
    st.just(cA[1]), st.booleans(), st.booleans(),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
                       st.sampled_from([-2, -1, 1, 2])), min_size=1, max_size=2))))
def test_axiom_checker_matches_dense_loops(drawn):
    """Perturbed tables; edits off the unit's row and column, made on both
    orientations, leave only associativity (and nilpotency) to fail."""
    A, off_unit, symmetric, edits = drawn
    F = A.field
    n = A.dim
    table = [list(row) for row in dense_table(A)]
    for i, j, k, c in edits:
        if off_unit and n > 1:
            i, j = 1 + i % (n - 1), 1 + j % (n - 1)
        i, j, k = i % n, j % n, k % n
        for p, q in {(i, j), (j, i)} if symmetric else {(i, j)}:
            v = list(table[p][q])
            v[k] = F.add(v[k], F.from_int(c))
            table[p][q] = tuple(v)
    want = reference_axioms(F, table)
    try:
        ArtinLocalAlgebra(F, A.labels, table)
    except AxiomError as exc:
        assert exc.witness == want
    except NotLocalError:
        assert want is None
    else:
        assert want is None


def test_dense_loops_accept_a_valid_ring():
    for F in FIELDS:
        ctx = RingContext(F, ("t", "s"))
        t, s = ctx.gens()
        A = make_artin(ctx, [t**3, s**2])
        assert reference_axioms(F, dense_table(A)) is None


def test_ring_at_the_dimension_cap_builds():
    doc = {"ring": {"field": "Q", "vars": ["t", "s"], "order": "degrevlex",
                    "quotient": ["t^8", "s^4"]}}
    A = artin_from_json(doc)
    assert A.dim == MAX_ARTIN_DIM == 32
    assert A.nilpotency_index == 7 + 3 + 1
    table = dense_table(A)
    x = tuple(A.field.from_int((3 * k) % 7 - 3) for k in range(A.dim))
    y = tuple(A.field.from_int((5 * k) % 11 - 5) for k in range(A.dim))
    assert A.mul(x, y) == reference_mul(A.field, table, x, y)


# ---------------------------------------------------------------------------
# the contraction of a graded table, against a dense loop
# ---------------------------------------------------------------------------

def reference_contract(R, zero, table, i, u, j, v, out_dim):
    """Every coordinate pair times every stored (or skew-derived) entry,
    with R's own mul and scale: no factor equal to 1 is skipped."""
    F = table.field
    out = [zero] * out_dim
    for a, x in enumerate(u):
        for b, y in enumerate(v):
            vec = find(table, i, a, j, b)
            for k, t in enumerate(vec or ()):
                if not F.is_zero(t):
                    out[k] = R.add(out[k], R.scale(R.mul(x, y), t))
    return out


def ones(F):
    """Objects equal to 1: the field's ``one`` and, over Q, objects apart
    from it: ``Fraction(1)``, ``Fraction(2, 2)`` and a literal read from
    JSON text through ``Fraction``.  Over Q the field's own arithmetic
    returns ``QQ.one`` itself for every 1, so these are built directly."""
    literal = json.loads('"1"')
    if F.char == 0:
        return [F.one, Fraction(1), Fraction(2, 2), Fraction(literal)]
    return [F.one, F.div(F.from_int(2), F.from_int(2)), F.parse(literal)]


def random_table(F, rng, space, skew):
    """Entries on every index pair whose product degree lies in the window,
    about a third of them missing, the others dense in 0, +-1 and 2."""
    scalars = ones(F) * 3 + [F.zero, F.neg(F.one), F.from_int(2)]
    entries = {}
    for i in space.degrees():
        for j in space.degrees():
            n = space.dim(i + j)
            if not n:
                continue
            for a in range(space.dim(i)):
                for b in range(space.dim(j)):
                    if rng.random() < 2 / 3:
                        entries[(i, a, j, b)] = tuple(rng.choice(scalars) for _ in range(n))
    return _GradedTable(F, entries, skew)


@pytest.mark.parametrize("F", [QQ(), GFp(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_contract_matches_dense_loop(F, skew, seed):
    """Over the field, over an Artin ring (``contract(..., ring=A)``) and
    over a polynomial quotient, on coordinates that are often 1, some as
    unit vectors.  Over the quotient, where a zero test is a normal form,
    each coordinate is zero-tested at most once per call."""
    assert all(F.eq(x, F.one) for x in ones(F))
    if F.char == 0:
        assert not any(x is F.one for x in ones(F)[1:])
    rng = random.Random(seed)
    space = GradedVectorSpace(0, 2, (3, 2, 2))
    table = random_table(F, rng, space, skew)
    assert all(t is F.one for key in table.entries for _, t in table.terms(*key)
               if F.eq(t, F.one))
    ctx = RingContext(F, ("t", "s"))
    t, s = ctx.gens()
    A = make_artin(ctx, [t**2, s**2])
    scalars = ones(F) + [F.zero, F.zero, F.from_int(3), F.neg(F.one)]
    elements = [A.one(), A.zero(), A.basis(1), A.basis(3),
                A.add(A.one(), A.basis(2)), tuple(F.from_int(k - 1) for k in range(A.dim))]
    Q = RingContext(F, ("t", "s"), quotient=[t**2, s**2])
    polys = [parse_poly(Q, p) for p in ("1", "0", "t", "s", "t*s", "t^2", "1 + t", "s^2 - 2")]
    tested = []

    def is_zero(a):
        tested.append(id(a))
        return RingContext.is_zero(Q, a)
    Q.is_zero = is_zero
    checked = 0
    for i in space.degrees():
        for j in space.degrees():
            n = space.dim(i + j)
            for rep in range(4):
                u = [rng.choice(scalars) for _ in range(space.dim(i))]
                v = [rng.choice(scalars) for _ in range(space.dim(j))]
                if v and rep % 2:
                    v = [F.zero] * len(v)
                    v[rng.randrange(len(v))] = F.one   # a unit vector
                got = table.contract(i, u, j, v, n)
                want = reference_contract(F, F.zero, table, i, u, j, v, n)
                assert len(got) == n and all(F.eq(x, y) for x, y in zip(got, want))
                ua = [rng.choice(elements) for _ in range(space.dim(i))]
                va = [rng.choice(elements) for _ in range(space.dim(j))]
                got = table.contract(i, ua, j, va, n, A)
                want = reference_contract(A, A.zero(), table, i, ua, j, va, n)
                assert len(got) == n and all(A.eq(x, y) for x, y in zip(got, want))
                # a new object per coordinate, so that each test is told apart
                uq = [Polynomial(Q, rng.choice(polys).terms) for _ in range(space.dim(i))]
                vq = [Polynomial(Q, rng.choice(polys).terms) for _ in range(space.dim(j))]
                tested.clear()
                got = table.contract(i, uq, j, vq, n, Q)
                assert len(tested) == len(set(tested))
                assert set(tested) <= {id(x) for x in uq + vq}
                want = reference_contract(Q, Q.zero(), table, i, uq, j, vq, n)
                assert len(got) == n and all(Q.is_zero(x - y) for x, y in zip(got, want))
                checked += n
    assert checked > 50


# ---------------------------------------------------------------------------
# exit-2 witnesses of explicit tables given to --artin
# ---------------------------------------------------------------------------

def _table(rows):
    return {"field": "Q", "labels": ["1", "x", "y"][:len(rows)], "mult": rows}


ONE, X, Y, ZERO = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
WITNESSES = [
    # 1 * x = 0
    (_table([[ONE, ZERO, Y], [X, ZERO, ZERO], [Y, ZERO, ZERO]]),
     {"error": "unit does not act as identity (at --artin)",
      "witness": {"axiom": "unit", "at": [0, 1]}}),
    # y * x = x but x * y = 0
    (_table([[ONE, X, Y], [X, ZERO, ZERO], [Y, X, ZERO]]),
     {"error": "graded commutativity fails (at --artin)",
      "witness": {"axiom": "commutativity", "at": [0, 1, 0, 2]}}),
    # x * y = y * x = x, everything else in m squares to 0: (xy)y = x, x(yy) = 0
    (_table([[ONE, X, Y], [X, ZERO, X], [Y, X, ZERO]]),
     {"error": "associativity fails (at --artin)",
      "witness": {"axiom": "associativity", "at": [0, 1, 0, 2, 0, 2]}}),
    # x * x = x: an idempotent, so the algebra is not local
    ({"field": "Q", "labels": ["1", "x"], "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]},
     {"error": "basis element 'x' is not nilpotent, so the algebra is not local "
               "with this basis (at --artin)", "path": "--artin"}),
]


@pytest.mark.parametrize("doc, want", WITNESSES)
def test_artin_table_exit_2_witness(tmp_path, capsys, doc, want):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(pair_to_json(exterior_pair(2))))
    artin = tmp_path / "artin.json"
    artin.write_text(json.dumps(doc))
    code = run(["mc", "--pair", str(pair), "--artin", str(artin),
                "--omega", str(tmp_path / "unread.json")])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert json.loads(cap.err) == want
