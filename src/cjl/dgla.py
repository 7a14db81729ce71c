"""Graded Lie structures with a module, and their cohomology.

Conventions (checked, not assumed, by the validators):

* grading is cohomological, brackets add degrees;
* skew symmetry is graded:  [x,y] = -(-1)^{|x||y|} [y,x];
* the Jacobi identity and the module axioms are one representation
  identity, checked by one product-rule walker: once with rho = ad on C
  (Jacobi), once with rho = the action on M.  For x, y in C and v in C
  or M,  [x,y].v = x.(y.v) - (-1)^{|x||y|} y.(x.v)  and
  d(x.v) = (dx).v + (-1)^{|x|} x.(dv)  (d is a degree +1 derivation).
  The same walker, untwisted, checks the associativity of graded-
  commutative and Artin algebras (:func:`check_algebra`).

Bracket and action tables are sparse: only nonzero structure vectors are
stored; a missing orientation of a bracket entry is derived by skew
symmetry, so inputs need not duplicate symmetric data, and it is graded
skew by construction: the skew check compares only the entries stored in
both orientations, each pair once (diagonal keys too).  The checkers
visit only the basis tuples where some term of an identity can be
nonzero, so their cost follows the nonzero entries of the tables and
the differentials, not the cube of the dimension.

Each product-rule identity is checked once per orbit of its symmetries
(Goldman-Millson: a graded Lie algebra is skew plus cyclic Jacobi).
Write J(x,y,v) for (xy).v - x.(y.v) + (-1)^{|x||y|} y.(x.v).  When the
bracket is graded skew, J(y,x,v) = -(-1)^{|x||y|} J(x,y,v) by skew
symmetry of the first term alone, for the module rule as for Jacobi;
for Jacobi also J(x,y,v) = -(-1)^{|x||v|} S(x,y,v), where S is the
cyclic sum (-1)^{|x||v|}[x,[y,v]] + (-1)^{|y||x|}[y,[v,x]] +
(-1)^{|v||y|}[v,[x,y]], invariant under (x,y,v) -> (y,v,x).  So J
vanishes on a whole S_3-orbit (Jacobi) or x <-> y orbit (the module
rule) or on none of it: the factors are signs, no division, and this
holds in every characteristic.  Likewise, for a graded-commutative
product, (xy)z - x(yz) at (z,y,x) is a sign times its value at
(x,y,z).  The walker checks one representative per orbit and reports
every triple of a failing orbit, so the witness lists are those of the
full walk.  It takes the full walk when the skew check fails
(:func:`check_algebra` checks commutativity before associativity).
An identity is evaluated from the operator rows x -> {v: terms of x.v}:
the terms of its three products are summed into one coordinate dict,
which must vanish.  Each table's entries are fixed, and its constructor
indexes them once (:class:`_GradedTable`): the operator rows, the
reverse index v -> [x] the walker reads, and the rows per degree pair
that the contraction of structure constants loops over.

The Leibniz rule is the same identity with d as an operator.  Let D be
a key of degree 1 with [D, x] = dx and D.v = dv; then J(D, x, v) =
(dx).v - d(x.v) + (-1)^{|x|} x.(dv), so d is a derivation of the bracket
or of the action exactly when J(D, x, v) = 0 on basis vectors.  The
walker's step evaluates it with the rows of d (v = (i, c) -> column c of
the matrix of d out of degree i) put under D beside the action's rows.
d o d = 0 keeps a walk of its own over the same rows: J(D, D, v) =
-2 d(dv) proves nothing in characteristic 2.  The d^2 and Leibniz
identities are not walked when the differentials are zero: every term
of them is zero.  Every built-in model is so.
"""

from __future__ import annotations

from itertools import permutations, repeat
from typing import Sequence

from .errors import AxiomError, ValidationError
from .field import (QQ, field_from_json, json_path, located, read_int,
                    read_nested, read_scalars)
from .linalg import Echelon, nullspace, solve, vec_is_zero


class GradedVectorSpace:
    def __init__(self, lo: int, hi: int, dims: Sequence[int],
                 labels: Sequence[Sequence[str]] | None = None):
        if hi < lo:
            raise ValidationError("empty degree window")
        self.lo = lo
        self.hi = hi
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != hi - lo + 1 or any(d < 0 for d in self.dims):
            raise ValidationError("dims do not fit the degree window")
        if labels is None:
            labels = [[f"e{i}_{a}" for a in range(self.dim(i))]
                      for i in range(lo, hi + 1)]
        self.labels = tuple(tuple(l) for l in labels)
        if any(len(self.labels[i - lo]) != self.dim(i) for i in range(lo, hi + 1)):
            raise ValidationError("labels do not match dims")

    def dim(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.dims[i - self.lo]
        return 0

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def label(self, i: int, a: int) -> str:
        return self.labels[i - self.lo][a]


def _check_matrices(field, gvs: GradedVectorSpace, mats, what: str):
    if len(mats) != gvs.hi - gvs.lo:
        raise ValidationError(f"{what}: need one matrix per adjacent degree pair",
                              at=("d",))
    out = []
    for idx, m in enumerate(mats):
        rows = gvs.dim(gvs.lo + idx + 1)
        cols = gvs.dim(gvs.lo + idx)
        m = tuple(tuple(r) for r in m)
        if len(m) != rows or any(len(r) != cols for r in m):
            raise ValidationError(
                f"{what}: matrix {idx} must be {rows}x{cols}", at=("d", idx))
        out.append(m)
    return tuple(out)


class _GradedTable:
    """Sparse bilinear table (i,a) x (j,b) -> vector in degree i+j: the
    structure constants of every product in the package (brackets,
    actions, graded-commutative and Artin multiplications).

    With ``skew`` a missing orientation is derived by graded skew symmetry
    [x,y] = -(-1)^{ij}[y,x].  The entries are fixed, and the constructor
    indexes them in one pass: the nonzero terms (k, t) of each vector,
    stored or skew-derived (negated when ij is even), with a coordinate
    equal to 1 kept as the field's ``one`` object, in three forms:

    * ``ops``, the operator rows x = (i, a) -> {v = (j, b): terms of x.v};
    * ``rev``, the reverse index v -> [x with a term at v];
    * ``compiled``, per degree pair (i, j), the pairs (a, ((b, terms),
      ...)) in increasing a, the rows :meth:`contract` loops over.

    The table's entries are scalars of its field; the coordinates it
    multiplies lie in a coefficient ring R over that field: the field
    itself, an Artin algebra or a polynomial ring, anything with ``add``,
    ``mul``, ``scale`` (by a field scalar) and ``is_zero``.
    """

    def __init__(self, field, entries: dict, skew: bool):
        self.field = field
        self.entries = dict(entries)
        self.skew = skew
        F, one = field, field.one
        self.ops, self.rev, rows = {}, {}, {}

        def put(x, v, ts):
            self.ops.setdefault(x, {})[v] = ts
            self.rev.setdefault(v, []).append(x)
            rows.setdefault((x[0], v[0]), {}).setdefault(x[1], {})[v[1]] = ts

        for key, vec in self.entries.items():
            ts = tuple((k, one if F.eq(t, one) else t) for k, t in enumerate(vec)
                       if not F.is_zero(t))
            if not ts:
                continue
            x, v = key[:2], key[2:]
            put(x, v, ts)
            if skew and v + x not in self.entries:
                if x[0] * v[0] % 2 == 0:
                    ts = tuple((k, one if F.eq(n := F.neg(t), one) else n) for k, t in ts)
                put(v, x, ts)
        self.compiled = {ij: tuple((a, tuple(r[a].items())) for a in sorted(r))
                         for ij, r in rows.items()}

    def terms(self, i: int, a: int, j: int, b: int) -> tuple:
        """The nonzero coordinates (k, t) of the vector at (i,a,j,b), stored
        or skew-derived, () where there is neither."""
        return self.ops.get((i, a), _NO_OP).get((j, b), ())

    def contract(self, i: int, u, j: int, v, out_dim: int, ring=None):
        """The product of coordinate vectors u (degree i) and v (degree j):
        field scalars, or elements of ``ring`` when one is given: the one
        structure-constant contraction of the package, over the compiled
        rows.  Each coordinate is zero-tested at most once (over a
        polynomial quotient that is a normal form).  Factors that are the
        field's ``one`` object are skipped, not multiplied: exact in any
        ring, as 1 is its identity."""
        R = self.field if ring is None else ring
        is_zero, mul, scale, add = R.is_zero, R.mul, R.scale, R.add
        one = self.field.one
        out = [R.zero if ring is None else ring.zero()] * out_dim
        hit = set()  # the k of out that hold a term
        vs = None
        for a, row in self.compiled.get((i, j), ()):
            x = u[a]
            if is_zero(x):
                continue
            if vs is None:
                vs = [None if is_zero(y) else y for y in v]
            for b, ts in row:
                y = vs[b]
                if y is None:
                    continue
                c = y if x is one else x if y is one else mul(x, y)
                for k, t in ts:
                    z = c if t is one else scale(c, t)
                    out[k] = add(out[k], z) if k in hit else z
                    hit.add(k)
        return tuple(out)


_NO_OP = {}


def _check_entries(entries: dict, left: GradedVectorSpace, right: GradedVectorSpace,
                   out: GradedVectorSpace, what: str):
    """Raise ValidationError at the first entry (i, a, j, b) -> vector of
    the ``what`` table whose x = (i, a) is no basis vector of ``left``, v =
    (j, b) none of ``right``, or whose vector is not of the dimension of
    ``out`` in degree i + j."""
    for n, ((i, a, j, b), v) in enumerate(entries.items()):
        if not (0 <= a < left.dim(i) and 0 <= b < right.dim(j)):
            raise ValidationError(f"{what} entry at bad index {(i, a, j, b)}",
                                  at=(what, n))
        if len(v) != out.dim(i + j):
            raise ValidationError(f"{what} value at {(i, a, j, b)} has wrong length",
                                  at=(what, n))


def _all_zero(F, mats) -> bool:
    return all(F.is_zero(x) for m in mats for row in m for x in row)


class Dgla:
    """Finite-dimensional graded Lie algebra with differential."""

    def __init__(self, field, gvs: GradedVectorSpace, d, bracket: dict):
        self.field = field
        self.gvs = gvs
        self.d = _check_matrices(field, gvs, d, "lie differential")
        _check_entries(bracket, gvs, gvs, gvs, "bracket")
        self.bracket = _GradedTable(field, bracket, skew=True)

    def dim(self, i: int) -> int:
        return self.gvs.dim(i)

    def d_mat(self, i: int):
        if self.gvs.lo <= i < self.gvs.hi:
            return self.d[i - self.gvs.lo]
        return tuple((self.field.zero,) * self.dim(i)
                     for _ in range(self.dim(i + 1)))

    def bracket_elem(self, i: int, u, j: int, v):
        return self.bracket.contract(i, u, j, v, self.dim(i + j))

    def has_zero_differential(self) -> bool:
        return _all_zero(self.field, self.d)


class DglaPair:
    """A graded Lie algebra together with a graded module over it."""

    def __init__(self, lie: Dgla, m_gvs: GradedVectorSpace, m_d, action: dict):
        self.field = lie.field
        self.lie = lie
        self.m_gvs = m_gvs
        self.m_d = _check_matrices(lie.field, m_gvs, m_d, "module differential")
        _check_entries(action, lie.gvs, m_gvs, m_gvs, "action")
        self.action = _GradedTable(lie.field, action, skew=False)

    def m_dim(self, i: int) -> int:
        return self.m_gvs.dim(i)

    def m_d_mat(self, i: int):
        if self.m_gvs.lo <= i < self.m_gvs.hi:
            return self.m_d[i - self.m_gvs.lo]
        return tuple((self.field.zero,) * self.m_dim(i)
                     for _ in range(self.m_dim(i + 1)))

    def action_elem(self, i: int, u, j: int, v):
        return self.action.contract(i, u, j, v, self.m_dim(i + j))

    def has_zero_differentials(self) -> bool:
        return self.lie.has_zero_differential() and _all_zero(self.field, self.m_d)

    def validate(self):
        """Raise AxiomError on the first violated identity."""
        lie = check_dgla(self.lie)
        bad = lie + check_pair(self, all(w["axiom"] != "skew" for w in lie))
        if bad:
            raise AxiomError(f"{len(bad)} axiom violations; first: "
                             f"{bad[0]['axiom']} at {bad[0].get('at')}", bad[0])


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def _units(F, n: int) -> list:
    return [tuple(F.one if t == c else F.zero for t in range(n))
            for c in range(n)]


def _d_rows(F, space, d_mat) -> dict:
    """d as operator rows: v = (i, c) -> the nonzero terms (r, t) of dv,
    column c of the matrix of d out of degree i, over the v with dv != 0."""
    out = {}
    for i in space.degrees():
        m = d_mat(i)
        for c in range(space.dim(i)):
            ts = tuple((r, row[c]) for r, row in enumerate(m) if not F.is_zero(row[c]))
            if ts:
                out[i, c] = ts
    return out


def _d_squared(F, d_rows: dict, axiom: str) -> list:
    """Violations of d(dv) = 0 on basis vectors, witness (i, c), off the
    operator rows of d (:func:`_d_rows`)."""
    bad = []
    for (i, c), dv in d_rows.items():
        acc = {}
        for r, s in dv:
            for k, t in d_rows.get((i + 1, r), ()):
                acc[k] = F.add(acc[k], F.mul(s, t)) if k in acc else F.mul(s, t)
        if any(not F.is_zero(z) for z in acc.values()):
            bad.append((i, c))
    return _witnesses(axiom, bad)


def _witnesses(axiom: str, bad) -> list:
    """Witness dicts at the keys ``bad``, in the order of loops over the
    degrees (even positions of a key) outside loops over the indices."""
    return [{"axiom": axiom, "at": at}
            for at in sorted(bad, key=lambda at: at[0::2] + at[1::2])]


def _mirror_holds(F, ts: tuple, us: tuple, negate: bool) -> bool:
    """ts == us, or -us with ``negate``, on the terms of two vectors."""
    return len(ts) == len(us) and all(k == l and F.eq(t, F.neg(u) if negate else u)
                                      for (k, t), (l, u) in zip(ts, us))


def _symmetry(table: _GradedTable, sign: int, axiom: str) -> list:
    """Violations of xy = (-1)^{|x||y| + sign} yx on basis vectors, witness
    (i, a, j, b), one comparison per pair of stored mirrors; with sign 1 in a
    skew table an entry whose mirror is not stored holds by construction
    (:meth:`~_GradedTable.terms` derives it).  A failure names both keys."""
    F, entries = table.field, table.entries
    bad = []
    for key in entries:
        i, a, j, b = key
        mirror = (j, b, i, a)
        if mirror < key if mirror in entries else table.skew and sign % 2:
            continue  # compared at the mirror, or derived from this entry
        if not _mirror_holds(F, table.terms(*key), table.terms(*mirror),
                             (i * j + sign) % 2 == 1):
            bad.extend({key, mirror})
    return _witnesses(axiom, bad)


# The symmetry groups of a product-rule identity (module docstring): the orbit
# of a triple (x, y, v) of basis keys, represented by (x, y, v) with x <= y
# ("swap"), sorted ("all") or with x <= v ("reversal"); None: the full walk.
_ORBITS = {
    None: lambda *t: (t,),
    "swap": lambda x, y, v: {(x, y, v), (y, x, v)},
    "all": lambda *t: set(permutations(t)),
    "reversal": lambda x, y, v: {(x, y, v), (v, y, x)},
}


def _rule_holds(F, ops_in: dict, ops_out: dict, twist: bool, x, y, v) -> bool:
    """J(x, y, v) = 0 (module docstring), or with ``twist`` off (xy).v -
    x.(y.v) = 0, for basis keys x, y, v: the terms of the three products
    are read off the operator rows (``_GradedTable.ops``) of the product,
    ``ops_in``, and of the action, ``ops_out``, and summed into one
    coordinate dict."""
    one = F.one
    acc = {}
    for e, s in ops_in.get(x, _NO_OP).get(y, ()):  # (xy).v
        for k, t in ops_out.get((x[0] + y[0], e), _NO_OP).get(v, ()):
            z = t if s is one else s if t is one else F.mul(s, t)
            acc[k] = F.add(acc[k], z) if k in acc else z
    # - x.(y.v), then (-1)^{|x||y|} y.(x.v)
    parts = ((x, y, True), (y, x, x[0] * y[0] % 2 == 1)) if twist else ((x, y, True),)
    for p, q, neg in parts:  # the terms of q.v acted on by p
        op = ops_out.get(p, _NO_OP)
        for w, s in ops_out.get(q, _NO_OP).get(v, ()):
            for k, t in op.get((q[0] + v[0], w), ()):
                z = t if s is one else s if t is one else F.mul(s, t)
                z = F.neg(z) if neg else z
                acc[k] = F.add(acc[k], z) if k in acc else z
    return all(F.is_zero(z) for z in acc.values())


def _product_rule(inner: _GradedTable, outer: _GradedTable, twist: bool,
                  axiom: str, symmetric: bool) -> list:
    """Violations of (xy).v = x.(y.v) - (-1)^{|x||y|} y.(x.v), or with
    ``twist`` off of (xy).v = x.(y.v), for basis vectors x, y multiplied
    by ``inner`` and v acted on by ``outer``, witness (i, a, j, b, k, c).
    A triple fails only where a term is nonzero, so only triples where x
    acts on a term of y.v, y (with ``twist``) on a term of x.v, or a term
    of xy on v are visited.  Each is evaluated by :func:`_rule_holds`.

    With ``symmetric`` (``inner`` is graded skew, or with ``twist`` off
    graded commutative) one triple is checked per orbit (module
    docstring), and a failing one stands for its orbit.  When ``inner``
    is ``outer``, every term of an orbit is a term of xy on v at one of
    its triples, so only those are followed."""
    F, left, right, ops_in = outer.field, outer.ops, outer.rev, inner.ops
    group = (None if not symmetric else "swap" if inner is not outer
             else "all" if twist else "reversal")
    visit = set()
    if group in (None, "swap"):
        for y, op in left.items():
            for v, ts in op.items():
                for w, _ in ts:
                    for x in right.get((y[0] + v[0], w), ()):
                        visit.add((x, y, v) if group is None or x <= y else (y, x, v))
                        if twist and group is None:
                            visit.add((y, x, v))
    for x, op in ops_in.items():
        for y, ts in op.items():
            if symmetric and twist and y < x:
                continue  # the orbit of (x, y, v) holds (y, x, v)
            for e, _ in ts:
                vs = left.get((x[0] + y[0], e), ())
                if group == "all":  # x <= y
                    visit.update((x, y, v) if y <= v else (x, v, y) if x <= v
                                 else (v, x, y) for v in vs)
                elif group == "reversal":
                    visit.update((x, y, v) if x <= v else (v, y, x) for v in vs)
                else:  # None, or "swap" (twisted), where x <= y
                    visit.update(zip(repeat(x), repeat(y), vs))
    bad = []
    orbit = _ORBITS[group]
    for t in visit:
        if not _rule_holds(F, ops_in, left, twist, *t):
            bad.extend(orbit(*t))
    return _witnesses(axiom, [x + y + v for x, y, v in bad])


# A key of degree 1 that stands for d in :func:`_leibniz`: [D, x] = dx and
# D.v = dv.  No basis vector has index -1.
_D = (1, -1)


def _leibniz(table: _GradedTable, d_c: dict, d_v: dict, axiom: str) -> list:
    """Violations of d(x.v) = (dx).v + (-1)^{|x|} x.(dv), with d_c and d_v
    the differentials of the two spaces as operator rows (:func:`_d_rows`),
    witness (i, a, k, c).  Each is J(D, x, v) = 0 for the key ``_D`` (module
    docstring), evaluated by :func:`_rule_holds`.  Only pairs where x.v is
    nonzero, a term of dx acts on v, or x acts on a term of dv are
    visited."""
    ops, rev = table.ops, table.rev
    visit = {(x, v) for x, op in ops.items() for v in op}
    for x, dx in d_c.items():
        for e, _ in dx:
            visit.update((x, v) for v in ops.get((x[0] + 1, e), ()))
    for v, dv in d_v.items():
        for w, _ in dv:
            visit.update((x, v) for x in rev.get((v[0] + 1, w), ()))
    ops_in, ops_out = {_D: d_c}, {**ops, _D: d_v}
    return _witnesses(axiom, [x + v for x, v in visit
                              if not _rule_holds(table.field, ops_in, ops_out, True, _D, x, v)])


def check_dgla(C: Dgla) -> list:
    """All violations of the graded-Lie axioms, as witness dicts.  Jacobi
    is the product rule of C acting on itself by ad, checked once per
    orbit when the bracket is skew."""
    skew = _symmetry(C.bracket, 1, "skew")
    jacobi = _product_rule(C.bracket, C.bracket, True, "jacobi", not skew)
    if C.has_zero_differential():
        return skew + jacobi
    F = C.field
    d_c = _d_rows(F, C.gvs, C.d_mat)
    return (_d_squared(F, d_c, "d_squared") + skew + jacobi
            + _leibniz(C.bracket, d_c, d_c, "leibniz"))


def check_pair(P: DglaPair, skew: bool | None = None) -> list:
    """Violations of the module axioms over the (already checked) algebra.
    ``skew`` says whether the bracket is graded skew, which lets the
    module rule be checked once per swap of x and y; it is found here
    when not given."""
    if skew is None:
        skew = not _symmetry(P.lie.bracket, 1, "skew")
    action = _product_rule(P.lie.bracket, P.action, True, "lie_action", skew)
    if P.has_zero_differentials():
        return action
    F = P.field
    d_m = _d_rows(F, P.m_gvs, P.m_d_mat)
    return (_d_squared(F, d_m, "module_d_squared") + action
            + _leibniz(P.action, _d_rows(F, P.lie.gvs, P.lie.d_mat), d_m,
                       "action_leibniz"))


def check_algebra(table: _GradedTable, space: GradedVectorSpace):
    """Raise AxiomError at the first failure of the axioms of a graded-
    commutative algebra with product ``table`` on ``space``: basis vector
    0 of degree 0 is a two-sided unit (witness (j, b)), xy =
    (-1)^{|x||y|} yx (witness (i, a, j, b)) and (xy)z = x(yz) (witness
    (i, a, j, b, k, c)), the last two by the walkers of the DGLA axioms.
    An Artin algebra is the case of one degree 0."""
    F = table.field
    for j in space.degrees():
        for b in range(space.dim(j)):
            unit = ((b, F.one),)
            if not (_mirror_holds(F, table.terms(0, 0, j, b), unit, False)
                    and _mirror_holds(F, table.terms(j, b, 0, 0), unit, False)):
                raise AxiomError("unit does not act as identity",
                                 {"axiom": "unit", "at": (j, b)})
    bad = _symmetry(table, 0, "commutativity")
    if bad:
        raise AxiomError("graded commutativity fails", bad[0])
    bad = _product_rule(table, table, False, "associativity", True)
    if bad:
        raise AxiomError("associativity fails", bad[0])


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

class _DegreeHomology:
    """Cocycle/boundary bookkeeping for one graded piece."""

    def __init__(self, F, d_in, d_out, dim: int, dim_prev: int):
        self.F = F
        self.dim = dim
        self.boundaries = Echelon(F, dim)
        for j in range(dim_prev):
            self.boundaries.add(tuple(row[j] for row in d_in))
        self.cocycles = nullspace(F, d_out, dim)
        ech = Echelon(F, dim)
        for row in self.boundaries.basis():
            ech.add(row)
        self.reps = []
        for z in self.cocycles:
            r = ech.reduce(z)
            if not vec_is_zero(F, r):
                ech.add(r)
                self.reps.append(r)
        self.h = len(self.reps)
        # solve matrix: columns are boundary basis then reps
        cols = list(self.boundaries.basis()) + self.reps
        self.solve_mat = tuple(tuple(col[r] for col in cols)
                               for r in range(dim)) if cols else ()
        self.n_b = self.boundaries.rank

    def classify(self, v):
        """Coordinates of the class of the cocycle ``v`` on the chosen reps."""
        if vec_is_zero(self.F, v):
            return (self.F.zero,) * self.h
        x = solve(self.F, self.solve_mat, v, self.n_b + self.h)
        if x is None:
            raise AxiomError("vector is not a cocycle modulo boundaries "
                             "(expected one by the Leibniz rule)")
        return tuple(x[self.n_b:])


def _homology(F, d_mat, gvs: GradedVectorSpace) -> dict:
    """The _DegreeHomology of each degree of ``gvs``, for the complex with
    differentials ``d_mat(i)``."""
    return {i: _DegreeHomology(F, d_mat(i - 1), d_mat(i), gvs.dim(i), gvs.dim(i - 1))
            for i in gvs.degrees()}


def _induced(F, ch: dict, vh: dict, product) -> dict:
    """The table of ``product`` (a bracket or an action) induced on the
    chosen representatives: ``ch`` the homology of C by degree, ``vh`` that
    of the space C acts on (C itself for the bracket)."""
    table = {}
    for i, hc in ch.items():
        for j, hv in vh.items():
            if i + j not in vh:
                continue
            for a, u in enumerate(hc.reps):
                for b, v in enumerate(hv.reps):
                    coords = vh[i + j].classify(product(i, u, j, v))
                    if not vec_is_zero(F, coords):
                        table[(i, a, j, b)] = coords
    return table


def _zero_d(F, gvs: GradedVectorSpace) -> list:
    return [tuple((F.zero,) * gvs.dim(i) for _ in range(gvs.dim(i + 1)))
            for i in range(gvs.lo, gvs.hi)]


def _cohomology_lie(C: Dgla) -> tuple:
    F = C.field
    ch = _homology(F, C.d_mat, C.gvs)
    g = GradedVectorSpace(C.gvs.lo, C.gvs.hi, [h.h for h in ch.values()])
    return Dgla(F, g, _zero_d(F, g), _induced(F, ch, ch, C.bracket_elem)), ch


def cohomology_lie(C: Dgla) -> Dgla:
    """The induced Lie algebra on cohomology: zero differential, bracket
    induced on chosen representatives; C itself when its differential
    is zero."""
    if C.has_zero_differential():
        return C
    return _cohomology_lie(C)[0]


def cohomology_pair(P: DglaPair) -> DglaPair:
    """The induced pair on cohomology: zero differentials, bracket and
    action induced on chosen representatives; P itself when its
    differentials are zero."""
    if P.has_zero_differentials():
        return P
    F = P.field
    lie, ch = _cohomology_lie(P.lie)
    mh = _homology(F, P.m_d_mat, P.m_gvs)
    m = GradedVectorSpace(P.m_gvs.lo, P.m_gvs.hi, [h.h for h in mh.values()])
    return DglaPair(lie, m, _zero_d(F, m), _induced(F, ch, mh, P.action_elem))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

# largest dimension a JSON pair may declare in one degree: every basis
# vector gets a label before any structure is read, and dims come from
# outside input.  The axiom check costs what the nonzero entries cost, so
# a pair of this size with no structure is read at once (`cjl cone` in
# 0.3 s on a 2-core host).
MAX_DIM = 4096


def _gvs_from_json(obj, path):
    degs = read_nested(obj.get("degrees"), 1, read_int, path, "degrees")
    if len(degs) != 2:
        raise ValidationError("degrees must be [lo, hi]", path + "/degrees")
    dims = read_nested(obj.get("dims"), 1, read_int, path, "dims")
    for k, d in enumerate(dims):
        if d > MAX_DIM:
            raise ValidationError(f"dimension {d} above bound {MAX_DIM}",
                                  f"{path}/dims/{k}")
    with located(path):
        return GradedVectorSpace(degs[0], degs[1], dims)


def _table_from_json(F, obj, path, *keys):
    """The entries {(i, a, j, b): out} of a bracket or action table, each
    read once; the path readers run only on a bad entry, to raise its error
    at its path, and a repeated key is reported once every entry is read."""
    entries, table, twice = obj.get(keys[-1], []), {}, None
    if type(entries) is not list:
        raise ValidationError("expected a list", json_path(path, keys))
    for n, e in enumerate(entries):
        if type(e) is not dict:
            raise ValidationError("table entry must be an object",
                                  json_path(path, keys + (n,)))
        ijab = (e.get("i"), e.get("a"), e.get("j"), e.get("b"))
        if set(map(type, ijab)) != {int}:
            ijab = tuple(read_int(e.get(k), path, *keys, n, k) for k in "iajb")
        if twice is None and ijab in table:
            twice = n, ijab
        table[ijab] = read_scalars(F, e.get("out"), 1, path, *keys, n, "out")
    if twice is not None:
        raise ValidationError(f"duplicate table entry {twice[1]}",
                              json_path(path, keys + twice[:1]))
    return table


def pair_from_json(obj: dict, path: str = "") -> DglaPair:
    """The pair a JSON document describes, checked against the axioms
    (AxiomError carries the first witness)."""
    if not isinstance(obj, dict):
        raise ValidationError("pair must be an object", path or "/")
    F = field_from_json(obj, path) if "field" in obj else QQ()
    lie_obj = obj.get("lie")
    mod_obj = obj.get("module")
    if not isinstance(lie_obj, dict) or not isinstance(mod_obj, dict):
        raise ValidationError("pair needs lie and module objects", path or "/")
    g = _gvs_from_json(lie_obj, path + "/lie")
    m = _gvs_from_json(mod_obj, path + "/module")
    d = read_scalars(F, lie_obj.get("d", []), 3, path, "lie", "d")
    bracket = _table_from_json(F, lie_obj, path, "lie", "bracket")
    with located(path, "lie"):
        lie = Dgla(F, g, d, bracket)
    d = read_scalars(F, mod_obj.get("d", []), 3, path, "module", "d")
    action = _table_from_json(F, mod_obj, path, "module", "action")
    with located(path, "module"):
        pair = DglaPair(lie, m, d, action)
    pair.validate()
    return pair


def pair_to_json(P: DglaPair) -> dict:
    F = P.field
    g, m = P.lie.gvs, P.m_gvs

    def mats(d):
        return [[[F.format(x) for x in row] for row in mat] for mat in d]

    def table(t):
        out = []
        for (i, a, j, b), v in sorted(t.entries.items()):
            out.append({"i": i, "a": a, "j": j, "b": b,
                        "out": [F.format(x) for x in v]})
        return out

    obj = {"lie": {"degrees": [g.lo, g.hi], "dims": list(g.dims),
                   "d": mats(P.lie.d), "bracket": table(P.lie.bracket)},
           "module": {"degrees": [m.lo, m.hi], "dims": list(m.dims),
                      "d": mats(P.m_d), "action": table(P.action)}}
    if F.char:
        obj["field"] = "Fp"
        obj["p"] = F.char
    return obj
