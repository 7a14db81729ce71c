"""Finite-dimensional local algebras with exact structure constants.

An :class:`ArtinLocalAlgebra` is presented by a basis whose element 0 is
the unit and whose other elements are nilpotent; the span of those is then
automatically the unique maximal ideal, and the residue of an element is
its coordinate on the unit.  Elements are plain tuples of field scalars;
their product contracts a sparse structure-constant table in degree 0,
the same table (``dgla._GradedTable``) and the same axiom checker
(``dgla.check_algebra``) as the graded algebras of ``cjl.models``.

:func:`make_artin` builds such an algebra from a polynomial ring modulo a
zero-dimensional ideal, using the standard monomials of a reduced Groebner
basis as the distinguished basis.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Sequence

from .dgla import GradedVectorSpace, _GradedTable, check_algebra
from .errors import (AxiomError, NotFiniteError, NotLocalError,
                     RingMismatchError, ValidationError)
from .field import field_from_json, located, read_nested, read_scalars, read_str
from .groebner import Ideal, _reduce
from .linalg import Echelon, mat_vec, vec_is_zero
from .poly import Polynomial, RingContext, mono_deg, mono_divides, mono_mul


# largest dimension of an Artin algebra read from JSON: make_artin checks
# the product of the pure-power exponents (which bounds the number of
# monomials it enumerates) and artin_from_json the number of labels of an
# explicit table.  The rings of the tests and the benchmark have
# dimension at most 6.
MAX_ARTIN_DIM = 32


class ArtinLocalAlgebra:
    """Commutative local algebra, finite-dimensional over its field.

    Args:
        field: ground field object.
        labels: one display name per basis element; ``labels[0]`` is the unit.
        table: ``table[i][j]`` is the coordinate vector of ``b_i * b_j``.

    The multiplication is kept as a sparse structure-constant table in
    degree 0 (:class:`~cjl.dgla._GradedTable`, entry (0, i, 0, j) for
    ``b_i * b_j``), and products are its contraction.  Construction checks
    the unit, commutativity and associativity with the graded-algebra
    checker :func:`~cjl.dgla.check_algebra` (in degree 0 every sign is +1),
    which visits only the products the nonzero entries reach, then that
    every basis element but the unit is nilpotent.

    ``generators`` is a basis G of m/m^2: the b_i, in order, outside the
    span of m^2 = <b_j b_l : 1 <= j <= l> and of the b_i kept before them.
    The b_i but the unit are nilpotent and commute, so they span the
    nilradical m, an ideal; by Nakayama G generates m, and m is nilpotent,
    so A = k[G], m^{s+1} = m^s G and an ideal closed under G is one of A.

    ``power_dims[s]`` is dim_k m^s for s = 0 ... ``nilpotency_index``, the
    least s with m^s = 0.  A sum of products of s elements of m lies in
    m^s, so a span of such sums that reaches ``power_dims[s]`` is m^s
    itself: :func:`cjl.complexes.span_of_minors` stops there.
    """

    def __init__(self, field, labels: Sequence[str], table):
        self.field = field
        self.labels = tuple(labels)
        self.dim = n = len(self.labels)
        if n == 0:
            raise ValidationError("an algebra needs at least the unit")
        # the unit vectors, built once: basis(i) is on every ideal's path
        self._basis = tuple(tuple(field.one if j == i else field.zero for j in range(n))
                            for i in range(n))
        if len(table) != n or any(len(r) != n for r in table) \
                or any(len(v) != n for r in table for v in r):
            raise ValidationError("multiplication table has wrong shape")
        self.table = _GradedTable(field, {
            (0, i, 0, j): tuple(v) for i, row in enumerate(table)
            for j, v in enumerate(row) if not vec_is_zero(field, v)}, skew=False)
        check_algebra(self.table, GradedVectorSpace(0, 0, (n,), (self.labels,)))
        for i in range(1, n):
            v = self.basis(i)
            for _ in range(n + 1):
                if vec_is_zero(field, v):
                    break
                v = self.mul(v, self.basis(i))
            else:
                raise NotLocalError(
                    f"basis element {self.labels[i]!r} is not nilpotent, "
                    "so the algebra is not local with this basis")
        span = Echelon(field, n)  # of m^2, then of G (class docstring)
        for (_, j, _, l), v in self.table.entries.items():
            if 0 < j <= l:
                span.add(v)
        self.generators = tuple(b for b in self._basis[1:] if span.add(b))
        self.power_dims = self._power_dims()
        self.nilpotency_index = len(self.power_dims) - 1

    def _power_dims(self) -> tuple:
        """dim_k m^s for s = 0, 1, ... up to the least s with m^s = 0, the
        nilpotency index (1 for a field), each power spanned by the
        products of the last one with G."""
        dims, cur = [self.dim, self.dim - 1], self._basis[1:]  # m: b_1 ... b_{n-1}
        while cur:
            nxt = Echelon(self.field, self.dim)
            for v in cur:
                for g in self.generators:
                    nxt.add(self.mul(v, g))
            cur = nxt.basis()
            dims.append(len(cur))
            if len(dims) > self.dim + 2:
                raise NotLocalError("maximal ideal is not nilpotent")
        return tuple(dims)

    # -- element protocol ----------------------------------------------

    def zero(self):
        return (self.field.zero,) * self.dim

    def one(self):
        return (self.field.one,) + (self.field.zero,) * (self.dim - 1)

    def basis(self, i: int):
        return self._basis[i]

    def add(self, a, b):
        return tuple(self.field.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.field.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.field.neg(x) for x in a)

    def scale(self, a, c):
        return tuple(self.field.mul(x, c) for x in a)

    def mul(self, a, b):
        return self.table.contract(0, a, 0, b, self.dim)

    def is_zero(self, a) -> bool:
        return vec_is_zero(self.field, a)

    def eq(self, a, b) -> bool:
        return vec_is_zero(self.field, self.sub(a, b))

    def residue(self, a):
        """Image in the residue field: the coordinate on the unit."""
        return a[0]

    def is_unit(self, a) -> bool:
        return not self.field.is_zero(a[0])

    def in_max_ideal(self, a) -> bool:
        return self.field.is_zero(a[0])

    def inverse(self, a):
        """Geometric series against the nilpotent part."""
        F = self.field
        c = a[0]
        if F.is_zero(c):
            raise ZeroDivisionError("element lies in the maximal ideal")
        cinv = F.inv(c)
        w = self.scale(a, cinv)            # 1 + nilpotent
        nu = self.sub(w, self.one())
        out = self.one()
        term = self.one()
        for _ in range(1, self.nilpotency_index):
            term = self.neg(self.mul(term, nu))
            out = self.add(out, term)
        return self.scale(out, cinv)

    # -- ideals, quotients, maps ---------------------------------------

    def ideal(self, gens) -> "ArtinIdeal":
        return ArtinIdeal(self, gens)

    def unit_ideal(self) -> "ArtinIdeal":
        return ArtinIdeal(self, [self.one()])

    def zero_ideal(self) -> "ArtinIdeal":
        return ArtinIdeal(self, [])

    def quotient(self, gens):
        """Quotient by the ideal the generators span.

        Returns:
            (B, pi) with B the quotient algebra on the surviving basis
            coordinates and pi an :class:`ArtinMap`.
        """
        I = self.ideal(gens)
        if I.contains(self.one()):
            raise ValidationError("cannot quotient by the unit ideal")
        piv = set(I.ech.pivots)
        keep = [j for j in range(self.dim) if j not in piv]

        def proj(v):
            r = I.ech.reduce(v)
            return tuple(r[j] for j in keep)

        labels = tuple(self.labels[j] for j in keep)
        table = tuple(tuple(proj(self.mul(self.basis(a), self.basis(b)))
                            for b in keep) for a in keep)
        B = ArtinLocalAlgebra(self.field, labels, table)
        cols = [proj(self.basis(j)) for j in range(self.dim)]
        M = tuple(tuple(cols[j][i] for j in range(self.dim))
                  for i in range(len(keep)))
        return B, ArtinMap(self, B, M)

    def residue_map(self) -> "ArtinMap":
        """Projection onto the residue field, as a 1-dimensional algebra."""
        k = ArtinLocalAlgebra(self.field, ("1",), (((self.field.one,),),))
        M = (tuple(self.field.one if j == 0 else self.field.zero
                   for j in range(self.dim)),)
        return ArtinMap(self, k, M)

    # -- misc ----------------------------------------------------------

    def same(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, ArtinLocalAlgebra)
                and self.field == other.field
                and self.labels == other.labels
                and self.table.entries == other.table.entries)

    def check_same(self, other):
        if not self.same(other):
            raise RingMismatchError("elements of different algebras")

    def format_element(self, a) -> str:
        F = self.field
        parts = []
        for c, lab in zip(a, self.labels):
            if F.is_zero(c):
                continue
            cs = F.format(c)
            if lab == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(lab)
            elif cs == "-1":
                parts.append("-" + lab)
            else:
                parts.append(f"{cs}*{lab}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def __repr__(self):
        return f"ArtinLocalAlgebra(dim={self.dim}, nilp={self.nilpotency_index})"


class ArtinIdeal:
    """Ideal of an Artin local algebra, held as a canonical echelon span
    closed under multiplication by G, so by the whole algebra k[G]."""

    def __init__(self, algebra: ArtinLocalAlgebra, gens):
        self.algebra = algebra
        self.gens = tuple(tuple(g) for g in gens)
        for g in self.gens:
            if len(g) != algebra.dim:
                raise ValidationError("generator has wrong length")
        self.ech = Echelon(algebra.field, algebra.dim)
        if any(algebra.is_unit(g) for g in self.gens):
            # a unit generates the whole algebra: the identity rows
            for j in range(algebra.dim):
                self.ech.add(algebra.basis(j))
        else:
            work = deque(self.gens)
            while work:
                v = work.popleft()
                if self.ech.add(v):
                    for g in algebra.generators:
                        work.append(algebra.mul(v, g))
        self.basis = self.ech.basis()

    def contains(self, v) -> bool:
        return self.ech.contains(v)

    def equals(self, other: "ArtinIdeal") -> bool:
        self.algebra.check_same(other.algebra)
        return self.basis == other.basis

    def is_zero(self) -> bool:
        return not self.basis

    def contained_in_max_ideal(self) -> bool:
        return all(self.algebra.field.is_zero(v[0]) for v in self.basis)

    def times(self, other: "ArtinIdeal") -> "ArtinIdeal":
        self.algebra.check_same(other.algebra)
        prods = [self.algebra.mul(a, b) for a in self.basis for b in other.basis]
        return ArtinIdeal(self.algebra, prods)

    def __repr__(self):
        gens = ", ".join(self.algebra.format_element(v) for v in self.basis)
        return f"ArtinIdeal({gens or '0'})"


class ArtinMap:
    """Field-linear multiplicative map between Artin algebras (columns of
    ``matrix`` are the images of the source basis)."""

    def __init__(self, source: ArtinLocalAlgebra, target: ArtinLocalAlgebra,
                 matrix):
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(r) for r in matrix)
        if len(self.matrix) != target.dim or \
                any(len(r) != source.dim for r in self.matrix):
            raise ValidationError("algebra map matrix has wrong shape")
        if not target.eq(self.apply(source.one()), target.one()):
            raise AxiomError("map does not preserve the unit",
                             {"axiom": "unit"})
        for i in range(source.dim):
            for j in range(i, source.dim):
                lhs = self.apply(source.mul(source.basis(i), source.basis(j)))
                rhs = target.mul(self.apply(source.basis(i)),
                                 self.apply(source.basis(j)))
                if not target.eq(lhs, rhs):
                    raise AxiomError("map is not multiplicative",
                                     {"axiom": "multiplicativity",
                                      "indices": (i, j)})

    def apply(self, v):
        return mat_vec(self.target.field, self.matrix, v)

    def extend_ideal(self, I: ArtinIdeal) -> ArtinIdeal:
        if I.algebra is not self.source and not I.algebra.same(self.source):
            raise RingMismatchError("ideal lives in a different algebra")
        return ArtinIdeal(self.target, [self.apply(g) for g in I.basis])


# ---------------------------------------------------------------------------
# construction from a polynomial quotient
# ---------------------------------------------------------------------------

def make_artin(ctx: RingContext, I: Ideal | Sequence[Polynomial]):
    """Artin local algebra ``(S/quotient)/I`` on the standard-monomial basis.

    Raises :class:`NotFiniteError` when the quotient is not finite
    dimensional (some variable has no pure power among the leading
    monomials), :class:`NotLocalError` when it is finite but not local
    (some standard monomial fails to be nilpotent), and ValidationError
    when the pure powers allow more than ``MAX_ARTIN_DIM`` monomials.
    """
    if isinstance(I, Ideal):
        ideal = I if I.ctx is ctx or I.ctx.same(ctx) else Ideal(ctx, I.gens)
    else:
        ideal = Ideal(ctx, list(I))
    gb = ideal.groebner()
    base = ctx.base()
    n = ctx.nvars
    if any(g.lm() == (0,) * n for g in gb):
        raise ValidationError("quotient by the unit ideal is the zero ring")
    # finite dimension: every variable needs a pure-power leading monomial
    bounds = [None] * n
    for g in gb:
        lm = g.lm()
        sup = [i for i, e in enumerate(lm) if e]
        if len(sup) == 1:
            i = sup[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    missing = [ctx.names[i] for i in range(n) if bounds[i] is None]
    if missing:
        raise NotFiniteError(
            "not finite dimensional: no pure power of "
            + ", ".join(missing) + " among the leading monomials")
    box = math.prod(bounds)
    if box > MAX_ARTIN_DIM:
        raise ValidationError(
            f"the pure powers bound the dimension by {box}, above bound "
            f"{MAX_ARTIN_DIM}")
    lms = [g.lm() for g in gb]
    std = [m for m in itertools.product(*(range(b) for b in bounds))
           if not any(mono_divides(l, m) for l in lms)]
    # degree-major, then biggest monomial first: gives 1, x, y, x^2, ...
    std.sort(key=ctx.key, reverse=True)
    std.sort(key=mono_deg)
    if not std or mono_deg(std[0]) != 0:
        raise AssertionError("unit monomial missing from standard basis")
    index = {m: i for i, m in enumerate(std)}

    def label(m) -> str:
        if not any(m):
            return "1"
        return "*".join(ctx.names[i] if e == 1 else f"{ctx.names[i]}^{e}"
                        for i, e in enumerate(m) if e)

    F, dim = ctx.field, len(std)
    units = [tuple(F.one if k == i else F.zero for k in range(dim)) for i in range(dim)]

    def coords(work: dict):  # of the normal form of the terms ``work``
        out = [F.zero] * dim
        for m, c in _reduce(base, work, ideal._reducers).terms:
            out[index[m]] = c
        return tuple(out)

    table = [[None] * dim for _ in range(dim)]
    for i, mi in enumerate(std):
        for j in range(i, dim):
            m = mono_mul(mi, std[j])  # a standard monomial is its own normal form
            table[i][j] = table[j][i] = units[index[m]] if m in index else coords({m: F.one})
    return ArtinLocalAlgebra(ctx.field, tuple(label(m) for m in std), table)


def artin_from_json(obj: dict, path: str = "/artin") -> ArtinLocalAlgebra:
    """Accepts either ``{"ring": <quotient ring context>}`` or an explicit
    structure-constant presentation ``{"field", "labels", "mult", ...}``."""
    if not isinstance(obj, dict):
        raise ValidationError("algebra description must be an object", path)
    if "ring" in obj:
        ctx = RingContext.from_json(obj["ring"], path + "/ring")
        if not ctx.has_quotient():
            raise ValidationError("algebra ring context needs a quotient",
                                  path + "/ring/quotient")
        with located(path, "ring", "quotient"):
            return make_artin(ctx.base(), Ideal(ctx.base(),
                                                [g.cast(ctx.base())
                                                 for g in ctx.quotient_gens]))
    field = field_from_json(obj, path)
    labels = read_nested(obj.get("labels"), 1, read_str, path, "labels")
    if len(labels) > MAX_ARTIN_DIM:
        raise ValidationError(f"{len(labels)} basis elements, above bound "
                              f"{MAX_ARTIN_DIM}", path + "/labels")
    table = read_scalars(field, obj.get("mult"), 3, path, "mult")
    with located(path):
        return ArtinLocalAlgebra(field, labels, table)
