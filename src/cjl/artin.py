"""Finite-dimensional local algebras with exact structure constants.

An :class:`ArtinLocalAlgebra` is presented by a basis whose element 0 is
the unit and whose other elements are nilpotent; the span of those is then
automatically the unique maximal ideal, and the residue of an element is
its coordinate on the unit.  Elements are plain tuples of field scalars.

:func:`make_artin` builds such an algebra from a polynomial ring modulo a
zero-dimensional ideal, using the standard monomials of a reduced Groebner
basis as the distinguished basis.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Sequence

from .errors import (AxiomError, NotFiniteError, NotLocalError,
                     RingMismatchError, ValidationError)
from .field import field_from_json
from .groebner import Ideal, reduce_full
from .linalg import Echelon, mat_vec, vec_is_zero
from .poly import Polynomial, RingContext, mono_deg, mono_divides


class ArtinLocalAlgebra:
    """Commutative local algebra, finite-dimensional over its field.

    Args:
        field: ground field object.
        labels: one display name per basis element; ``labels[0]`` is the unit.
        table: ``table[i][j]`` is the coordinate vector of ``b_i * b_j``.

    The unit, commutativity, associativity and nilpotency axioms are
    checked on construction.
    """

    def __init__(self, field, labels: Sequence[str], table):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        if self.dim == 0:
            raise ValidationError("an algebra needs at least the unit")
        if len(self.table) != self.dim or any(len(r) != self.dim for r in self.table) \
                or any(len(v) != self.dim for r in self.table for v in r):
            raise ValidationError("multiplication table has wrong shape")
        self._check_axioms()
        self.nilpotency_index = self._nilpotency_index()

    # -- axioms --------------------------------------------------------

    def _check_axioms(self):
        F = self.field
        n = self.dim
        for j in range(n):
            if not vec_is_zero(F, self.sub(self.table[0][j], self.basis(j))):
                raise AxiomError("basis element 0 is not a unit",
                                 {"axiom": "unit", "index": j})
        for i in range(n):
            for j in range(i + 1, n):
                if not vec_is_zero(F, self.sub(self.table[i][j], self.table[j][i])):
                    raise AxiomError("multiplication is not commutative",
                                     {"axiom": "commutativity", "indices": (i, j)})
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.mul(self.table[i][j], self.basis(k))
                    rhs = self.mul(self.basis(i), self.table[j][k])
                    if not vec_is_zero(F, self.sub(lhs, rhs)):
                        raise AxiomError("multiplication is not associative",
                                         {"axiom": "associativity",
                                          "indices": (i, j, k)})
        for i in range(1, n):
            v = self.basis(i)
            for _ in range(n + 1):
                if vec_is_zero(F, v):
                    break
                v = self.mul(v, self.basis(i))
            else:
                raise NotLocalError(
                    f"basis element {self.labels[i]!r} is not nilpotent, "
                    "so the algebra is not local with this basis")

    def _nilpotency_index(self) -> int:
        """Least s with m^s = 0 (1 for a field)."""
        F = self.field
        cur = Echelon(F, self.dim)
        for i in range(1, self.dim):
            cur.add(self.basis(i))
        s = 1
        while cur.rank:
            nxt = Echelon(F, self.dim)
            for v in cur.basis():
                for j in range(1, self.dim):
                    nxt.add(self.mul(v, self.basis(j)))
            cur = nxt
            s += 1
            if s > self.dim + 1:
                raise NotLocalError("maximal ideal is not nilpotent")
        return s

    # -- element protocol ----------------------------------------------

    def zero(self):
        return (self.field.zero,) * self.dim

    def one(self):
        return (self.field.one,) + (self.field.zero,) * (self.dim - 1)

    def basis(self, i: int):
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.dim))

    def from_scalar(self, c):
        return (c,) + (self.field.zero,) * (self.dim - 1)

    def add(self, a, b):
        return tuple(self.field.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.field.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.field.neg(x) for x in a)

    def scale(self, a, c):
        return tuple(self.field.mul(x, c) for x in a)

    def mul(self, a, b):
        F = self.field
        out = [F.zero] * self.dim
        for i, x in enumerate(a):
            if F.is_zero(x):
                continue
            for j, y in enumerate(b):
                if F.is_zero(y):
                    continue
                c = F.mul(x, y)
                for k, t in enumerate(self.table[i][j]):
                    if not F.is_zero(t):
                        out[k] = F.add(out[k], F.mul(c, t))
        return tuple(out)

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

    def max_ideal_basis(self):
        return tuple(self.basis(i) for i in range(1, self.dim))

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

    def mult_matrix(self, a):
        """Matrix of multiplication by ``a`` in the basis (column j is
        ``a * b_j``) — the faithful field-linear picture of the element."""
        cols = [self.mul(a, self.basis(j)) for j in range(self.dim)]
        return tuple(tuple(cols[j][i] for j in range(self.dim))
                     for i in range(self.dim))

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
                and self.table == other.table)

    def check_same(self, other):
        if not self.same(other):
            raise RingMismatchError("elements of different algebras")

    def element_from_json(self, obj, path: str = ""):
        if not isinstance(obj, list) or len(obj) != self.dim:
            raise ValidationError(
                f"algebra element must be a list of {self.dim} scalars", path)
        return tuple(self.field.parse(s) if isinstance(s, str)
                     else self.field.from_int(s) for s in obj)

    def element_to_json(self, a):
        return [self.field.format(x) for x in a]

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

    def to_json(self) -> dict:
        obj = {"field": "Q" if self.field.char == 0 else "Fp",
               "dim": self.dim, "labels": list(self.labels),
               "mult": [[[self.field.format(c) for c in v] for v in row]
                        for row in self.table]}
        if self.field.char:
            obj["p"] = self.field.char
        return obj

    def __repr__(self):
        return f"ArtinLocalAlgebra(dim={self.dim}, nilp={self.nilpotency_index})"


class ArtinIdeal:
    """Ideal of an Artin local algebra, held as a canonical echelon span
    closed under multiplication by the whole algebra."""

    def __init__(self, algebra: ArtinLocalAlgebra, gens):
        self.algebra = algebra
        self.gens = tuple(tuple(g) for g in gens)
        for g in self.gens:
            if len(g) != algebra.dim:
                raise ValidationError("generator has wrong length")
        self.ech = Echelon(algebra.field, algebra.dim)
        work = deque(self.gens)
        while work:
            v = work.popleft()
            if self.ech.add(v):
                for j in range(1, algebra.dim):
                    work.append(algebra.mul(v, algebra.basis(j)))
        self.basis = self.ech.basis()

    def contains(self, v) -> bool:
        return self.ech.contains(v)

    def equals(self, other: "ArtinIdeal") -> bool:
        self.algebra.check_same(other.algebra)
        return self.basis == other.basis

    def is_zero(self) -> bool:
        return not self.basis

    def is_unit(self) -> bool:
        return self.contains(self.algebra.one())

    def contained_in_max_ideal(self) -> bool:
        return all(self.algebra.field.is_zero(v[0]) for v in self.basis)

    def plus(self, other: "ArtinIdeal") -> "ArtinIdeal":
        self.algebra.check_same(other.algebra)
        return ArtinIdeal(self.algebra, self.basis + other.basis)

    def times(self, other: "ArtinIdeal") -> "ArtinIdeal":
        self.algebra.check_same(other.algebra)
        prods = [self.algebra.mul(a, b) for a in self.basis for b in other.basis]
        return ArtinIdeal(self.algebra, prods)

    def dim(self) -> int:
        return len(self.basis)

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
    monomials) and :class:`NotLocalError` when it is finite but not local
    (some standard monomial fails to be nilpotent).
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

    def to_vec(f: Polynomial):
        nf = reduce_full(f.cast(base), gb)
        out = [ctx.field.zero] * len(std)
        for m, c in nf.terms:
            out[index[m]] = c
        return tuple(out)

    table = []
    for mi in std:
        row = []
        fi = Polynomial(base, ((mi, ctx.field.one),))
        for mj in std:
            fj = Polynomial(base, ((mj, ctx.field.one),))
            row.append(to_vec(fi * fj))
        table.append(tuple(row))
    alg = ArtinLocalAlgebra(ctx.field, tuple(label(m) for m in std), tuple(table))
    alg.monomials = tuple(std)
    alg.poly_to_vec = to_vec
    return alg


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
        return make_artin(ctx.base(), Ideal(ctx.base(),
                                            [g.cast(ctx.base())
                                             for g in ctx.quotient_gens]))
    field = field_from_json(obj, path)
    labels = obj.get("labels")
    mult = obj.get("mult")
    if not isinstance(labels, list) or not isinstance(mult, list):
        raise ValidationError("need labels and mult", path)
    dim = len(labels)
    try:
        table = tuple(tuple(tuple(field.parse(c) if isinstance(c, str)
                                  else field.from_int(c) for c in vec)
                            for vec in row) for row in mult)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"bad multiplication table: {e}", path + "/mult")
    if len(table) != dim:
        raise ValidationError("mult table size disagrees with labels",
                              path + "/mult")
    return ArtinLocalAlgebra(field, labels, table)
