"""Sparse multivariate polynomials over an exact ground field.

A monomial is a tuple of exponents.  A :class:`Polynomial` keeps its terms
sorted in strictly decreasing monomial order with no zero coefficients, so
the leading term is ``terms[0]`` and syntactic equality of canonical forms
is term-tuple equality.  A :class:`RingContext` pins the field, the
variable names, the monomial order, and optionally a quotient ideal; every
polynomial carries its context and refuses mixed-context arithmetic.
"""

from __future__ import annotations

from operator import add, le, neg, sub
from typing import Sequence

from .errors import RingMismatchError, ValidationError
from .field import field_from_json, located, read_nested, read_str

Mono = tuple  # tuple[int, ...]


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

def _degrevlex_key(m: Mono):
    return (sum(m), tuple(map(neg, reversed(m))))


def _lex_key(m: Mono):
    return m


def _deglex_key(m: Mono):
    return (sum(m), m)


ORDER_KEYS = {
    "degrevlex": _degrevlex_key,
    "lex": _lex_key,
    "deglex": _deglex_key,
}

# order-reversed keys: the larger monomial gets the smaller key, so a
# min-heap of them pops the leading monomial first
REVERSED_KEYS = {
    "degrevlex": lambda m: (-sum(m), m[::-1]),
    "lex": lambda m: tuple(map(neg, m)),
    "deglex": lambda m: (-sum(m), tuple(map(neg, m))),
}


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when monomial ``a`` divides ``b``."""
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """``a / b``; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple([x if x >= y else y for x, y in zip(a, b)])


def mono_deg(a: Mono) -> int:
    return sum(a)


# ---------------------------------------------------------------------------
# ring context
# ---------------------------------------------------------------------------

class RingContext:
    """A polynomial ring (or quotient of one) with a fixed monomial order.

    Args:
        field: a ``QQ`` or ``GFp`` instance.
        names: variable names, e.g. ``("x0", "x1")``.
        order: one of ``degrevlex`` (default), ``lex``, ``deglex``.
        quotient: generators of an ideal J to work modulo; arithmetic then
            happens in ``k[vars]/J`` via normal forms against a reduced
            Groebner basis of J.  Ideals in a quotient context are always
            represented by their full preimage upstairs.
    """

    def __init__(self, field, names: Sequence[str], order: str = "degrevlex",
                 quotient: Sequence["Polynomial"] | None = None):
        if order not in ORDER_KEYS:
            raise ValidationError(f"unknown monomial order {order!r}", at=("order",))
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValidationError("duplicate variable names", at=("vars",))
        for k, nm in enumerate(names):
            if not nm or not (nm[0].isalpha() or nm[0] == "_"):
                raise ValidationError(f"bad variable name {nm!r}", at=("vars", k))
        self.field = field
        self.names = names
        self.nvars = len(names)
        self.order = order
        self.key = ORDER_KEYS[order]
        self._quotient_gens: tuple = ()
        self._quotient_gb = None
        self._base: RingContext | None = None
        if quotient:
            base = self.base()
            self._quotient_gens = tuple(g.cast(base) for g in quotient)

    # -- construction -------------------------------------------------

    def base(self) -> "RingContext":
        """The same ring without the quotient (one cached instance)."""
        if not self._quotient_gens:
            return self
        if self._base is None:
            self._base = RingContext(self.field, self.names, self.order)
        return self._base

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def from_int(self, n: int) -> "Polynomial":
        return self.constant(self.field.from_int(n))

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((tuple(e), self.field.one),))

    def gens(self) -> tuple:
        return tuple(self.var(i) for i in range(self.nvars))

    def from_dict(self, d: dict) -> "Polynomial":
        """Build from ``{mono: coeff}``, dropping zeros and sorting."""
        items = [(m, c) for m, c in d.items() if not self.field.is_zero(c)]
        items.sort(key=lambda mc: self.key(mc[0]), reverse=True)
        return Polynomial(self, tuple(items))

    # -- quotient handling --------------------------------------------

    @property
    def quotient_gens(self) -> tuple:
        return self._quotient_gens

    def has_quotient(self) -> bool:
        return bool(self._quotient_gens)

    def quotient_gb(self):
        """Reduced Groebner basis of the quotient ideal (cached)."""
        if not self._quotient_gens:
            return ()
        if self._quotient_gb is None:
            from .groebner import buchberger  # deferred: avoids an import cycle
            base = self.base()
            self._quotient_gb = buchberger([g.cast(base) for g in self._quotient_gens], base)
        return self._quotient_gb

    def normal_form(self, f: "Polynomial") -> "Polynomial":
        """Canonical representative of ``f`` modulo the quotient ideal."""
        if not self._quotient_gens:
            return f
        from .groebner import reduce_full
        return reduce_full(f.cast(self.base()), self.quotient_gb()).cast(self)

    # -- ring protocol used by the complex machinery ------------------

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def scale(self, a, c):
        return a.scale(c)

    def is_zero(self, a) -> bool:
        return not self.normal_form(a).terms

    def element_from_json(self, s, path: str = "", *keys):
        from .parse import parse_poly
        with located(path, *keys):
            return parse_poly(self, read_str(s, path, *keys))

    def ideal(self, gens):
        from .groebner import Ideal
        return Ideal(self, list(gens))

    def unit_ideal(self):
        return self.ideal([self.one()])

    def zero_ideal(self):
        return self.ideal([])

    # -- comparison ---------------------------------------------------

    def same(self, other: "RingContext") -> bool:
        """Structural compatibility (field, variables, order, quotient)."""
        if self is other:
            return True
        if not isinstance(other, RingContext):
            return False
        if (self.field, self.names, self.order) != (other.field, other.names, other.order):
            return False
        if bool(self._quotient_gens) != bool(other._quotient_gens):
            return False
        if self._quotient_gens:
            mine = tuple(g.terms for g in self.quotient_gb())
            theirs = tuple(g.terms for g in other.quotient_gb())
            return mine == theirs
        return True

    def check_same(self, other: "RingContext"):
        if not self.same(other):
            raise RingMismatchError("operands live in different rings")

    def __repr__(self):
        q = f"/({len(self._quotient_gens)} gens)" if self._quotient_gens else ""
        return f"RingContext({self.field.name}[{','.join(self.names)}], {self.order}{q})"

    # -- serialization ------------------------------------------------

    @staticmethod
    def from_json(obj: dict, path: str = "/ring") -> "RingContext":
        if not isinstance(obj, dict):
            raise ValidationError("ring context must be an object", path)
        field = field_from_json(obj, path)
        names = read_nested(obj.get("vars"), 1, read_str, path, "vars")
        order = read_str(obj.get("order", "degrevlex"), path, "order")
        with located(path):
            ctx = RingContext(field, names, order)
        if "quotient" in obj:
            gens = read_nested(obj["quotient"], 1, ctx.element_from_json, path,
                               "quotient")
            ctx = RingContext(field, names, order, quotient=gens)
        return ctx


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable sparse polynomial; ``terms`` is sorted, leading term first."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, terms: tuple):
        self.ctx = ctx
        self.terms = terms

    # invariant helpers

    def lm(self) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m, _ in self.terms)

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.lc()
        if self.ctx.field.eq(c, self.ctx.field.one):
            return self
        inv = self.ctx.field.inv(c)
        return self.scale(inv)

    def scale(self, c) -> "Polynomial":
        F = self.ctx.field
        if F.is_zero(c):
            return self.ctx.zero()
        return Polynomial(self.ctx, tuple((m, F.mul(cc, c)) for m, cc in self.terms))

    def mul_mono(self, mono: Mono, c=None) -> "Polynomial":
        """Multiply by ``c * x^mono`` (order is preserved by translation)."""
        F = self.ctx.field
        if c is None:
            c = F.one
        if F.is_zero(c):
            return self.ctx.zero()
        return Polynomial(self.ctx,
                          tuple((mono_mul(m, mono), F.mul(cc, c)) for m, cc in self.terms))

    # arithmetic

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self.ctx.check_same(other.ctx)
        F = self.ctx.field
        d = {}
        for m, c in self.terms:
            d[m] = c
        for m, c in other.terms:
            if m in d:
                s = F.add(d[m], c)
                if F.is_zero(s):
                    del d[m]
                else:
                    d[m] = s
            else:
                d[m] = c
        return self.ctx.from_dict(d)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        F = self.ctx.field
        return Polynomial(self.ctx, tuple((m, F.neg(c)) for m, c in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self.ctx.check_same(other.ctx)
        F = self.ctx.field
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                c = F.mul(c1, c2)
                if m in d:
                    s = F.add(d[m], c)
                    if F.is_zero(s):
                        del d[m]
                    else:
                        d[m] = s
                else:
                    d[m] = c
        return self.ctx.from_dict(d)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ctx.one()
        b = self
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx.same(other.ctx) and self.terms == other.terms

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    __hash__ = None  # mutable-context equality; not intended for dict keys

    # utilities

    def cast(self, ctx: RingContext) -> "Polynomial":
        """Reinterpret in a context with the same variables (e.g. drop or
        add a quotient); term data is reused as-is."""
        if ctx.nvars != self.ctx.nvars or ctx.order != self.ctx.order:
            raise RingMismatchError("cast between incompatible contexts")
        return Polynomial(ctx, self.terms)

    def evaluate(self, point: Sequence):
        """Value at a point, as a field scalar."""
        if len(point) != self.ctx.nvars:
            raise ValidationError("point has wrong number of coordinates")
        F = self.ctx.field
        total = F.zero
        for m, c in self.terms:
            v = c
            for e, x in zip(m, point):
                for _ in range(e):
                    v = F.mul(v, x)
            total = F.add(total, v)
        return total

    def embed(self, ctx: RingContext, var_map: Sequence[int]) -> "Polynomial":
        """Push into a larger ring, variable ``i`` going to ``var_map[i]``."""
        d = {}
        for m, c in self.terms:
            e = [0] * ctx.nvars
            for i, exp in enumerate(m):
                e[var_map[i]] = exp
            d[tuple(e)] = c
        return ctx.from_dict(d)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def format_poly(f: Polynomial) -> str:
    """Render in the text form, e.g. ``3/2*x0^2*x1 - x2 + 1``."""
    if not f.terms:
        return "0"
    F = f.ctx.field
    parts = []
    for idx, (m, c) in enumerate(f.terms):
        cs = F.format(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(f.ctx.names[i])
            elif e > 1:
                factors.append(f"{f.ctx.names[i]}^{e}")
        if factors:
            body = "*".join(factors) if cs == "1" else cs + "*" + "*".join(factors)
        else:
            body = cs
        if idx == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)

