"""Exact linear algebra over a ground field, plus symbolic matrix rank.

Two independent rank routes are kept on purpose: reduced row echelon form
and fraction-free Bareiss condensation.  They share no code beyond the
field protocol, so agreement between them is a meaningful cross-check;
``geometry.tor_crosscheck`` compares a count computed on each.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .errors import InternalCheckError
from .poly import Polynomial, RingContext, mono_div, mono_divides

Vec = tuple
Mat = tuple  # tuple of row tuples


def mat_vec(F, A: Mat, v: Vec) -> Vec:
    return tuple(
        _dot(F, row, v) for row in A
    )


def _dot(F, a, b):
    s = F.zero
    for x, y in zip(a, b):
        s = F.add(s, F.mul(x, y))
    return s


def vec_is_zero(F, a: Vec) -> bool:
    return all(F.is_zero(x) for x in a)


class Echelon:
    """Incrementally maintained reduced row echelon span over a field."""

    def __init__(self, F, width: int):
        self.F = F
        self.width = width
        self.rows: list = []    # kept in increasing pivot order
        self.pivots: list = []

    def reduce(self, v: Vec) -> Vec:
        F = self.F
        v = tuple(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not F.is_zero(c):
                v = tuple(F.sub(x, F.mul(c, y)) for x, y in zip(v, row))
        return v

    def add(self, v: Vec) -> bool:
        """Insert ``v`` into the span; False when it was already there."""
        F = self.F
        r = self.reduce(v)
        p = next((i for i, x in enumerate(r) if not F.is_zero(x)), None)
        if p is None:
            return False
        inv = F.inv(r[p])
        r = tuple(F.mul(x, inv) for x in r)
        # clear the new pivot column from the old rows to stay reduced
        for k in range(len(self.rows)):
            c = self.rows[k][p]
            if not F.is_zero(c):
                self.rows[k] = tuple(F.sub(x, F.mul(c, y))
                                     for x, y in zip(self.rows[k], r))
        at = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, r)
        self.pivots.insert(at, p)
        return True

    def contains(self, v: Vec) -> bool:
        return vec_is_zero(self.F, self.reduce(v))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> Mat:
        return tuple(self.rows)


def rref(F, rows: Sequence[Vec], width: int | None = None):
    """Canonical reduced row echelon form.

    Returns:
        (rows, pivots): the nonzero rref rows and their pivot columns.
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    ech = Echelon(F, width)
    for r in rows:
        ech.add(r)
    return ech.basis(), tuple(ech.pivots)


def rank(F, rows: Sequence[Vec]) -> int:
    return len(rref(F, rows)[0])


def nullspace(F, rows: Sequence[Vec], width: int) -> Mat:
    """Canonical basis of the right kernel of the matrix with the given
    rows; one basis vector per non-pivot column, in column order."""
    R, piv = rref(F, rows, width)
    pivset = set(piv)
    free = [j for j in range(width) if j not in pivset]
    out = []
    for j in free:
        v = [F.zero] * width
        v[j] = F.one
        for row, p in zip(R, piv):
            v[p] = F.neg(row[j])
        out.append(tuple(v))
    return tuple(out)


def solve(F, A: Mat, b: Vec, width: int):
    """One solution of ``A x = b`` or None; free variables are set to 0."""
    aug = [tuple(row) + (bb,) for row, bb in zip(A, b)]
    R, piv = rref(F, aug, width + 1)
    for row, p in zip(R, piv):
        if p == width:
            return None
    x = [F.zero] * width
    for row, p in zip(R, piv):
        x[p] = row[width]
    return tuple(x)


def _bareiss(rows: Sequence, one, is_zero, sub, mul, div) -> int:
    """Rank by fraction-free Bareiss condensation over an integral domain,
    given its unit, zero test, operations and exact division."""
    M = [list(r) for r in rows]
    if not M or not M[0]:
        return 0
    nr, nc = len(M), len(M[0])
    prev = one
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        pr = next((i for i in range(r, nr) if not is_zero(M[i][c])), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        piv = M[r][c]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                M[i][j] = div(sub(mul(piv, M[i][j]), mul(M[i][c], M[r][j])),
                              prev)
        prev = piv
        r += 1
    return r


def bareiss_rank(F, rows: Sequence[Vec]) -> int:
    """Rank by fraction-free Bareiss condensation — an independent route
    kept deliberately separate from :func:`rref`."""
    return _bareiss(rows, F.one, F.is_zero, F.sub, F.mul, F.div)


# ---------------------------------------------------------------------------
# symbolic ranks for polynomial matrices
# ---------------------------------------------------------------------------

def poly_exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g in the polynomial ring; raises when not exact.
    (Bareiss guarantees exactness of its divisions over a domain.)"""
    ctx = f.ctx
    F = ctx.field
    if not g.terms:
        raise ZeroDivisionError("polynomial division by zero")
    q: dict = {}
    h = f
    while h.terms:
        if not mono_divides(g.lm(), h.lm()):
            raise InternalCheckError("inexact polynomial division in Bareiss step")
        m = mono_div(h.lm(), g.lm())
        c = F.div(h.lc(), g.lc())
        q[m] = c
        h = h - g.mul_mono(m, c)
    return ctx.from_dict(q)


def generic_rank_bareiss(ctx: RingContext, rows: Sequence) -> int:
    """Rank of a polynomial matrix at the generic point of the (integral)
    coefficient ring: fraction-free Bareiss with symbolic pivots.  Only
    valid when the context has no quotient — over a quotient with zero
    divisors, cross-multiplication loses information.  The test oracle for
    the generic ranks that :mod:`cjl.geometry` reads off the kept minor
    spans; it stays while the benchmark's tracer wraps it by name."""
    if ctx.has_quotient():
        raise InternalCheckError("Bareiss generic rank needs a domain; "
                                 "use minor enumeration for quotient contexts")
    return _bareiss(rows, ctx.one(), lambda f: not f.terms, operator.sub,
                    operator.mul, poly_exact_div)
