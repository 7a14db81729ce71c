"""Groebner bases, ideal arithmetic, radical membership, Krull dimension.

The basis computation is Buchberger's algorithm with normal-strategy pair
selection (smallest lcm in the monomial order), sugar-degree tie-breaking,
and the product and chain criteria.  Before any S-pair is formed the
generators are interreduced as sparse vectors over monomials (the first
step of Faugere's F4): the basis starts from monic rows with distinct
leading monomials that span the same vector space, so zero, repeated and
linearly dependent generators never enter a pair.  Every run is
deterministic: pairs are totally ordered by ``(lcm key, sugar, i, j)`` and
reducers are scanned in basis order, so the reduced basis (and hence every
downstream ideal computation) is reproducible byte for byte.

Step budget: each S-pair taken from the queue, among the interreduced rows
and the elements added to them, counts as one step.  When the count would
exceed the budget — the ``CJL_STEP_BUDGET`` environment variable (a
positive integer, else :class:`ValidationError`), or 200000 by default —
:class:`ResourceLimitError` is raised rather than grinding on.  The same
budget bounds minor enumeration in :mod:`cjl.complexes`: a block whose
r x r minors have more index pairs, or a split of a block-diagonal matrix
with more products of nonzero block minors, is refused before any of them
is computed.

Example:
    >>> ctx = RingContext(QQ(), ("x", "y"))
    >>> x, y = ctx.gens()
    >>> I = Ideal(ctx, [x**2 - y, x*y - ctx.one()])
    >>> [format_poly(g) for g in I.groebner()]
    ['y^2 - x', 'x*y - 1', 'x^2 - y']
"""

from __future__ import annotations

import heapq
import itertools
import os
from typing import Sequence

from .errors import ResourceLimitError, ValidationError
from .field import QQ
from .poly import (Polynomial, RingContext, format_poly, mono_deg, mono_div,
                   mono_divides, mono_lcm, mono_mul)

DEFAULT_BUDGET = 200_000


def step_budget() -> int:
    """The step budget: ``CJL_STEP_BUDGET`` when set, else the default."""
    raw = os.environ.get("CJL_STEP_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise ValidationError(
        f"CJL_STEP_BUDGET must be a positive integer, got {raw!r}")


def reduce_full(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full normal form of ``f``: no term of the result is divisible by the
    leading monomial of any basis element."""
    ctx = f.ctx
    F = ctx.field
    if not basis:
        return f
    done: dict = {}
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


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    F = f.ctx.field
    L = mono_lcm(f.lm(), g.lm())
    a = f.mul_mono(mono_div(L, f.lm()), F.inv(f.lc()))
    b = g.mul_mono(mono_div(L, g.lm()), F.inv(g.lc()))
    return a - b


def _reduced_basis(G: list) -> tuple:
    """Minimalize and autoreduce; monic generators sorted by leading
    monomial, smallest first."""
    if not G:
        return ()
    ctx = G[0].ctx
    # minimal: drop any element whose lm is divisible by another's
    by_lm = sorted(G, key=lambda g: ctx.key(g.lm()))
    kept: list = []
    for g in by_lm:
        if not any(mono_divides(h.lm(), g.lm()) for h in kept):
            kept.append(g)
    # autoreduce: no leading monomial divides another, so reducing a tail
    # never changes a leading monomial (nor the order of ``kept``), and
    # whether an element is reduced depends only on the others' leading
    # monomials; one pass suffices
    for i in range(len(kept)):
        r = reduce_full(kept[i], kept[:i] + kept[i + 1:]).monic()
        if not r.terms:
            raise AssertionError("minimal basis element reduced to zero")
        kept[i] = r
    return tuple(kept)


def _interreduce(gens: Sequence[Polynomial], ctx: RingContext) -> list:
    """Row-reduce the generators as sparse vectors over monomials.

    Each generator has its leading term cancelled against the rows kept so
    far until its leading monomial is new (or it vanishes).  The monic
    rows that remain have distinct leading monomials and span the same
    k-vector space as ``gens``, hence generate the same ideal.
    """
    rows: dict = {}  # leading monomial -> monic row
    for g in gens:
        ctx.check_same(g.ctx)
        while g.terms and g.lm() in rows:
            g = g - rows[g.lm()].scale(g.lc())
        if g.terms:
            rows[g.lm()] = g.monic()
    return list(rows.values())


def buchberger(gens: Sequence[Polynomial], ctx: RingContext) -> tuple:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    The generators are interreduced linearly first (:func:`_interreduce`);
    the pair queue starts from those rows only.

    Args:
        gens: generators (context must match ``ctx``; zeros are fine).
        ctx: a quotient-free ring context.

    Returns:
        The reduced basis as a tuple of monic polynomials sorted by
        leading monomial (empty tuple for the zero ideal).
    """
    if ctx.has_quotient():
        raise ValidationError("Groebner engine works upstairs; pass the base ring")
    limit = step_budget()
    G = _interreduce(gens, ctx)
    if not G:
        return ()
    sugar = [g.degree() for g in G]

    pairs: list = []  # heap of (lcm order key, sugar, i, j)
    done: set = set()

    def push_pair(i: int, j: int):
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
        # product criterion: coprime leading monomials reduce to zero
        if L == mono_mul(li, lj):
            continue
        # chain criterion: some k with lm_k | lcm and both side pairs settled
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(G[k].lm(), L):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in done and p2 in done:
                    skip = True
                    break
        if skip:
            continue
        h = reduce_full(_spoly(G[i], G[j]), G)
        if h.terms:
            G.append(h.monic())
            sugar.append(max(s, h.degree()))
            new = len(G) - 1
            for k in range(new):
                push_pair(k, new)
    return _reduced_basis(G)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class Ideal:
    """An ideal presented by generators, with a cached reduced basis.

    In a quotient context ``S/J`` the ideal is represented by its full
    preimage in ``S``: the quotient's generators are adjoined before any
    basis computation, so membership, equality and dimension all happen
    upstairs where the Groebner theory is clean.
    """

    def __init__(self, ctx: RingContext, gens: Sequence[Polynomial]):
        self.ctx = ctx
        for g in gens:
            ctx.check_same(g.ctx)
        self.gens = tuple(g for g in gens)
        self._gb: tuple | None = None

    def all_gens(self) -> tuple:
        """User generators plus the context's quotient generators, as
        elements of the base (quotient-free) ring."""
        base = self.ctx.base()
        out = [g.cast(base) for g in self.gens]
        out.extend(q.cast(base) for q in self.ctx.quotient_gens)
        return tuple(out)

    def groebner(self) -> tuple:
        if self._gb is None:
            self._gb = buchberger(self.all_gens(), self.ctx.base())
        return self._gb

    # membership / comparison -----------------------------------------

    def contains(self, f: Polynomial) -> bool:
        self.ctx.check_same(f.ctx)
        return not reduce_full(f.cast(self.ctx.base()), self.groebner()).terms

    def equals(self, other: "Ideal") -> bool:
        """Equality via uniqueness of the reduced basis."""
        self.ctx.check_same(other.ctx)
        mine = tuple(g.terms for g in self.groebner())
        theirs = tuple(g.terms for g in other.groebner())
        return mine == theirs

    def is_zero(self) -> bool:
        """Zero as an ideal of the context ring (for a quotient context:
        the preimage equals the quotient ideal itself)."""
        gb = self.groebner()
        if not self.ctx.has_quotient():
            return not gb
        qgb = tuple(g.terms for g in self.ctx.quotient_gb())
        return tuple(g.terms for g in gb) == qgb

    def radical_contains(self, f: Polynomial) -> bool:
        """Membership in the radical, by the extra-variable trick: f lies
        in rad(I) iff 1 lies in I + (1 - t f) in one more variable.  The
        run starts from the cached reduced basis of I."""
        if self.ctx.has_quotient():
            raise ValidationError("radical membership is for quotient-free contexts")
        self.ctx.check_same(f.ctx)
        fresh = "t_"
        while fresh in self.ctx.names:
            fresh += "_"
        big = RingContext(self.ctx.field, self.ctx.names + (fresh,), self.ctx.order)
        keep = list(range(self.ctx.nvars))
        lifted = [g.embed(big, keep) for g in self.groebner()]
        t = big.var(big.nvars - 1)
        lifted.append(big.one() - t * f.embed(big, keep))
        gb = buchberger(lifted, big)
        return len(gb) == 1 and gb[0].lm() == (0,) * big.nvars

    def leading_supports(self) -> list:
        """Variable supports of the reduced basis' leading monomials."""
        return [frozenset(i for i, e in enumerate(g.lm()) if e)
                for g in self.groebner()]

    def __repr__(self):
        return f"Ideal({', '.join(format_poly(g) for g in self.gens) or '0'})"


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

def _min_hitting_set(supports: list, n: int) -> int:
    """Smallest set of variables meeting every support, by branch and
    bound over the elements of a first unmet support."""
    sups = [s for s in supports]
    # supersets of another support are redundant
    sups.sort(key=lambda s: (len(s), sorted(s)))
    minimal: list = []
    for s in sups:
        if not any(t <= s for t in minimal):
            minimal.append(s)
    best = [n]

    def walk(remaining: list, count: int):
        if count >= best[0]:
            return
        if not remaining:
            best[0] = count
            return
        s = remaining[0]
        for v in sorted(s):
            rest = [r for r in remaining if v not in r]
            walk(rest, count + 1)

    walk(minimal, 0)
    return best[0]


def krull_dimension(I: Ideal) -> int:
    """Dimension of the quotient by ``I`` (computed upstairs when the
    context itself is a quotient).  The unit ideal has dimension -1.

    The dimension equals ``n`` minus the smallest number of variables
    meeting the support of every leading monomial of the basis: a set of
    variables is independent exactly when no leading monomial lives
    entirely inside it.
    """
    sups = I.leading_supports()
    n = I.ctx.nvars
    if any(not s for s in sups):
        return -1
    if not sups:
        return n
    return n - _min_hitting_set(sups, n)


def krull_dimension_by_enumeration(I: Ideal) -> int:
    """Independent-set search by brute force over all variable subsets;
    exponential, kept as a cross-check oracle for the main routine."""
    sups = I.leading_supports()
    n = I.ctx.nvars
    if any(not s for s in sups):
        return -1
    if not sups:
        return n
    best = 0
    for mask in range(1 << n):
        U = {i for i in range(n) if mask >> i & 1}
        if all(not s <= U for s in sups):
            best = max(best, len(U))
    return best
