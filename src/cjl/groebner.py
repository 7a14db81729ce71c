"""Groebner bases, ideal arithmetic, radical membership, Krull dimension.

The basis computation is Buchberger's algorithm with normal-strategy pair
selection (smallest lcm in the monomial order) and sugar-degree
tie-breaking.  Pairs are pruned when an element enters the basis, by the
criteria of Gebauer and Moeller (J. Symb. Comp. 6, 1988): a queued pair
whose lcm the new leading monomial divides, strictly on both sides, is
dropped (B); of the new pairs only one per minimal lcm is kept (M), none
if that lcm is a product of coprime leading monomials (F and the product
criterion); an element whose leading monomial the new one divides
neither pairs nor reduces again.  The queue therefore holds only pairs
that will be reduced.  Before any S-pair is formed the generators are
interreduced as sparse vectors over monomials (the first step of
Faugere's F4): the basis starts from monic rows with distinct leading
monomials that span the same vector space, so zero, repeated and
linearly dependent generators never enter a pair.  When every
interreduced row is a single term the ideal is monomial: every
S-polynomial is zero, and the reduced basis is the set of minimal
monomials, returned without forming a pair.  Every element that pairs is
monic, so an S-polynomial is built from the two tails alone.  Normal forms
keep the remainder as a dictionary and a heap of its monomials (Monagan and
Pearce, ISSAC 2007) and reject a reducer by a bit mask of the variables in
its leading monomial before comparing exponents.  Every run is deterministic:
pairs are totally ordered by ``(lcm key, sugar, i, j)``, the first reducer
in basis order whose leading monomial divides a term is taken, and the
reduced basis is unique, so it (and hence every downstream ideal
computation) is reproducible byte for byte.

Radical membership (:meth:`Ideal.radical_contains`) takes the first of
four routes that applies: (a) f reduces to zero modulo the reduced basis,
so f lies in I; (b) the reduced basis is homogeneous and I has Krull
dimension 0, so the graded quotient is finite-dimensional, m^N lies in I
and I in m, rad(I) = m, and f lies in it exactly when it has no constant
term; (p) f^2 reduces to zero, so f lies in rad(I); (c) otherwise a
Rabinowitsch run, 1 in I + (1 - t f), in one more variable.  Only (c) runs
Buchberger beyond the cached basis of I.

Step budget: each S-pair taken from the queue, that is each pair that
survived the criteria and is reduced, counts as one step.  When the count
would exceed the budget — the ``CJL_STEP_BUDGET`` environment variable (a
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
import os
from operator import add, le, sub
from typing import Sequence

from .errors import ResourceLimitError, ValidationError
from .field import QQ
from .poly import (REVERSED_KEYS, Polynomial, RingContext, format_poly, mono_deg,
                   mono_divides, mono_lcm)

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


_SUPPORT = bytes([0] + [1] * 255)


def _mask(m) -> int:
    """Bit 8i set when variable i occurs in the monomial: if a divides b,
    then the mask of a is a subset of the mask of b."""
    try:
        return int.from_bytes(bytes(m).translate(_SUPPORT), "little")
    except ValueError:  # an exponent above 255
        return int.from_bytes(bytes(map(bool, m)), "little")


def reduce_full(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full normal form of ``f``: no term of the result is divisible by the
    leading monomial of any basis element.

    The remainder is a dictionary of terms plus a heap of order-reversed
    monomial keys, so each step pops the largest term left and adds one
    multiple of a reducer's tail; terms that reach the result are already
    in order.
    """
    return _reduce(f.ctx, dict(f.terms), [_reducer(g.monic()) for g in basis])


def _reducer(g: Polynomial) -> tuple:
    """The (support mask, leading monomial, element) triple that
    :func:`_reduce` reads a reducer from."""
    return (_mask(g.lm()), g.lm(), g)


def _reduce(ctx: RingContext, work: dict, reducers: Sequence[tuple]) -> Polynomial:
    """:func:`reduce_full` of the polynomial whose terms ``work`` maps (it
    is consumed; zero coefficients are allowed) by the :func:`_reducer`
    triples of a monic basis."""
    F = ctx.field
    rkey = REVERSED_KEYS[ctx.order]
    heap = [(rkey(m), m) for m in work]
    heapq.heapify(heap)
    out = []
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if F.is_zero(c):
            continue
        miss = ~_mask(m)
        for bits, lm, g in reducers:
            if not bits & miss and all(map(le, lm, m)):
                break
        else:
            out.append((m, c))
            continue
        q = tuple(map(sub, m, lm))
        for gm, gc in g.terms[1:]:
            mm = tuple(map(add, gm, q))
            v = F.mul(gc, c)
            if mm in work:
                work[mm] = F.sub(work[mm], v)
            else:
                work[mm] = F.neg(v)
                heapq.heappush(heap, (rkey(mm), mm))
    return Polynomial(ctx, tuple(out))


def _spair(f: Polynomial, g: Polynomial, L) -> dict:
    """The terms of the S-polynomial of the monic ``f`` and ``g`` whose
    leading monomials have lcm ``L``, as a work dictionary for
    :func:`_reduce`.  The leading terms cancel, so only the tails are
    shifted; a coefficient may cancel to zero."""
    F = f.ctx.field
    qf = tuple(map(sub, L, f.lm()))
    qg = tuple(map(sub, L, g.lm()))
    work = {tuple(map(add, m, qf)): c for m, c in f.terms[1:]}
    for m, c in g.terms[1:]:
        mm = tuple(map(add, m, qg))
        work[mm] = F.sub(work[mm], c) if mm in work else F.neg(c)
    return work


def _reduced_basis(G: list) -> tuple:
    """Minimalize and autoreduce monic elements with distinct leading
    monomials; the result is sorted by leading monomial, smallest first."""
    if not G:
        return ()
    ctx = G[0].ctx
    # minimal: drop any element whose lm is divisible by another's.  A
    # divisor precedes its multiples in every monomial order, and the
    # leading monomials are distinct, so only kept ones of lower degree
    # can divide
    kept: list = []
    lower: dict = {}  # degree -> (mask, lm) of the kept elements
    for g in sorted(G, key=lambda g: ctx.key(g.lm())):
        m = g.lm()
        d = mono_deg(m)
        mask = _mask(m)
        if not any(not bits & ~mask and mono_divides(lm, m)
                   for e, below in lower.items() if e < d for bits, lm in below):
            kept.append(g)
            lower.setdefault(d, []).append((mask, m))
    # autoreduce the tails: no leading monomial divides another, nor any
    # term of its own tail, so the leading terms stay and one pass suffices
    reducers = [_reducer(g) for g in kept]
    for i, g in enumerate(kept):
        if len(g.terms) > 1:
            tail = _reduce(ctx, dict(g.terms[1:]), reducers)
            kept[i] = Polynomial(ctx, g.terms[:1] + tail.terms)
            reducers[i] = _reducer(kept[i])
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


def buchberger(gens: Sequence[Polynomial], ctx: RingContext, *,
               _settled: Sequence[Polynomial] = ()) -> tuple:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    The generators are interreduced linearly first (:func:`_interreduce`).
    If every row is then a single term and nothing is settled, the ideal
    is monomial and its reduced basis is its minimal monomials: no row is
    inserted and no pair is formed.  Otherwise the rows enter the basis
    one by one, each pruning the pair queue, and each S-pair is built
    from the tails of its two monic elements (:func:`_spair`).

    Args:
        gens: generators (context must match ``ctx``; zeros are fine).
        ctx: a quotient-free ring context.
        _settled: internal; monic elements of ``ctx`` that already form a
            Groebner basis.  They enter first with their mutual pairs
            taken as settled, so only pairs with the rows of ``gens`` are
            formed.

    Returns:
        The reduced basis of the ideal generated by ``gens`` (and
        ``_settled``) as a tuple of monic polynomials sorted by leading
        monomial (empty tuple for the zero ideal).
    """
    if ctx.has_quotient():
        raise ValidationError("Groebner engine works upstairs; pass the base ring")
    limit = step_budget()
    G = list(_settled)
    lms = [g.lm() for g in G]
    masks = [_mask(m) for m in lms]
    sugar = [g.degree() for g in G]
    triples = [(masks[k], lms[k], g) for k, g in enumerate(G)]  # _reducer
    active = list(range(len(G)))  # elements that still pair and reduce
    reducers = list(triples)  # the triples of ``active``, in its order
    pairs: list = []  # heap of (lcm order key, sugar, i, j, lcm, lcm mask)

    def insert(h: Polynomial, s: int):
        """Gebauer-Moeller update: prune the queue by the new leading
        monomial, then queue the new pairs that survive."""
        new = len(G)
        lh, mh = h.lm(), _mask(h.lm())
        G.append(h)
        lms.append(lh)
        masks.append(mh)
        sugar.append(s)
        triples.append((mh, lh, h))
        # B: drop (i, j) when lh divides its lcm L and lcm(l_i, lh) != L != lcm(l_j, lh)
        kept = [p for p in pairs
                if mh & ~p[5] or not mono_divides(lh, p[4])
                or mono_lcm(lms[p[2]], lh) == p[4] or mono_lcm(lms[p[3]], lh) == p[4]]
        if len(kept) < len(pairs):
            heapq.heapify(kept)
            pairs[:] = kept
        # M and F: of the new pairs keep one per minimal lcm, none when a
        # pair with that lcm has coprime leading monomials; sorting by the
        # order key puts every proper divisor of an lcm before it
        cands = []
        for k in active:
            L = mono_lcm(lms[k], lh)
            dL = mono_deg(L)
            ps = max(sugar[k] + dL - mono_deg(lms[k]), s + dL - mono_deg(lh))
            cands.append((ctx.key(L), bool(masks[k] & mh), ps, k, L))
        cands.sort()
        minimal: list = []
        for key, shared, ps, k, L in cands:
            mL = _mask(L)
            if any(not mM & ~mL and mono_divides(M, L) for mM, M in minimal):
                continue
            minimal.append((mL, L))
            if shared:
                heapq.heappush(pairs, (key, ps, k, new, L, mL))
        active[:] = [k for k in active
                     if masks[k] & ~mh or not mono_divides(lh, lms[k])] + [new]
        reducers[:] = [triples[k] for k in active]

    rows = _interreduce(gens, ctx)
    if not _settled and all(len(row.terms) == 1 for row in rows):
        return _reduced_basis(rows)  # every S-polynomial of monomials is 0
    for row in rows:
        if not any(row.lm()):
            return (row,)
        insert(row, row.degree())

    steps = 0
    while pairs:
        steps += 1
        if steps > limit:
            raise ResourceLimitError("Groebner basis computation", limit)
        _, s, i, j, L, _ = heapq.heappop(pairs)
        h = _reduce(ctx, _spair(G[i], G[j], L), reducers)
        if h.terms:
            h = h.monic()
            if not any(h.lm()):
                return (h,)
            insert(h, max(s, h.degree()))
    return _reduced_basis([G[k] for k in active])


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
        self._reducers: list = []  # the _reducer triples of _gb
        self._origin: bool | None = None  # homogeneous with V(I) = {0}
        self._dim: int | None = None  # krull_dimension, from the basis

    def all_gens(self) -> tuple:
        """User generators plus the context's quotient generators, as
        elements of the base (quotient-free) ring."""
        base = self.ctx.base()
        out = [g.cast(base) for g in self.gens]
        out.extend(q.cast(base) for q in self.ctx.quotient_gens)
        return tuple(out)

    def groebner(self) -> tuple:
        if self._gb is None:
            # the zero ideal's preimage is the quotient ideal, whose basis
            # the context caches
            self._gb = (buchberger(self.all_gens(), self.ctx.base()) if self.gens
                        else self.ctx.quotient_gb())
            self._reducers = [_reducer(g) for g in self._gb]
        return self._gb

    # membership / comparison -----------------------------------------

    def contains(self, f: Polynomial) -> bool:
        self.ctx.check_same(f.ctx)
        self.groebner()
        return not _reduce(self.ctx.base(), dict(f.terms), self._reducers).terms

    def equals(self, other: "Ideal") -> bool:
        """Equality via uniqueness of the reduced basis."""
        self.ctx.check_same(other.ctx)
        mine = tuple(g.terms for g in self.groebner())
        theirs = tuple(g.terms for g in other.groebner())
        return mine == theirs

    def radical_contains(self, f: Polynomial) -> bool:
        """Membership of ``f`` in the radical of the ideal, by the first of
        four routes that applies:

        (a) ``f`` reduces to zero modulo the reduced basis: f lies in I,
            hence in rad(I).  The unit ideal always ends here.
        (b) every basis element is homogeneous and the Krull dimension is
            0: the graded quotient is then finite-dimensional, so
            m^N lies in I, and I lies in m; rad(I) = m, which holds f
            exactly when f has no constant term.  This is exact over
            every field.  A non-homogeneous ideal of dimension 0, such
            as (x - 1), takes route (p) or (c).
        (p) f^2 reduces to zero modulo the reduced basis: f lies in
            rad(I).  This route answers only True; when f^2 is not in I
            the answer is left to (c).
        (c) the extra-variable trick: f lies in rad(I) iff 1 lies in
            I + (1 - t f) in one more variable.  The run starts from the
            cached reduced basis of I with its pairs settled: it is a
            Groebner basis and t does not occur in it, so only the pairs
            with 1 - t f are formed.

        Routes (a), (b) and (p) form no S-pair and take no budget step."""
        if self.ctx.has_quotient():
            raise ValidationError("radical membership is for quotient-free contexts")
        self.ctx.check_same(f.ctx)
        if self.contains(f):
            return True
        if self._origin is None:
            self._origin = (all(len({mono_deg(m) for m, _ in g.terms}) == 1
                                for g in self.groebner())
                            and krull_dimension(self) == 0)
        if self._origin:
            return any(f.terms[-1][0])
        if self.contains(f * f):
            return True
        fresh = "t_"
        while fresh in self.ctx.names:
            fresh += "_"
        big = RingContext(self.ctx.field, self.ctx.names + (fresh,), self.ctx.order)
        keep = list(range(self.ctx.nvars))
        lifted = [g.embed(big, keep) for g in self.groebner()]
        t = big.var(big.nvars - 1)
        gb = buchberger([big.one() - t * f.embed(big, keep)], big, _settled=lifted)
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
    entirely inside it.  It is computed once per ideal, from its cached
    basis, and kept.
    """
    if I._dim is None:
        sups = I.leading_supports()
        n = I.ctx.nvars
        if any(not s for s in sups):
            I._dim = -1
        elif not sups:
            I._dim = n
        else:
            I._dim = n - _min_hitting_set(sups, n)
    return I._dim


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
