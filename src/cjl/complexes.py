"""Finite free cochain complexes and their jump ideals.

A :class:`FreeComplex` is a bounded complex of finite free modules over a
polynomial (quotient) context or an Artin local algebra.  ``diffs[j]`` is
the matrix of ``d`` out of degree ``lo + j``, with rows indexed by the
target basis; ``d . d = 0`` is checked on construction.

The jump ideal in degree ``i`` at level ``k`` is the determinantal ideal
of the two-block matrix ``d(i-1) (+) d(i)`` at size ``rank(i) - k + 1``.
Its vanishing locus is where the degree-``i`` cohomology of the fiber has
dimension at least ``k``; the conventions for out-of-range sizes (unit
ideal at size <= 0, zero ideal past the shape) make that statement true
verbatim at the edges of the window.  It is computed block by block, as
sum_a I_a(d(i-1)) * I_{r-a}(d(i)) (Bruns-Vetter, *Determinantal Rings*,
LNM 1327), never from the assembled matrix.

Each block's s x s minors are enumerated once per complex and kept only
as a basis of their k-span (:meth:`FreeComplex.minor_span`): the reduced
echelon basis over an Artin ring, the interreduced nonzero normal forms
over a polynomial context.  Every jump ideal, Fitting ideal and generic
rank (:mod:`cjl.geometry`) of the complex reads those spans, and a split
I_a * I_b is generated by the products of two span bases.  That is exact:
a set and its k-span generate the same ideal, and the products of
spanning sets of two k-spaces span the k-space of their products, so
every I_a * I_b, and hence every reduced basis and echelon basis printed
from it, is unchanged.  Minor enumeration and the products of a split
are held to the step budget of :mod:`cjl.groebner` (``CJL_STEP_BUDGET``).
Over an Artin ring :func:`jump_ideal` alone takes the nilpotency shortcut.

Over an Artin ring the minors are read one at a time and the reading stops
once the span is full: at ``dim A``, and on a minimal model, whose entries
all lie in the maximal ideal m, at dim m^s
(:attr:`cjl.artin.ArtinLocalAlgebra.power_dims`).  Each s x s minor there
is a sum of products of s elements of m, so the span lies in m^s; once it
has that dimension it is m^s, and its reduced echelon basis is the one the
full list gives.  :func:`matrix_minors` still lists every minor; it is the
polynomial route and the tests' oracle.

The minimal model (:func:`minimize_complex`) splits off one contractible
piece A --a--> A per unit pivot a = d(j)[r][c] by one Gaussian-elimination
step (Bar-Natan, *Fast Khovanov homology computations*, JKTR 16, 2007,
Lemma 4.2): d(j) loses row r and column c and keeps the Schur complement
d(j)[r2][c2] - d(j)[r2][c] * a^-1 * d(j)[r][c2].  The neighbours only lose
a row and a column: the change of basis behind that step alters only row c
of d(j-1) and column r of d(j+1), into a^-1 times row r of d(j) d(j-1) and
column c of d(j+1) d(j) times a^-1, which are zero as d.d = 0.  So the d.d
check of the model's constructor is the one check of the result.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Sequence

from .artin import ArtinLocalAlgebra
from .errors import (InternalCheckError, ResourceLimitError, RingMismatchError,
                     ValidationError)
from .groebner import _interreduce, step_budget
from .linalg import Echelon, rank as field_rank


class FreeComplex:
    """Bounded cochain complex of free modules with explicit matrices.

    Immutable once built (``ranks`` and ``diffs`` are tuples that nothing
    reassigns), so it can keep its minimal model (:attr:`minimal`) and the
    span of each differential's minors (:meth:`minor_span`).
    """

    def __init__(self, ring, lo: int, hi: int, ranks: Sequence[int],
                 diffs: Sequence):
        if hi < lo:
            raise ValidationError("window is empty (hi < lo)")
        self.ring = ring
        self.lo = lo
        self.hi = hi
        self.ranks = tuple(int(r) for r in ranks)
        if len(self.ranks) != hi - lo + 1:
            raise ValidationError("ranks length disagrees with the window")
        if any(r < 0 for r in self.ranks):
            raise ValidationError("negative rank")
        self.diffs = tuple(tuple(tuple(row) for row in m) for m in diffs)
        if len(self.diffs) != hi - lo:
            raise ValidationError("need one differential per adjacent pair",
                                  at=("diffs",))
        for j, m in enumerate(self.diffs):
            if len(m) != self.ranks[j + 1] or any(len(r) != self.ranks[j] for r in m):
                raise ValidationError(
                    f"differential {j} has shape {len(m)}x?, expected "
                    f"{self.ranks[j + 1]}x{self.ranks[j]}", at=("diffs", j))
        self._check_dd()
        self._minimal = None
        self._spans: dict = {}  # (degree, size) -> span_of_minors basis

    def _check_dd(self):
        """Sum only the products of nonzero entries: row r of d(j+1)
        against the nonzero entries of each row of d(j), found once per
        matrix; the first nonzero entry of d.d is reported in row-major
        order."""
        if len(self.diffs) < 2:
            return
        R = self.ring
        nonzero = [[[(c, a) for c, a in enumerate(row) if not R.is_zero(a)]
                    for row in m] for m in self.diffs]
        for j in range(len(self.diffs) - 1):
            B = nonzero[j]
            for r, row in enumerate(nonzero[j + 1]):
                acc = {}
                for t, a in row:
                    for c, b in B[t]:
                        p = R.mul(a, b)
                        acc[c] = R.add(acc[c], p) if c in acc else p
                for c in sorted(acc):
                    if not R.is_zero(acc[c]):
                        raise ValidationError(
                            f"d.d != 0 at degrees {self.lo + j} -> {self.lo + j + 2}, "
                            f"entry ({r},{c})")

    @property
    def minimal(self) -> "FreeComplex":
        """The minimal model (Artin coefficients), built on first use by
        :func:`minimize_complex` and kept."""
        if self._minimal is None:
            self._minimal = minimize_complex(self)
        return self._minimal

    def minor_span(self, i: int, s: int) -> tuple:
        """Basis of the k-span of the s x s minors of d out of degree ``i``
        (:func:`span_of_minors`), enumerated on first use and kept."""
        key = (i, s)
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = span_of_minors(
                self.ring, self.diff(i), s, self.rank(i + 1), self.rank(i),
                _in_m=self._minimal is self)
        return span

    # -- window access -------------------------------------------------

    def rank(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.ranks[i - self.lo]
        return 0

    def diff(self, i: int):
        """Matrix of d out of degree i (zero-shaped outside the window)."""
        if self.lo <= i < self.hi:
            return self.diffs[i - self.lo]
        return tuple((self.ring.zero(),) * self.rank(i) for _ in range(self.rank(i + 1)))

    def __repr__(self):
        return f"FreeComplex([{self.lo},{self.hi}], ranks={self.ranks})"


# ---------------------------------------------------------------------------
# determinantal ideals
# ---------------------------------------------------------------------------

def _minor(ring, mat, rows: tuple, cols: tuple, cache: dict):
    """Determinant of the submatrix, by Laplace expansion along the first
    listed row with memoized sub-minors (division-free, any ring); a zero
    entry of ``mat`` is None."""
    if not rows:
        return ring.one()
    key = (rows, cols)
    hit = cache.get(key)
    if hit is not None:
        return hit
    r0 = rows[0]
    rest = rows[1:]
    total = ring.zero()
    for pos, c in enumerate(cols):
        a = mat[r0][c]
        if a is None:
            continue
        sub = _minor(ring, mat, rest, cols[:pos] + cols[pos + 1:], cache)
        term = ring.mul(a, sub)
        total = ring.add(total, term) if pos % 2 == 0 else ring.sub(total, term)
    cache[key] = total
    return total


def _within_budget(count: int, what: str):
    limit = step_budget()
    if count > limit:
        raise ResourceLimitError(f"{count} {what}", limit)


def _iter_minors(ring, mat, r: int, nrows: int, ncols: int):
    """The r x r minors in row-major lexicographic order of index sets,
    each expanded only when it is read.

    Refused with :class:`ResourceLimitError` on the call, before any minor
    is expanded, when the number of index pairs, C(nrows, r) * C(ncols, r),
    exceeds the step budget (:func:`cjl.groebner.step_budget`)."""
    _within_budget(math.comb(nrows, r) * math.comb(ncols, r),
                   f"index pairs of {r} x {r} minors")
    if r > 0:  # each entry is zero-tested once, not once per expansion
        mat = [[None if ring.is_zero(a) else a for a in row[:ncols]]
               for row in mat[:nrows]]
    cache: dict = {}
    return (_minor(ring, mat, rows, cols, cache)
            for rows in itertools.combinations(range(nrows), r)
            for cols in itertools.combinations(range(ncols), r))


def matrix_minors(ring, mat, r: int, nrows: int, ncols: int) -> list:
    """All r x r minors in row-major lexicographic order of index sets,
    with the budget check of :func:`_iter_minors`."""
    return list(_iter_minors(ring, mat, r, nrows, ncols))


def span_of_minors(ring, mat, s: int, nrows: int, ncols: int,
                   _in_m: bool = False) -> tuple:
    """A basis of the k-span of the s x s minors (:func:`matrix_minors`);
    it generates the same ideal as the minors.

    Over an Artin ring it is the reduced echelon basis of the minors, at
    most ``dim A`` vectors.  The minors are read one at a time, and the
    reading stops once the span is as large as it can be: ``dim A``, or,
    when the caller knows every entry lies in m (``_in_m``, a minimal
    model), ``power_dims[s]`` = dim m^s, which is 0 from the nilpotency
    index on.  That is exact: each minor is a sum of products of s
    elements of m, so the span lies in m^s, a subspace of full dimension
    is all of it, and the reduced echelon basis of a span is unique.
    Over a polynomial context it is the interreduced rows
    (:func:`cjl.groebner._interreduce`) of the minors' nonzero normal
    forms modulo the quotient, so it is empty exactly when every minor
    vanishes in the ring."""
    if not isinstance(ring, ArtinLocalAlgebra):
        minors = matrix_minors(ring, mat, s, nrows, ncols)
        forms = [f for f in map(ring.normal_form, minors) if f.terms]
        return tuple(_interreduce(forms, ring))
    minors = _iter_minors(ring, mat, s, nrows, ncols)
    cap = ring.power_dims[min(s, ring.nilpotency_index)] if _in_m else ring.dim
    ech = Echelon(ring.field, ring.dim)
    if cap:
        for m in minors:
            if ech.add(m) and ech.rank == cap:
                break
    return ech.basis()


def determinantal_ideal(E: FreeComplex, i: int, r: int):
    """Ideal of the r x r minors of d out of degree ``i``, generated by
    their kept span (:meth:`FreeComplex.minor_span`).  Size <= 0 gives the
    unit ideal, size beyond the shape the zero ideal."""
    if r <= 0:
        return E.ring.unit_ideal()
    return E.ring.ideal(E.minor_span(i, r))


def block_diag_determinantal(ring, r: int, ra: int, ca: int, rb: int, cb: int,
                             span_a, span_b):
    """Ideal of the r x r minors of the block-diagonal matrix A (+) B, for
    an ``ra`` x ``ca`` block A and an ``rb`` x ``cb`` block B.

    A minor of A (+) B that takes a rows from A is zero unless it takes a
    columns from A too, and then it is the a x a minor of A times the
    (r-a) x (r-a) minor of B, so the ideal is sum_a I_a(A) * I_{r-a}(B).
    ``span_a`` and ``span_b`` map a size s to a basis of the k-span of the
    s x s minors of A and of B (:meth:`FreeComplex.minor_span`), and each
    split is generated by the products of the two bases, which is exact
    (module docstring).  A split whose A-span is empty asks for no B-span,
    and a split's count of products is held to the step budget like a
    block's count of index pairs (:func:`matrix_minors`).
    """
    if r <= 0:
        return ring.unit_ideal()
    gens = []
    for a in range(max(0, r - min(rb, cb)), min(r, ra, ca) + 1):
        sa = span_a(a)
        if not sa:
            continue
        sb = span_b(r - a)
        _within_budget(len(sa) * len(sb), "products of block-minor spans")
        gens.extend(ring.mul(x, y) for x in sa for y in sb)
    return ring.ideal(gens)


# ---------------------------------------------------------------------------
# jump ideals
# ---------------------------------------------------------------------------

def jump_ideal(E: FreeComplex, i: int, k: int):
    """Jump ideal in degree ``i`` at level ``k >= 1``.

    Each split is the products of two kept span bases of the complex it
    reads (:meth:`FreeComplex.minor_span`), so every (i, k) of one complex
    shares one enumeration per (degree, size); the ideal is the same as
    from the raw minors (module docstring).  Over an Artin ring that
    complex is the minimal model (the ideal is invariant under
    minimization, and the matrices shrink), built once per complex
    (:attr:`FreeComplex.minimal`).  Every entry of that model lies in the
    maximal ideal m, so each r x r minor of d(i-1) (+) d(i) lies in m^r,
    and at a size ``r`` at or above the nilpotency index the ideal is zero
    and no minor is expanded.  Over a polynomial context the ideal is
    represented by its full preimage upstairs when the context is a
    quotient.
    """
    if k < 1:
        raise ValidationError(f"jump level must be >= 1, got {k}")
    artin = isinstance(E.ring, ArtinLocalAlgebra)
    if artin:
        E = E.minimal
    r = E.rank(i) - k + 1
    if artin and r >= E.ring.nilpotency_index:
        return E.ring.zero_ideal()
    return block_diag_determinantal(
        E.ring, r, E.rank(i), E.rank(i - 1), E.rank(i + 1), E.rank(i),
        partial(E.minor_span, i - 1), partial(E.minor_span, i))


# ---------------------------------------------------------------------------
# minimization over Artin rings
# ---------------------------------------------------------------------------

def minimize_complex(E: FreeComplex) -> FreeComplex:
    """The minimal model: unit pivots split off until every differential
    entry lies in m, unique up to isomorphism over an Artin local ring.

    The matrices are taken in order; while d(j) has a unit entry, the first
    in row-major order is split off by one Schur complement step (module
    docstring), over the nonzero entries of its row and column.  A failure
    of the model's d.d check is a bug (:class:`InternalCheckError`).  A
    complex with no unit entry is returned as it is.  Either way the result
    is its own model; :attr:`FreeComplex.minimal` calls this once.
    """
    A = E.ring
    if not isinstance(A, ArtinLocalAlgebra):
        raise ValidationError("minimization needs Artin local coefficients")
    ranks = list(E.ranks)
    diffs = [[list(row) for row in m] for m in E.diffs]
    for j, d in enumerate(diffs):
        while (spot := next(((r, c) for r, row in enumerate(d)
                             for c, a in enumerate(row) if A.is_unit(a)), None)):
            r, c = spot
            ainv = A.inverse(d[r][c])
            pivot_row = [(c2, A.mul(x, ainv)) for c2, x in enumerate(d[r])
                         if c2 != c and not A.is_zero(x)]
            for r2, row in enumerate(d):
                y = row[c]
                if r2 != r and not A.is_zero(y):
                    for c2, x in pivot_row:
                        row[c2] = A.sub(row[c2], A.mul(y, x))
            del d[r]
            for row in d:
                del row[c]
            if j > 0:
                del diffs[j - 1][c]
            if j + 1 < len(diffs):
                for row in diffs[j + 1]:
                    del row[r]
            ranks[j] -= 1
            ranks[j + 1] -= 1
    if tuple(ranks) == E.ranks:
        M = E
    else:
        try:
            M = FreeComplex(A, E.lo, E.hi, ranks, diffs)
        except ValidationError as exc:
            raise InternalCheckError(f"minimal model: {exc}") from exc
    M._minimal = M
    return M


# ---------------------------------------------------------------------------
# base change and fibers
# ---------------------------------------------------------------------------

def base_change(E: FreeComplex, ring_map) -> FreeComplex:
    """Apply a ring map entry-wise; the result is validated again."""
    if not E.ring.same(ring_map.source):
        raise RingMismatchError("complex is not over the map's source ring")
    new = [tuple(tuple(ring_map.apply(a) for a in row) for row in m)
           for m in E.diffs]
    return FreeComplex(ring_map.target, E.lo, E.hi, E.ranks, new)


def fiber_cohomology_rank(E: FreeComplex, i: int) -> int:
    """dim of degree-i cohomology of the residue-field fiber (Artin ring)."""
    A = E.ring
    if not isinstance(A, ArtinLocalAlgebra):
        raise ValidationError("fiber ranks need Artin local coefficients")
    F = A.field

    def res_rank(mat) -> int:
        rows = [tuple(A.residue(a) for a in row) for row in mat]
        return field_rank(F, rows)

    r_prev = res_rank(E.diff(i - 1))
    r_here = res_rank(E.diff(i))
    return E.rank(i) - r_prev - r_here
