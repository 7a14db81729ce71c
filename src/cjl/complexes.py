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
LNM 1327), never from the assembled matrix.  Minor enumeration is held to
the step budget of :mod:`cjl.groebner` (``CJL_STEP_BUDGET``).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .artin import ArtinLocalAlgebra
from .errors import (InternalCheckError, ResourceLimitError, RingMismatchError,
                     ValidationError)
from .groebner import step_budget
from .linalg import rank as field_rank


def ring_same(r1, r2) -> bool:
    return r1 is r2 or r1.same(r2)


class FreeComplex:
    """Bounded cochain complex of free modules with explicit matrices.

    Immutable once built (``ranks`` and ``diffs`` are tuples that nothing
    reassigns), so it can keep its minimal model (:attr:`minimal`).
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

    def _check_dd(self):
        R = self.ring
        for j in range(len(self.diffs) - 1):
            A, B = self.diffs[j + 1], self.diffs[j]
            for r in range(self.ranks[j + 2]):
                for c in range(self.ranks[j]):
                    s = R.zero()
                    for t in range(self.ranks[j + 1]):
                        s = R.add(s, R.mul(A[r][t], B[t][c]))
                    if not R.is_zero(s):
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

    # -- window access -------------------------------------------------

    def rank(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.ranks[i - self.lo]
        return 0

    def diff(self, i: int):
        """Matrix of d out of degree i (zero-shaped outside the window)."""
        if self.lo <= i < self.hi:
            return self.diffs[i - self.lo]
        rows = self.rank(i + 1)
        return tuple(() for _ in range(rows)) if self.rank(i) == 0 \
            else tuple((self.ring.zero(),) * self.rank(i) for _ in range(rows))

    @staticmethod
    def zero(ring) -> "FreeComplex":
        return FreeComplex(ring, 0, 0, (0,), ())

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


def matrix_minors(ring, mat, r: int, nrows: int, ncols: int) -> list:
    """All r x r minors in row-major lexicographic order of index sets.

    Refused with :class:`ResourceLimitError` before any minor is expanded
    when the number of index pairs, C(nrows, r) * C(ncols, r), exceeds the
    step budget (:func:`cjl.groebner.step_budget`)."""
    _within_budget(math.comb(nrows, r) * math.comb(ncols, r),
                   f"index pairs of {r} x {r} minors")
    if r > 0:  # each entry is zero-tested once, not once per expansion
        mat = [[None if ring.is_zero(a) else a for a in row[:ncols]]
               for row in mat[:nrows]]
    cache: dict = {}
    out = []
    for rows in itertools.combinations(range(nrows), r):
        for cols in itertools.combinations(range(ncols), r):
            out.append(_minor(ring, mat, rows, cols, cache))
    return out


def determinantal_ideal(ring, mat, r: int, nrows: int | None = None,
                        ncols: int | None = None):
    """Ideal of r x r minors with the boundary conventions: size <= 0
    gives the unit ideal, size beyond the shape gives the zero ideal."""
    if nrows is None:
        nrows = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    if r <= 0:
        return ring.unit_ideal()
    if r > min(nrows, ncols):
        return ring.zero_ideal()
    return ring.ideal(matrix_minors(ring, mat, r, nrows, ncols))


def _in_max_ideal(ring, mat) -> bool:
    return all(ring.in_max_ideal(a) for row in mat for a in row)


def block_diag_determinantal(ring, A, B, r: int, ra: int, ca: int,
                             rb: int, cb: int):
    """Ideal of the r x r minors of the block-diagonal matrix A (+) B.

    A minor of A (+) B that takes a rows from A is zero unless it takes a
    columns from A too, and then it is the a x a minor of A times the
    (r-a) x (r-a) minor of B: the generators are those products over the
    nonzero minors of each block, split by split (a = 0, 1, ...).  Over an
    Artin ring the s x s minors of a block with every entry in the maximal
    ideal m lie in m^s, so a split whose products lie in m^s = 0 is skipped
    unexpanded.  A split's count of products is held to the step budget
    like a block's count of index pairs (:func:`matrix_minors`).
    """
    if r <= 0:
        return ring.unit_ideal()
    nilp = None
    if isinstance(ring, ArtinLocalAlgebra):
        nilp = ring.nilpotency_index
        a_in_m, b_in_m = _in_max_ideal(ring, A), _in_max_ideal(ring, B)
    gens = []
    for a in range(max(0, r - min(rb, cb)), min(r, ra, ca) + 1):
        b = r - a
        if nilp is not None and a_in_m * a + b_in_m * b >= nilp:
            continue
        ma = [m for m in matrix_minors(ring, A, a, ra, ca) if not ring.is_zero(m)]
        if not ma:
            continue
        mb = [m for m in matrix_minors(ring, B, b, rb, cb) if not ring.is_zero(m)]
        _within_budget(len(ma) * len(mb), "products of block minors")
        gens.extend(ring.mul(x, y) for x in ma for y in mb)
    return ring.ideal(gens)


# ---------------------------------------------------------------------------
# jump ideals
# ---------------------------------------------------------------------------

def jump_ideal(E: FreeComplex, i: int, k: int):
    """Jump ideal in degree ``i`` at level ``k >= 1``.

    Over an Artin ring it is read from the minimal model (the ideal is
    invariant under minimization, and the matrices shrink), built once per
    complex for all ``i`` and ``k`` (:attr:`FreeComplex.minimal`).  Every
    entry of that model lies in the maximal ideal m, so at a size ``r`` at
    or above the nilpotency index the ideal is zero and no minor is expanded.
    Over a polynomial context the minors are taken as-is and the ideal is
    represented by its full preimage upstairs when the context is a
    quotient.
    """
    if k < 1:
        raise ValidationError(f"jump level must be >= 1, got {k}")
    if isinstance(E.ring, ArtinLocalAlgebra):
        E = E.minimal
    r = E.rank(i) - k + 1
    dp = E.diff(i - 1)
    di = E.diff(i)
    return block_diag_determinantal(
        E.ring, dp, di, r,
        E.rank(i), E.rank(i - 1), E.rank(i + 1), E.rank(i))


# ---------------------------------------------------------------------------
# minimization over Artin rings
# ---------------------------------------------------------------------------

def minimize_complex(E: FreeComplex) -> FreeComplex:
    """Split off unit pivots until every differential entry lies in the
    maximal ideal.  The result is the minimal model of the complex; over
    an Artin local ring it exists and is unique up to isomorphism.
    :attr:`FreeComplex.minimal` calls it once per complex.  A complex with
    no unit entry is returned as it is; the result is its own model.
    """
    A = E.ring
    if not isinstance(A, ArtinLocalAlgebra):
        raise ValidationError("minimization needs Artin local coefficients")
    ranks = list(E.ranks)
    diffs = [[list(row) for row in m] for m in E.diffs]

    def find_unit():
        for j, m in enumerate(diffs):
            for r, row in enumerate(m):
                for c, a in enumerate(row):
                    if A.is_unit(a):
                        return j, r, c
        return None

    while True:
        spot = find_unit()
        if spot is None:
            break
        j, r, c = spot
        d = diffs[j]
        ainv = A.inverse(d[r][c])
        # clear the pivot row via column ops; mirror as row ops on d(j-1)
        for c2 in range(ranks[j]):
            if c2 == c or A.is_zero(d[r][c2]):
                continue
            lam = A.neg(A.mul(d[r][c2], ainv))     # col c2 += lam * col c
            for r2 in range(ranks[j + 1]):
                d[r2][c2] = A.add(d[r2][c2], A.mul(lam, d[r2][c]))
            if j > 0:
                prev = diffs[j - 1]                # row c -= lam * row c2
                for t in range(ranks[j - 1]):
                    prev[c][t] = A.sub(prev[c][t], A.mul(lam, prev[c2][t]))
        # clear the pivot column via row ops; mirror as column ops on d(j+1)
        for r2 in range(ranks[j + 1]):
            if r2 == r or A.is_zero(d[r2][c]):
                continue
            lam = A.neg(A.mul(d[r2][c], ainv))     # row r2 += lam * row r
            for c2 in range(ranks[j]):
                d[r2][c2] = A.add(d[r2][c2], A.mul(lam, d[r][c2]))
            if j + 1 < len(diffs):
                nxt = diffs[j + 1]                 # col r -= lam * col r2
                for t in range(ranks[j + 2]):
                    nxt[t][r] = A.sub(nxt[t][r], A.mul(lam, nxt[t][r2]))
        # the cleared row/column of the neighbors must now vanish (d.d = 0)
        if j > 0:
            for t in range(ranks[j - 1]):
                if not A.is_zero(diffs[j - 1][c][t]):
                    raise InternalCheckError("pivot row of previous "
                                             "differential did not clear")
        if j + 1 < len(diffs):
            for t in range(ranks[j + 2]):
                if not A.is_zero(diffs[j + 1][t][r]):
                    raise InternalCheckError("pivot column of next "
                                             "differential did not clear")
        # drop basis vector c in degree j and r in degree j+1
        for r2 in range(ranks[j + 1]):
            del d[r2][c]
        del d[r]
        if j > 0:
            del diffs[j - 1][c]
        if j + 1 < len(diffs):
            for row in diffs[j + 1]:
                del row[r]
        ranks[j] -= 1
        ranks[j + 1] -= 1

    M = E if tuple(ranks) == E.ranks else FreeComplex(
        A, E.lo, E.hi, ranks, [tuple(tuple(row) for row in m) for m in diffs])
    M._minimal = M
    return M


# ---------------------------------------------------------------------------
# base change and fibers
# ---------------------------------------------------------------------------

def base_change(E: FreeComplex, ring_map) -> FreeComplex:
    """Apply a ring map entry-wise; the result is validated again."""
    if not ring_same(E.ring, ring_map.source):
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

    def res_rank(mat, ncols: int) -> int:
        rows = [tuple(A.residue(a) for a in row) for row in mat]
        return field_rank(F, rows)

    r_prev = res_rank(E.diff(i - 1), E.rank(i - 1))
    r_here = res_rank(E.diff(i), E.rank(i))
    return E.rank(i) - r_prev - r_here
