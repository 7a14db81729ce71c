"""Rank bookkeeping and determinantal loci for the universal complex.

The module window of a pair gives a finite list of cohomology dimensions
``b`` and, through the universal linear complex, a list of generic
differential ranks ``beta``.  Everything else here derives from those
two lists: the first degree where exactness fails, the loci where a
specialization drops rank, numeric codimension bounds, and a pair of
truncated characteristic series per intermediate degree.

``b`` and ``beta`` are indexed from the lowest module degree; public
entry points take and return absolute degrees.
"""

import math

from .complexes import determinantal_ideal, jump_ideal
from .dgla import cohomology_pair
from .errors import InternalCheckError, ValidationError
from .groebner import krull_dimension
from .linalg import bareiss_rank
from .resonance import contraction_rank, pointwise_resonance, universal_aomoto


class _Geometry:
    """Cached per-pair state shared by the public entry points."""

    def __init__(self, P):
        self.pair = cohomology_pair(P)
        self.E = universal_aomoto(self.pair)
        self.ctx = self.E.ring
        self.S = self.ctx.base()
        self.iq = tuple(q.cast(self.S) for q in self.ctx.quotient_gens)
        self.lo = self.E.lo
        self.b = tuple(self.E.ranks)
        self.npos = len(self.b)
        self.beta = self._generic_ranks()
        self.dim_cone = krull_dimension(self.ctx.zero_ideal())
        self._upstairs: dict = {}
        self._res: dict = {}
        self._fit: dict = {}
        self._a: int | None = None

    # -- generic ranks -------------------------------------------------

    def _generic_ranks(self) -> tuple:
        """beta: per position, the largest size whose kept minor span of d
        (:meth:`~cjl.complexes.FreeComplex.minor_span`, nonzero normal
        forms only) is not empty, searched down from the shape of d.  Over
        a free coefficient ring, a domain, d . d = 0 gives beta_p <= b_p -
        beta_{p-1}, and the search starts there; zero divisors break that
        (R -x-> R -y-> R over k[x, y]/(xy): beta = (1, 1), b_1 = 1)."""
        beta = []
        for pos, b in enumerate(self.b):
            i = self.lo + pos
            top = min(self.E.rank(i + 1), b)
            if beta and not self.ctx.has_quotient():
                top = min(top, b - beta[-1])
            beta.append(next((r for r in range(top, 0, -1)
                              if self.E.minor_span(i, r)), 0))
        return tuple(beta)

    # -- ideals --------------------------------------------------------

    def preimage(self, ideal) -> "object":
        """The same locus presented upstairs, quotient relations included;
        one ideal, hence one basis, per distinct list of generators."""
        gens = ideal.all_gens()
        key = tuple(g.terms for g in gens)
        if key not in self._upstairs:
            self._upstairs[key] = self.S.ideal(gens)
        return self._upstairs[key]

    def res(self, pos: int, k: int):
        key = (pos, k)
        if key not in self._res:
            J = jump_ideal(self.E, self.lo + pos, k)
            self._res[key] = self.preimage(J)
        return self._res[key]

    def fit(self, pos: int, r: int):
        """Ideal of the r x r minors of d out of position ``pos``: where
        that map drops below rank r, presented upstairs.  It is generated
        by the same kept minor span that the generic rank and the jump
        ideals of the complex read."""
        key = (pos, r)
        if key not in self._fit:
            self._fit[key] = self.preimage(
                determinantal_ideal(self.E, self.lo + pos, r))
        return self._fit[key]

    def codim(self, ideal_upstairs) -> tuple:
        """(codimension inside the cone, projectively-empty flag).

        A locus whose affine dimension is at most zero misses every
        nonzero point; its codimension is recorded as the full cone
        dimension by convention.
        """
        d = krull_dimension(ideal_upstairs)
        if d <= 0:
            return self.dim_cone, True
        return self.dim_cone - d, False

    # -- exactness threshold -------------------------------------------

    def threshold_pos(self) -> int:
        if self._a is None:
            self._a = self._threshold_scan()
        return self._a

    def _threshold_scan(self) -> int:
        if all(x == 0 for x in self.b):
            raise ValidationError("module cohomology vanishes everywhere; "
                                  "no exactness threshold")
        # codimension of the rank-beta locus, used as the depth proxy;
        # exact for free coefficients and principal quotients, an
        # assumption otherwise (surfaced as a report flag).
        grade = {}
        for p in range(self.npos):
            if self.beta[p] == 0:
                grade[p] = None          # unit minor ideal, never binding
            else:
                d = krull_dimension(self.fit(p, self.beta[p]))
                grade[p] = self.dim_cone - d if d >= 0 else self.dim_cone + 1
        limit = self.npos + self.dim_cone + 2
        for i in range(limit + 1):
            bi = self.b[i] if i < self.npos else 0
            here = self.beta[i] if i < self.npos else 0
            prev = self.beta[i - 1] if 0 <= i - 1 < self.npos else 0
            if bi != here + prev:
                return i
            for j in range(min(i, self.npos - 1) + 1):
                if grade[j] is not None and grade[j] < i + 1 - j:
                    return i
        raise InternalCheckError("exactness scan did not terminate")

    def _point_rank(self, i: int, pt) -> int:
        # the specialize-then-rank route stays on the fraction-free
        # eliminator, independent of the contraction route's reducer
        rows = [[e.evaluate(pt) for e in row] for row in self.E.diff(i)]
        return bareiss_rank(self.ctx.field, rows)


# ---------------------------------------------------------------------------
# ranks and threshold
# ---------------------------------------------------------------------------

def exactness_threshold(P) -> int:
    """First absolute degree where the universal complex stops being
    exact.

    Exactness through a window prefix is decided by the rank identity
    ``b_i = beta_i + beta_{i-1}`` together with lower bounds on the
    codimension of the expected-rank minor loci; the first degree
    violating either is returned."""
    g = _Geometry(P)
    return g.lo + g.threshold_pos()


# ---------------------------------------------------------------------------
# characteristic series
# ---------------------------------------------------------------------------

class ChernSeries:
    """Truncated integer power series attached to one degree.

    ``coeffs[j]`` is the degree-``j`` coefficient; ``coeffs[0]`` is
    always 1.  Instances are produced by :func:`chern_series`."""

    def __init__(self, i: int, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs or coeffs[0] != 1:
            raise InternalCheckError("series must start with 1")
        self.i = i
        self.coeffs = coeffs

    def __repr__(self):
        return f"ChernSeries(i={self.i}, coeffs={self.coeffs})"


def chern_exponent(b, i: int, k: int) -> int:
    """Exponent of ``(1 - k t)`` in the degree-``i`` series:
    ``(-1)**k * b[i + 1 - k]``, with out-of-range indices contributing
    zero.  Single point of change if the exponent convention is ever
    revisited."""
    j = i + 1 - k
    if j < 0 or j >= len(b):
        return 0
    return (-1) ** k * b[j]


def alternating_sum(b, a: int) -> int:
    """``b[a] - b[a-1] + b[a-2] - ...`` with out-of-range terms zero."""
    total = 0
    for j in range(a + 1):
        if 0 <= a - j < len(b):
            total += (-1) ** j * b[a - j]
    return total


def _series_product(exps: dict, trunc: int) -> list:
    """Coefficients of prod_k (1 - k t)**e_k through degree trunc."""
    out = [1] + [0] * trunc
    for k, e in exps.items():
        if e == 0:
            continue
        if e >= 0:
            fac = [math.comb(e, j) * (-k) ** j for j in range(trunc + 1)]
        else:
            m = -e
            fac = [math.comb(m - 1 + j, j) * k ** j for j in range(trunc + 1)]
        nxt = [0] * (trunc + 1)
        for s in range(trunc + 1):
            if out[s] == 0:
                continue
            for t in range(trunc + 1 - s):
                nxt[s + t] += out[s] * fac[t]
        out = nxt
    return out


def chern_series(b, i: int, a: int, trunc: int) -> ChernSeries:
    """Truncated series prod_{k=1}^{i+1} (1 - k t)**chern_exponent(b,i,k)
    for an intermediate degree ``0 < i < a``.

    Refuses when the alternating sum through ``a`` vanishes (the series
    family is only meaningful on that open condition)."""
    if not 0 < i < a:
        raise ValidationError(f"series defined for 0 < i < {a}, got {i}")
    if trunc < 0:
        raise ValidationError("truncation order must be >= 0")
    chi = alternating_sum(b, a)
    if chi == 0:
        raise ValidationError(
            "alternating sum through the threshold vanishes; the "
            "characteristic series is not defined for this window")
    exps = {k: chern_exponent(b, i, k) for k in range(1, i + 2)}
    return ChernSeries(i, _series_product(exps, trunc))


def _partitions(w: int, cap: int | None = None):
    """Weakly decreasing partitions of ``w``, ascending lexicographic."""
    cap = w if cap is None else cap
    if w == 0:
        return [()]
    out = []
    for first in range(1, min(w, cap) + 1):
        for rest in _partitions(w - first, first):
            out.append((first,) + rest)
    return sorted(out)


def _int_det(M) -> int:
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for t in range(n):
        if M[t][0]:
            sub = [row[1:] for s, row in enumerate(M) if s != t]
            total += (-1) ** t * M[t][0] * _int_det(sub)
    return total


def schur_nonnegativity(cs: ChernSeries, q: int) -> list:
    """Schur determinant of every partition of weight below ``q`` in the
    truncated series, reported with its value and sign.

    Entries use the standard determinant ``det(c_{lam_t + j - t})`` over
    the partition's rows; indices below zero read as 0, and the series
    must be truncated no lower than weight ``q - 1``.  Claim family
    ``9.1l``; it can fail (a negative determinant)."""
    if q - 1 >= len(cs.coeffs):
        raise ValidationError(
            f"series truncated at {len(cs.coeffs) - 1}, need {q - 1}")

    def c(j: int) -> int:
        if j < 0:
            return 0
        return cs.coeffs[j] if j < len(cs.coeffs) else 0

    out = []
    for w in range(1, q):
        for lam in _partitions(w):
            r = len(lam)
            M = [[c(lam[t] + j - t) for j in range(r)] for t in range(r)]
            v = _int_det(M)
            out.append({
                "id": f"9.1l:i={cs.i},lam={'.'.join(map(str, lam))}",
                "holds": v >= 0,
                "witness": {"weight": w, "value": v},
            })
    return out


def binomial_bound(b, beta, a: int, free_coefficients: bool,
                   cm: bool) -> list:
    """Lower bounds below the threshold: ``b_i >= C(a, i)`` when the
    coefficient ring is free, and ``beta_i >= a - i`` under the
    depth-equals-codimension assumption.

    The rank bound rests on the syzygy theorem, whose hypothesis (a
    non-free syzygy module) fails exactly at the bottom of a minimal
    linear window: the image of the first map is free there.  So the
    rank claims start at the degree above the bottom, and degrees with
    no cohomology are skipped as vacuous.  Claim family ``9.1k``; both
    bounds can fail."""
    out = []
    for i in range(min(a, len(b))):
        if free_coefficients:
            need = math.comb(a, i)
            out.append({
                "id": f"9.1k:i={i}",
                "holds": b[i] >= need,
                "witness": {"b_i": b[i], "bound": need},
            })
        if cm and 0 < i and b[i] > 0:
            out.append({
                "id": f"9.1k:beta:i={i}",
                "holds": beta[i] >= a - i,
                "witness": {"beta_i": beta[i], "bound": a - i},
            })
    return out


# ---------------------------------------------------------------------------
# locus comparisons
# ---------------------------------------------------------------------------

def _locus_inside(outer_ideal, inner_ideal) -> bool:
    """V(inner_ideal) subset of V(outer_ideal), via radical membership
    of every element of the outer ideal's reduced basis in the inner one.
    Each test is settled by membership in the inner ideal itself or, when
    the inner ideal is homogeneous of dimension 0, by the constant term;
    only the rest take an extra-variable basis run
    (:meth:`~cjl.groebner.Ideal.radical_contains`)."""
    return all(inner_ideal.radical_contains(g)
               for g in outer_ideal.groebner())


def _inclusions(g: _Geometry) -> list:
    """Nesting of the rank-drop loci below the threshold.

    Consecutive degrees nest upward (claim family ``9.1c``); two degrees
    below the threshold the level-1 locus sits inside the next degree's
    level-2 locus (family ``9.1j``).  Both compare jump ideals of
    different degrees, which no construction relates, so both can fail;
    they are decided by radical membership."""
    a_pos = g.threshold_pos()
    out = []
    for pos in range(1, a_pos):
        ok = _locus_inside(g.res(pos, 1), g.res(pos - 1, 1))
        out.append({"id": f"9.1c:i={g.lo + pos}", "holds": ok,
                    "witness": {"into_degree": g.lo + pos}})
    for pos in range(a_pos - 1):
        ok = _locus_inside(g.res(pos + 1, 2), g.res(pos, 1))
        out.append({"id": f"9.1j:i={g.lo + pos}", "holds": ok,
                    "witness": {"level": 2}})
    return out


def _codim_bounds(g: _Geometry):
    """Codimension window for each level-1 locus below the threshold,
    plus the level-2 upper bound; returns (claims, codims, flags).

    Codimension is measured inside the cone; a projectively empty locus
    gets the full cone dimension and makes the upper bounds vacuous.
    The bounds assume depth equals codimension for the coefficients,
    which is automatic for free coefficients and principal quotients and
    flagged otherwise (flag ``cm_assumed``).  All three families can
    fail."""
    a_pos = g.threshold_pos()
    flags = []
    if len(g.iq) > 1:
        flags.append("cm_assumed")
    claims = []
    codims = {}

    def beta_at(p: int) -> int:
        return g.beta[p] if 0 <= p < g.npos else 0

    for pos in range(a_pos):
        i = g.lo + pos
        cod, empty = g.codim(g.res(pos, 1))
        codims[i] = cod
        claims.append({
            "id": f"9.1d:i={i}",
            "holds": cod >= a_pos - pos,
            "witness": {"codim": cod, "min": a_pos - pos, "empty": empty},
        })
        hi = (beta_at(pos - 1) + 1) * (beta_at(pos + 1) + 1)
        claims.append({
            "id": f"9.1e:i={i}",
            "holds": True if empty else cod <= hi,
            "witness": {"codim": cod, "max": hi, "empty": empty},
        })
        cod2, empty2 = g.codim(g.res(pos, 2))
        hi2 = (beta_at(pos - 1) + 2) * (beta_at(pos + 1) + 2)
        claims.append({
            "id": f"9.1h:i={i},k=2",
            "holds": True if empty2 else cod2 <= hi2,
            "witness": {"codim": cod2, "max": hi2, "empty": empty2},
        })
    return claims, codims, flags


def _support_claims(g: _Geometry, a_pos: int) -> list:
    """Fitting-support identities below the threshold.

    Level 1: the expected-rank minor locus V(fit1) and the level-1 jump
    locus V(res1) have the same reduced support (family ``9.1b``).
    Level 2: the deeper minor locus V(fit2) sits inside the level-2 jump
    locus V(res2), and the two agree away from V(res1) (family ``9.1g``).

    Only V(res1) inside V(fit1) can fail; it is decided by radical
    membership.  The rest holds by construction: below the threshold
    b_i = beta_i + beta_{i-1} (``9.1a``), and the jump ideal of size r is
    sum_a I_a(d(i-1)) I_{r-a}(d(i)), so res1 in fit1, res2 in fit2 and
    res1 in res2 as ideals, hence V(res2) inside V(fit2 res1).  These
    three are checked by ideal membership; a failure means the block-minor
    construction is broken (``InternalCheckError``), not a false claim."""
    out = []
    for pos in range(a_pos):
        i = g.lo + pos
        fit1, fit2 = g.fit(pos, g.beta[pos]), g.fit(pos, g.beta[pos] - 1)
        res1, res2 = g.res(pos, 1), g.res(pos, 2)
        for small, big, what in ((res1, fit1, "res1 in fit1"),
                                 (res2, fit2, "res2 in fit2"),
                                 (res1, res2, "res1 in res2")):
            if not all(big.contains(f) for f in small.groebner()):
                raise InternalCheckError(
                    f"block-minor inclusion {what} fails in degree {i}")
        out.append({
            "id": f"9.1b:i={i}",
            "holds": _locus_inside(fit1, res1),
            "witness": {"minor_size": g.beta[pos]},
        })
        out.append({
            "id": f"9.1g:i={i},k=2",
            "holds": True,
            "witness": {"contained": True, "equal_off_level_one": True},
        })
    return out


def tor_crosscheck(P, eta, i: int) -> tuple:
    """Two independent computations of the same fiber invariant at a
    cone point: cohomology of the eta-contracted window at degree
    ``a - i`` against homology of the specialized universal matrices.

    ``i = 0`` compares cokernel dimensions of the top map; both paths
    must agree, and the pair of numbers is returned for inspection."""
    if i < 0:
        raise ValidationError(f"index must be >= 0, got {i}")
    g = _Geometry(P)
    F = g.ctx.field
    n = g.S.nvars
    eta = tuple(F.from_int(x) if isinstance(x, int) else x for x in eta)
    if len(eta) != n:
        raise ValidationError(f"point has {len(eta)} coordinates, "
                              f"the cone lives in {n}")
    if all(F.is_zero(x) for x in eta):
        raise ValidationError("the crosscheck needs a nonzero cone point")
    if any(not F.is_zero(q.evaluate(eta)) for q in g.iq):
        raise ValidationError("point does not lie on the quadratic cone")
    a_pos = g.threshold_pos()
    a = g.lo + a_pos

    # contraction path: structure constants against the point
    if i == 0:
        left = g.b[a_pos] - contraction_rank(g.pair, eta, a - 1)
    else:
        left = pointwise_resonance(g.pair, eta, a - i)

    # specialization path: evaluate the universal matrices, then rank
    if i == 0:
        right = g.b[a_pos] - g._point_rank(a - 1, eta)
    elif a_pos - i < 0:
        right = 0
    else:
        p = a_pos - i
        right = g.b[p] - g._point_rank(a - i, eta) \
            - g._point_rank(a - i - 1, eta)
    return left, right


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def analyze(P, claims=None) -> dict:
    """Full numeric report on one pair: window dimensions, generic
    ranks, exactness threshold, claim verdicts, and the characteristic
    series per intermediate degree.

    ``claims`` optionally restricts the verdict list to ids starting
    with any of the given prefixes.  The result is JSON-ready.

    Three families hold by construction below the threshold and can only
    report ``holds: true``: ``9.1a`` (the threshold is the first degree
    where it fails), the second half of ``9.1b`` and both halves of
    ``9.1g`` (see :func:`_support_claims`).  Every other family can
    fail."""
    g = _Geometry(P)
    a_pos = g.threshold_pos()
    a = g.lo + a_pos
    chi = alternating_sum(g.b, a_pos)
    flags = []
    out = []

    for pos in range(a_pos):
        i = g.lo + pos
        prev = g.beta[pos - 1] if pos > 0 else 0
        out.append({
            "id": f"9.1a:i={i}",
            "holds": g.b[pos] == g.beta[pos] + prev,
            "witness": {"b_i": g.b[pos], "rank_sum": g.beta[pos] + prev},
        })
    out.extend(_support_claims(g, a_pos))

    incl = _inclusions(g)
    codim_claims, codims, cflags = _codim_bounds(g)
    out.extend(incl)
    out.extend(codim_claims)
    flags.extend(cflags)

    free = not g.iq
    cm = free or len(g.iq) == 1
    out.extend(binomial_bound(g.b, g.beta, a_pos, free, cm))

    chern = {}
    if chi != 0:
        for pos in range(1, a_pos):
            i = g.lo + pos
            q_i = codims[i]
            cs = chern_series(g.b, pos, a_pos, max(q_i - 1, 0))
            chern[str(i)] = list(cs.coeffs)
            out.extend(schur_nonnegativity(ChernSeries(i, cs.coeffs), q_i))
    else:
        flags.append("chi_zero")

    if claims is not None:
        prefixes = tuple(claims)
        out = [c for c in out if c["id"].startswith(prefixes)]
    return {
        "a": a,
        "b": list(g.b),
        "beta": list(g.beta),
        "chi_a": chi,
        "claims": out,
        "chern": chern,
        "flags": flags,
    }
