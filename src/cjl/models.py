"""Concrete pair constructors: exterior algebras, arrangement algebras,
surface cohomology rings, and the matrix-extended pairs built from any
graded-commutative algebra.

All models here are formal (zero differential); the interesting
structure lives in the products.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from .dgla import (Dgla, DglaPair, GradedVectorSpace, _check_entries, _GradedTable,
                   _zero_d)
from .errors import ValidationError
from .field import QQ, located, read_scalars
from .linalg import rank, vec_is_zero


class Cdga:
    """Graded-commutative algebra with unit, by structure constants.

    Basis element (0,0) is the unit.  ``mult`` maps (i,a,j,b) to the
    coordinate vector of the product in degree i+j; missing entries are
    zero, and products landing outside the window are zero.  Construction
    checks only the indices and shapes; ``check_algebra(A.table, A.gvs)``
    (:func:`cjl.dgla.check_algebra`) checks the unit, graded commutativity
    and associativity.
    """

    def __init__(self, field, gvs: GradedVectorSpace, mult: dict):
        self.field = field
        self.gvs = gvs
        if gvs.lo != 0 or gvs.dim(0) < 1:
            raise ValidationError("algebra needs a degree-0 piece with a unit")
        _check_entries(mult, gvs, gvs, gvs, "product")
        self.table = _GradedTable(field, mult, skew=False)

    def dim(self, i: int) -> int:
        return self.gvs.dim(i)


def _shuffle_sign(S, T):
    inv = sum(1 for s in S for t in T if s > t)
    return -1 if inv % 2 else 1


def _subset_label(S) -> str:
    if not S:
        return "1"
    return "".join(f"e{i}" for i in S)


def _subset_algebra(basis, straighten) -> Cdga:
    """The algebra over QQ spanned in degree k by the sorted k-subsets
    ``basis[k]`` of generators, with e_S e_T = 0 when S and T meet, else the
    shuffle sign times ``straighten(U)``, U the sorted union: a dict from
    basis subsets to integer coefficients."""
    F = QQ()
    index = [{S: a for a, S in enumerate(lst)} for lst in basis]
    top = len(basis) - 1
    mult = {}
    for i in range(top + 1):
        for j in range(top + 1 - i):
            for a, S in enumerate(basis[i]):
                for b, T in enumerate(basis[j]):
                    if set(S) & set(T):
                        continue
                    terms = straighten(tuple(sorted(S + T)))
                    if terms:
                        sign = _shuffle_sign(S, T)
                        vec = [F.zero] * len(basis[i + j])
                        for U, x in terms.items():
                            vec[index[i + j][U]] = F.from_int(sign * x)
                        mult[(i, a, j, b)] = tuple(vec)
    labels = [[_subset_label(S) for S in lst] for lst in basis]
    gvs = GradedVectorSpace(0, top, [len(lst) for lst in basis], labels)
    return Cdga(F, gvs, mult)


def exterior(n: int) -> Cdga:
    """The exterior algebra on n degree-1 generators, basis indexed by
    sorted subsets of {1..n}."""
    if n < 1:
        raise ValidationError("need at least one generator")
    by_deg = [list(combinations(range(1, n + 1), k)) for k in range(n + 1)]
    return _subset_algebra(by_deg, lambda U: {U: 1})


# Bounds on the models ``cjl model`` builds, checked before anything is
# built; sizes come from outside input.  Single runs of build plus JSON on
# a 2-core host:
# * MAX_PAIR_DIM bounds the basis of each side of a built-in pair (summed
#   over degrees): the Lie side of cdga_to_pair(A, r, s) has dim A * r^2
#   vectors, the module dim A * r * s.  At 128 the pairs took 0.5-1.2 s
#   (exterior n = 7, r = 1 to n = 1, r = 8), at 256 3.2-4.8 s;
# * MAX_GENERATORS: the exterior algebra on n generators has dimension
#   2^n, and 2^7 = MAX_PAIR_DIM;
# * MAX_HYPERPLANES bounds the subsets that Arrangement.circuits ranks
#   (all of them on generic normals) before orlik_solomon can refuse a
#   basis above MAX_PAIR_DIM.  `cjl model os` on generic normals in R^2 to
#   R^6 took at most 0.55-0.76 s on 8 hyperplanes, 0.40-0.49 s on 9,
#   0.60-0.66 s on 10 (refused at dimension 764 in R^6; 0.56-0.78 s on
#   seeded random normals with entries in {-1, 0, 1}), 1.36-1.43 s on 11
#   and 2.96-2.98 s on 12 (two runs each).
MAX_PAIR_DIM = 128
MAX_GENERATORS = 7
MAX_HYPERPLANES = 10


class Arrangement:
    """A central hyperplane arrangement given by its normal vectors: rows
    of exact rationals (``int`` or ``Fraction``)."""

    def __init__(self, normals):
        rows = [tuple(row) for row in normals]
        if not rows:
            raise ValidationError("arrangement needs at least one hyperplane")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValidationError("normal vectors must have equal length")
        if len(rows) > MAX_HYPERPLANES:
            raise ValidationError(f"too many hyperplanes ({len(rows)} > "
                                  f"bound {MAX_HYPERPLANES})")
        for r, row in enumerate(rows):
            if all(x == 0 for x in row):
                raise ValidationError(f"zero normal vector at index {r}")
        for r1 in range(len(rows)):
            for r2 in range(r1 + 1, len(rows)):
                if _proportional(rows[r1], rows[r2]):
                    raise ValidationError(
                        f"normals {r1} and {r2} define the same hyperplane")
        self.normals = tuple(rows)
        self.m = len(rows)
        self.width = width

    @staticmethod
    def from_json(obj, path: str = "") -> "Arrangement":
        if not isinstance(obj, dict) or "normals" not in obj:
            raise ValidationError("arrangement needs a normals matrix",
                                  path or "/")
        rows = read_scalars(QQ(), obj["normals"], 2, path, "normals")
        with located(path, "normals"):
            return Arrangement(rows)

    def circuits(self):
        """Minimal dependent subsets of the normals, smallest first."""
        F = QQ()
        out = []
        for size in range(2, self.m + 1):
            for S in combinations(range(self.m), size):
                if any(set(c) <= set(S) for c in out):
                    continue
                mat = [self.normals[i] for i in S]
                if rank(F, mat) < size:
                    out.append(S)
        return out


def _proportional(u, v) -> bool:
    # cross-ratio test against the first nonzero coordinate
    for i in range(len(u)):
        for j in range(len(u)):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    return True


def orlik_solomon(arr: Arrangement) -> Cdga:
    """The Orlik-Solomon algebra on its no-broken-circuit basis (Orlik-Terao,
    Arrangements of Hyperplanes, 1992, section 3.1).

    A broken circuit is a circuit minus its largest element; degree k is
    spanned by the k-subsets of {1..m} that contain none (so they are
    independent).  e_U is zero when U contains a circuit; when it contains
    the broken part of a circuit C = (c_0 < ... < c_p), the relation
    d e_C = 0 rewrites e_(C - c_p) as sum_{j<p} (-1)^(p+j+1) e_(C - c_j),
    each term trading c_j for the larger c_p, so the rewriting ends.
    ValidationError if the basis has more than MAX_PAIR_DIM elements."""
    circuits = [tuple(c + 1 for c in C) for C in arr.circuits()]

    def broken(U: set):
        """A circuit whose broken part lies in U, or None."""
        return next((C for C in circuits if U.issuperset(C[:-1])), None)

    basis = [[S for S in combinations(range(1, arr.m + 1), k)
              if broken(set(S)) is None] for k in range(arr.m + 1)]
    while not basis[-1]:
        basis.pop()
    dim = sum(map(len, basis))
    if dim > MAX_PAIR_DIM:
        raise ValidationError(f"Orlik-Solomon algebra of dimension {dim} "
                              f"above bound {MAX_PAIR_DIM}")

    @cache
    def straighten(U):
        Us = set(U)
        if any(Us.issuperset(C) for C in circuits):
            return {}
        C = broken(Us)
        if C is None:
            return {U: 1}
        rest = tuple(u for u in U if u not in C)
        p = len(C) - 1
        out = {}
        for j in range(p):
            D = C[:j] + C[j + 1:]
            sign = ((-1) ** (p + j + 1) * _shuffle_sign(C[:-1], rest)
                    * _shuffle_sign(D, rest))
            for V, x in straighten(tuple(sorted(D + rest))).items():
                out[V] = out.get(V, 0) + sign * x
        return {V: x for V, x in out.items() if x}

    return _subset_algebra(basis, straighten)


# ---------------------------------------------------------------------------
# pairs from algebras
# ---------------------------------------------------------------------------

def cdga_to_pair(A: Cdga, r: int, s: int | None = None) -> DglaPair:
    """Tensor with square matrices for the Lie side and r-by-s matrices
    for the module:  [a@x, b@y] = ab@xy - (-1)^{|a||b|} ba@yx,  with the
    module acted on by left multiplication.  Each nonzero product ab of
    A gives [a@E_pq, b@E_qy] its term ab@E_py, [b@E_pq, a@E_yp] its term
    -(-1)^{|a||b|} ab@E_yq, and (a@E_pq).(b@W_qu) = ab@W_pu."""
    if s is None:
        s = r
    if r < 1 or s < 1:
        raise ValidationError("matrix sizes must be positive")
    F = A.field
    g = A.gvs
    lie_labels = [[f"{g.label(i, a)}@E{p}{q}" if r > 1 else g.label(i, a)
                   for a in range(A.dim(i)) for p in range(r) for q in range(r)]
                  for i in g.degrees()]
    mod_labels = [[f"{g.label(i, a)}@W{p}{u}" if r * s > 1 else g.label(i, a)
                   for a in range(A.dim(i)) for p in range(r) for u in range(s)]
                  for i in g.degrees()]
    lie_gvs = GradedVectorSpace(0, g.hi, [A.dim(i) * r * r
                                          for i in g.degrees()], lie_labels)
    mod_gvs = GradedVectorSpace(0, g.hi, [A.dim(i) * r * s
                                          for i in g.degrees()], mod_labels)

    def E(a, p, q):
        return (a * r + p) * r + q

    def W(a, p, u):
        return (a * r + p) * s + u

    bracket, action = {}, {}

    def add(table, key, n, k, t):
        vec = table.setdefault(key, [F.zero] * n)
        vec[k] = F.add(vec[k], t)

    for i, a, j, b in A.table.entries:
        n = A.dim(i + j)
        sgn = F.one if (i * j) % 2 == 0 else F.neg(F.one)
        for c, t in A.table.terms(i, a, j, b):
            for p, q, y in product(range(r), repeat=3):
                add(bracket, (i, E(a, p, q), j, E(b, q, y)), n * r * r,
                    E(c, p, y), t)
                add(bracket, (j, E(b, p, q), i, E(a, y, p)), n * r * r,
                    E(c, y, q), F.neg(F.mul(sgn, t)))
            for p, q, u in product(range(r), range(r), range(s)):
                add(action, (i, E(a, p, q), j, W(b, q, u)), n * r * s,
                    W(c, p, u), t)

    def nonzero(table):
        return {key: tuple(v) for key, v in table.items()
                if not vec_is_zero(F, v)}

    lie = Dgla(F, lie_gvs, _zero_d(F, lie_gvs), nonzero(bracket))
    return DglaPair(lie, mod_gvs, _zero_d(F, mod_gvs), nonzero(action))


def exterior_pair(n: int) -> DglaPair:
    """The torus-flavored pair: exterior algebra on n generators acting on
    itself, abelian."""
    return cdga_to_pair(exterior(n), 1)


def os_pair(arr: Arrangement) -> DglaPair:
    return cdga_to_pair(orlik_solomon(arr), 1)


def surface_cdga(g: int) -> Cdga:
    """Cohomology ring of a closed orientable genus-g surface:
    1 | a_1, b_1, .., a_g, b_g | f with a_i b_i = f."""
    if g < 1:
        raise ValidationError("genus must be at least 1")
    F = QQ()
    labels = [["1"],
              [x for i in range(1, g + 1) for x in (f"a{i}", f"b{i}")],
              ["f"]]
    gvs = GradedVectorSpace(0, 2, (1, 2 * g, 1), labels)
    one = F.one
    mult = {}
    for j in range(3):
        for b in range(gvs.dim(j)):
            vec = tuple(one if t == b else F.zero for t in range(gvs.dim(j)))
            mult[(0, 0, j, b)] = vec
            if j > 0:
                mult[(j, b, 0, 0)] = vec
    for i in range(g):
        a_idx, b_idx = 2 * i, 2 * i + 1
        mult[(1, a_idx, 1, b_idx)] = (one,)
        mult[(1, b_idx, 1, a_idx)] = (F.neg(one),)
    return Cdga(F, gvs, mult)


def surface_pair(g: int) -> DglaPair:
    return cdga_to_pair(surface_cdga(g), 1)
