"""Concrete pair constructors: exterior algebras, arrangement algebras,
surface cohomology rings, and the matrix-extended pairs built from any
graded-commutative algebra.

All models here are formal (zero differential); the interesting
structure lives in the products.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations

from .dgla import Dgla, DglaPair, GradedVectorSpace, _GradedTable
from .errors import AxiomError, InternalCheckError, ValidationError
from .field import QQ, located, read_nested, read_scalar
from .linalg import Echelon, rank, vec_is_zero


class Cdga:
    """Graded-commutative algebra with unit, by structure constants.

    Basis element (0,0) is the unit.  ``mult`` maps (i,a,j,b) to the
    coordinate vector of the product in degree i+j; missing entries are
    zero, and products landing outside the window are zero.  Construction
    checks only the indices and shapes; :meth:`validate` checks the unit,
    graded commutativity and associativity.
    """

    def __init__(self, field, gvs: GradedVectorSpace, mult: dict):
        self.field = field
        self.gvs = gvs
        if gvs.lo != 0 or gvs.dim(0) < 1:
            raise ValidationError("algebra needs a degree-0 piece with a unit")
        for (i, a, j, b), v in mult.items():
            if not (0 <= i <= gvs.hi and 0 <= a < gvs.dim(i)
                    and 0 <= j <= gvs.hi and 0 <= b < gvs.dim(j)):
                raise ValidationError(f"product entry at bad index {(i, a, j, b)}")
            if len(v) != gvs.dim(i + j):
                raise ValidationError(
                    f"product value at {(i, a, j, b)} has wrong length")
        self.table = _GradedTable(field, mult, skew=False)

    def dim(self, i: int) -> int:
        return self.gvs.dim(i)

    def mult_vec(self, i: int, a: int, j: int, b: int):
        return self.table.get(i, a, j, b, self.dim(i + j))

    def mult_elem(self, i: int, u, j: int, v):
        return self.table.contract(i, u, j, v, self.dim(i + j))

    def validate(self):
        F = self.field
        g = self.gvs
        # unit
        for j in g.degrees():
            for b in range(self.dim(j)):
                want = tuple(F.one if t == b else F.zero
                             for t in range(self.dim(j)))
                if self.mult_vec(0, 0, j, b) != want or \
                        self.mult_vec(j, b, 0, 0) != want:
                    raise AxiomError("unit does not act as identity",
                                     {"axiom": "unit", "at": (j, b)})
        # graded commutativity
        for i in g.degrees():
            for j in g.degrees():
                for a in range(self.dim(i)):
                    for b in range(self.dim(j)):
                        lhs = self.mult_vec(i, a, j, b)
                        rhs = self.mult_vec(j, b, i, a)
                        sgn = F.one if (i * j) % 2 == 0 else F.neg(F.one)
                        diff = tuple(F.sub(x, F.mul(sgn, y))
                                     for x, y in zip(lhs, rhs))
                        if not vec_is_zero(F, diff):
                            raise AxiomError(
                                "graded commutativity fails",
                                {"axiom": "commutativity", "at": (i, a, j, b)})
        # associativity
        for i in g.degrees():
            for j in g.degrees():
                for k in g.degrees():
                    for a in range(self.dim(i)):
                        ua = tuple(F.one if t == a else F.zero
                                   for t in range(self.dim(i)))
                        for b in range(self.dim(j)):
                            ub = tuple(F.one if t == b else F.zero
                                       for t in range(self.dim(j)))
                            ab = self.mult_elem(i, ua, j, ub)
                            for c in range(self.dim(k)):
                                uc = tuple(F.one if t == c else F.zero
                                           for t in range(self.dim(k)))
                                lhs = self.mult_elem(i + j, ab, k, uc)
                                rhs = self.mult_elem(
                                    i, ua, j + k, self.mult_elem(j, ub, k, uc))
                                if lhs != rhs:
                                    raise AxiomError(
                                        "associativity fails",
                                        {"axiom": "associativity",
                                         "at": (i, a, j, b, k, c)})


def _shuffle_sign(S, T):
    inv = sum(1 for s in S for t in T if s > t)
    return -1 if inv % 2 else 1


def _subset_label(S) -> str:
    if not S:
        return "1"
    return "".join(f"e{i}" for i in S)


def exterior(n: int) -> Cdga:
    """The exterior algebra on n degree-1 generators, basis indexed by
    sorted subsets of {1..n}."""
    if n < 1:
        raise ValidationError("need at least one generator")
    F = QQ()
    by_deg = [list(combinations(range(1, n + 1), k)) for k in range(n + 1)]
    index = [{S: a for a, S in enumerate(lst)} for lst in by_deg]
    labels = [[_subset_label(S) for S in lst] for lst in by_deg]
    gvs = GradedVectorSpace(0, n, [len(lst) for lst in by_deg], labels)
    mult = {}
    for i, Si in enumerate(by_deg):
        for j, Sj in enumerate(by_deg):
            if i + j > n:
                continue
            for a, S in enumerate(Si):
                for b, T in enumerate(Sj):
                    if set(S) & set(T):
                        continue
                    U = tuple(sorted(S + T))
                    vec = [F.zero] * len(by_deg[i + j])
                    vec[index[i + j][U]] = F.from_int(_shuffle_sign(S, T))
                    mult[(i, a, j, b)] = tuple(vec)
    return Cdga(F, gvs, mult)


# most hyperplanes an arrangement may have: its Orlik-Solomon algebra
# can reach dimension 2**m, and normals come from outside input
MAX_HYPERPLANES = 12


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
        rows = read_nested(obj["normals"], 2, partial(read_scalar, QQ()), path,
                           "normals")
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
    """Quotient of the exterior algebra on the hyperplanes by the
    boundary relations of the circuits; graded pieces materialized by
    row reduction."""
    F = QQ()
    m = arr.m
    E = exterior(m)
    circuits = arr.circuits()
    by_deg = [list(combinations(range(1, m + 1), k)) for k in range(m + 1)]
    index = [{S: a for a, S in enumerate(lst)} for lst in by_deg]

    def boundary(S):
        """Coordinates of the alternating boundary of e_S in degree |S|-1."""
        vec = [F.zero] * len(by_deg[len(S) - 1])
        for pos in range(len(S)):
            T = S[:pos] + S[pos + 1:]
            sgn = F.from_int(1 if pos % 2 == 0 else -1)
            vec[index[len(S) - 1][T]] = sgn
        return tuple(vec)

    # relation span per degree: all products (basis monomial) * dS
    rel = {k: Echelon(F, len(by_deg[k])) for k in range(m + 1)}
    for S in circuits:
        dS = boundary(tuple(i + 1 for i in S))
        dlen = len(S) - 1
        for extra in range(0, m - dlen + 1):
            k = dlen + extra
            if k > m:
                continue
            for T in by_deg[extra]:
                a = index[extra][T]
                u = tuple(F.one if t == a else F.zero
                          for t in range(len(by_deg[extra])))
                v = E.mult_elem(extra, u, dlen, dS)
                if not vec_is_zero(F, v):
                    rel[k].add(v)

    keep = {}   # degree -> list of surviving subset indices
    for k in range(m + 1):
        pivots = {next(c for c, x in enumerate(row) if not F.is_zero(x))
                  for row in rel[k].basis()}
        keep[k] = [a for a in range(len(by_deg[k])) if a not in pivots]

    top = max(k for k in range(m + 1) if keep[k])
    dims = [len(keep[k]) for k in range(top + 1)]
    labels = [[_subset_label(by_deg[k][a]) for a in keep[k]]
              for k in range(top + 1)]
    gvs = GradedVectorSpace(0, top, dims, labels)
    pos = {k: {a: t for t, a in enumerate(keep[k])} for k in range(top + 1)}

    def project(k, v):
        red = rel[k].reduce(v)
        out = [F.zero] * len(keep[k])
        for c, x in enumerate(red):
            if not F.is_zero(x):
                if c not in pos[k]:
                    raise InternalCheckError(
                        "reduced product not supported on the chosen basis")
                out[pos[k][c]] = x
        return tuple(out)

    mult = {}
    for i in range(top + 1):
        for j in range(top + 1):
            if i + j > top:
                continue
            for a2, a in enumerate(keep[i]):
                ua = tuple(F.one if t == a else F.zero
                           for t in range(len(by_deg[i])))
                for b2, b in enumerate(keep[j]):
                    ub = tuple(F.one if t == b else F.zero
                               for t in range(len(by_deg[j])))
                    v = project(i + j, E.mult_elem(i, ua, j, ub))
                    if not vec_is_zero(F, v):
                        mult[(i, a2, j, b2)] = v
    return Cdga(F, gvs, mult)


# ---------------------------------------------------------------------------
# pairs from algebras
# ---------------------------------------------------------------------------

def cdga_to_pair(A: Cdga, r: int, s: int | None = None) -> DglaPair:
    """Tensor with square matrices for the Lie side and r-by-s matrices
    for the module:  [a@x, b@y] = ab@xy - (-1)^{|a||b|} ba@yx,  with the
    module acted on by left multiplication."""
    if s is None:
        s = r
    if r < 1 or s < 1:
        raise ValidationError("matrix sizes must be positive")
    F = A.field
    g = A.gvs
    lie_basis = {i: [(a, p, q) for a in range(A.dim(i))
                     for p in range(r) for q in range(r)]
                 for i in g.degrees()}
    mod_basis = {i: [(a, p, u) for a in range(A.dim(i))
                     for p in range(r) for u in range(s)]
                 for i in g.degrees()}
    lie_pos = {i: {t: n for n, t in enumerate(lie_basis[i])}
               for i in g.degrees()}
    mod_pos = {i: {t: n for n, t in enumerate(mod_basis[i])}
               for i in g.degrees()}

    lie_labels = [[f"{g.label(i, a)}@E{p}{q}" if r > 1 else g.label(i, a)
                   for (a, p, q) in lie_basis[i]] for i in g.degrees()]
    mod_labels = [[f"{g.label(i, a)}@W{p}{u}" if r * s > 1 else g.label(i, a)
                   for (a, p, u) in mod_basis[i]] for i in g.degrees()]
    lie_gvs = GradedVectorSpace(0, g.hi, [len(lie_basis[i])
                                          for i in g.degrees()], lie_labels)
    mod_gvs = GradedVectorSpace(0, g.hi, [len(mod_basis[i])
                                          for i in g.degrees()], mod_labels)

    bracket = {}
    for i in g.degrees():
        for j in g.degrees():
            if i + j > g.hi:
                continue
            sgn = F.one if (i * j) % 2 == 0 else F.neg(F.one)
            for n1, (a, p, q) in enumerate(lie_basis[i]):
                for n2, (b, x, y) in enumerate(lie_basis[j]):
                    vec = [F.zero] * len(lie_basis[i + j])
                    ab = A.mult_vec(i, a, j, b)
                    if q == x:
                        for c, t in enumerate(ab):
                            if not F.is_zero(t):
                                vec[lie_pos[i + j][(c, p, y)]] = \
                                    F.add(vec[lie_pos[i + j][(c, p, y)]], t)
                    if y == p:
                        ba = A.mult_vec(j, b, i, a)
                        for c, t in enumerate(ba):
                            if not F.is_zero(t):
                                k = lie_pos[i + j][(c, x, q)]
                                vec[k] = F.sub(vec[k], F.mul(sgn, t))
                    if any(not F.is_zero(t) for t in vec):
                        bracket[(i, n1, j, n2)] = tuple(vec)

    action = {}
    for i in g.degrees():
        for j in g.degrees():
            if i + j > g.hi:
                continue
            for n1, (a, p, q) in enumerate(lie_basis[i]):
                for n2, (b, x, y) in enumerate(mod_basis[j]):
                    if q != x:
                        continue
                    ab = A.mult_vec(i, a, j, b)
                    vec = [F.zero] * len(mod_basis[i + j])
                    for c, t in enumerate(ab):
                        if not F.is_zero(t):
                            vec[mod_pos[i + j][(c, p, y)]] = t
                    if any(not F.is_zero(t) for t in vec):
                        action[(i, n1, j, n2)] = tuple(vec)

    zero_d = [tuple((F.zero,) * lie_gvs.dim(i)
                    for _ in range(lie_gvs.dim(i + 1)))
              for i in range(0, g.hi)]
    zero_md = [tuple((F.zero,) * mod_gvs.dim(i)
                     for _ in range(mod_gvs.dim(i + 1)))
               for i in range(0, g.hi)]
    lie = Dgla(F, lie_gvs, zero_d, bracket)
    return DglaPair(lie, mod_gvs, zero_md, action)


def exterior_pair(n: int, r: int = 1) -> DglaPair:
    """The torus-flavored pair: exterior algebra on n generators, matrix
    size r (r=1 is the abelian self-action)."""
    return cdga_to_pair(exterior(n), r)


def os_pair(arr: Arrangement, r: int = 1) -> DglaPair:
    return cdga_to_pair(orlik_solomon(arr), r)


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


def surface_pair(g: int, r: int = 1) -> DglaPair:
    return cdga_to_pair(surface_cdga(g), r)
