"""Graded Lie structures with a module, and their cohomology.

Conventions (checked, not assumed, by the validators):

* grading is cohomological, brackets add degrees;
* skew symmetry is graded:  [x,y] = -(-1)^{|x||y|} [y,x];
* the Jacobi identity and the module axioms are one representation
  identity, checked by one routine: once with rho = ad on C (Jacobi),
  once with rho = the action on M.  For x, y in C and v in C or M,
  [x,y].v = x.(y.v) - (-1)^{|x||y|} y.(x.v)  and
  d(x.v) = (dx).v + (-1)^{|x|} x.(dv)  (d is a degree +1 derivation).

Bracket and action tables are sparse: only nonzero structure vectors are
stored; a missing orientation of a bracket entry is derived by skew
symmetry, so inputs need not duplicate symmetric data.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from .errors import AxiomError, ValidationError
from .field import (QQ, field_from_json, json_path, located, read_int,
                    read_nested, read_scalar)
from .linalg import Echelon, mat_vec, nullspace, rank, solve, vec_is_zero


class GradedVectorSpace:
    def __init__(self, lo: int, hi: int, dims: Sequence[int],
                 labels: Sequence[Sequence[str]] | None = None):
        if hi < lo:
            raise ValidationError("empty degree window")
        self.lo = lo
        self.hi = hi
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != hi - lo + 1 or any(d < 0 for d in self.dims):
            raise ValidationError("dims do not fit the degree window")
        if labels is None:
            labels = [[f"e{i}_{a}" for a in range(self.dim(i))]
                      for i in range(lo, hi + 1)]
        self.labels = tuple(tuple(l) for l in labels)
        if any(len(self.labels[i - lo]) != self.dim(i) for i in range(lo, hi + 1)):
            raise ValidationError("labels do not match dims")

    def dim(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.dims[i - self.lo]
        return 0

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def label(self, i: int, a: int) -> str:
        return self.labels[i - self.lo][a]


def _check_matrices(field, gvs: GradedVectorSpace, mats, what: str):
    if len(mats) != gvs.hi - gvs.lo:
        raise ValidationError(f"{what}: need one matrix per adjacent degree pair")
    out = []
    for idx, m in enumerate(mats):
        rows = gvs.dim(gvs.lo + idx + 1)
        cols = gvs.dim(gvs.lo + idx)
        m = tuple(tuple(r) for r in m)
        if len(m) != rows or any(len(r) != cols for r in m):
            raise ValidationError(
                f"{what}: matrix {idx} must be {rows}x{cols}")
        out.append(m)
    return tuple(out)


class _GradedTable:
    """Sparse bilinear table (i,a) x (j,b) -> vector in degree i+j.

    With ``skew`` a missing orientation is derived by graded skew symmetry
    [x,y] = -(-1)^{ij}[y,x].  The entries are fixed once built.
    """

    def __init__(self, field, entries: dict, skew: bool):
        self.field = field
        self.entries = dict(entries)
        self.skew = skew
        self._terms = {}

    def find(self, i: int, a: int, j: int, b: int):
        """The stored (or skew-derived) vector at (i,a,j,b); None if neither."""
        v = self.entries.get((i, a, j, b))
        if v is None and self.skew:
            v = self.entries.get((j, b, i, a))
            if v is not None and (i * j) % 2 == 0:
                return tuple(self.field.neg(c) for c in v)
        return v

    def get(self, i: int, a: int, j: int, b: int, out_dim: int):
        v = self.find(i, a, j, b)
        return (self.field.zero,) * out_dim if v is None else v

    def terms(self, i: int, a: int, j: int, b: int) -> tuple:
        """The nonzero coordinates (k, t) of the vector at (i,a,j,b)."""
        key = (i, a, j, b)
        out = self._terms.get(key)
        if out is None:
            F = self.field
            out = self._terms[key] = tuple(
                (k, t) for k, t in enumerate(self.find(i, a, j, b) or ())
                if not F.is_zero(t))
        return out

    def product(self, i: int, us, j: int, vs) -> dict:
        """The bilinear product on nonzero coordinates: the sum of
        u_a v_b T(i,a,j,b) over (a, u_a) in ``us`` and (b, v_b) in ``vs``,
        as a dict {k: coefficient} (entries may cancel to zero)."""
        F = self.field
        out = {}
        for a, x in us:
            for b, y in vs:
                ts = self.terms(i, a, j, b)
                if ts:
                    c = F.mul(x, y)
                    for k, t in ts:
                        out[k] = F.add(out.get(k, F.zero), F.mul(c, t))
        return out

    def contract(self, i: int, u, j: int, v, out_dim: int):
        """The product of coordinate vectors u (degree i) and v (degree j)."""
        F = self.field
        out = [F.zero] * out_dim
        for k, x in self.product(i, _nonzero(F, u), j, _nonzero(F, v)).items():
            out[k] = x
        return tuple(out)


def _nonzero(F, u) -> list:
    return [(a, x) for a, x in enumerate(u) if not F.is_zero(x)]


def _all_zero(F, mats) -> bool:
    return all(F.is_zero(x) for m in mats for row in m for x in row)


class Dgla:
    """Finite-dimensional graded Lie algebra with differential."""

    def __init__(self, field, gvs: GradedVectorSpace, d, bracket: dict):
        self.field = field
        self.gvs = gvs
        self.d = _check_matrices(field, gvs, d, "lie differential")
        for (i, a, j, b), v in bracket.items():
            if not (gvs.lo <= i <= gvs.hi and 0 <= a < gvs.dim(i)
                    and gvs.lo <= j <= gvs.hi and 0 <= b < gvs.dim(j)):
                raise ValidationError(f"bracket entry at bad index {(i, a, j, b)}")
            if len(v) != gvs.dim(i + j):
                raise ValidationError(
                    f"bracket value at {(i, a, j, b)} has wrong length")
        self.bracket = _GradedTable(field, bracket, skew=True)

    def dim(self, i: int) -> int:
        return self.gvs.dim(i)

    def d_mat(self, i: int):
        if self.gvs.lo <= i < self.gvs.hi:
            return self.d[i - self.gvs.lo]
        return tuple((self.field.zero,) * self.dim(i)
                     for _ in range(self.dim(i + 1)))

    def d_apply(self, i: int, u):
        return mat_vec(self.field, self.d_mat(i), u)

    def bracket_vec(self, i: int, a: int, j: int, b: int):
        return self.bracket.get(i, a, j, b, self.dim(i + j))

    def bracket_elem(self, i: int, u, j: int, v):
        return self.bracket.contract(i, u, j, v, self.dim(i + j))

    def has_zero_differential(self) -> bool:
        return _all_zero(self.field, self.d)


class DglaPair:
    """A graded Lie algebra together with a graded module over it."""

    def __init__(self, lie: Dgla, m_gvs: GradedVectorSpace, m_d, action: dict):
        self.field = lie.field
        self.lie = lie
        self.m_gvs = m_gvs
        self.m_d = _check_matrices(lie.field, m_gvs, m_d, "module differential")
        for (i, a, j, b), v in action.items():
            if not (lie.gvs.lo <= i <= lie.gvs.hi and 0 <= a < lie.dim(i)
                    and m_gvs.lo <= j <= m_gvs.hi and 0 <= b < m_gvs.dim(j)):
                raise ValidationError(f"action entry at bad index {(i, a, j, b)}")
            if len(v) != m_gvs.dim(i + j):
                raise ValidationError(
                    f"action value at {(i, a, j, b)} has wrong length")
        self.action = _GradedTable(lie.field, action, skew=False)

    def m_dim(self, i: int) -> int:
        return self.m_gvs.dim(i)

    def m_d_mat(self, i: int):
        if self.m_gvs.lo <= i < self.m_gvs.hi:
            return self.m_d[i - self.m_gvs.lo]
        return tuple((self.field.zero,) * self.m_dim(i)
                     for _ in range(self.m_dim(i + 1)))

    def m_d_apply(self, i: int, u):
        return mat_vec(self.field, self.m_d_mat(i), u)

    def action_vec(self, i: int, a: int, j: int, b: int):
        return self.action.get(i, a, j, b, self.m_dim(i + j))

    def action_elem(self, i: int, u, j: int, v):
        return self.action.contract(i, u, j, v, self.m_dim(i + j))

    def has_zero_differentials(self) -> bool:
        return self.lie.has_zero_differential() and _all_zero(self.field, self.m_d)

    def validate(self):
        """Raise AxiomError on the first violated identity."""
        bad = check_dgla(self.lie) + check_pair(self)
        if bad:
            raise AxiomError(f"{len(bad)} axiom violations; first: "
                             f"{bad[0]['axiom']} at {bad[0].get('at')}", bad[0])


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def _sign(field, n: int):
    return field.one if n % 2 == 0 else field.neg(field.one)


def _units(F, n: int) -> list:
    return [tuple(F.one if t == c else F.zero for t in range(n))
            for c in range(n)]


def _d_images(F, space, d_mat) -> dict:
    """d of each unit vector, as nonzero coordinates, per degree: the
    image of unit vector c is column c of the matrix of d."""
    out = {}
    for i in space.degrees():
        m = d_mat(i)
        out[i] = [[(r, row[c]) for r, row in enumerate(m) if not F.is_zero(row[c])]
                  for c in range(space.dim(i))]
    return out


def _apply(F, images, terms) -> dict:
    """The linear map with column ``images[c]`` on nonzero coordinates."""
    out = {}
    for c, s in terms:
        for r, t in images[c]:
            out[r] = F.add(out.get(r, F.zero), F.mul(s, t))
    return out


def _holds(F, lhs: dict, t1: dict, sgn, t2: dict) -> bool:
    """lhs == t1 + sgn * t2, on sparse coordinate dicts."""
    rhs = dict(t1)
    for k, z in t2.items():
        rhs[k] = F.add(rhs.get(k, F.zero), F.mul(sgn, z))
    return all(F.eq(lhs.get(k, F.zero), rhs.get(k, F.zero))
               for k in lhs.keys() | rhs.keys())


def _d_squared(F, space, d_img, axiom: str) -> list:
    bad = []
    for i in range(space.lo, space.hi - 1):
        for c, dc in enumerate(d_img[i]):
            if any(not F.is_zero(x)
                   for x in _apply(F, d_img[i + 1], dc).values()):
                bad.append({"axiom": axiom, "at": (i, c)})
    return bad


def _representation(C: Dgla, space, table, d_c, d_v, axioms: tuple) -> list:
    """Violations of the two identities that make ``table`` (degree i of C
    times degree k of ``space``) a DG representation rho of C, with d_c
    and d_v the images of unit vectors under the two differentials:

    * ``axioms[0]``: [x,y].v = x.(y.v) - (-1)^{|x||y|} y.(x.v),
      witness (i, a, j, b, k, c);
    * ``axioms[1]``: d(x.v) = (dx).v + (-1)^{|x|} x.(dv), witness (i, a, k, c).
    """
    F = C.field
    one = F.one
    bad = []
    for i in C.gvs.degrees():
        for j in C.gvs.degrees():
            sgn = _sign(F, i * j + 1)
            for k in space.degrees():
                for a in range(C.dim(i)):
                    for b in range(C.dim(j)):
                        xy = C.bracket.terms(i, a, j, b)
                        for c in range(space.dim(k)):
                            lhs = table.product(i + j, xy, k, ((c, one),))
                            t1 = table.product(i, ((a, one),), j + k,
                                               table.terms(j, b, k, c))
                            t2 = table.product(j, ((b, one),), i + k,
                                               table.terms(i, a, k, c))
                            if not _holds(F, lhs, t1, sgn, t2):
                                bad.append({"axiom": axioms[0],
                                            "at": (i, a, j, b, k, c)})
    for i in C.gvs.degrees():
        sgn = _sign(F, i)
        for k in space.degrees():
            for a in range(C.dim(i)):
                for c in range(space.dim(k)):
                    lhs = _apply(F, d_v.get(i + k), table.terms(i, a, k, c))
                    t1 = table.product(i + 1, d_c[i][a], k, ((c, one),))
                    t2 = table.product(i, ((a, one),), k + 1, d_v[k][c])
                    if not _holds(F, lhs, t1, sgn, t2):
                        bad.append({"axiom": axioms[1], "at": (i, a, k, c)})
    return bad


def check_dgla(C: Dgla) -> list:
    """All violations of the graded-Lie axioms, as witness dicts."""
    F = C.field
    g = C.gvs
    d_c = _d_images(F, g, C.d_mat)
    bad = _d_squared(F, g, d_c, "d_squared")
    # graded skew symmetry, including the even diagonal
    for i in g.degrees():
        for j in g.degrees():
            if not g.lo <= i + j <= g.hi:
                continue
            sgn = _sign(F, i * j)
            for a in range(C.dim(i)):
                for b in range(C.dim(j)):
                    if not _holds(F, {}, dict(C.bracket.terms(i, a, j, b)), sgn,
                                  dict(C.bracket.terms(j, b, i, a))):
                        bad.append({"axiom": "skew", "at": (i, a, j, b)})
    # Jacobi: C acts on itself by ad
    return bad + _representation(C, g, C.bracket, d_c, d_c,
                                 ("jacobi", "leibniz"))


def check_pair(P: DglaPair) -> list:
    """Violations of the module axioms over the (already checked) algebra."""
    F = P.field
    C = P.lie
    d_m = _d_images(F, P.m_gvs, P.m_d_mat)
    bad = _d_squared(F, P.m_gvs, d_m, "module_d_squared")
    return bad + _representation(C, P.m_gvs, P.action,
                                 _d_images(F, C.gvs, C.d_mat), d_m,
                                 ("lie_action", "action_leibniz"))


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

class _DegreeHomology:
    """Cocycle/boundary bookkeeping for one graded piece."""

    def __init__(self, F, d_in, d_out, dim: int, dim_prev: int):
        self.F = F
        self.dim = dim
        self.boundaries = Echelon(F, dim)
        for j in range(dim_prev):
            self.boundaries.add(tuple(row[j] for row in d_in))
        self.cocycles = nullspace(F, d_out, dim)
        ech = Echelon(F, dim)
        for row in self.boundaries.basis():
            ech.add(row)
        self.reps = []
        for z in self.cocycles:
            r = ech.reduce(z)
            if not vec_is_zero(F, r):
                ech.add(r)
                self.reps.append(r)
        self.h = len(self.reps)
        # solve matrix: columns are boundary basis then reps
        cols = list(self.boundaries.basis()) + self.reps
        self.solve_mat = tuple(tuple(col[r] for col in cols)
                               for r in range(dim)) if cols else ()
        self.n_b = self.boundaries.rank

    def classify(self, v):
        """Coordinates of the class of the cocycle ``v`` on the chosen reps."""
        if vec_is_zero(self.F, v):
            return (self.F.zero,) * self.h
        x = solve(self.F, self.solve_mat, v, self.n_b + self.h)
        if x is None:
            raise AxiomError("vector is not a cocycle modulo boundaries "
                             "(expected one by the Leibniz rule)")
        return tuple(x[self.n_b:])


def _homology(F, d_mat, dim, degrees) -> dict:
    """The _DegreeHomology of each of ``degrees``, for the complex with
    differentials ``d_mat(i)`` and dimensions ``dim(i)``."""
    return {i: _DegreeHomology(F, d_mat(i - 1), d_mat(i), dim(i), dim(i - 1))
            for i in degrees}


def _induced(F, ch: dict, vh: dict, product) -> dict:
    """The table of ``product`` (a bracket or an action) induced on the
    chosen representatives: ``ch`` the homology of C by degree, ``vh`` that
    of the space C acts on (C itself for the bracket)."""
    table = {}
    for i, hc in ch.items():
        for j, hv in vh.items():
            if i + j not in vh:
                continue
            for a, u in enumerate(hc.reps):
                for b, v in enumerate(hv.reps):
                    coords = vh[i + j].classify(product(i, u, j, v))
                    if not vec_is_zero(F, coords):
                        table[(i, a, j, b)] = coords
    return table


def _zero_d(F, gvs: GradedVectorSpace) -> list:
    return [tuple((F.zero,) * gvs.dim(i) for _ in range(gvs.dim(i + 1)))
            for i in range(gvs.lo, gvs.hi)]


def _cohomology_lie(C: Dgla) -> tuple:
    F = C.field
    ch = _homology(F, C.d_mat, C.dim, C.gvs.degrees())
    g = GradedVectorSpace(C.gvs.lo, C.gvs.hi, [h.h for h in ch.values()])
    return Dgla(F, g, _zero_d(F, g), _induced(F, ch, ch, C.bracket_elem)), ch


def cohomology_lie(C: Dgla) -> Dgla:
    """The induced Lie algebra on cohomology: zero differential, bracket
    induced on chosen representatives; C itself when its differential
    is zero."""
    if C.has_zero_differential():
        return C
    return _cohomology_lie(C)[0]


def cohomology_pair(P: DglaPair) -> DglaPair:
    """The induced pair on cohomology: zero differentials, bracket and
    action induced on chosen representatives; P itself when its
    differentials are zero."""
    if P.has_zero_differentials():
        return P
    F = P.field
    lie, ch = _cohomology_lie(P.lie)
    mh = _homology(F, P.m_d_mat, P.m_dim, P.m_gvs.degrees())
    m = GradedVectorSpace(P.m_gvs.lo, P.m_gvs.hi, [h.h for h in mh.values()])
    return DglaPair(lie, m, _zero_d(F, m), _induced(F, ch, mh, P.action_elem))


def module_betti(P: DglaPair) -> tuple:
    """Cohomology dimensions of the module complex over its window."""
    return tuple(h.h for h in _homology(P.field, P.m_d_mat, P.m_dim,
                                        P.m_gvs.degrees()).values())


# ---------------------------------------------------------------------------
# maps of pairs
# ---------------------------------------------------------------------------

class DglaPairMap:
    """Degreewise maps (on the algebra and the module) that intertwine the
    differentials, brackets, and actions."""

    def __init__(self, source: DglaPair, target: DglaPair, lie_comps: dict,
                 mod_comps: dict):
        self.source = source
        self.target = target
        self.F = source.field
        self.lie_comps = {i: tuple(tuple(r) for r in m)
                          for i, m in lie_comps.items()}
        self.mod_comps = {i: tuple(tuple(r) for r in m)
                          for i, m in mod_comps.items()}
        for i, m in self.lie_comps.items():
            if len(m) != target.lie.dim(i) or \
                    any(len(r) != source.lie.dim(i) for r in m):
                raise ValidationError(f"lie component {i} has wrong shape")
        for i, m in self.mod_comps.items():
            if len(m) != target.m_dim(i) or \
                    any(len(r) != source.m_dim(i) for r in m):
                raise ValidationError(f"module component {i} has wrong shape")
        self._check()

    def lie_comp(self, i: int):
        if i in self.lie_comps:
            return self.lie_comps[i]
        return tuple((self.F.zero,) * self.source.lie.dim(i)
                     for _ in range(self.target.lie.dim(i)))

    def mod_comp(self, i: int):
        if i in self.mod_comps:
            return self.mod_comps[i]
        return tuple((self.F.zero,) * self.source.m_dim(i)
                     for _ in range(self.target.m_dim(i)))

    def apply_lie(self, i: int, u):
        return mat_vec(self.F, self.lie_comp(i), u)

    def apply_mod(self, i: int, u):
        return mat_vec(self.F, self.mod_comp(i), u)

    def _check(self):
        F = self.F
        S, T = self.source, self.target

        def differ(lhs, rhs):
            return not vec_is_zero(F, tuple(F.sub(x, y) for x, y in zip(lhs, rhs)))

        def chain_rule(src, tgt, dim, d_s, d_t, apply, what):
            for i in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi)):
                for u in _units(F, dim(i)):
                    if differ(apply(i + 1, d_s(i, u)), d_t(i, apply(i, u))):
                        raise ValidationError(
                            f"{what} fails d-chain rule at {i}")

        def preserves(space, mu_s, mu_t, apply, what):
            for i in S.lie.gvs.degrees():
                for j in space.degrees():
                    for a, x in enumerate(_units(F, S.lie.dim(i))):
                        for b, v in enumerate(_units(F, space.dim(j))):
                            lhs = apply(i + j, mu_s(i, x, j, v))
                            rhs = mu_t(i, self.apply_lie(i, x), j, apply(j, v))
                            if differ(lhs, rhs):
                                raise ValidationError(
                                    f"map fails {what} at {(i, a, j, b)}")

        chain_rule(S.lie.gvs, T.lie.gvs, S.lie.dim, S.lie.d_apply,
                   T.lie.d_apply, self.apply_lie, "lie map")
        chain_rule(S.m_gvs, T.m_gvs, S.m_dim, S.m_d_apply, T.m_d_apply,
                   self.apply_mod, "module map")
        preserves(S.lie.gvs, S.lie.bracket_elem, T.lie.bracket_elem,
                  self.apply_lie, "bracket preservation")
        preserves(S.m_gvs, S.action_elem, T.action_elem, self.apply_mod,
                  "action equivariance")


def _q_equivalent(prof: dict, q: int | None) -> bool:
    """Whether a profile {degree: (h_source, h_target, induced rank)} is
    an isomorphism on cohomology in degrees <= q and an injection in
    degree q + 1 (``q = None``: an isomorphism in all degrees)."""
    for i, (h_s, h_t, r) in sorted(prof.items()):
        if q is None or i <= q:
            if not (h_s == h_t == r):
                return False
        elif i == q + 1 and r != h_s:
            return False
    return True


def _map_profile(F, src: dict, tgt: dict, comp) -> dict:
    """{degree: (h_source, h_target, induced rank)} for the map with
    components ``comp(i)`` between complexes whose _DegreeHomology by
    degree is ``src`` and ``tgt``: the induced rank is the rank of the
    images of the source representatives modulo the target boundaries."""
    out = {}
    for i, hs in src.items():
        ht = tgt[i]
        images = [mat_vec(F, comp(i), z) for z in hs.reps]
        out[i] = (hs.h, ht.h,
                  rank(F, list(ht.boundaries.basis()) + images) - ht.n_b)
    return out


def pair_map_profiles(gmap: DglaPairMap) -> tuple:
    """Per-degree (h_source, h_target, induced rank) for the algebra and
    the module components of a pair map."""
    F = gmap.F
    S, T = gmap.source, gmap.target
    lie = range(min(S.lie.gvs.lo, T.lie.gvs.lo),
                max(S.lie.gvs.hi, T.lie.gvs.hi) + 1)
    mod = range(min(S.m_gvs.lo, T.m_gvs.lo), max(S.m_gvs.hi, T.m_gvs.hi) + 1)
    return (_map_profile(F, _homology(F, S.lie.d_mat, S.lie.dim, lie),
                         _homology(F, T.lie.d_mat, T.lie.dim, lie),
                         gmap.lie_comp),
            _map_profile(F, _homology(F, S.m_d_mat, S.m_dim, mod),
                         _homology(F, T.m_d_mat, T.m_dim, mod),
                         gmap.mod_comp))


def pair_map_equivalence(gmap: DglaPairMap, i: int | None) -> bool:
    """Whether the map induces an isomorphism on algebra cohomology
    through degree 1 (injection in 2) and on module cohomology through
    degree i (injection in i+1)."""
    lie_prof, mod_prof = pair_map_profiles(gmap)
    return _q_equivalent(lie_prof, 1) and _q_equivalent(mod_prof, i)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

# largest dimension a JSON pair may declare in one degree: every basis
# vector gets a label before any structure is read, and dims come from
# outside input.  The pairs of the tests, goldens and benchmark stay
# below 10; a bracket table of this size is already out of reach.
MAX_DIM = 4096


def _gvs_from_json(obj, path):
    degs = read_nested(obj.get("degrees"), 1, read_int, path, "degrees")
    if len(degs) != 2:
        raise ValidationError("degrees must be [lo, hi]", path + "/degrees")
    dims = read_nested(obj.get("dims"), 1, read_int, path, "dims")
    for k, d in enumerate(dims):
        if d > MAX_DIM:
            raise ValidationError(f"dimension {d} above bound {MAX_DIM}",
                                  f"{path}/dims/{k}")
    with located(path):
        return GradedVectorSpace(degs[0], degs[1], dims)


def _table_from_json(scalar, obj, path, *keys):
    def entry(e, path, *at):
        if type(e) is not dict:
            raise ValidationError("table entry must be an object",
                                  json_path(path, at))
        return (tuple(read_int(e.get(k), path, *at, k) for k in "iajb"),
                read_nested(e.get("out"), 1, scalar, path, *at, "out"))

    table = {}
    for idx, (ijab, out) in enumerate(
            read_nested(obj.get(keys[-1], []), 1, entry, path, *keys)):
        if ijab in table:
            raise ValidationError(f"duplicate table entry {ijab}",
                                  json_path(path, keys + (idx,)))
        table[ijab] = out
    return table


def pair_from_json(obj: dict, path: str = "") -> DglaPair:
    """The pair a JSON document describes, checked against the axioms
    (AxiomError carries the first witness)."""
    if not isinstance(obj, dict):
        raise ValidationError("pair must be an object", path or "/")
    F = field_from_json(obj, path) if "field" in obj else QQ()
    lie_obj = obj.get("lie")
    mod_obj = obj.get("module")
    if not isinstance(lie_obj, dict) or not isinstance(mod_obj, dict):
        raise ValidationError("pair needs lie and module objects", path or "/")
    scalar = partial(read_scalar, F)
    g = _gvs_from_json(lie_obj, path + "/lie")
    m = _gvs_from_json(mod_obj, path + "/module")
    d = read_nested(lie_obj.get("d", []), 3, scalar, path, "lie", "d")
    bracket = _table_from_json(scalar, lie_obj, path, "lie", "bracket")
    with located(path, "lie"):
        lie = Dgla(F, g, d, bracket)
    d = read_nested(mod_obj.get("d", []), 3, scalar, path, "module", "d")
    action = _table_from_json(scalar, mod_obj, path, "module", "action")
    with located(path, "module"):
        pair = DglaPair(lie, m, d, action)
    pair.validate()
    return pair


def pair_to_json(P: DglaPair) -> dict:
    F = P.field
    g, m = P.lie.gvs, P.m_gvs

    def mats(d):
        return [[[F.format(x) for x in row] for row in mat] for mat in d]

    def table(t):
        out = []
        for (i, a, j, b), v in sorted(t.entries.items()):
            out.append({"i": i, "a": a, "j": j, "b": b,
                        "out": [F.format(x) for x in v]})
        return out

    obj = {"lie": {"degrees": [g.lo, g.hi], "dims": list(g.dims),
                   "d": mats(P.lie.d), "bracket": table(P.lie.bracket)},
           "module": {"degrees": [m.lo, m.hi], "dims": list(m.dims),
                      "d": mats(P.m_d), "action": table(P.action)}}
    if F.char:
        obj["field"] = "Fp"
        obj["p"] = F.char
    return obj
