"""Quadratic cones and resonance ideals of graded Lie pairs.

Given a pair (C, M) with zero differentials — typically the cohomology
pair of something geometric — degree-one elements act on M, and the
locus of η with [η,η] = 0 carries a tautological complex (M ⊗ S, η·)
over the coordinate ring S of C¹.  Its determinantal jump ideals cut
out the resonance varieties: the points where the η-twisted cohomology
of M is larger than generic.

Ideals live in the plain polynomial ring S and always contain the cone
relations, so downstream dimension counts happen in one fixed ring.
"""

from __future__ import annotations

from .complexes import FreeComplex, jump_ideal
from .dgla import Dgla, DglaPair, _DegreeHomology, _GradedTable, \
    _parse_scalar, _units, cohomology_pair
from .errors import AxiomError, ValidationError
from .groebner import Ideal
from .linalg import rank
from .mc import _inv_int
from .poly import RingContext


def _h_at(C: Dgla, i: int) -> _DegreeHomology:
    return _DegreeHomology(C.field, C.d_mat(i - 1), C.d_mat(i),
                           C.dim(i), C.dim(i - 1))


def _mono(n: int, *idx) -> tuple:
    e = [0] * n
    for a in idx:
        e[a] += 1
    return tuple(e)


def coefficient_ring(F, n: int) -> RingContext:
    """Polynomial ring on ``n`` dual variables x0..x{n-1}."""
    return RingContext(F, tuple(f"x{a}" for a in range(n)))


def quadratic_cone_ideal(C: Dgla):
    """The ideal of {η in H¹ : [η,η] = 0}.

    Returns ``(S, I)`` where S is the polynomial ring on the dual basis
    of H¹ and I is generated by the coordinates of the self-bracket of
    the tautological element — one generator per H² coordinate, kept
    exactly as expanded (no rescaling).
    """
    F = C.field
    h1 = _h_at(C, 1)
    h2 = _h_at(C, 2)
    S = coefficient_ring(F, h1.h)
    coeffs = {}
    for a, u in enumerate(h1.reps):
        for b, v in enumerate(h1.reps):
            w = h2.classify(C.bracket_elem(1, u, 1, v))
            for c, t in enumerate(w):
                if not F.is_zero(t):
                    m = _mono(h1.h, a, b)
                    cur = coeffs.setdefault(c, {})
                    cur[m] = F.add(cur.get(m, F.zero), t)
    gens = []
    for c in range(h2.h):
        g = S.from_dict(coeffs.get(c, {}))
        if g.terms:
            gens.append(g)
    return S, S.ideal(gens)


def flat_connection_ideal(C: Dgla):
    """The ideal of the flatness equation dω + ½[ω,ω] = 0 on C¹.

    Same construction as the cone but on the chain level, with the
    linear term of the differential included.
    """
    F = C.field
    half = _inv_int(F, 2)
    n = C.dim(1)
    S = coefficient_ring(F, n)
    d1 = C.d_mat(1)
    coeffs = {c: {} for c in range(C.dim(2))}
    for c in range(C.dim(2)):
        for a in range(n):
            t = d1[c][a]
            if not F.is_zero(t):
                m = _mono(n, a)
                coeffs[c][m] = F.add(coeffs[c].get(m, F.zero), t)
    for a in range(n):
        for b in range(n):
            w = C.bracket_vec(1, a, 1, b)
            for c, t in enumerate(w):
                if not F.is_zero(t):
                    m = _mono(n, a, b)
                    cur = coeffs[c]
                    cur[m] = F.add(cur.get(m, F.zero), F.mul(half, t))
    gens = []
    for c in range(C.dim(2)):
        g = S.from_dict(coeffs[c])
        if g.terms:
            gens.append(g)
    return S, S.ideal(gens)


def universal_aomoto(P: DglaPair) -> FreeComplex:
    """The tautological twisted complex (M ⊗ S, ζ·) over S/I_Q.

    ``P`` must have zero differentials (take ``cohomology_pair`` first);
    the differential in each degree is the action of the tautological
    section ζ = Σ x_a e_a, with entries linear in the x_a, taken in the
    quotient by the cone relations so that it squares to zero.
    """
    if not P.has_zero_differentials():
        raise ValidationError(
            "universal twisted complex needs zero differentials; "
            "take the cohomology pair first")
    F = P.field
    S, IQ = quadratic_cone_ideal(P.lie)
    if IQ.gens:
        ctx = RingContext(F, S.names, S.order, quotient=IQ.gens)
    else:
        ctx = S
    n = P.lie.dim(1)
    m = P.m_gvs
    ranks = [P.m_dim(i) for i in m.degrees()]
    diffs = []
    for j in range(m.lo, m.hi):
        mat = []
        for c in range(P.m_dim(j + 1)):
            row = []
            for b in range(P.m_dim(j)):
                d = {}
                for a in range(n):
                    t = P.action_vec(1, a, j, b)[c]
                    if not F.is_zero(t):
                        d[_mono(n, a)] = t
                row.append(ctx.from_dict(d))
            mat.append(tuple(row))
        diffs.append(tuple(mat))
    return FreeComplex(ctx, m.lo, m.hi, ranks, diffs)


def resonance_ideal(P: DglaPair, i: int, k: int) -> Ideal:
    """Jump ideal of the universal twisted complex, as an ideal of S.

    The cohomology pair is computed internally, the jump ideal is taken
    over S/I_Q, and the result is returned as its full preimage in the
    plain ring S — it always contains the cone relations.
    """
    Pc = P if P.has_zero_differentials() else cohomology_pair(P)
    E = universal_aomoto(Pc)
    J = jump_ideal(E, i, k)
    base = J.ctx.base()
    return base.ideal(J.all_gens())


def pointwise_resonance(P: DglaPair, eta, i: int) -> int:
    """dim H^i(M, η·) for a single point η of the quadratic cone.

    ``eta`` is a coordinate vector on H¹ (checked against the cone
    equations); the answer is an exact rank computation over the field.
    """
    F = P.field
    Pc = P if P.has_zero_differentials() else cohomology_pair(P)
    n = Pc.lie.dim(1)
    eta = tuple(F.from_int(x) if isinstance(x, int) else x for x in eta)
    if len(eta) != n:
        raise ValidationError(
            f"point has {len(eta)} coordinates, H^1 has dimension {n}")
    sq = Pc.lie.bracket_elem(1, eta, 1, eta)
    if any(not F.is_zero(x) for x in sq):
        raise ValidationError("point does not satisfy the cone equations")
    return Pc.m_dim(i) - contraction_rank(Pc, eta, i) \
        - contraction_rank(Pc, eta, i - 1)


def contraction_rank(P: DglaPair, eta, j: int) -> int:
    """Rank of the contraction v -> eta.v from M^j to M^{j+1}, for a
    coordinate vector ``eta`` on C^1."""
    F = P.field
    n = P.m_dim(j)
    if n == 0 or P.m_dim(j + 1) == 0:
        return 0
    # the images of the unit vectors are the columns; rank is transpose-blind
    return rank(F, [P.action_elem(1, eta, j, u) for u in _units(F, n)])


class Augmentation:
    """A Lie algebra g together with an evaluation C⁰ -> g.

    ``eps0`` is the matrix of the evaluation (rows indexed by a basis of
    g), ``g_bracket`` the structure constants of g keyed ``(p, q)`` with
    the missing orientation supplied by antisymmetry.
    """

    def __init__(self, field, g_dim: int, eps0, g_bracket: dict):
        if g_dim < 0:
            raise ValidationError("g_dim must be >= 0")
        self.field = field
        self.g_dim = g_dim
        self.eps0 = tuple(tuple(r) for r in eps0)
        if len(self.eps0) != g_dim:
            raise ValidationError(
                f"evaluation matrix has {len(self.eps0)} rows, g_dim is {g_dim}")
        ent = {}
        for (p, q), vec in g_bracket.items():
            if not (0 <= p < g_dim and 0 <= q < g_dim) or len(vec) != g_dim:
                raise ValidationError(f"bad bracket entry at {(p, q)}")
            ent[(0, p, 0, q)] = tuple(vec)
        self.table = _GradedTable(field, ent, skew=True)

    def bracket_vec(self, p: int, q: int):
        return self.table.get(0, p, 0, q, self.g_dim)

    def eps(self, v):
        F = self.field
        return tuple(
            _dot(F, row, v) for row in self.eps0)

    @staticmethod
    def from_json(field, obj, path: str = "") -> "Augmentation":
        if not isinstance(obj, dict):
            raise ValidationError("augmentation must be an object", path or "/")
        for key in ("g_dim", "eps0", "g_bracket"):
            if key not in obj:
                raise ValidationError(f"missing {key}", path + "/" + key)
        if not isinstance(obj["g_dim"], int):
            raise ValidationError("g_dim must be an integer", path + "/g_dim")
        if not isinstance(obj["eps0"], list) or \
                any(not isinstance(r, list) for r in obj["eps0"]):
            raise ValidationError("evaluation must be a matrix",
                                  path + "/eps0")
        eps0 = tuple(
            tuple(_parse_scalar(field, x, f"{path}/eps0/{r}/{c}")
                  for c, x in enumerate(row))
            for r, row in enumerate(obj["eps0"]))
        ent = {}
        if not isinstance(obj["g_bracket"], list):
            raise ValidationError("g_bracket must be a list",
                                  path + "/g_bracket")
        for t, e in enumerate(obj["g_bracket"]):
            here = f"{path}/g_bracket/{t}"
            if not isinstance(e, dict) or \
                    any(key not in e for key in ("a", "b", "out")):
                raise ValidationError("bracket entry needs a, b, out", here)
            vec = tuple(_parse_scalar(field, x, f"{here}/out/{c}")
                        for c, x in enumerate(e["out"]))
            ent[(e["a"], e["b"])] = vec
        return Augmentation(field, obj["g_dim"], eps0, ent)


def _dot(F, row, v):
    t = F.zero
    for x, y in zip(row, v):
        t = F.add(t, F.mul(x, y))
    return t


def augmented_resonance(P: DglaPair, aug: Augmentation, i: int, k: int) -> Ideal:
    """Resonance ideal of the pair augmented along ε: C⁰ -> g.

    Requires ε to be a map of Lie algebras, surjective onto g and
    injective on H⁰(C).  The augmented locus is the plain product with
    an affine space: same generators, dim g − dim ε(H⁰) fresh variables.
    """
    F = P.field
    C = P.lie
    n0 = C.dim(0)
    if aug.field != F:
        raise ValidationError("augmentation is over a different field")
    if any(len(row) != n0 for row in aug.eps0):
        raise ValidationError(
            f"evaluation matrix rows must have width dim C^0 = {n0}")
    for p in range(n0):
        for q in range(n0):
            lhs = aug.eps(C.bracket_vec(0, p, 0, q))
            ep = tuple(row[p] for row in aug.eps0)
            eq = tuple(row[q] for row in aug.eps0)
            rhs = aug.table.contract(0, ep, 0, eq, aug.g_dim)
            if tuple(lhs) != rhs:
                raise AxiomError(
                    "evaluation does not respect brackets "
                    f"at basis pair {(p, q)}")
    if C.gvs.lo < 0:
        dm = C.d_mat(-1)
        for b in range(C.dim(-1)):
            col = tuple(dm[c][b] for c in range(n0))
            if any(not F.is_zero(x) for x in aug.eps(col)):
                raise ValidationError(
                    "evaluation does not kill exact degree-0 elements "
                    f"(boundary of basis vector {b})")
    if rank(F, list(aug.eps0)) != aug.g_dim:
        raise ValidationError(
            "evaluation is not surjective onto g "
            f"(rank {rank(F, list(aug.eps0))} < {aug.g_dim})")
    h0 = _h_at(C, 0)
    imgs = [aug.eps(r) for r in h0.reps]
    if rank(F, imgs) != h0.h:
        raise ValidationError(
            "evaluation is not injective on degree-0 cohomology "
            f"(rank {rank(F, imgs)} < {h0.h})")

    R = resonance_ideal(P, i, k)
    extra = aug.g_dim - h0.h
    if extra == 0:
        return R
    S = R.ctx
    ctx2 = RingContext(F, S.names + tuple(f"y{t}" for t in range(extra)),
                       S.order)
    pad = (0,) * extra
    lifted = [ctx2.from_dict({m + pad: c for m, c in g.terms})
              for g in R.gens]
    return ctx2.ideal(lifted)
