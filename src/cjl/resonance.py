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
from .dgla import Dgla, DglaPair, _GradedTable, _homology, _parse_scalar, \
    _units, cohomology_lie, cohomology_pair
from .errors import AxiomError, ValidationError
from .groebner import Ideal
from .linalg import mat_vec, rank
from .mc import bracket_tensor, structure_equation, twisted_complex
from .poly import RingContext


def _nonzero_ideal(S: RingContext, coords):
    """The ideal of S generated by the nonzero entries of ``coords``."""
    return S.ideal([g for g in coords if g.terms])


def coefficient_ring(F, n: int) -> RingContext:
    """Polynomial ring on ``n`` dual variables x0..x{n-1}."""
    return RingContext(F, tuple(f"x{a}" for a in range(n)))


def quadratic_cone_ideal(C: Dgla):
    """The ideal of {η in H¹ : [η,η] = 0}.

    Returns ``(S, I)`` where S is the polynomial ring on the dual basis
    of H¹ and I is generated by the nonzero coordinates of the self-bracket
    of the tautological element in the cohomology Lie algebra (C itself
    when its differential is zero) — one generator per H² coordinate, kept
    exactly as expanded (no rescaling).
    """
    H = C if C.has_zero_differential() else cohomology_lie(C)
    S = coefficient_ring(C.field, H.dim(1))
    zeta = S.gens()
    return S, _nonzero_ideal(S, bracket_tensor(H, S, 1, zeta, 1, zeta))


def flat_connection_ideal(C: Dgla):
    """The ideal of the flatness equation dω + ½[ω,ω] = 0 on C¹.

    Same construction as the cone but on the chain level, with the
    linear term of the differential included.
    """
    S = coefficient_ring(C.field, C.dim(1))
    return S, _nonzero_ideal(S, structure_equation(C, S, S.gens()))


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
    S, IQ = quadratic_cone_ideal(P.lie)
    if IQ.gens:
        S = RingContext(P.field, S.names, S.order, quotient=IQ.gens)
    return twisted_complex(P, S, S.gens())


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
        return mat_vec(self.field, self.eps0, v)

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
    r = rank(F, list(aug.eps0))
    if r != aug.g_dim:
        raise ValidationError(
            "evaluation is not surjective onto g "
            f"(rank {r} < {aug.g_dim})")
    h0 = _homology(F, C.d_mat, C.dim, (0,))[0]
    r = rank(F, [aug.eps(v) for v in h0.reps])
    if r != h0.h:
        raise ValidationError(
            "evaluation is not injective on degree-0 cohomology "
            f"(rank {r} < {h0.h})")

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
