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
from .dgla import Dgla, DglaPair, _units, cohomology_lie, cohomology_pair
from .errors import ValidationError
from .groebner import Ideal
from .linalg import rank
from .mc import bracket_tensor, twisted_complex
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
    H = cohomology_lie(C)
    S = coefficient_ring(C.field, H.dim(1))
    zeta = S.gens()
    return S, _nonzero_ideal(S, bracket_tensor(H, S, 1, zeta, 1, zeta))


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
    E = universal_aomoto(cohomology_pair(P))
    J = jump_ideal(E, i, k)
    base = J.ctx.base()
    return base.ideal(J.all_gens())


def pointwise_resonance(P: DglaPair, eta, i: int) -> int:
    """dim H^i(M, η·) for a single point η of the quadratic cone.

    ``eta`` is a coordinate vector on H¹ (checked against the cone
    equations); the answer is an exact rank computation over the field.
    """
    F = P.field
    Pc = cohomology_pair(P)
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
