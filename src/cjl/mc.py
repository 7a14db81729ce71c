"""Flatness equation, gauge series, and twisted complexes over an
Artinian local base.

Elements of ``C^i (x) A`` (or ``M^i (x) A``) are tuples of algebra
elements, one per basis vector of the graded piece.  All power series
(exponentials of adjoint or module action) are exact finite sums: each
application of a coefficient in the maximal ideal climbs the m-adic
filtration, which terminates at the nilpotency index.

The structure equation d(omega) + (1/2)[omega, omega] and the twisted
complex (M (x) A, d_M + omega.) are written once, here, for any
coefficient ring A with the ring protocol (``zero``, ``one``, ``add``,
``mul``, ``scale``, ``is_zero``, ``field``): an Artin algebra for
deformations, a polynomial ring (or its quotient by the cone relations)
for the tautological element of ``resonance``.  Brackets and actions on
such tensors are the contraction of the pair's structure constants over
A (:meth:`~cjl.dgla._GradedTable.contract`), the same loop that
multiplies field vectors and Artin elements.  The twisted complex reads
the action rows once: each matrix is one pass over the nonzero rows of
the action in degrees (1, j).
"""

from __future__ import annotations

from .artin import ArtinLocalAlgebra
from .dgla import Dgla, DglaPair
from .errors import InternalCheckError, ValidationError
from .field import read_scalars


def _lie(P):
    return P.lie if isinstance(P, DglaPair) else P


def zero_tensor(A: ArtinLocalAlgebra, n: int):
    return tuple(A.zero() for _ in range(n))


def tensor_is_zero(A, u) -> bool:
    return all(A.is_zero(x) for x in u)


def tensor_add(A, u, v):
    return tuple(A.add(x, y) for x, y in zip(u, v))


def tensor_sub(A, u, v):
    return tuple(A.sub(x, y) for x, y in zip(u, v))


def tensor_scale(A, c, u):
    """Scale by a ground-field constant."""
    return tuple(A.scale(x, c) for x in u)


def tensor_eq(A, u, v) -> bool:
    return len(u) == len(v) and all(A.eq(x, y) for x, y in zip(u, v))


def tensor_in_max_ideal(A, u) -> bool:
    return all(A.in_max_ideal(x) for x in u)


def apply_scalar_matrix(A, mat, u):
    """Apply a matrix of ground-field scalars to a vector of algebra
    elements (the differential extended along the base)."""
    F = A.field
    out = []
    for row in mat:
        acc = A.zero()
        for c, x in zip(row, u):
            if not F.is_zero(c):
                acc = A.add(acc, A.scale(x, c))
        out.append(acc)
    return tuple(out)


def bracket_tensor(C: Dgla, A, i: int, u, j: int, v):
    """[x (x) a, y (x) b] = [x,y] (x) ab — the base is commutative and
    sits in degree zero, so no extra sign appears."""
    return C.bracket.contract(i, u, j, v, C.dim(i + j), A)


def action_tensor(P: DglaPair, A, i: int, u, j: int, v):
    """(x (x) a).(m (x) b) = x.m (x) ab."""
    return P.action.contract(i, u, j, v, P.m_dim(i + j), A)


def _check_shape(A, u, n, what: str, in_m: bool):
    if len(u) != n:
        raise ValidationError(f"{what} must have {n} entries, got {len(u)}")
    for idx, x in enumerate(u):
        if len(x) != A.dim:
            raise ValidationError(
                f"{what} entry {idx} must have {A.dim} coefficients")
    if in_m and not tensor_in_max_ideal(A, u):
        raise ValidationError(
            f"{what} must have coefficients in the maximal ideal")


def _inv_int(F, n: int):
    if F.char and n % F.char == 0:
        raise ValidationError(
            f"series term needs {n} invertible in the ground field "
            f"(characteristic {F.char} too small)")
    return F.inv(F.from_int(n))


def structure_equation(C: Dgla, A, omega):
    """d(omega) + (1/2)[omega, omega] in C^2 (x) A, for omega in C^1 (x) A."""
    half = _inv_int(C.field, 2)
    return tensor_add(A, apply_scalar_matrix(A, C.d_mat(1), omega),
                      tensor_scale(A, half,
                                   bracket_tensor(C, A, 1, omega, 1, omega)))


def mc_defect(P, A: ArtinLocalAlgebra, omega):
    """d(omega) + (1/2)[omega, omega], an element of C^2 (x) A."""
    C = _lie(P)
    _check_shape(A, omega, C.dim(1), "connection coefficients", in_m=True)
    if C.field.char == 2:
        raise ValidationError(
            "the structure equation needs 2 invertible; characteristic 2 "
            "is not supported")
    return structure_equation(C, A, omega)


def maurer_cartan_check(P, A: ArtinLocalAlgebra, omega) -> bool:
    """Exact evaluation of the flatness equation in C^2 (x) m."""
    return tensor_is_zero(A, mc_defect(P, A, omega))


def _series(A, step, u, s: int, what: str):
    """sum_{n>=0} step^n(u) / (n+s)! for s in {0, 1}, as an exact finite
    sum: ``step`` acts through a coefficient in the maximal ideal, so
    the terms vanish within the nilpotency index."""
    F = A.field
    acc = term = u
    n = 0
    fuel = A.nilpotency_index + 1
    while not tensor_is_zero(A, term):
        n += 1
        if n > fuel:
            raise InternalCheckError(
                f"{what} series failed to terminate within the nilpotency "
                "bound")
        term = tensor_scale(A, _inv_int(F, n + s), step(term))
        acc = tensor_add(A, acc, term)
    return acc


def bracket_exp(P, A: ArtinLocalAlgebra, lam, i: int, u):
    """exp(ad lam) applied to an element of C^i (x) A, as an exact
    finite sum (lam has nilpotent coefficients)."""
    C = _lie(P)
    _check_shape(A, lam, C.dim(0), "gauge coefficients", in_m=True)
    return _series(A, lambda t: bracket_tensor(C, A, 0, lam, i, t), u, 0,
                   "adjoint")


def gauge_correction(P, A: ArtinLocalAlgebra, lam):
    """((1 - exp(ad lam)) / ad lam)(d lam) ∈ C^1 (x) m, i.e.
    -sum_{n>=0} ad_lam^n(d lam) / (n+1)!."""
    C = _lie(P)
    _check_shape(A, lam, C.dim(0), "gauge coefficients", in_m=True)
    total = _series(A, lambda t: bracket_tensor(C, A, 0, lam, 1, t),
                    apply_scalar_matrix(A, C.d_mat(0), lam), 1,
                    "gauge correction")
    return tensor_sub(A, zero_tensor(A, C.dim(1)), total)


def gauge_act(P, A: ArtinLocalAlgebra, lam, omega):
    """The gauge action  exp(ad lam)(omega) + ((1-exp(ad lam))/ad lam)(d lam).

    For an abelian bracket this collapses to omega - d(lam).
    """
    C = _lie(P)
    _check_shape(A, omega, C.dim(1), "connection coefficients", in_m=True)
    out = tensor_add(A, bracket_exp(P, A, lam, 1, omega),
                     gauge_correction(P, A, lam))
    if not tensor_in_max_ideal(A, out):
        raise InternalCheckError("gauge action left the maximal ideal")
    return out


def module_transport(P: DglaPair, A: ArtinLocalAlgebra, lam, xi,
                     degree: int):
    """exp(lam) applied to an element of M^degree (x) A:
    sum_n act_lam^n(xi) / n!."""
    _check_shape(A, lam, P.lie.dim(0), "gauge coefficients", in_m=True)
    _check_shape(A, xi, P.m_dim(degree), "module element", in_m=False)
    return _series(A, lambda t: action_tensor(P, A, 0, lam, degree, t), xi,
                   0, "transport")


def twisted_complex(P: DglaPair, A, omega):
    """The free complex (M (x) A, d_M + omega.) with ranks dim M^i: entry
    (c, b) of the matrix out of degree j is d_M[c][b] plus the sum of
    omega_a t over the terms (c, t) of e_a.e_b.  Each matrix is built in
    one pass over the nonzero rows of the action in degrees (1, j) and
    the nonzero entries of d_M, and the coordinates of omega are
    zero-tested once.  It is a complex when omega satisfies the
    structure equation."""
    from .complexes import FreeComplex

    F, m = P.field, P.m_gvs
    one = F.one
    omega = {a: x for a, x in enumerate(omega) if not A.is_zero(x)}
    diffs = []
    for j in range(m.lo, m.hi):
        d = {(c, b): A.scale(A.one(), t)
             for c, row in enumerate(P.m_d_mat(j))
             for b, t in enumerate(row) if not F.is_zero(t)}
        for a, row in P.action.compiled.get((1, j), ()):
            x = omega.get(a)
            if x is None:
                continue
            for b, ts in row:
                for c, t in ts:
                    z = x if t is one else A.scale(x, t)
                    d[c, b] = A.add(d[c, b], z) if (c, b) in d else z
        zero = A.zero()
        diffs.append(tuple(tuple(d.get((c, b), zero) for b in range(P.m_dim(j)))
                           for c in range(P.m_dim(j + 1))))
    return FreeComplex(A, m.lo, m.hi, [P.m_dim(i) for i in m.degrees()],
                       diffs)


def aomoto_complex(P: DglaPair, A: ArtinLocalAlgebra, omega):
    """The module complex twisted by a flat connection: free over A with
    ranks dim M^i and differential d_M (x) id + omega-action."""
    if not maurer_cartan_check(P, A, omega):
        raise ValidationError(
            "connection is not flat (fails the structure equation); "
            "no twisted complex exists")
    return twisted_complex(P, A, omega)


def def_jump_test(P: DglaPair, A: ArtinLocalAlgebra, omega, i: int,
                  k: int) -> bool:
    """Whether the (i,k) jump ideal of the twisted complex vanishes
    identically over A — membership in the jump subcategory."""
    from .complexes import jump_ideal

    return jump_ideal(aomoto_complex(P, A, omega), i, k).is_zero()


# ---------------------------------------------------------------------------
# JSON for tensor elements
# ---------------------------------------------------------------------------

def tensor_from_json(A: ArtinLocalAlgebra, n: int, rows, path: str):
    """An element of the maximal ideal tensored with a space of dimension
    n.  Rows are coefficient lists: either full coordinates on the algebra
    basis, or coordinates on the basis of m alone (one shorter, unit
    coefficient implied zero)."""
    F = A.field
    rows = read_scalars(F, rows, 2, path)
    if len(rows) != n:
        raise ValidationError(f"need a list of {n} coefficient rows", path)
    out = []
    for idx, vals in enumerate(rows):
        if len(vals) == A.dim - 1:
            vals = (F.zero,) + vals
        elif len(vals) != A.dim:
            raise ValidationError(
                f"row must have {A.dim} coefficients "
                f"(or {A.dim - 1} on the maximal-ideal basis)",
                f"{path}/{idx}")
        out.append(vals)
    elem = tuple(out)
    if not tensor_in_max_ideal(A, elem):
        raise ValidationError("coefficients must lie in the maximal ideal",
                              path)
    return elem


def tensor_to_json(A: ArtinLocalAlgebra, u):
    """An element of the maximal ideal, on the basis of m (unit
    coefficient left out)."""
    F = A.field
    return [[F.format(c) for c in x[1:]] for x in u]
