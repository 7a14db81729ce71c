from fractions import Fraction

from collections import Counter

import pytest

from cjl.artin import make_artin
from cjl import complexes
from cjl.complexes import FreeComplex, jump_ideal
from cjl.dgla import (Dgla, DglaPair, GradedVectorSpace, check_dgla,
                      check_pair, cohomology_pair)
from cjl.errors import ValidationError
from cjl.field import QQ
from cjl.mc import (aomoto_complex, bracket_exp, def_jump_test, gauge_act,
                    gauge_correction, maurer_cartan_check, mc_defect,
                    module_transport, action_tensor, twisted_complex,
                    tensor_add, tensor_eq, tensor_from_json, tensor_is_zero,
                    tensor_to_json, zero_tensor,
                    apply_scalar_matrix)
from cjl.models import cdga_to_pair, exterior, exterior_pair
from cjl.poly import RingContext
from cjl.resonance import quadratic_cone_ideal
from cjl.parse import parse_poly
from cjl.rng import Rng

F = QQ()
ZERO = F.zero
ONE = F.one


def artin(defn):
    """Quotient presentation -> algebra, e.g. ('t', ['t^3'])."""
    names, gens = defn
    ctx = RingContext(F, tuple(names.split()), "degrevlex")
    return make_artin(ctx, [parse_poly(ctx, g) for g in gens])


def zero_mat(rows, cols):
    return tuple((ZERO,) * cols for _ in range(rows))


def heisenberg_dgla():
    # z | e1, e2 | f, zero differential, [e1,e2] = [e2,e1] = f
    g = GradedVectorSpace(0, 2, (1, 2, 1))
    d = [zero_mat(2, 1), zero_mat(1, 2)]
    return Dgla(F, g, d, {(1, 0, 1, 1): (ONE,), (1, 1, 1, 0): (ONE,)})


def heisenberg_pair():
    C = heisenberg_dgla()
    m = GradedVectorSpace(0, 0, (1,))
    return DglaPair(C, m, [], {})


def line_dgla():
    # z | e | f with d(z) = e, zero bracket: gauge acts by omega - d(lam)
    g = GradedVectorSpace(0, 2, (1, 1, 1))
    return Dgla(F, g, [((ONE,),), ((ZERO,),)], {})


def torus_pair():
    """Exterior algebra on two generators as an abelian pair acting on
    itself by wedge; the running rank-(1,2,1) fixture."""
    dims = (1, 2, 1)
    g = GradedVectorSpace(0, 2, dims)
    d = [zero_mat(2, 1), zero_mat(1, 2)]
    C = Dgla(F, g, list(d), {})
    action = {
        (0, 0, 0, 0): (ONE,), (0, 0, 1, 0): (ONE, ZERO),
        (0, 0, 1, 1): (ZERO, ONE), (0, 0, 2, 0): (ONE,),
        (1, 0, 0, 0): (ONE, ZERO), (1, 1, 0, 0): (ZERO, ONE),
        (1, 0, 1, 1): (ONE,), (1, 1, 1, 0): (F.neg(ONE),),
        (2, 0, 0, 0): (ONE,),
    }
    return DglaPair(C, GradedVectorSpace(0, 2, dims), list(d), action)


def solvable_tensor_pair():
    """[h,e] = e tensored with the contractible algebra 1 | a, b = d(a):
    six-dimensional, nonabelian, concentrated in degrees 0 and 1 so every
    connection is flat.  Module = adjoint."""
    gb = {(0, 1): (ZERO, ONE), (1, 0): (ZERO, F.neg(ONE))}
    # basis: degree 0 = [h.1, e.1, h.a, e.a], degree 1 = [h.b, e.b]
    basis = {0: [(0, "1"), (1, "1"), (0, "a"), (1, "a")],
             1: [(0, "b"), (1, "b")]}
    prod = {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a",
            ("1", "b"): "b", ("b", "1"): "b"}
    deg = {"1": 0, "a": 0, "b": 1}
    bracket = {}
    for i, bi in basis.items():
        for j, bj in basis.items():
            if i + j > 1:
                continue
            for a, (x, u) in enumerate(bi):
                for b, (y, v) in enumerate(bj):
                    w = prod.get((u, v))
                    if w is None:
                        continue
                    gvec = gb.get((x, y))
                    if gvec is None:
                        continue
                    vec = [ZERO] * len(basis[i + j])
                    for z, c in enumerate(gvec):
                        if not F.is_zero(c):
                            vec[basis[i + j].index((z, w))] = c
                    if any(not F.is_zero(c) for c in vec):
                        bracket[(i, a, j, b)] = tuple(vec)
    g = GradedVectorSpace(0, 1, (4, 2))
    d = [((ZERO, ZERO, ONE, ZERO), (ZERO, ZERO, ZERO, ONE))]
    C = Dgla(F, g, d, bracket)
    return DglaPair(C, GradedVectorSpace(0, 1, (4, 2)), list(d),
                    dict(bracket))


def rand_elem(A, rng, in_m=False):
    lo = 1 if in_m else 0
    return tuple(F.from_int(rng.randint(-3, 3)) if i >= lo else ZERO
                 for i in range(A.dim))


def rand_tensor(A, rng, n, in_m=False):
    return tuple(rand_elem(A, rng, in_m) for _ in range(n))


def test_fixtures_satisfy_axioms():
    for P in (heisenberg_pair(), torus_pair(), solvable_tensor_pair()):
        assert check_dgla(P.lie) == []
        assert check_pair(P) == []


def test_mc_zero_always_true():
    A = artin(("t", ["t^3"]))
    for P in (heisenberg_pair(), torus_pair(), solvable_tensor_pair()):
        omega = zero_tensor(A, P.lie.dim(1))
        assert maurer_cartan_check(P, A, omega)


def test_mc_heisenberg_quadratic_obstruction():
    # defect = (x1 x2) f: vanishing is exactly x1*x2 = 0 in A
    A = artin(("t", ["t^3"]))
    t = A.basis(1)
    t2 = A.basis(2)
    C = heisenberg_dgla()
    assert not maurer_cartan_check(C, A, (t, t))
    assert maurer_cartan_check(C, A, (t2, t2))
    assert maurer_cartan_check(C, A, (t, A.zero()))
    d = mc_defect(C, A, (t, t))
    assert A.eq(d[0], A.mul(t, t))


def test_mc_square_zero_base_is_linearity():
    # over Q[eps]/(eps^2) the bracket term dies: true iff d(omega) = 0
    A = artin(("e", ["e^2"]))
    eps = A.basis(1)
    g = GradedVectorSpace(0, 2, (1, 1, 1))
    C2 = Dgla(F, g, [((ZERO,),), ((ONE,),)], {})  # d(e) = f
    assert not maurer_cartan_check(C2, A, (eps,))
    assert maurer_cartan_check(C2, A, (A.zero(),))
    # with d vanishing on degree 1 the equation is vacuous over this base
    assert maurer_cartan_check(line_dgla(), A, (eps,))


def test_mc_shape_and_membership_validation():
    A = artin(("t", ["t^3"]))
    C = heisenberg_dgla()
    with pytest.raises(ValidationError):
        maurer_cartan_check(C, A, (A.basis(1),))  # wrong arity
    with pytest.raises(ValidationError):
        maurer_cartan_check(C, A, (A.one(), A.zero()))  # not in m


def test_gauge_identity_lambda_zero():
    A = artin(("t", ["t^4"]))
    P = solvable_tensor_pair()
    rng = Rng(7)
    omega = rand_tensor(A, rng, 2, in_m=True)
    lam = zero_tensor(A, 4)
    assert tensor_eq(A, gauge_act(P, A, lam, omega), omega)


def test_gauge_abelian_collapse():
    A = artin(("t", ["t^3"]))
    C = line_dgla()
    t = A.basis(1)
    lam = (t,)
    omega = (A.basis(2),)
    out = gauge_act(C, A, lam, omega)
    # omega - d(lam): d(z) = e so the e-coefficient drops by t
    expected = (A.sub(A.basis(2), t),)
    assert tensor_eq(A, out, expected)


def test_gauge_round_trip_inverse():
    A = artin(("t", ["t^4"]))
    P = solvable_tensor_pair()
    for seed in range(5):
        rng = Rng(seed)
        lam = rand_tensor(A, rng, 4, in_m=True)
        omega = rand_tensor(A, rng, 2, in_m=True)
        neg = tuple(A.neg(x) for x in lam)
        back = gauge_act(P, A, neg, gauge_act(P, A, lam, omega))
        assert tensor_eq(A, back, omega)


def test_gauge_preserves_flatness():
    A = artin(("t", ["t^4"]))
    P = solvable_tensor_pair()
    rng = Rng(11)
    omega = rand_tensor(A, rng, 2, in_m=True)
    lam = rand_tensor(A, rng, 4, in_m=True)
    assert maurer_cartan_check(P, A, omega)  # C^2 = 0 here
    assert maurer_cartan_check(P, A, gauge_act(P, A, lam, omega))


def test_transport_identities():
    # exp(lam)(omega.xi) = (exp(ad lam)(omega)).(exp(lam)(xi))  and the
    # differential version with the gauge correction term
    A = artin(("t", ["t^4"]))
    P = solvable_tensor_pair()
    for seed in range(6):
        rng = Rng(100 + seed)
        lam = rand_tensor(A, rng, 4, in_m=True)
        omega = rand_tensor(A, rng, 2, in_m=True)
        xi = rand_tensor(A, rng, 4)
        lhs = module_transport(P, A, lam, action_tensor(P, A, 1, omega, 0, xi), 1)
        rhs = action_tensor(P, A, 1, bracket_exp(P, A, lam, 1, omega),
                            0, module_transport(P, A, lam, xi, 0))
        assert tensor_eq(A, lhs, rhs)

        dxi = apply_scalar_matrix(A, P.m_d_mat(0), xi)
        lhs2 = module_transport(P, A, lam, dxi, 1)
        tr = module_transport(P, A, lam, xi, 0)
        rhs2 = tensor_add(A, apply_scalar_matrix(A, P.m_d_mat(0), tr),
                          action_tensor(P, A, 1, gauge_correction(P, A, lam),
                                        0, tr))
        assert tensor_eq(A, lhs2, rhs2)


def test_transport_lambda_zero():
    A = artin(("t", ["t^3"]))
    P = torus_pair()
    rng = Rng(3)
    xi = rand_tensor(A, rng, 2)
    assert tensor_eq(A, module_transport(P, A, zero_tensor(A, 1), xi, 1), xi)


def twisted_differential(P, A, omega, degree, xi):
    """d_M(xi) + omega.xi on M^degree (x) A, by the tensor operations: the
    reference for the matrices of ``twisted_complex``."""
    return tensor_add(A, apply_scalar_matrix(A, P.m_d_mat(degree), xi),
                      action_tensor(P, A, 1, omega, degree, xi))


def test_gauge_conjugates_twisted_differential():
    # exp(lam) intertwines d_omega and d_{gauge(omega)}
    A = artin(("t", ["t^4"]))
    P = solvable_tensor_pair()
    rng = Rng(42)
    lam = rand_tensor(A, rng, 4, in_m=True)
    omega = rand_tensor(A, rng, 2, in_m=True)
    omega2 = gauge_act(P, A, lam, omega)
    xi = rand_tensor(A, rng, 4)
    lhs = module_transport(P, A, lam, twisted_differential(P, A, omega, 0, xi), 1)
    rhs = twisted_differential(P, A, omega2, 0,
                               module_transport(P, A, lam, xi, 0))
    assert tensor_eq(A, lhs, rhs)


# ---------------------------------------------------------------------------
# twisted complexes
# ---------------------------------------------------------------------------

def test_aomoto_hand_expansion_over_dual_numbers():
    A = artin(("e", ["e^2"]))
    P = torus_pair()
    eps = A.basis(1)
    omega = (eps, A.zero())  # eps * (first degree-1 basis vector)
    E = aomoto_complex(P, A, omega)
    assert E.ranks == (1, 2, 1)
    assert E.diff(0) == ((eps,), (A.zero(),))
    assert E.diff(1) == ((A.zero(), eps),)


def test_aomoto_zero_connection_is_module_differential():
    A = artin(("t", ["t^3"]))
    P = solvable_tensor_pair()
    E = aomoto_complex(P, A, zero_tensor(A, 2))
    for j in range(4):
        want = P.m_d_mat(j)
        got = E.diff(j)
        for r, row in enumerate(got):
            for c, x in enumerate(row):
                assert A.eq(x, A.scale(A.one(), want[r][c]))


def test_aomoto_rejects_non_flat():
    A = artin(("t", ["t^3"]))
    P = heisenberg_pair()
    t = A.basis(1)
    with pytest.raises(ValidationError):
        aomoto_complex(P, A, (t, t))


def test_def_jump_over_the_field_counts_betti():
    Q1 = artin(("t", ["t"]))  # the residue field itself
    P = torus_pair()
    omega = zero_tensor(Q1, 2)
    assert def_jump_test(P, Q1, omega, 1, 1)
    assert def_jump_test(P, Q1, omega, 1, 2)
    assert not def_jump_test(P, Q1, omega, 1, 3)
    assert def_jump_test(P, Q1, omega, 0, 1)
    assert not def_jump_test(P, Q1, omega, 0, 2)


def test_def_jump_gauge_invariant():
    A = artin(("t", ["t^4"]))
    P = solvable_tensor_pair()
    rng = Rng(5)
    omega = rand_tensor(A, rng, 2, in_m=True)
    lam = rand_tensor(A, rng, 4, in_m=True)
    omega2 = gauge_act(P, A, lam, omega)
    E1 = aomoto_complex(P, A, omega)
    E2 = aomoto_complex(P, A, omega2)
    assert (E1.lo, E1.hi, E1.ranks) == (E2.lo, E2.hi, E2.ranks)
    for i in range(E1.lo, E1.hi + 1):
        for k in range(1, E1.rank(i) + 2):
            assert jump_ideal(E1, i, k).equals(jump_ideal(E2, i, k))
            assert def_jump_test(P, A, omega, i, k) == \
                def_jump_test(P, A, omega2, i, k)


def _universal(P):
    """The pair's coefficient ring S/I_Q and tautological element."""
    S, IQ = quadratic_cone_ideal(P.lie)
    if IQ.gens:
        S = RingContext(P.field, S.names, S.order, quotient=IQ.gens)
    return S, S.gens()


def _solvable_over_t4():
    A = artin(("t", ["t^4"]))
    return A, rand_tensor(A, Rng(7), 2, in_m=True)


TWISTED_CASES = {
    "exterior-4": (lambda: cohomology_pair(exterior_pair(4)), _universal),
    "glr": (lambda: cohomology_pair(cdga_to_pair(exterior(2), 2, 2)),
            _universal),
    "solvable-t4": (solvable_tensor_pair, lambda P: _solvable_over_t4()),
}


@pytest.mark.parametrize("name", sorted(TWISTED_CASES))
def test_twisted_complex_reads_each_action_term_once(monkeypatch, name):
    """Work pin: the matrices of ``twisted_complex`` cost at most one ring
    ``add`` or ``scale`` per nonzero action term (a, b, k) in degrees
    (1, j) and per nonzero entry of d_M, and one zero test per coordinate
    of omega (the d.d check of ``FreeComplex`` is not counted); they equal
    the column-by-column reference."""
    pair, base = TWISTED_CASES[name]
    P = pair()
    A, omega = base(P)
    calls = Counter()
    for op in ("add", "scale", "is_zero"):
        def count(*args, op=op, f=getattr(A, op)):
            calls[op] += 1
            return f(*args)
        monkeypatch.setattr(A, op, count, raising=False)
    built = Counter()

    def free_complex(*args):
        built.update(calls)
        return FreeComplex(*args)
    monkeypatch.setattr(complexes, "FreeComplex", free_complex)
    E = twisted_complex(P, A, omega)
    monkeypatch.undo()
    terms = sum(len(P.action.terms(1, a, j, b)) for j in P.m_gvs.degrees()
                for a in range(P.lie.dim(1)) for b in range(P.m_dim(j)))
    d_entries = sum(not F.is_zero(t) for m in P.m_d for row in m for t in row)
    assert built["add"] + built["scale"] <= terms + d_entries, name
    assert built["is_zero"] == len(omega)
    for j in range(E.lo, E.hi):
        n = P.m_dim(j)
        cols = [twisted_differential(
            P, A, omega, j, tuple(A.one() if t == b else A.zero()
                                  for t in range(n))) for b in range(n)]
        want = [[col[c] for col in cols] for c in range(P.m_dim(j + 1))]
        assert [list(row) for row in E.diff(j)] == want, (name, j)


def test_tensor_json_round_trip():
    A = artin(("t", ["t^3"]))
    rows = [["1/2", "0"], ["-1", "3"]]  # maximal-ideal coordinates
    u = tensor_from_json(A, 2, rows, "/omega")
    assert u[0] == (ZERO, Fraction(1, 2), ZERO)
    assert tensor_to_json(A, u) == rows
    full = tensor_from_json(A, 1, [["0", "1", "2"]], "/omega")  # full coordinates
    assert full[0] == (ZERO, Fraction(1), Fraction(2))
    with pytest.raises(ValidationError):
        tensor_from_json(A, 2, [["1", "0"]], "/omega")
    with pytest.raises(ValidationError):
        tensor_from_json(A, 1, [["1", "0", "0"]], "/omega")
    with pytest.raises(ValidationError):
        tensor_from_json(A, 1, [["nope"]], "/omega")
