"""Release gate: nine end-to-end checks with wall-clock budgets.

Each ``check_*`` function returns ``(name, ok, detail)`` and never raises on
a mathematical failure -- the first counterexample is folded into ``detail``
so a red line says what broke.  ``run_all`` executes the battery in order;
the CLI ``selftest`` verb and ``tests/test_acceptance.py`` both print one
PASS/FAIL line per criterion from its output.

The randomized criteria draw everything from the package's own generator, so
a run is reproducible from its seed.
"""

from time import perf_counter

from .artin import artin_from_json
from .complexes import FreeComplex, base_change, fiber_cohomology_rank, jump_ideal
from .dgla import Dgla, DglaPair, GradedVectorSpace, cohomology_lie
from .field import QQ
from .geometry import analyze, exactness_threshold, tor_crosscheck
from .groebner import krull_dimension, krull_dimension_by_enumeration, reduce_full
from .mc import (
    action_tensor,
    aomoto_complex,
    apply_scalar_matrix,
    bracket_exp,
    def_jump_test,
    gauge_act,
    gauge_correction,
    maurer_cartan_check,
    module_transport,
    tensor_add,
    tensor_eq,
)
from .models import Arrangement, exterior_pair, os_pair, surface_pair
from .poly import ORDER_KEYS, RingContext, mono_div, mono_lcm
from .resonance import pointwise_resonance, resonance_ideal
from .rng import Rng


def _artin(variables, quotient):
    return artin_from_json(
        {"ring": {"field": "Q", "vars": list(variables), "order": "degrevlex", "quotient": list(quotient)}}
    )


def _corpus_rings():
    return (_artin(["t"], ["t^3"]), _artin(["x", "y"], ["x^2", "x*y", "y^2"]))


def _model_corpus():
    return (
        ("exterior-2", exterior_pair(2)),
        ("exterior-3", exterior_pair(3)),
        ("surface-2", surface_pair(2)),
        ("arrangement", os_pair(Arrangement([[1, 0], [0, 1], [1, 1]]))),
    )


# ---------------------------------------------------------------------------
# random complexes over an Artin local ring
# ---------------------------------------------------------------------------

def _rand_elem(A, rng, in_m=True, spread=2):
    lo = 1 if in_m else 0
    F = A.field
    return tuple(
        F.from_int(rng.randint(-spread, spread)) if j >= lo else F.zero
        for j in range(A.dim)
    )


def _rand_tensor(A, rng, n, in_m=True):
    return tuple(_rand_elem(A, rng, in_m) for _ in range(n))


def _eye(A, n):
    return [[A.one() if r == c else A.zero() for c in range(n)] for r in range(n)]


def _mat_mul(A, X, Y):
    rows, inner, cols = len(X), len(Y), len(Y[0]) if Y else 0
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = A.zero()
            for s in range(inner):
                acc = A.add(acc, A.mul(X[r][s], Y[s][c]))
            row.append(acc)
        out.append(row)
    return out


def _unit_upper(A, n, rng):
    U = _eye(A, n)
    for r in range(n):
        for c in range(r + 1, n):
            U[r][c] = _rand_elem(A, rng, in_m=False, spread=1)
    return U


def _inv_unit_upper(A, U):
    # (I + N)^-1 = I - N + N^2 - ... with N strictly upper, so nilpotent
    n = len(U)
    N = [[U[r][c] if r != c else A.zero() for c in range(n)] for r in range(n)]
    inv = _eye(A, n)
    power = [row[:] for row in N]
    sign = -1
    for _ in range(n - 1):
        for r in range(n):
            for c in range(n):
                term = power[r][c] if sign > 0 else A.neg(power[r][c])
                inv[r][c] = A.add(inv[r][c], term)
        power = _mat_mul(A, power, N)
        sign = -sign
    return inv


def _random_complex(A, rng):
    """Direct sum of two-term pieces and free slots, then a unit-triangular
    change of basis at every position.  d.d = 0 holds by construction and is
    re-verified by the constructor."""
    npos = 2 + rng.below(3)
    ranks = [0] * npos
    entries = {}
    for _ in range(1 + rng.below(3)):
        p = rng.below(npos - 1)
        if ranks[p] >= 4 or ranks[p + 1] >= 4:
            continue
        entries[(p, ranks[p + 1], ranks[p])] = _rand_elem(A, rng, in_m=True)
        ranks[p] += 1
        ranks[p + 1] += 1
    for i in range(npos):
        if ranks[i] < 4 and rng.below(2):
            ranks[i] += 1
        if ranks[i] == 0:
            ranks[i] = 1
    diffs = [
        [[entries.get((i, r, c), A.zero()) for c in range(ranks[i])] for r in range(ranks[i + 1])]
        for i in range(npos - 1)
    ]
    change = [_unit_upper(A, ranks[i], rng) for i in range(npos)]
    inverse = [_inv_unit_upper(A, U) for U in change]
    mats = [
        tuple(map(tuple, _mat_mul(A, _mat_mul(A, change[i + 1], diffs[i]), inverse[i])))
        for i in range(npos - 1)
    ]
    return FreeComplex(A, 0, npos - 1, tuple(ranks), mats)


def _pad_complex(E, rng):
    """Direct-sum E with shifted two-term complexes whose map is a unit."""
    A = E.ring
    npos = E.hi - E.lo + 1
    pads = []
    for _ in range(1 + rng.below(2)):
        p = rng.below(npos - 1)
        pads.append((p, A.add(A.one(), _rand_elem(A, rng, in_m=True, spread=1))))
    slots = [[] for _ in range(npos)]
    for idx, (p, _) in enumerate(pads):
        slots[p].append((idx, 0))
        slots[p + 1].append((idx, 1))
    ranks = [E.ranks[i] + len(slots[i]) for i in range(npos)]
    diffs = []
    for i in range(npos - 1):
        old = E.diff(E.lo + i)
        M = [[A.zero() for _ in range(ranks[i])] for _ in range(ranks[i + 1])]
        for r in range(E.ranks[i + 1]):
            for c in range(E.ranks[i]):
                M[r][c] = old[r][c]
        for idx, u in [(j, u) for j, (p, u) in enumerate(pads) if p == i]:
            col = E.ranks[i] + slots[i].index((idx, 0))
            row = E.ranks[i + 1] + slots[i + 1].index((idx, 1))
            M[row][col] = u
        diffs.append(tuple(map(tuple, M)))
    return FreeComplex(A, E.lo, E.hi, tuple(ranks), diffs)


def _timed(name, budget, body):
    t0 = perf_counter()
    ok, detail = body()
    elapsed = perf_counter() - t0
    tag = f"{elapsed:.1f}s/{budget}s"
    if elapsed >= budget:
        return name, False, f"{detail}; over budget ({tag})"
    return name, ok, f"{detail} [{tag}]"


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def check_resolution_independence(seed=0):
    """1: padding by shifted trivial complexes changes no jump ideal."""

    def body():
        rng = Rng(seed ^ 0xAC1)
        complexes = 0
        compared = 0
        for A in _corpus_rings():
            for _ in range(28):
                E = _random_complex(A, rng)
                Ep = _pad_complex(E, rng)
                complexes += 1
                for i in range(E.lo, E.hi + 1):
                    for k in range(1, 6):
                        if not jump_ideal(E, i, k).equals(jump_ideal(Ep, i, k)):
                            return False, f"ideal moved at dim(A)={A.dim}, i={i}, k={k}"
                        compared += 1
        return True, f"{complexes} complexes, {compared} ideal comparisons"

    return _timed("resolution-independence", 10, body)


def check_fiber_criterion(seed=0):
    """2: J^i_k is proper exactly when the residue fiber jumps to >= k."""

    def body():
        rng = Rng(seed ^ 0xAC2)
        checked = 0
        for A in _corpus_rings():
            for _ in range(28):
                E = _random_complex(A, rng)
                for i in range(E.lo, E.hi + 1):
                    h = fiber_cohomology_rank(E, i)
                    for k in range(1, 6):
                        proper = jump_ideal(E, i, k).contained_in_max_ideal()
                        if proper != (h >= k):
                            return False, f"mismatch at dim(A)={A.dim}, i={i}, k={k}, fiber={h}"
                        checked += 1
        return True, f"{checked} containment/fiber comparisons"

    return _timed("fiber-criterion", 10, body)


def check_base_change(seed=0):
    """3: quotient and residue maps commute with every jump ideal."""

    def body():
        rng = Rng(seed ^ 0xAC3)
        checked = 0
        for A in _corpus_rings():
            for _ in range(28):
                E = _random_complex(A, rng)
                quotient_maps = [A.quotient([_rand_elem(A, rng, in_m=True)])[1], A.residue_map()]
                for phi in quotient_maps:
                    Eb = base_change(E, phi)
                    for i in range(E.lo, E.hi + 1):
                        for k in range(1, 5):
                            pushed = phi.extend_ideal(jump_ideal(E, i, k))
                            if not pushed.equals(jump_ideal(Eb, i, k)):
                                return False, f"base change broke at dim(A)={A.dim}, i={i}, k={k}"
                            checked += 1
        return True, f"{checked} commuting squares"

    return _timed("base-change", 10, body)


def _solvable_pair():
    """[h,e] = e tensored with the contractible algebra 1 | a, b = d(a):
    six-dimensional and nonabelian, degrees 0|1, module = adjoint.
    Basis: degree 0 = (h.1, e.1, h.a, e.a), degree 1 = (h.b, e.b)."""
    F = QQ()
    one, zero = F.one, F.zero
    neg = F.neg(one)
    bracket = {
        (0, 0, 0, 1): (zero, one, zero, zero),
        (0, 1, 0, 0): (zero, neg, zero, zero),
        (0, 0, 0, 3): (zero, zero, zero, one),
        (0, 3, 0, 0): (zero, zero, zero, neg),
        (0, 2, 0, 1): (zero, zero, zero, one),
        (0, 1, 0, 2): (zero, zero, zero, neg),
        (0, 0, 1, 1): (zero, one),
        (1, 1, 0, 0): (zero, neg),
        (0, 1, 1, 0): (zero, neg),
        (1, 0, 0, 1): (zero, one),
    }
    g = GradedVectorSpace(0, 1, (4, 2))
    d = [((zero, zero, one, zero), (zero, zero, zero, one))]
    C = Dgla(F, g, d, bracket)
    return DglaPair(C, GradedVectorSpace(0, 1, (4, 2)), list(d), dict(bracket))


def check_gauge_calculus(seed=0):
    """4: the two transport power series hold exactly; gauge-equivalent flat
    elements produce identical twisted-complex jump ideals."""

    def body():
        A = _artin(["t"], ["t^4"])
        P = _solvable_pair()
        P.validate()
        rng = Rng(seed ^ 0xAC4)
        for trial in range(100):
            lam = _rand_tensor(A, rng, 4, in_m=True)
            omega = _rand_tensor(A, rng, 2, in_m=True)
            xi = _rand_tensor(A, rng, 4, in_m=False)
            lhs = module_transport(P, A, lam, action_tensor(P, A, 1, omega, 0, xi), 1)
            rhs = action_tensor(
                P, A, 1, bracket_exp(P, A, lam, 1, omega), 0, module_transport(P, A, lam, xi, 0)
            )
            if not tensor_eq(A, lhs, rhs):
                return False, f"action-transport identity failed at trial {trial}"
            dxi = apply_scalar_matrix(A, P.m_d_mat(0), xi)
            tr = module_transport(P, A, lam, xi, 0)
            rhs2 = tensor_add(
                A,
                apply_scalar_matrix(A, P.m_d_mat(0), tr),
                action_tensor(P, A, 1, gauge_correction(P, A, lam), 0, tr),
            )
            if not tensor_eq(A, module_transport(P, A, lam, dxi, 1), rhs2):
                return False, f"differential-transport identity failed at trial {trial}"
        pairs = 0
        for trial in range(20):
            lam = _rand_tensor(A, rng, 4, in_m=True)
            omega = _rand_tensor(A, rng, 2, in_m=True)
            moved = gauge_act(P, A, lam, omega)
            if not (maurer_cartan_check(P, A, omega) and maurer_cartan_check(P, A, moved)):
                return False, f"flatness lost under gauge at trial {trial}"
            E1 = aomoto_complex(P, A, omega)
            E2 = aomoto_complex(P, A, moved)
            for i in (0, 1):
                for k in (1, 2, 3):
                    if not jump_ideal(E1, i, k).equals(jump_ideal(E2, i, k)):
                        return False, f"jump ideal moved under gauge, i={i}, k={k}"
                    pairs += 1
        return True, f"100 triples through both identities, {pairs} gauge-invariant ideals"

    return _timed("gauge-calculus", 30, body)


def _pad_pair(P, rng):
    """P with an extra contractible two-term summand in the module, the
    algebra acting by zero on the new coordinates (appended last, so the
    existing sparse tables keep their meaning)."""
    F = P.field
    gvs = P.m_gvs
    npos = gvs.hi - gvs.lo + 1
    p = rng.below(npos - 1)
    dims = list(gvs.dims)
    dims[p] += 1
    dims[p + 1] += 1
    diffs = []
    for i in range(npos - 1):
        old = P.m_d_mat(gvs.lo + i)
        rows = dims[i + 1]
        cols = dims[i]
        M = [[F.zero for _ in range(cols)] for _ in range(rows)]
        for r in range(len(old)):
            for c in range(len(old[r]) if old else 0):
                M[r][c] = old[r][c]
        if i == p:
            M[rows - 1][cols - 1] = F.one
        diffs.append(tuple(map(tuple, M)))
    action = {}
    for key, vec in P.action.entries.items():
        i, _, j, _ = key
        need = dims[i + j - gvs.lo]
        if len(vec) < need:
            vec = tuple(vec) + (F.zero,) * (need - len(vec))
        action[key] = vec
    padded = DglaPair(P.lie, GradedVectorSpace(gvs.lo, gvs.hi, tuple(dims)), diffs, action)
    padded.validate()
    return padded


def check_acyclic_stability(seed=0):
    """5: adding a contractible module summand never changes a jump test."""

    def body():
        A = _artin(["t"], ["t^3"])
        rng = Rng(seed ^ 0xAC5)
        agreements = 0
        for P in (exterior_pair(2), _solvable_pair()):
            padded = _pad_pair(P, rng)
            n1 = P.lie.dim(1)
            gvs = P.m_gvs
            for _ in range(8):
                omega = _rand_tensor(A, rng, n1, in_m=True)
                if not maurer_cartan_check(P, A, omega):
                    continue
                for i in range(gvs.lo, gvs.hi + 1):
                    for k in range(1, 5):
                        if def_jump_test(P, A, omega, i, k) != def_jump_test(padded, A, omega, i, k):
                            return False, f"padding flipped the test at i={i}, k={k}"
                        agreements += 1
        return True, f"{agreements} agreeing jump tests"

    return _timed("acyclic-stability", 30, body)


def check_torus_oracle(seed=0):
    """6: rank-1 exterior pairs match their frozen resonance/vanishing data."""

    def body():
        P2 = exterior_pair(2)
        frozen = {(1, 1): ["x0^2", "x0*x1", "x1^2"], (1, 2): ["x0", "x1"], (0, 1): ["x0", "x1"]}
        for (i, k), gens in frozen.items():
            I = resonance_ideal(P2, i, k)
            ctx = I.ctx
            want = ctx.ideal([ctx.element_from_json(s) for s in gens])
            if not I.equals(want):
                return False, f"R^{i}_{k} deviates from frozen generators"
        if exactness_threshold(P2) != 2:
            return False, "threshold of the 2-generator pair is not 2"
        P3 = exterior_pair(3)
        if exactness_threshold(P3) != 3:
            return False, "threshold of the 3-generator pair is not 3"
        rng = Rng(seed ^ 0xAC6)
        F = P3.field
        points = 0
        while points < 20:
            eta = tuple(F.from_int(rng.randint(-5, 5)) for _ in range(3))
            if all(F.is_zero(c) for c in eta):
                continue
            points += 1
            for i in range(3):
                h = pointwise_resonance(P3, eta, i)
                if h != 0:
                    return False, f"nonzero twisted cohomology below the threshold at i={i}"
        return True, "3 frozen ideals, 2 thresholds, 20 sampled vanishing points"

    return _timed("torus-oracle", 20, body)


def check_rank_identities(seed=0):
    """7: every claim the report verifies holds on the model corpus."""

    def body():
        total = 0
        families = set()
        for label, P in _model_corpus():
            report = analyze(P)
            bad = [c["id"] for c in report["claims"] if not c["holds"]]
            if bad:
                return False, f"{label}: failing claims {bad[:4]}"
            total += len(report["claims"])
            families.update(c["id"].split(":")[0] for c in report["claims"])
        needed = {"9.1a", "9.1c", "9.1d", "9.1e", "9.1h", "9.1k"}
        missing = needed - families
        if missing:
            return False, f"claim families never exercised: {sorted(missing)}"
        return True, f"{total} claims across 4 pairs, families {len(families)}"

    return _timed("rank-identities", 120, body)


def check_two_path_agreement(seed=0):
    """8: contraction-table and specialized-matrix cohomology counts agree at
    sampled cone points."""

    def body():
        rng = Rng(seed ^ 0xAC8)
        checked = 0
        for label, P in _model_corpus():
            a = exactness_threshold(P)
            n = cohomology_lie(P.lie).dim(1)
            F = P.field
            points = 0
            while points < 10:
                eta = tuple(F.from_int(rng.randint(-4, 4)) for _ in range(n))
                if all(F.is_zero(c) for c in eta):
                    continue
                points += 1
                for i in range(a + 1):
                    left, right = tor_crosscheck(P, eta, i)
                    if left != right:
                        return False, f"{label}: paths disagree at i={i} ({left} vs {right})"
                    checked += 1
        return True, f"{checked} two-path comparisons at 40 cone points"

    return _timed("two-path-agreement", 30, body)


def _spoly(ctx, f, g):
    F = ctx.field
    key = ORDER_KEYS[ctx.order]
    cf = dict(f.terms)
    cg = dict(g.terms)
    mf = max(cf, key=key)
    mg = max(cg, key=key)
    lcm = mono_lcm(mf, mg)
    a = ctx.from_dict({mono_div(lcm, mf): F.inv(cf[mf])})
    b = ctx.from_dict({mono_div(lcm, mg): F.inv(cg[mg])})
    return ctx.sub(ctx.mul(a, f), ctx.mul(b, g))


def check_kernel_soundness(seed=0):
    """9: computed bases pass the S-polynomial post-condition; Krull
    dimension agrees with the independent-variable-set oracle."""

    def body():
        bases = []
        for _, P in _model_corpus():
            gvs = P.m_gvs
            for i in range(gvs.lo, gvs.hi):
                I = resonance_ideal(P, i, 1)
                basis = [f for f in I.groebner() if f.terms]
                if basis:
                    bases.append((I.ctx, basis))
        rng = Rng(seed ^ 0xAC9)
        ctx3 = RingContext(QQ(), ("x", "y", "z"))
        for _ in range(6):
            gens = []
            for _ in range(2 + rng.below(2)):
                terms = {}
                for _ in range(1 + rng.below(3)):
                    mono = tuple(rng.below(3) for _ in range(3))
                    terms[mono] = ctx3.field.from_int(rng.randint(-3, 3))
                g = ctx3.from_dict(terms)
                if g.terms:
                    gens.append(g)
            if gens:
                I = ctx3.ideal(gens)
                bases.append((ctx3, [f for f in I.groebner() if f.terms]))
        spairs = 0
        for ctx, basis in bases:
            for s in range(len(basis)):
                for t in range(s + 1, len(basis)):
                    rem = reduce_full(_spoly(ctx, basis[s], basis[t]), basis)
                    if rem.terms:
                        return False, f"S-polynomial survives reduction in a {ctx.nvars}-variable basis"
                    spairs += 1
        dims = 0
        for _ in range(20):
            nv = 3 + rng.below(2)
            ctx = RingContext(QQ(), tuple(f"x{j}" for j in range(nv)))
            gens = []
            for _ in range(1 + rng.below(4)):
                mono = tuple(rng.below(4) if rng.below(2) else 0 for _ in range(nv))
                if any(mono):
                    gens.append(ctx.from_dict({mono: ctx.field.one}))
            I = ctx.ideal(gens)
            if krull_dimension(I) != krull_dimension_by_enumeration(I):
                return False, f"Krull dimension disagrees on a {nv}-variable monomial ideal"
            dims += 1
        return True, f"{len(bases)} bases / {spairs} S-pairs reduced, {dims} dimension cross-checks"

    return _timed("kernel-soundness", 20, body)


_CRITERIA = (
    check_resolution_independence,
    check_fiber_criterion,
    check_base_change,
    check_gauge_calculus,
    check_acyclic_stability,
    check_torus_oracle,
    check_rank_identities,
    check_two_path_agreement,
    check_kernel_soundness,
)


def run_all(seed=0):
    """Run the nine criteria in order; returns [(name, ok, detail), ...]."""
    return [crit(seed) for crit in _CRITERIA]
