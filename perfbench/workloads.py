"""The three workloads: fixed request lists built from the seed, with checks.

A request enters the program through a public entry point: a ``cjl`` verb
run in-process through ``cjl.cli.run`` (argv plus generated JSON), or, for
complexes over Artin rings, which no verb takes, ``complexes.jump_ideal``.
The seed picks every number in the inputs and the order of the requests; it
never changes which computations a pass makes, so passes made from different
seeds cost the same.

Each request carries a check that runs after the timed part of the pass.  A
check reads the outputs (``results`` maps request names to outputs) and
compares them with the benchmark's own computation in ``oracle`` or with a
property the method must have.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import oracle


class Request:
    def __init__(self, name, check, argv=None, stdin="", call=None, keep=None):
        self.name = name
        self.argv = argv            # cli request: argv for cjl.cli.run
        self.stdin = stdin
        self.call = call            # library request: (module, function name, args)
        self.check = check          # check(output, results) -> bool
        self.keep = keep            # what of the output to hold for the checks


class Inputs:
    """Files and pair texts of one pass; files go to a private directory."""

    def __init__(self, tmpdir):
        self.tmpdir = tmpdir
        self.count = 0

    def file(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.tmpdir, f"in{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


def _pair_text(P):
    from cjl.cli import canonical
    from cjl.dgla import pair_to_json
    return canonical(pair_to_json(P))


def _models(names):
    from cjl import models
    build = {
        "exterior-2": lambda: models.exterior_pair(2),
        "exterior-3": lambda: models.exterior_pair(3),
        "exterior-4": lambda: models.exterior_pair(4),
        "surface-2": lambda: models.surface_pair(2),
        "surface-3": lambda: models.surface_pair(3),
        "surface-4": lambda: models.surface_pair(4),
        "3-line": lambda: models.os_pair(models.Arrangement([[1, 0], [0, 1], [1, 1]])),
        "4-line": lambda: models.os_pair(models.Arrangement([[1, 0], [0, 1], [1, 1], [1, -1]])),
        "glr": lambda: models.cdga_to_pair(models.exterior(2), 2, 2),
    }
    out = {}
    for nm in names:
        text = _pair_text(build[nm]())
        out[nm] = (text, oracle.Pair(json.loads(text)))
    return out


def _cli_out(out):
    code, stdout, _ = out
    return json.loads(stdout) if code == 0 else None


# ---------------------------------------------------------------------------
# analyze-ladder
# ---------------------------------------------------------------------------

# Poincare polynomial and exactness threshold of each model.  Exterior-n:
# binomials, a = n (the Koszul complex is exact below the top).  Surfaces:
# (1, 2g, 1), a = 1 (generic H^1 has rank 2g-2 > 0).  3-line arrangement:
# (1+t)(1+2t), a = 2 (a supersolvable arrangement has a Koszul algebra, so
# the complex is exact below its top degree).
LADDER = {
    "exterior-2": ([1, 2, 1], 2),
    "exterior-3": ([1, 3, 3, 1], 3),
    "surface-2": ([1, 4, 1], 1),
    "surface-3": ([1, 6, 1], 1),
    "surface-4": ([1, 8, 1], 1),
    "3-line": ([1, 3, 2], 2),
}

CLAIM_FAMILIES = ["9.1a", "9.1b", "9.1c", "9.1d", "9.1e", "9.1g", "9.1h", "9.1j", "9.1k"]

# --claims requests: (model, number of prefixes); the prefixes are seeded.
# The arrangement gets none: its report costs as much filtered as whole.
# Surface-3 gets six, so that with the 4 cheaper and 4 dearer requests the
# median request is a surface-3 report in every pass.
CLAIM_REQUESTS = [("exterior-2", 2), ("surface-2", 2), ("surface-4", 1)] + [("surface-3", 2)] * 6


def _generic_ranks(P: oracle.Pair, rng) -> list:
    """beta_i: rank of the eta-action at generic points (max over three)."""
    pts = [[Fraction(rng.randint(-60, 60)) for _ in range(P.dim(1))] for _ in range(3)]
    return [max(oracle.rank(P.action_matrix(p, j)) for p in pts) for j in P.mdegrees()]


def analyze_ladder(seed, inputs):
    rng = random.Random(seed)
    pairs = _models(list(LADDER))
    reqs = []
    for nm, (b, a) in LADDER.items():
        text, P = pairs[nm]
        beta = [math.comb(len(b) - 2, i) for i in range(len(b))] if nm.startswith("exterior") \
            else _generic_ranks(P, rng)
        reqs.append(Request(f"analyze:{nm}", _check_report(b, a, beta),
                            argv=["analyze", "--seed", str(rng.randrange(1 << 30))], stdin=text))
    seen = set()
    for nm, count in CLAIM_REQUESTS:
        fams = sorted(rng.sample(CLAIM_FAMILIES, count))
        while (nm, tuple(fams)) in seen:
            fams = sorted(rng.sample(CLAIM_FAMILIES, count))
        seen.add((nm, tuple(fams)))
        reqs.append(Request(f"analyze:{nm}:claims={','.join(fams)}",
                            _check_filtered(f"analyze:{nm}", fams),
                            argv=["analyze", "--claims", ",".join(fams),
                                  "--seed", str(rng.randrange(1 << 30))],
                            stdin=pairs[nm][0]))
    rng.shuffle(reqs)
    return reqs


def _check_report(b, a, beta):
    def check(out, results):
        rep = _cli_out(out)
        if rep is None:
            return False
        chi = sum((-1) ** j * b[a - j] for j in range(a + 1) if 0 <= a - j < len(b))
        return (rep["b"] == b and rep["a"] == a and rep["beta"] == beta
                and rep["chi_a"] == chi
                and rep["claims"] and all(c["holds"] for c in rep["claims"]))
    return check


def _check_filtered(full_name, prefixes):
    def check(out, results):
        rep, full = _cli_out(out), _cli_out(results[full_name])
        if rep is None or full is None:
            return False
        want = dict(full)
        want["claims"] = [c for c in full["claims"] if c["id"].startswith(tuple(prefixes))]
        return rep == want and all(c["holds"] for c in rep["claims"])
    return check


# ---------------------------------------------------------------------------
# resonance-ideals
# ---------------------------------------------------------------------------

RESONANCE = [
    ("exterior-3", 1, 1), ("exterior-3", 1, 2), ("exterior-3", 2, 1), ("exterior-3", 2, 2),
    ("exterior-4", 0, 1), ("exterior-4", 1, 3), ("exterior-4", 3, 2),
    ("3-line", 1, 1), ("3-line", 1, 2), ("3-line", 2, 1),
    ("4-line", 1, 1), ("4-line", 1, 2), ("4-line", 2, 1),
    ("surface-3", 0, 1), ("surface-3", 1, 4), ("surface-3", 1, 5), ("surface-3", 2, 1),
    ("glr", 0, 1), ("glr", 2, 1),
]
CONES = ["exterior-3", "3-line", "surface-3", "glr"]
# jump requests on the universal complex of glr, over the quotient by its cone
GLR_JUMPS = [(0, 2), (2, 3)]


def _poly_text(d: dict, names) -> str:
    terms = []
    for mono, c in sorted(d.items(), reverse=True):
        body = "*".join(nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, mono) if e)
        mag = abs(c)
        lit = f"{mag.numerator}" if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        body = body if mag == 1 and body else (f"{lit}*{body}" if body else lit)
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return " ".join([head] + [f"{s} {t}" for s, t in terms[1:]])


def _universal_complex(P: oracle.Pair) -> dict:
    """The complex (M (x) S, zeta.) over S/(cone) in the jump verb's JSON form."""
    n = P.dim(1)
    names = [f"x{a}" for a in range(n)]
    ring = {"field": "Q", "vars": names, "order": "degrevlex",
            "quotient": [_poly_text(q, names) for q in P.cone_polys()]}
    diffs = []
    for j in list(P.mdegrees())[:-1]:
        rows = []
        for c in range(P.mdim(j + 1)):
            row = []
            for b in range(P.mdim(j)):
                lin = {}
                for a in range(n):
                    v = P.action.get((1, a, j, b))
                    if v is not None and v[c]:
                        e = [0] * n
                        e[a] = 1
                        lin[tuple(e)] = v[c]
                row.append(_poly_text(lin, names))
            rows.append(row)
        diffs.append(rows)
    return {"ring": ring, "lo": P.mlo, "ranks": list(P.mdims), "diffs": diffs}


def _cone_points(nm, P: oracle.Pair, rng) -> list:
    """Seeded points of the quadratic cone, some on known special loci."""
    n = P.dim(1)

    def R():
        return Fraction(rng.randint(-9, 9))

    pts = [[Fraction(0)] * n]
    if nm == "glr":
        # (X, Y) commuting: Y = pX + qI, nilpotent pairs, scalar X
        for _ in range(3):
            X = [R(), R(), R(), R()]
            p, q = R(), R()
            pts.append(X + [p * X[0] + q, p * X[1], p * X[2], p * X[3] + q])
        c = R() or Fraction(1)
        pts.append([Fraction(0), Fraction(1), Fraction(0), Fraction(0),
                    Fraction(0), c, Fraction(0), Fraction(0)])
        s = R()
        pts.append([s, Fraction(0), Fraction(0), s, R(), R(), R(), R()])
        return pts
    for _ in range(4):
        pts.append([R() for _ in range(n)])
    if nm in ("3-line", "4-line"):
        # the local component of the single rank-2 flat: sum of coordinates 0
        for _ in range(3):
            v = [R() for _ in range(n - 1)]
            pts.append(v + [-sum(v)])
    if nm.startswith("surface"):
        for _ in range(2):
            pts.append([R() if a == 0 else Fraction(0) for a in range(n)])
    return pts


def _check_ideal(nm, P: oracle.Pair, i, k, points, key="generators"):
    names = [f"x{a}" for a in range(P.dim(1))]

    def check(out, results):
        rep = _cli_out(out)
        if rep is None:
            return False
        gens = rep[key] if key == "generators" else rep["J"][key]
        if nm.startswith("exterior"):
            n = P.dim(1)
            r = max(math.comb(n, i) - k + 1, 0)
            want = oracle.monomials_of_degree(n, r)
            got = [oracle.parse_poly(g, names) for g in gens]
            return all(len(g) == 1 and list(g.values()) == [1] for g in got) \
                and {m for g in got for m in g} == want and len(got) == len(want)
        if i == P.mlo and k == 1 and P.mdim(i) == 1:
            return sorted(gens) == sorted(names)       # rank one: the maximal ideal
        if nm.startswith("surface") and i == 1 and k <= P.mdim(1) - 2:
            return gens == []
        polys = [oracle.parse_poly(g, names) for g in gens]
        for pt in points:
            vanish = all(oracle.evaluate(g, pt) == 0 for g in polys)
            if vanish != (P.twisted_dim(pt, i) >= k):
                return False
        return True
    return check


def _check_cone(P: oracle.Pair, points, rng):
    names = [f"x{a}" for a in range(P.dim(1))]
    off = [[Fraction(rng.randint(-9, 9)) for _ in names] for _ in range(4)]

    def check(out, results):
        rep = _cli_out(out)
        if rep is None:
            return False
        polys = [oracle.parse_poly(g, names) for g in rep["generators"]]
        if not P.cone_polys():
            return polys == []
        for pt in points + off:
            on_cone = not any(P.self_bracket(pt))
            if all(oracle.evaluate(g, pt) == 0 for g in polys) != on_cone:
                return False
        return True
    return check


def resonance_ideals(seed, inputs):
    rng = random.Random(seed)
    pairs = _models(["exterior-3", "exterior-4", "3-line", "4-line", "surface-3", "glr"])
    points = {nm: _cone_points(nm, P, rng) for nm, (_, P) in pairs.items()}
    reqs = []
    for nm, i, k in RESONANCE:
        text, P = pairs[nm]
        reqs.append(Request(f"resonance:{nm}:{i},{k}", _check_ideal(nm, P, i, k, points[nm]),
                            argv=["resonance", "--i", str(i), "--k", str(k)], stdin=text))
    for nm in CONES:
        text, P = pairs[nm]
        reqs.append(Request(f"cone:{nm}", _check_cone(P, points[nm], rng),
                            argv=["cone"], stdin=text))
    P = pairs["glr"][1]
    cx = json.dumps(_universal_complex(P))
    for i, k in GLR_JUMPS:
        reqs.append(Request(f"jump:glr:{i},{k}",
                            _check_ideal("glr", P, i, k, points["glr"], key=f"{i},{k}"),
                            argv=["jump", "--i", str(i), "--k", str(k)], stdin=cx))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# artin-deformation
# ---------------------------------------------------------------------------

RINGS = {
    "t3": (["t"], ["t^3"], [(3,)]),
    "t4": (["t"], ["t^4"], [(4,)]),
    "xy2": (["x", "y"], ["x^2", "x*y", "y^2"], [(2, 0), (1, 1), (0, 2)]),
    "t3s2": (["t", "s"], ["t^3", "s^2"], [(3, 0), (0, 2)]),
}
# (pair, I, K) for mc --jump with flat omega, on every ring
SMALL_JUMPS = [("exterior-2", 1, 1), ("exterior-2", 1, 2), ("exterior-3", 1, 2), ("exterior-3", 2, 3)]
# glr (each request validates the pair, ~0.6 s): per ring, the (I, K) of
# mc --jump on a flat omega, the levels also sent for its gauge transform,
# and whether the ring gets a gauge request and a non-flat mc request
GLR_PLAN = {
    "t3": ([(1, 6), (1, 7)], [(1, 7)], True, False),
    "t4": ([(0, 2)], [(0, 2)], False, False),
    "xy2": ([], [], False, False),
    "t3s2": ([(2, 3)], [], False, True),
}
# random complexes: positions 0..3; two-term pieces (position, unit?) and
# extra free slots per position; the padded copy adds unit pieces
PIECES = [(0, False), (1, False), (1, True), (2, False), (2, False), (0, False)]
FREE = [1, 0, 1, 1]
PADS = [(1, True), (2, True)]


def _coef(rng):
    """A nonzero integer from a range wide enough that sums of products of
    them rarely cancel: the seed changes values, not which entries vanish."""
    return Fraction(rng.randint(1, 40) * rng.choice((-1, 1)))


def _elem(R: oracle.Truncated, rng, unit=False):
    """A seeded element of m (or a unit) with every coordinate nonzero."""
    f = {m: _coef(rng) for m in R.basis[1:]}
    if unit:
        f[R.basis[0]] = _coef(rng)
    return f


def _rows(R, tensor):
    """Tensor JSON: coordinates on the maximal ideal's basis, as strings."""
    return [[str(x) for x in R.to_row(f, True)] for f in tensor]


def _flat_glr_omega(R, rng):
    """(e1 (x) aX, e2 (x) (bX + cI)) with a, b, c in m: [aX, bX + cI] = 0."""
    X = [_coef(rng) for _ in range(4)]
    a, b, c = _elem(R, rng), _elem(R, rng), _elem(R, rng)
    M1 = [{m: v * x for m, v in a.items()} for x in X]
    M2 = [R.add({m: v * x for m, v in b.items()}, c if idx in (0, 3) else {})
          for idx, x in enumerate(X)]
    return M1 + M2


def _artin_complex(A, R, rng, pieces, free):
    """Direct sum of two-term pieces A -a-> A and free slots, conjugated by
    unit upper triangular changes of basis; entries in A's coordinates."""
    npos = len(free)
    ranks = list(free)
    entries = {}
    for p, unit in pieces:
        entries[(p, ranks[p + 1], ranks[p])] = _elem(R, rng, unit)
        ranks[p] += 1
        ranks[p + 1] += 1
    D = [[[entries.get((p, r, c), {}) for c in range(ranks[p])] for r in range(ranks[p + 1])]
         for p in range(npos - 1)]
    G = []
    for p in range(npos):
        n = ranks[p]
        G.append([[R.one() if r == c else (_elem(R, rng, (r + c) % 2 == 1) if c > r else {})
                   for c in range(n)] for r in range(n)])
    mats, residues = [], []
    for p in range(npos - 1):
        M = _matmul(R, _matmul(R, G[p + 1], D[p]), _unit_upper_inverse(R, G[p]))
        mats.append(tuple(tuple(tuple(R.to_row(e, False)) for e in row) for row in M))
        residues.append([[R.residue(e) for e in row] for row in M])
    from cjl.complexes import FreeComplex
    E = FreeComplex(A, 0, npos - 1, ranks, mats)
    return E, ranks, residues


def _matmul(R, X, Y):
    inner = len(Y)
    cols = len(Y[0]) if Y else 0
    out = []
    for row in X:
        acc = [dict() for _ in range(cols)]
        for s in range(inner):
            if not row[s]:
                continue
            for c in range(cols):
                if Y[s][c]:
                    acc[c] = R.add(acc[c], R.mul(row[s], Y[s][c]))
        out.append(acc)
    return out


def _unit_upper_inverse(R, U):
    """(I + N)^-1 = I - N + N^2 - ... for N strictly upper triangular."""
    n = len(U)
    N = [[U[r][c] if c > r else {} for c in range(n)] for r in range(n)]
    inv = [[R.one() if r == c else {} for c in range(n)] for r in range(n)]
    power = N
    sign = -1
    for _ in range(n - 1):
        inv = [[R.add(inv[r][c], power[r][c], sign) for c in range(n)] for r in range(n)]
        power = _matmul(R, power, N)
        sign = -sign
    return inv


def _fiber_dims(ranks, residues):
    def rk(p):
        return oracle.rank(residues[p]) if 0 <= p < len(residues) else 0
    return [ranks[i] - rk(i) - rk(i - 1) for i in range(len(ranks))]


def _check_mc(expect_flat, defect=None, R=None, jump=None):
    def check(out, results):
        rep = _cli_out(out)
        if rep is None or rep["mc"] is not expect_flat:
            return False
        if defect is not None and rep["defect"] != _rows(R, defect):
            return False
        if jump is not None and rep["jump_vanishes"] is not jump(results):
            return False
        return True
    return check


def artin_deformation(seed, inputs):
    from cjl import complexes
    from cjl.artin import artin_from_json

    rng = random.Random(seed)
    pairs = _models(["exterior-2", "exterior-3", "glr"])
    reqs = []
    for rname, (names, quot, killers) in RINGS.items():
        R = oracle.Truncated(names, killers)
        ring_obj = {"ring": {"field": "Q", "vars": names, "order": "degrevlex", "quotient": quot}}
        A = artin_from_json(ring_obj)
        if A.dim != R.dim:
            raise RuntimeError(f"ring {rname}: the program's basis has another size")
        artin = inputs.file(ring_obj)

        # mc --jump with flat omega on the abelian pairs; minors recomputed
        for pname, i, k in SMALL_JUMPS:
            text, P = pairs[pname]
            omega = [_elem(R, rng) for _ in range(P.dim(1))]
            want = oracle.jump_vanishes(P, R, omega, i, k)
            reqs.append(Request(
                f"mc-jump:{pname}:{rname}:{i},{k}",
                _check_mc(True, jump=lambda results, w=want: w),
                argv=["mc", "--artin", artin, "--omega", inputs.file(_rows(R, omega)),
                      "--jump", str(i), str(k)], stdin=text))

        text, P = pairs["glr"]
        levels, gauged_levels, with_gauge, with_defect = GLR_PLAN[rname]
        if with_defect:
            # mc on a seeded omega: the defect is recomputed
            omega = [_elem(R, rng) for _ in range(P.dim(1))]
            defect = oracle.mc_defect(P, R, omega)
            if not any(defect):
                raise RuntimeError("the seeded non-flat omega is flat")
            reqs.append(Request(
                f"mc-defect:glr:{rname}", _check_mc(False, defect, R),
                argv=["mc", "--artin", artin, "--omega", inputs.file(_rows(R, omega))],
                stdin=text))
        lam = [_elem(R, rng) for _ in range(P.dim(0))]
        omega = _flat_glr_omega(R, rng)
        if any(oracle.mc_defect(P, R, omega)):
            raise RuntimeError("the seeded glr omega is not flat")
        moved = oracle.gauge(P, R, lam, omega)
        om_file, moved_file = inputs.file(_rows(R, omega)), inputs.file(_rows(R, moved))
        if with_gauge:
            reqs.append(Request(
                f"gauge:glr:{rname}",
                lambda out, results, m=_rows(R, moved): (_cli_out(out) or {}).get("omega") == m,
                argv=["gauge", "--artin", artin, "--lambda", inputs.file(_rows(R, lam)),
                      "--omega", om_file], stdin=text))
        # twisted jumps on glr: gauge invariance and monotonicity in K
        for tag, f, lvls in (("omega", om_file, levels), ("gauged", moved_file, gauged_levels)):
            for i, k in lvls:
                reqs.append(Request(
                    f"mc-jump:glr:{rname}:{i},{k}:{tag}",
                    _check_glr_jump(rname, i, k, levels, gauged_levels),
                    argv=["mc", "--artin", artin, "--omega", f, "--jump", str(i), str(k)],
                    stdin=text))

        # random complexes beside padded copies, every degree and level
        state = rng.getstate()
        E, ranks, res = _artin_complex(A, R, rng, PIECES, FREE)
        rng.setstate(state)  # the padded copy starts from the same summands
        Ep, _, _ = _artin_complex(A, R, rng, PIECES + PADS, FREE)
        fiber = _fiber_dims(ranks, res)
        for i in range(len(ranks)):
            for k in range(1, ranks[i] + 2):
                for tag, cx in (("E", E), ("padded", Ep)):
                    reqs.append(Request(f"jump_ideal:{rname}:{tag}:{i},{k}",
                                        _check_artin_jump(rname, i, k, fiber[i]),
                                        call=(complexes, "jump_ideal", (cx, i, k)),
                                        keep=_ideal_basis))
    rng.shuffle(reqs)
    return reqs


def _check_glr_jump(rname, i, k, levels, gauged_levels):
    def verdict(results, kk, tag):
        rep = _cli_out(results[f"mc-jump:glr:{rname}:{i},{kk}:{tag}"])
        return None if rep is None or rep["mc"] is not True else rep["jump_vanishes"]

    def check(out, results):
        mine = verdict(results, k, "omega")
        if mine is None:
            return False
        if (i, k) in gauged_levels and verdict(results, k, "gauged") != mine:
            return False  # gauge-equivalent flat elements have the same jump ideals
        if (i, k + 1) in levels and verdict(results, k + 1, "omega") and not mine:
            return False  # J_{k+1} contains J_k: vanishing at k+1 forces it at k
        return True
    return check


def _ideal_basis(ideal):
    """The canonical echelon basis of an Artin ideal (its generators, often
    thousands of minors, are let go)."""
    return ideal.basis


def _check_artin_jump(rname, i, k, fiber_dim):
    def check(basis, results):
        proper = all(v[0] == 0 for v in basis)
        return proper == (fiber_dim >= k) and basis == results[f"jump_ideal:{rname}:padded:{i},{k}"]
    return check


WORKLOADS = {
    "analyze-ladder": analyze_ladder,
    "resonance-ideals": resonance_ideals,
    "artin-deformation": artin_deformation,
}
