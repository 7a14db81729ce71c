"""Exact arithmetic of the benchmark's own, used to check the program's outputs.

Nothing here imports ``cjl``.  Every check reads the program's inputs (pair
JSON, tensors, complexes) and outputs (polynomial strings, coordinate rows)
and recomputes what it needs with plain ``Fraction`` linear algebra and
truncated-polynomial arithmetic written from the definitions.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction


# ---------------------------------------------------------------------------
# linear algebra over Q
# ---------------------------------------------------------------------------

def rank(rows) -> int:
    """Rank of a matrix of Fractions (or ints) by Gaussian elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


# ---------------------------------------------------------------------------
# pairs with zero differentials, read from their JSON form
# ---------------------------------------------------------------------------

class Pair:
    """Structure constants of a pair JSON (bracket and action tables)."""

    def __init__(self, obj: dict):
        if obj.get("field", "Q") != "Q":
            raise ValueError("the benchmark's checks work over Q")
        lie, mod = obj["lie"], obj["module"]
        for part in (lie, mod):
            for mat in part.get("d", []):
                if any(Fraction(x) for row in mat for x in row):
                    raise ValueError("the checks need zero differentials")
        self.lo = lie["degrees"][0]
        self.dims = list(lie["dims"])
        self.mlo = mod["degrees"][0]
        self.mdims = list(mod["dims"])
        self.bracket = {(e["i"], e["a"], e["j"], e["b"]): [Fraction(x) for x in e["out"]]
                        for e in lie.get("bracket", [])}
        self.action = {(e["i"], e["a"], e["j"], e["b"]): [Fraction(x) for x in e["out"]]
                       for e in mod.get("action", [])}

    def dim(self, i: int) -> int:
        return self.dims[i - self.lo] if 0 <= i - self.lo < len(self.dims) else 0

    def mdim(self, i: int) -> int:
        return self.mdims[i - self.mlo] if 0 <= i - self.mlo < len(self.mdims) else 0

    def mdegrees(self):
        return range(self.mlo, self.mlo + len(self.mdims))

    def bracket_vec(self, i, a, j, b):
        v = self.bracket.get((i, a, j, b))
        if v is not None:
            return v
        w = self.bracket.get((j, b, i, a))
        if w is not None:
            # graded skew symmetry: [x,y] = -(-1)^{ij} [y,x]
            s = -1 if (i * j) % 2 == 0 else 1
            return [s * x for x in w]
        return None

    def action_matrix(self, eta, j: int):
        """Matrix of the action of the degree-1 element ``eta``: M^j -> M^{j+1}."""
        rows, cols = self.mdim(j + 1), self.mdim(j)
        out = [[Fraction(0)] * cols for _ in range(rows)]
        for a, x in enumerate(eta):
            if not x:
                continue
            for b in range(cols):
                v = self.action.get((1, a, j, b))
                if v is None:
                    continue
                for c, t in enumerate(v):
                    if t:
                        out[c][b] += x * t
        return out

    def twisted_dim(self, eta, i: int) -> int:
        """dim H^i(M, eta) for a point eta of the cone."""
        return (self.mdim(i) - rank(self.action_matrix(eta, i))
                - rank(self.action_matrix(eta, i - 1)))

    def self_bracket(self, eta):
        """[eta, eta] in degree 2."""
        out = [Fraction(0)] * self.dim(2)
        for a, x in enumerate(eta):
            if not x:
                continue
            for b, y in enumerate(eta):
                if not y:
                    continue
                v = self.bracket_vec(1, a, 1, b)
                if v is None:
                    continue
                for c, t in enumerate(v):
                    out[c] += x * y * t
        return out

    def cone_polys(self):
        """Coordinates of [zeta, zeta] for the tautological zeta = sum x_a e_a,
        as dicts monomial -> coefficient (empty ones dropped)."""
        n = self.dim(1)
        out = []
        for c in range(self.dim(2)):
            d = {}
            for a in range(n):
                for b in range(n):
                    v = self.bracket_vec(1, a, 1, b)
                    if v is None or not v[c]:
                        continue
                    e = [0] * n
                    e[a] += 1
                    e[b] += 1
                    e = tuple(e)
                    d[e] = d.get(e, 0) + v[c]
            d = {m: x for m, x in d.items() if x}
            if d:
                out.append(d)
        return out


# ---------------------------------------------------------------------------
# polynomial strings (the program's text form) and evaluation
# ---------------------------------------------------------------------------

_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_poly(text: str, names) -> dict:
    """``3/2*x0^2*x1 - x2 + 1`` -> {exponent tuple: Fraction}."""
    index = {nm: i for i, nm in enumerate(names)}
    out = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        sign = -1 if m.group(1) == "-" else 1
        coef = Fraction(sign)
        e = [0] * len(names)
        for factor in m.group(2).strip().split("*"):
            if factor[0].isdigit():
                coef *= Fraction(factor)
            else:
                nm, _, p = factor.partition("^")
                e[index[nm]] += int(p) if p else 1
        e = tuple(e)
        out[e] = out.get(e, 0) + coef
        pos = m.end()
    return {k: v for k, v in out.items() if v}


def evaluate(poly: dict, point) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.items():
        v = c
        for e, x in zip(mono, point):
            if e:
                v *= x ** e
        total += v
    return total


def monomials_of_degree(n: int, r: int):
    return {tuple(sum(1 for x in combo if x == i) for i in range(n))
            for combo in itertools.combinations_with_replacement(range(n), r)}


# ---------------------------------------------------------------------------
# Artin rings k[vars]/(monomials), as truncated polynomials
# ---------------------------------------------------------------------------

class Truncated:
    """k[vars] modulo an ideal generated by monomials (finite-dimensional).

    Elements are dicts exponent tuple -> Fraction over the standard
    monomials.  ``basis`` lists the standard monomials by degree, and within
    a degree from the largest in degree-reverse-lexicographic order, which
    is the coordinate order of the program's tensor rows.
    """

    def __init__(self, names, killers):
        self.names = tuple(names)
        self.n = len(self.names)
        self.killers = [tuple(k) for k in killers]
        top = []
        for i in range(self.n):
            pure = [k[i] for k in self.killers if k[i] and sum(k) == k[i]]
            if not pure:
                raise ValueError("every variable needs a pure power among the killers")
            top.append(min(pure))
        std = [m for m in itertools.product(*(range(t) for t in top)) if not self.dead(m)]
        std.sort(key=lambda m: (sum(m), tuple(reversed(m))))
        self.basis = std
        self.index = {m: i for i, m in enumerate(std)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def dead(self, m) -> bool:
        return any(all(x >= y for x, y in zip(m, k)) for k in self.killers)

    def mul(self, f: dict, g: dict) -> dict:
        out = {}
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                if self.dead(m):
                    continue
                out[m] = out.get(m, 0) + c1 * c2
        return {m: c for m, c in out.items() if c}

    @staticmethod
    def add(f: dict, g: dict, scale=1) -> dict:
        out = dict(f)
        for m, c in g.items():
            out[m] = out.get(m, 0) + scale * c
        return {m: c for m, c in out.items() if c}

    def to_row(self, f: dict, in_m: bool):
        v = [Fraction(0)] * self.dim
        for m, c in f.items():
            v[self.index[m]] = c
        return v[1:] if in_m else v

    def one(self) -> dict:
        return {(0,) * self.n: Fraction(1)}

    def residue(self, f: dict) -> Fraction:
        return f.get((0,) * self.n, Fraction(0))


def tensor_bracket(P: Pair, R: Truncated, i, u, j, v):
    """[x (x) a, y (x) b] = [x,y] (x) ab on coefficient tensors."""
    out = [dict() for _ in range(P.dim(i + j))]
    for a, xa in enumerate(u):
        if not xa:
            continue
        for b, yb in enumerate(v):
            if not yb:
                continue
            vec = P.bracket_vec(i, a, j, b)
            if vec is None:
                continue
            prod = R.mul(xa, yb)
            for c, t in enumerate(vec):
                if t:
                    out[c] = R.add(out[c], prod, t)
    return out


def mc_defect(P: Pair, R: Truncated, omega):
    """d(omega) + 1/2 [omega, omega] for a pair with zero differential."""
    sq = tensor_bracket(P, R, 1, omega, 1, omega)
    return [{m: c / 2 for m, c in x.items()} for x in sq]


def gauge(P: Pair, R: Truncated, lam, omega):
    """exp(ad lam)(omega) (the d(lam) correction vanishes with d = 0)."""
    acc = [dict(x) for x in omega]
    term = [dict(x) for x in omega]
    n = 0
    while any(term):
        n += 1
        term = tensor_bracket(P, R, 0, lam, 1, term)
        term = [{m: c / n for m, c in x.items()} for x in term]
        acc = [R.add(x, y) for x, y in zip(acc, term)]
    return acc


def twisted_complex(P: Pair, R: Truncated, omega):
    """Differentials of (M (x) A, omega.): d(j)[c][b] = sum_a action(1,a,j,b)[c] omega_a."""
    diffs = {}
    for j in P.mdegrees():
        rows, cols = P.mdim(j + 1), P.mdim(j)
        mat = [[dict() for _ in range(cols)] for _ in range(rows)]
        for a, w in enumerate(omega):
            if not w:
                continue
            for b in range(cols):
                vec = P.action.get((1, a, j, b))
                if vec is None:
                    continue
                for c, t in enumerate(vec):
                    if t:
                        mat[c][b] = R.add(mat[c][b], w, t)
        diffs[j] = mat
    return diffs


def _det(R: Truncated, mat, rows, cols, memo):
    if not rows:
        return R.one()
    key = (rows, cols)
    if key in memo:
        return memo[key]
    total = {}
    for pos, c in enumerate(cols):
        a = mat[rows[0]][c]
        if not a:
            continue
        sub = _det(R, mat, rows[1:], cols[:pos] + cols[pos + 1:], memo)
        total = R.add(total, R.mul(a, sub), 1 if pos % 2 == 0 else -1)
    memo[key] = total
    return total


def jump_vanishes(P: Pair, R: Truncated, omega, i: int, k: int) -> bool:
    """Whether every minor of size rank(i)-k+1 of d(i-1) (+) d(i) is zero in A."""
    diffs = twisted_complex(P, R, omega)
    r_prev, r_here, r_next = P.mdim(i - 1), P.mdim(i), P.mdim(i + 1)
    size = r_here - k + 1
    if size <= 0:
        return False
    nrows, ncols = r_here + r_next, r_prev + r_here
    if size > min(nrows, ncols):
        return True
    block = [[dict() for _ in range(ncols)] for _ in range(nrows)]
    for r in range(r_here):
        for c in range(r_prev):
            block[r][c] = diffs[i - 1][r][c] if (i - 1) in diffs else {}
    for r in range(r_next):
        for c in range(r_here):
            block[r_here + r][r_prev + c] = diffs[i][r][c] if i in diffs else {}
    memo = {}
    for rows in itertools.combinations(range(nrows), size):
        for cols in itertools.combinations(range(ncols), size):
            if _det(R, block, rows, cols, memo):
                return False
    return True
