"""Command-line front end.

Every verb reads JSON (from files or stdin via ``-``), writes one canonical
JSON object to stdout, and is deterministic: rerunning a command on the same
inputs produces byte-identical output, so results can be diffed.  Generator
lists are printed as reduced Groebner bases (descending leading monomial),
which makes them canonical too.

Exit codes: 0 on success, 2 for bad input (malformed JSON, schema or axiom
violations -- the error object on stderr carries a location path or a
witness), 3 when a step budget was exhausted, 4 when an internal invariant
failed (a bug in the package, reported as a JSON error object).
"""

import argparse
import functools
import json
import math
import sys

from .artin import artin_from_json
from .complexes import FreeComplex, jump_ideal
from .dgla import MAX_DIM, pair_from_json, pair_to_json
from .errors import AxiomError, InternalCheckError, ResourceLimitError, ValidationError
from .field import located, read_int, read_nested
from .geometry import analyze
from .mc import (
    def_jump_test,
    gauge_act,
    mc_defect,
    tensor_from_json,
    tensor_is_zero,
    tensor_to_json,
)
from .models import (
    MAX_GENERATORS,
    MAX_PAIR_DIM,
    Arrangement,
    cdga_to_pair,
    exterior,
    orlik_solomon,
    surface_pair,
)
from .poly import RingContext, format_poly
from .resonance import quadratic_cone_ideal, resonance_ideal


def canonical(obj) -> str:
    """Serialize with sorted keys and no whitespace: the byte-stable form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj):
    sys.stdout.write(canonical(obj) + "\n")


def _fail(obj):
    sys.stderr.write(canonical(obj) + "\n")


def _read_json(source: str, flag: str):
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {flag}: {exc}", path=flag)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{flag} is not valid JSON: {exc.msg}",
            path=f"{flag}:{exc.lineno}:{exc.colno}",
        )


def complex_from_json(obj, path: str = "/complex") -> FreeComplex:
    """Build a finite free complex from its JSON form.

    Schema: ``{"ring": ..., "lo": int, "ranks": [int], "diffs": [[[poly]]]}``
    where ``diffs[p]`` is the matrix out of position ``p`` laid out as
    rows-over-target (``ranks[p+1]`` rows of ``ranks[p]`` entries).
    """
    if not isinstance(obj, dict):
        raise ValidationError("complex must be a JSON object", path=path)
    ring = RingContext.from_json(obj.get("ring"), path=f"{path}/ring")
    lo = read_int(obj.get("lo"), path, "lo")
    ranks = read_nested(obj.get("ranks"), 1, read_int, path, "ranks")
    for p, r in enumerate(ranks):
        if r > MAX_DIM:
            raise ValidationError(f"rank {r} above bound {MAX_DIM}", path=f"{path}/ranks/{p}")
    diffs = read_nested(obj.get("diffs"), 3, ring.element_from_json, path, "diffs")
    with located(path):
        return FreeComplex(ring, lo, lo + len(ranks) - 1, ranks, diffs)


def _ideal_strings(ideal):
    return [format_poly(g) for g in reversed(ideal.groebner())]


def _load_pair(args):
    return pair_from_json(_read_json(args.pair, "--pair"), path="--pair")


def _load_artin(args, P):
    if args.artin is not None:
        return artin_from_json(_read_json(args.artin, "--artin"), path="--artin")
    # Default coefficients: dual numbers over the pair's own field, the
    # smallest ring that sees first-order behaviour.
    char = P.field.char
    ring = {"field": "Q", "vars": ["t"], "order": "degrevlex", "quotient": ["t^2"]}
    if char:
        ring = {"field": "Fp", "p": char, "vars": ["t"], "order": "degrevlex", "quotient": ["t^2"]}
    return artin_from_json({"ring": ring}, path="--artin")


def _load_tensor(source, flag, A, n):
    obj = _read_json(source, flag)
    return tensor_from_json(A, n, obj, flag)


def _cmd_jump(args):
    E = complex_from_json(_read_json(args.complex, "--complex"), path="--complex")
    J = jump_ideal(E, args.i, args.k)
    return {"J": {f"{args.i},{args.k}": _ideal_strings(J)}}


def _cmd_resonance(args):
    P = _load_pair(args)
    return {"generators": _ideal_strings(resonance_ideal(P, args.i, args.k))}


def _cmd_cone(args):
    P = _load_pair(args)
    _, cone = quadratic_cone_ideal(P.lie)
    return {"generators": _ideal_strings(cone)}


def _cmd_mc(args):
    P = _load_pair(args)
    A = _load_artin(args, P)
    omega = _load_tensor(args.omega, "--omega", A, P.lie.dim(1))
    if args.jump is not None:  # the twisted complex refuses a non-flat omega
        i, k = args.jump
        return {"mc": True, "jump_vanishes": def_jump_test(P, A, omega, i, k)}
    defect = mc_defect(P, A, omega)
    if tensor_is_zero(A, defect):
        return {"mc": True}
    return {"mc": False, "defect": tensor_to_json(A, defect)}


def _cmd_gauge(args):
    P = _load_pair(args)
    A = _load_artin(args, P)
    lam = _load_tensor(args.lam, "--lambda", A, P.lie.dim(0))
    omega = _load_tensor(args.omega, "--omega", A, P.lie.dim(1))
    moved = gauge_act(P, A, lam, omega)
    return {"omega": tensor_to_json(A, moved)}


def _cmd_analyze(args):
    claims = None if args.claims is None else args.claims.split(",")
    if claims is not None and "" in claims:  # it would match every claim id
        raise ValidationError("--claims has an empty prefix", path="--claims")
    return analyze(_load_pair(args), claims=claims)


def _in_range(flag: str, value: int, cap: int):
    if not 1 <= value <= cap:
        raise ValidationError(f"{flag} must be between 1 and {cap}, got {value}", path=flag)


def _cmd_model(args):
    # every size is checked against models.MAX_PAIR_DIM before the pair is built
    if args.kind == "surface":
        _in_range("--g", args.g, (MAX_PAIR_DIM - 2) // 2)  # dim H(surface) = 2g + 2
        return pair_to_json(surface_pair(args.g))
    if args.kind == "os":
        arr = Arrangement.from_json(_read_json(args.normals, "--normals"), path="--normals")
        with located("--normals"):
            A = orlik_solomon(arr)
        dim_a = sum(A.gvs.dims)
    else:
        _in_range("--n", args.n, MAX_GENERATORS)
        A, dim_a = None, 2**args.n
    r = args.r
    s = r if getattr(args, "s", None) is None else args.s
    _in_range("--r", r, math.isqrt(MAX_PAIR_DIM // dim_a))  # Lie side: dim_a * r * r
    _in_range("--s", s, MAX_PAIR_DIM // (dim_a * r))  # module side: dim_a * r * s
    if A is None:
        A = exterior(args.n)
    return pair_to_json(cdga_to_pair(A, r, s))


def _cmd_selftest(args):
    from .acceptance import run_all

    results = run_all(seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it
    (``parse_args`` keeps no state between calls)."""
    ap = argparse.ArgumentParser(
        prog="cjl",
        description="cohomology jump loci: jump ideals, resonance varieties, deformation tests",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("jump", help="jump ideal of a finite free complex")
    p.add_argument("--complex", default="-", help="complex JSON file, or - for stdin")
    p.add_argument("--i", type=int, required=True, help="cohomological position")
    p.add_argument("--k", type=int, default=1, help="jump depth (default 1)")

    p = sub.add_parser("resonance", help="resonance ideal of a dgla pair")
    p.add_argument("--pair", default="-")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("cone", help="quadratic-cone ideal of a dgla pair")
    p.add_argument("--pair", default="-")

    p = sub.add_parser("mc", help="Maurer-Cartan test over an Artin coefficient ring")
    p.add_argument("--pair", default="-")
    p.add_argument("--artin", default=None, help="Artin ring JSON (default: dual numbers)")
    p.add_argument("--omega", required=True, help="degree-1 tensor JSON")
    p.add_argument("--jump", nargs=2, type=int, metavar=("I", "K"), default=None,
                   help="also test whether the (I,K) jump ideal of the twisted complex vanishes")

    p = sub.add_parser("gauge", help="gauge action of a degree-0 parameter on a tensor")
    p.add_argument("--pair", default="-")
    p.add_argument("--artin", default=None)
    p.add_argument("--lambda", dest="lam", required=True, help="degree-0 tensor JSON")
    p.add_argument("--omega", required=True)

    p = sub.add_parser("analyze", help="full numeric/ideal-theoretic report for a pair")
    p.add_argument("--pair", default="-")
    p.add_argument("--claims", default=None,
                   help="comma-separated claim-id prefixes to keep, none empty")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; the report does not depend on it")

    p = sub.add_parser("model", help="emit a built-in dgla pair as JSON")
    kinds = p.add_subparsers(dest="kind", required=True)
    q = kinds.add_parser("exterior", help="exterior algebra on n generators")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", type=int, default=1)
    q = kinds.add_parser("os", help="Orlik-Solomon algebra of a central arrangement")
    q.add_argument("--normals", default="-", help='{"normals": [[...], ...]} JSON')
    q.add_argument("--r", type=int, default=1)
    q = kinds.add_parser("surface", help="genus-g surface cohomology")
    q.add_argument("--g", type=int, required=True)
    q = kinds.add_parser("glr", help="exterior algebra with matrix coefficients")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--s", type=int, default=None)

    p = sub.add_parser("selftest", help="run the acceptance battery, one line per criterion")
    p.add_argument("--seed", type=int, default=0)

    return ap


_DISPATCH = {
    "jump": _cmd_jump,
    "resonance": _cmd_resonance,
    "cone": _cmd_cone,
    "mc": _cmd_mc,
    "gauge": _cmd_gauge,
    "analyze": _cmd_analyze,
    "model": _cmd_model,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        out = _DISPATCH[args.verb](args)
    except ResourceLimitError as exc:
        _fail({"error": str(exc), "budget": exc.budget})
        return 3
    except AxiomError as exc:
        _fail({"error": str(exc), "witness": exc.witness})
        return 2
    except ValidationError as exc:
        _fail({"error": str(exc), "path": exc.path})
        return 2
    except InternalCheckError as exc:
        _fail({"error": str(exc)})
        return 4
    if isinstance(out, int):
        return out
    _emit(out)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
