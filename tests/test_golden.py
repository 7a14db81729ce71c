"""Byte-for-byte regression of CLI stdout against frozen outputs.

Each case feeds a built-in model (or a literal JSON input) to one verb and
compares stdout with ``tests/golden/<name>.out``.  To refreeze after a
deliberate output change, run ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.

The F_p route is checked against the Q route on the same models: where the
reduced bases have integer coefficients, the basis over F_p is the Q basis
with its coefficients reduced mod p.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from cjl.cli import run
from cjl.field import GFp
from cjl.parse import parse_poly
from cjl.poly import RingContext

GOLDEN = pathlib.Path(__file__).parent / "golden"

MODELS = {
    "exterior-2": (["model", "exterior", "--n", "2"], ""),
    "exterior-3": (["model", "exterior", "--n", "3"], ""),
    "exterior-4": (["model", "exterior", "--n", "4"], ""),
    "surface-2": (["model", "surface", "--g", "2"], ""),
    "surface-3": (["model", "surface", "--g", "3"], ""),
    "3-line": (["model", "os", "--normals", "-"], '{"normals":[[1,0],[0,1],[1,1]]}'),
    "4-line": (["model", "os", "--normals", "-"], '{"normals":[[1,0],[0,1],[1,1],[1,-1]]}'),
    "glr": (["model", "glr", "--n", "2", "--r", "2"], ""),
}

# a pair with a nonzero differential: the Heisenberg pair plus an acyclic arm
# u -> v in degrees 0 -> 1, with u and v acting by zero, so the cone and the
# resonance ideals are computed on its cohomology pair
ACYCLIC_ARM = (
    '{"lie":{"degrees":[0,2],"dims":[1,3,1],"d":[[[0],[0],[1]],[[0,0,0]]],'
    '"bracket":[{"i":1,"a":0,"j":1,"b":1,"out":[1]}]},'
    '"module":{"degrees":[0,2],"dims":[1,1,1],"d":[[[0]],[[0]]],'
    '"action":[{"i":1,"a":0,"j":0,"b":0,"out":[1]},{"i":1,"a":1,"j":1,"b":0,"out":[1]},'
    '{"i":2,"a":0,"j":0,"b":0,"out":[1]}]}}'
)

# the braid arrangement A3 (the hyperplanes x_p = x_q in R^4), fed to `model os`
BRAID_A3 = ('{"normals":[[1,-1,0,0],[1,0,-1,0],[1,0,0,-1],[0,1,-1,0],[0,1,0,-1],'
            '[0,0,1,-1]]}')

LINE_COMPLEX = '{"ring":{"field":"Q","vars":["x0"]},"lo":0,"ranks":[1,1],"diffs":[[["x0"]]]}'

# (golden name, model or literal input fed on stdin, or None for LINE_COMPLEX, verb argv)
CASES = (
    [(f"analyze-{m}", m, ["analyze"])
     for m in ("exterior-2", "exterior-3", "exterior-4", "surface-2", "surface-3", "3-line")]
    + [(f"resonance-exterior-3-i{i}-k{k}", "exterior-3", ["resonance", "--i", str(i), "--k", str(k)])
       for i in (1, 2) for k in (1, 2)]
    + [("resonance-3-line-i1", "3-line", ["resonance", "--i", "1"]),
       ("resonance-exterior-4-i3-k2", "exterior-4", ["resonance", "--i", "3", "--k", "2"]),
       ("resonance-4-line-i1-k2", "4-line", ["resonance", "--i", "1", "--k", "2"]),
       ("resonance-surface-3-i1-k5", "surface-3", ["resonance", "--i", "1", "--k", "5"]),
       ("resonance-glr-i0", "glr", ["resonance", "--i", "0"]),
       ("resonance-glr-i2", "glr", ["resonance", "--i", "2"]),
       ("cone-glr", "glr", ["cone"]),
       ("cone-exterior-3", "exterior-3", ["cone"]),
       ("cone-acyclic-arm", "acyclic-arm", ["cone"]),
       ("resonance-acyclic-arm-i0", "acyclic-arm", ["resonance", "--i", "0", "--k", "1"]),
       ("resonance-acyclic-arm-i1", "acyclic-arm", ["resonance", "--i", "1", "--k", "1"]),
       ("readme-resonance", "exterior-2", ["resonance", "--i", "1", "--k", "1"]),
       ("readme-jump", None, ["jump", "--i", "0", "--k", "1"]),
       ("model-os-braid-a3", "braid-a3", ["model", "os", "--normals", "-"])]
)


def _stdout(argv, stdin_text):
    out = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    finally:
        sys.stdin = old
    assert code == 0, argv
    return out.getvalue()


def _outputs():
    pairs = {m: _stdout(*MODELS[m]) for m in MODELS}
    pairs["acyclic-arm"] = ACYCLIC_ARM
    pairs["braid-a3"] = BRAID_A3
    return {name: _stdout(argv, pairs[m] if m else LINE_COMPLEX) for name, m, argv in CASES}


@pytest.fixture(scope="module")
def outputs():
    return _outputs()


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_golden_stdout(outputs, name):
    assert outputs[name] == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


P = 32003
FP_CASES = ([(m, ["resonance", "--i", "1", "--k", str(k)])
             for m in ("exterior-3", "3-line") for k in (1, 2)]
            + [(m, ["cone"]) for m in ("exterior-3", "3-line", "glr")])


@pytest.mark.parametrize("model, argv", FP_CASES,
                         ids=[f"{m}-{'-'.join(a)}" for m, a in FP_CASES])
def test_fp_basis_is_q_basis_mod_p(model, argv):
    pair = json.loads(_stdout(*MODELS[model]))
    over_q = json.loads(_stdout(argv, json.dumps(pair)))["generators"]
    over_p = json.loads(_stdout(argv, json.dumps({**pair, "field": "Fp", "p": P})))["generators"]
    assert not any("/" in g for g in over_q)      # integer coefficients: reduction is valid
    assert not any("-" in g for g in over_p)      # printed over F_p, in [0, p)
    ctx = RingContext(GFp(P), [f"x{i}" for i in range(8)])
    assert [parse_poly(ctx, g).terms for g in over_p] == [parse_poly(ctx, g).terms for g in over_q]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in _outputs().items():
        (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
