"""The JSON readers: every document, valid or hostile, ends in an answer or
a structured error, and an input error names the path of the bad value."""

import contextlib
import io
import json
import os
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cjl.artin import MAX_ARTIN_DIM, artin_from_json
from cjl.cli import run
from cjl.dgla import MAX_DIM, pair_to_json
from cjl.models import cdga_to_pair, exterior, exterior_pair

CX_LINE = {
    "ring": {"field": "Q", "vars": ["x0"], "order": "degrevlex"},
    "lo": 0,
    "ranks": [1, 1],
    "diffs": [[["x0"]]],
}
ARR = {"normals": [[1, 0], [0, 1], [1, 1]]}
T3 = {"ring": {"field": "Q", "vars": ["t"], "order": "degrevlex", "quotient": ["t^3"]}}
T3_TABLE = artin_from_json(T3).to_json()
EXTERIOR_2 = pair_to_json(exterior_pair(2))
OMEGA = [["1", "0"], ["0", "1"]]  # on the maximal-ideal basis of Q[t]/(t^3)


def heisenberg():
    """The Chevalley-Eilenberg pair of the Heisenberg Lie algebra:
    Lambda(a, b, c) with dc = ab, tensored with gl_1, on both sides."""
    obj = pair_to_json(cdga_to_pair(exterior(3), 1))
    dc = [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]  # d(e3) = e1e2
    for side in ("lie", "module"):
        obj[side]["d"][1] = dc
    return obj


def run_cli(argv):
    """(exit code, parsed stderr object or None) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    text = err.getvalue()
    return code, json.loads(text) if text else None


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")

    def write(name, obj):
        p = d / name
        p.write_text(json.dumps(obj))
        return str(p)

    write.pair = write("exterior-2.json", EXTERIOR_2)
    write.artin = write("t3.json", T3)
    write.omega = write("omega.json", OMEGA)
    return write


def _argv(kind, f, files):
    return {
        "complex": ["jump", "--complex", f, "--i", "0"],
        "pair": ["cone", "--pair", f],
        "artin": ["mc", "--pair", files.pair, "--artin", f, "--omega", files.omega],
        "tensor": ["mc", "--pair", files.pair, "--artin", files.artin, "--omega", f],
        "normals": ["model", "os", "--normals", f],
    }[kind]


def _replace(obj, keys, value):
    if not keys:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[keys[0]] = _replace(obj[keys[0]], keys[1:], value)
    return out


# (verb kind, document, keys of the bad value, bad value, path of the error)
DEFECTS = [
    ("pair", EXTERIOR_2, ("module", "action", 0, "out", 0), "x",
     "--pair/module/action/0/out/0"),
    ("tensor", OMEGA, (0, 0), "1/0", "--omega/0/0"),
    ("pair", EXTERIOR_2, ("module", "action", 0, "a"), 0.9, "--pair/module/action/0/a"),
    ("pair", EXTERIOR_2, ("module", "action", 0, "a"), "1", "--pair/module/action/0/a"),
    ("pair", EXTERIOR_2, ("lie", "dims", 0), True, "--pair/lie/dims/0"),
    ("artin", T3_TABLE, ("mult", 1, 1, 2), 0.1, "--artin/mult/1/1/2"),
    ("artin", dict(T3_TABLE, field="Fp", p=5), ("mult", 1, 1, 2), 2.5, "--artin/mult/1/1/2"),
    ("complex", CX_LINE, ("ring", "order"), ["lex"], "--complex/ring/order"),
    ("normals", ARR, ("normals", 0, 0), float("inf"), "--normals/normals/0/0"),
    # a declared rank is capped before any matrix is read
    ("complex", CX_LINE, ("ranks", 0), MAX_DIM + 1, "--complex/ranks/0"),
]


@pytest.mark.parametrize("kind, doc, keys, bad, path", DEFECTS)
def test_bad_value_is_exit_2_at_its_path(files, kind, doc, keys, bad, path):
    assert run_cli(_argv(kind, files("valid.json", doc), files))[0] == 0
    code, err = run_cli(_argv(kind, files("bad.json", _replace(doc, keys, bad)), files))
    assert code == 2 and err["path"] == path


@pytest.mark.parametrize("doc, path", [
    ({"ring": dict(T3["ring"], quotient=[f"t^{MAX_ARTIN_DIM + 1}"])}, "--artin/ring/quotient"),
    ({"ring": dict(T3["ring"], quotient=["t^1000000"])}, "--artin/ring/quotient"),
    ({"field": "Q", "labels": ["1"] * (MAX_ARTIN_DIM + 1), "mult": []}, "--artin/labels"),
])
def test_artin_dimension_is_capped_before_it_is_built(files, doc, path):
    start = time.perf_counter()
    code, err = run_cli(_argv("artin", files("big.json", doc), files))
    assert code == 2 and err["path"] == path
    assert time.perf_counter() - start < 1.0


def test_artin_cap_bounds_the_product_of_the_pure_powers():
    # t^4 * s^8 = 32 is at the cap; the quotient has dimension 1 + 3 + 7
    doc = {"ring": dict(T3["ring"], vars=["t", "s"], quotient=["t^4", "s^8", "t*s"])}
    assert artin_from_json(doc).dim == 11


def _positions(obj, keys=()):
    """The keys of every value below the root of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for k, v in items:
        yield keys + (k,)
        yield from _positions(v, keys + (k,))


FUZZ_DOCS = [("complex", CX_LINE), ("pair", EXTERIOR_2), ("pair", heisenberg()),
             ("artin", T3), ("artin", T3_TABLE), ("tensor", OMEGA), ("normals", ARR)]
HOSTILE = [True, False, 0.5, float("nan"), None, {}, [], [[]], [[1, "1"]],
           10**30, "", "x", "1/0"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(FUZZ_DOCS).flatmap(
    lambda kd: st.tuples(st.just(kd), st.sampled_from(list(_positions(kd[1]))))),
    st.sampled_from(HOSTILE))
def test_hostile_value_ends_in_an_answer_or_a_located_error(files, drawn, bad):
    """One JSON value of a valid document, at a drawn position, replaced by
    a hostile one: the verb answers, or exits 2 with a path or an axiom
    witness, or exits 3; it never ends in a traceback."""
    (kind, doc), keys = drawn
    f = files("fuzz.json", _replace(doc, keys, bad))
    with mock.patch.dict(os.environ, {"CJL_STEP_BUDGET": "2000"}):
        code, err = run_cli(_argv(kind, f, files))
    assert code in (0, 2, 3), (keys, bad, err)
    if code == 2:
        assert err.get("path") or err.get("witness"), (keys, bad, err)
