"""The JSON readers: every document, valid or hostile, ends in an answer or
a structured error, and an input error names the path of the bad value."""

import contextlib
import io
import json
import os
import random
import time
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cjl.artin import MAX_ARTIN_DIM, artin_from_json
from cjl.cli import run
from cjl.dgla import MAX_DIM, _table_from_json, pair_to_json
from cjl.errors import ValidationError
from cjl.field import QQ, GFp, json_path, read_int, read_nested, read_scalar, read_scalars
from cjl.models import cdga_to_pair, exterior, exterior_pair
from test_golden import ACYCLIC_ARM, MODELS, _stdout

CX_LINE = {
    "ring": {"field": "Q", "vars": ["x0"], "order": "degrevlex"},
    "lo": 0,
    "ranks": [1, 1],
    "diffs": [[["x0"]]],
}
ARR = {"normals": [[1, 0], [0, 1], [1, 1]]}
T3 = {"ring": {"field": "Q", "vars": ["t"], "order": "degrevlex", "quotient": ["t^3"]}}
T3_TABLE = {"field": "Q", "dim": 3, "labels": ["1", "t", "t^2"],
            "mult": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
                     [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]]}
EXTERIOR_2 = pair_to_json(exterior_pair(2))
GL2 = pair_to_json(cdga_to_pair(exterior(1), 2))  # gl_2 brackets in degree 0
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
    # errors a constructor finds carry the path of their own entry
    ("pair", GL2, ("lie", "bracket", 2, "b"), 9, "--pair/lie/bracket/2"),
    ("pair", GL2, ("lie", "bracket", 1, "out"), ["1"], "--pair/lie/bracket/1"),
    ("pair", EXTERIOR_2, ("module", "action", 1, "i"), 5, "--pair/module/action/1"),
    ("pair", EXTERIOR_2, ("module", "action", 1, "out"), [], "--pair/module/action/1"),
    ("pair", EXTERIOR_2, ("lie", "d", 1), [["0"]], "--pair/lie/d/1"),
    ("pair", EXTERIOR_2, ("module", "d", 0), [["0"]], "--pair/module/d/0"),
    ("pair", EXTERIOR_2, ("lie", "d"), [], "--pair/lie/d"),
    ("complex", CX_LINE, ("diffs", 0), [["x0", "x0"]], "--complex/diffs/0"),
    ("complex", CX_LINE, ("diffs",), [], "--complex/diffs"),
    ("complex", CX_LINE, ("ring", "order"), "revlex", "--complex/ring/order"),
    ("complex", CX_LINE, ("ring", "vars", 0), "0x", "--complex/ring/vars/0"),
    # the one-pass table reader falls back to the path readers on these
    ("pair", EXTERIOR_2, ("module", "action", 0, "i"), True, "--pair/module/action/0/i"),
    ("pair", EXTERIOR_2, ("module", "action", 0), {"i": 0, "a": 0, "j": 0, "b": 0},
     "--pair/module/action/0/out"),
    ("pair", EXTERIOR_2, ("module", "action", 0, "out", 0), 0.5,
     "--pair/module/action/0/out/0"),
]


@pytest.mark.parametrize("kind, doc, keys, bad, path", DEFECTS)
def test_bad_value_is_exit_2_at_its_path(files, kind, doc, keys, bad, path):
    assert run_cli(_argv(kind, files("valid.json", doc), files))[0] == 0
    code, err = run_cli(_argv(kind, files("bad.json", _replace(doc, keys, bad)), files))
    assert code == 2 and err["path"] == path


CX_LINE_F5 = dict(CX_LINE, ring=dict(CX_LINE["ring"], field="Fp", p=5))


@pytest.mark.parametrize("kind, doc, keys, bad, path", [
    ("tensor", OMEGA, (0, 0), "1/0", "--omega/0/0"),
    ("artin", dict(T3_TABLE, field="Fp", p=5), ("mult", 1, 1, 2), "1/5", "--artin/mult/1/1/2"),
    ("artin", dict(T3_TABLE, field="Fp", p=5), ("mult", 1, 1, 2), "-2/10", "--artin/mult/1/1/2"),
    ("complex", CX_LINE, ("diffs", 0, 0, 0), "1/0*x0", "--complex/diffs/0/0/0"),
    ("complex", CX_LINE_F5, ("diffs", 0, 0, 0), "1/5*x0", "--complex/diffs/0/0/0"),
    ("pair", EXTERIOR_2, ("lie", "d", 0, 1, 0), "1/0", "--pair/lie/d/0/1/0"),
])
def test_zero_denominator_is_exit_2_at_its_path(files, kind, doc, keys, bad, path):
    """A denominator that is zero in the field (0 over Q, a multiple of p
    over F_p) is reported as such, in scalars and in polynomial literals."""
    assert run_cli(_argv(kind, files("valid.json", doc), files))[0] == 0
    code, err = run_cli(_argv(kind, files("bad.json", _replace(doc, keys, bad)), files))
    assert code == 2 and err["path"] == path
    assert err["error"].startswith("zero denominator") \
        or f"{bad!r}: zero denominator" in err["error"], err


def reference_table(F, obj, path, *keys):
    """A bracket or action table as the path-carrying readers read it:
    every entry through ``read_int`` and ``read_nested``, then the
    repeated keys."""
    def entry(e, path, *at):
        if type(e) is not dict:
            raise ValidationError("table entry must be an object",
                                  json_path(path, at))
        return (tuple(read_int(e.get(k), path, *at, k) for k in "iajb"),
                read_nested(e.get("out"), 1, partial(read_scalar, F), path, *at, "out"))

    table = {}
    for idx, (ijab, out) in enumerate(
            read_nested(obj.get(keys[-1], []), 1, entry, path, *keys)):
        if ijab in table:
            raise ValidationError(f"duplicate table entry {ijab}",
                                  json_path(path, keys + (idx,)))
        table[ijab] = out
    return table


def outcome(read, *args):
    """repr of what ``read(*args)`` returns, or its error's message and path."""
    try:
        return repr(read(*args))
    except ValidationError as exc:
        return exc.message, exc.path


@pytest.mark.parametrize("field", [QQ(), GFp(3)], ids=str)
@pytest.mark.parametrize("name", [*MODELS, "acyclic-arm"])
def test_one_pass_readers_match_the_path_readers(name, field):
    """On every pair of the goldens, the tables and differentials read in
    one pass equal, value and type, what the path-carrying readers read."""
    doc = json.loads(ACYCLIC_ARM if name == "acyclic-arm" else _stdout(*MODELS[name]))
    for side, key in (("lie", "bracket"), ("module", "action")):
        obj = doc[side]
        got = _table_from_json(field, obj, "", side, key)
        assert repr(got) == repr(reference_table(field, obj, "", side, key))
        d = obj.get("d", [])
        assert repr(read_scalars(field, d, 3, "", side, "d")) == \
            repr(read_nested(d, 3, partial(read_scalar, field), "", side, "d"))


BAD_VALUES = [True, 0.5, None, "x", "1/0", "1/3", [], ["1"], {}, -1, 7]


@pytest.mark.parametrize("field", [QQ(), GFp(3)], ids=str)
def test_one_pass_readers_raise_what_the_path_readers_raise(field):
    """On tables and differentials with one to three defects (bad scalars
    and indices, missing keys, entries that are not objects, repeated
    entries ahead of or behind a bad value), the one-pass readers return
    or raise, message and path, what the path-carrying readers do."""
    rng = random.Random(20261021)
    kinds = set()
    for t in range(300):
        doc = json.loads(json.dumps(rng.choice([EXTERIOR_2, GL2, heisenberg()])))
        side = rng.choice(["lie", "module"])
        key = "bracket" if side == "lie" else "action"
        obj = doc[side]
        for _ in range(rng.randint(1, 3)):
            entries, kind = obj[key], rng.randrange(6)
            if type(entries) is not list:
                break
            objs = [e for e in entries if type(e) is dict]
            outs = [e["out"] for e in objs if type(e.get("out")) is list and e["out"]]
            if kind == 0 and objs:
                rng.choice(objs)[rng.choice("iajb")] = rng.choice(BAD_VALUES)
            elif kind == 1 and outs:
                out = rng.choice(outs)
                out[rng.randrange(len(out))] = rng.choice(BAD_VALUES)
            elif kind == 2 and objs:
                rng.choice(objs).pop(rng.choice(["i", "out"]), None)
            elif kind == 3 and objs:
                entries.insert(rng.randrange(len(entries) + 1), dict(rng.choice(objs)))
            elif kind == 4 and obj["d"] and obj["d"][0] and obj["d"][0][0]:
                obj["d"][0][0][0] = rng.choice(BAD_VALUES)
            elif kind == 5 and type(entries) is list:
                if rng.random() < 0.2:
                    obj[key] = rng.choice(["x", {}, 3])
                else:
                    entries.insert(rng.randrange(len(entries) + 1), rng.choice([[], "e", 1]))
        got = outcome(_table_from_json, field, obj, "/p", side, key)
        assert got == outcome(reference_table, field, obj, "/p", side, key), t
        kinds.add(type(got) is tuple and got[0].split()[0])
        d = obj.get("d", [])
        assert outcome(read_scalars, field, d, 3, "/p", side, "d") == \
            outcome(read_nested, d, 3, partial(read_scalar, field), "/p", side, "d"), t
    assert {"bad", "duplicate", "expected", "scalar", "table", False} <= kinds, kinds


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
