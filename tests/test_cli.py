"""End-to-end checks of the command-line verbs: frozen outputs, exit codes,
pipes, and byte determinism."""

import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from cjl import acceptance, cli, complexes, mc
from cjl.cli import canonical, complex_from_json, run
from cjl.dgla import MAX_DIM, _gvs_from_json, pair_from_json, pair_to_json
from cjl.errors import InternalCheckError, ValidationError
from cjl.field import QQ
from cjl.geometry import analyze
from cjl.models import (MAX_GENERATORS, MAX_HYPERPLANES, MAX_PAIR_DIM, Arrangement,
                        os_pair)
from cjl.poly import RingContext, format_poly

CX_LINE = {
    "ring": {"field": "Q", "vars": ["x0"], "order": "degrevlex"},
    "lo": 0,
    "ranks": [1, 1],
    "diffs": [[["x0"]]],
}

ARR = {"normals": [[1, 0], [0, 1], [1, 1]]}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = run(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_jump_frozen_line_complex(tmp_path, capsys):
    f = _write(tmp_path, "cx.json", CX_LINE)
    code, out, err = _run(capsys, ["jump", "--complex", f, "--i", "0", "--k", "1"])
    assert code == 0 and err == ""
    assert out == '{"J":{"0,1":["x0"]}}\n'


def test_jump_k_defaults_to_one(tmp_path, capsys):
    f = _write(tmp_path, "cx.json", CX_LINE)
    code, out, _ = _run(capsys, ["jump", "--complex", f, "--i", "0"])
    assert code == 0
    assert json.loads(out) == {"J": {"0,1": ["x0"]}}


def test_model_pipes_into_resonance(capsys, monkeypatch):
    code, pair_text, _ = _run(capsys, ["model", "exterior", "--n", "2"])
    assert code == 0
    code, out, _ = _run(capsys, ["resonance", "--i", "1", "--k", "1"],
                        stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 0
    assert out == '{"generators":["x0^2","x0*x1","x1^2"]}\n'


def test_exterior4_resonance_degree2_is_a_power_of_the_maximal_ideal(capsys, monkeypatch):
    """R^2_1 of the 4-torus is m^(C(4,2)-k+1) = m^6 at k = 1, the Koszul Fitting
    ideal: all 84 degree-6 monomials, in descending degrevlex order."""
    code, pair_text, _ = _run(capsys, ["model", "exterior", "--n", "4"])
    assert code == 0
    code, out, _ = _run(capsys, ["resonance", "--i", "2", "--k", "1"],
                        stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 0
    ctx = RingContext(QQ(), ("x0", "x1", "x2", "x3"))
    monos = sorted((m for m in itertools.product(range(7), repeat=4) if sum(m) == 6),
                   key=ctx.key, reverse=True)
    want = [format_poly(ctx.from_dict({m: ctx.field.one})) for m in monos]
    assert len(want) == 84
    assert json.loads(out) == {"generators": want}


def test_mc_zero_omega_frozen(tmp_path, capsys, monkeypatch):
    om = _write(tmp_path, "zero.json", [["0"], ["0"]])
    code, pair_text, _ = _run(capsys, ["model", "exterior", "--n", "2"])
    code, out, _ = _run(capsys, ["mc", "--omega", om],
                        stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 0
    assert out == '{"mc":true}\n'


def test_mc_jump_flag(tmp_path, capsys, monkeypatch):
    om = _write(tmp_path, "zero.json", [["0"], ["0"]])
    _, pair_text, _ = _run(capsys, ["model", "exterior", "--n", "2"])
    code, out, _ = _run(capsys, ["mc", "--omega", om, "--jump", "1", "1"],
                        stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 0
    # the zero connection on the 2-torus jumps in degree 1
    assert out == '{"jump_vanishes":true,"mc":true}\n'


# A flat omega on glr (the 2-torus CDGA with r = s = 2) over Q[t]/(t^3):
# e1 (x) aX, e2 (x) (bX + cI) for a, b, c in m and X = (9, 17, -32, -31)
# (coordinates on t, t^2; seeded).  [aX, bX + cI] = 0, so omega is flat.
GLR_FLAT_OMEGA = [["126", "288"], ["238", "544"], ["-448", "-1024"], ["-434", "-992"],
                  ["-196", "336"], ["-425", "663"], ["800", "-1248"], ["804", "-1224"]]


def test_glr_twisted_jump_verdicts(tmp_path, capsys, monkeypatch):
    """mc --jump 1 K on glr over Q[t]/(t^3), pinned from the assembled-matrix
    route.  The degree-1 rank is 8, so K <= 6 asks for minors of size
    9 - K >= 3 = the nilpotency index: they vanish without expansion."""
    art = _write(tmp_path, "t3.json", {"ring": {"field": "Q", "vars": ["t"],
                                                "order": "degrevlex", "quotient": ["t^3"]}})
    om = _write(tmp_path, "om.json", GLR_FLAT_OMEGA)
    _, pair_text, _ = _run(capsys, ["model", "glr", "--n", "2", "--r", "2"])
    for K, vanishes in enumerate([True] * 6 + [False] * 2, start=1):
        start = time.perf_counter()
        code, out, _ = _run(capsys, ["mc", "--artin", art, "--omega", om,
                                     "--jump", "1", str(K)],
                            stdin_text=pair_text, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out) == {"jump_vanishes": vanishes, "mc": True}, K
        assert time.perf_counter() - start < 5.0, K


def test_mc_reports_defect(tmp_path, capsys):
    # Heisenberg: z | e1,e2 | f with [e1,e2] = f, acting on nothing.
    # omega = (e1 + e2) t over Q[t]/(t^3) has defect (1/2)[w,w] = f t^2.
    from test_mc import heisenberg_pair

    pair = _write(tmp_path, "heis.json", pair_to_json(heisenberg_pair()))
    art = _write(tmp_path, "t3.json",
                 {"ring": {"field": "Q", "vars": ["t"], "order": "degrevlex",
                           "quotient": ["t^3"]}})
    om = _write(tmp_path, "om.json", [["1", "0"], ["1", "0"]])
    code, out, _ = _run(capsys, ["mc", "--pair", pair, "--artin", art, "--omega", om])
    assert code == 0
    assert out == '{"defect":[["0","1"]],"mc":false}\n'


def test_mc_evaluates_the_structure_equation_once(tmp_path, capsys, monkeypatch):
    """Work pin: one structure-equation evaluation per mc request, for a
    flat omega with --jump (the twisted complex checks flatness) and for a
    non-flat one without (its defect is the evaluation).  A non-flat omega
    with --jump is refused by the twisted complex, exit 2."""
    from test_mc import heisenberg_pair

    calls = []
    real = mc.structure_equation
    monkeypatch.setattr(mc, "structure_equation", lambda *a: calls.append(a) or real(*a))
    solvable = _write(tmp_path, "solvable.json", pair_to_json(acceptance._solvable_pair()))
    zero = _write(tmp_path, "zero.json", [["0"], ["0"]])
    heis = _write(tmp_path, "heis.json", pair_to_json(heisenberg_pair()))
    art = _write(tmp_path, "t3.json",
                 {"ring": {"field": "Q", "vars": ["t"], "order": "degrevlex",
                           "quotient": ["t^3"]}})
    om = _write(tmp_path, "om.json", [["1", "0"], ["1", "0"]])
    heis_mc = ["mc", "--pair", heis, "--artin", art, "--omega", om]
    for argv, want in (
            (["mc", "--pair", solvable, "--omega", zero, "--jump", "1", "1"],
             (0, '{"jump_vanishes":false,"mc":true}\n', "")),
            (heis_mc, (0, '{"defect":[["0","1"]],"mc":false}\n', "")),
            (heis_mc + ["--jump", "1", "1"],
             (2, "", '{"error":"connection is not flat (fails the structure equation); '
                     'no twisted complex exists","path":""}\n'))):
        calls.clear()
        assert _run(capsys, argv) == want, argv
        assert len(calls) == 1, argv


def test_gauge_fixes_zero_in_abelian_pair(tmp_path, capsys, monkeypatch):
    lam = _write(tmp_path, "lam.json", [["1/2"]])
    om = _write(tmp_path, "zero.json", [["0"], ["0"]])
    _, pair_text, _ = _run(capsys, ["model", "exterior", "--n", "2"])
    code, out, _ = _run(capsys, ["gauge", "--lambda", lam, "--omega", om],
                        stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 0
    assert out == '{"omega":[["0"],["0"]]}\n'


def test_cone_of_matrix_model_is_commutator(capsys, monkeypatch):
    _, pair_text, _ = _run(capsys, ["model", "glr", "--n", "2", "--r", "2"])
    code, out, _ = _run(capsys, ["cone"], stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 0
    # {(X, Y) : XY = YX} for 2x2 matrices: three independent entries
    assert json.loads(out) == {"generators": [
        "x1*x4 - x0*x5 + x3*x5 - x1*x7",
        "x2*x4 - x0*x6 + x3*x6 - x2*x7",
        "x2*x5 - x1*x6",
    ]}


def test_cone_abelian_is_zero_ideal(capsys, monkeypatch):
    _, pair_text, _ = _run(capsys, ["model", "exterior", "--n", "2"])
    code, out, _ = _run(capsys, ["cone"], stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out) == {"generators": []}


def test_surface_resonance_fills_space(capsys, monkeypatch):
    # generic rank of the degree-1 pairing is 2 < 4, so every class jumps
    _, pair_text, _ = _run(capsys, ["model", "surface", "--g", "2"])
    code, out, _ = _run(capsys, ["resonance", "--i", "1"],
                        stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out) == {"generators": []}


def test_analyze_matches_library_and_filters(tmp_path, capsys, monkeypatch):
    _, pair_text, _ = _run(capsys, ["model", "os", "--normals",
                                    _write(tmp_path, "arr.json", ARR)])
    code, out, _ = _run(capsys, ["analyze", "--claims", "9.1d", "--seed", "3"],
                        stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert [c["id"] for c in report["claims"]] == ["9.1d:i=0", "9.1d:i=1"]
    expected = analyze(os_pair(Arrangement.from_json(ARR)), claims=["9.1d"])
    assert out == canonical(expected) + "\n"


@pytest.mark.parametrize("claims", ["", "9.1d,", ",9.1d", "9.1d,,9.1e"])
def test_analyze_refuses_an_empty_claim_prefix(capsys, monkeypatch, claims):
    # an empty prefix would match every claim id and print the whole report
    _, pair_text, _ = _run(capsys, ["model", "exterior", "--n", "2"])
    code, out, err = _run(capsys, ["analyze", "--claims", claims],
                          stdin_text=pair_text, monkeypatch=monkeypatch)
    assert code == 2 and out == "" and json.loads(err)["path"] == "--claims"


def test_analyze_stdout_ignores_seed(capsys, monkeypatch):
    _, pair_text, _ = _run(capsys, ["model", "exterior", "--n", "2"])
    outs = set()
    for seed in ("0", "5", "123456789"):
        code, out, _ = _run(capsys, ["analyze", "--seed", seed],
                            stdin_text=pair_text, monkeypatch=monkeypatch)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_model_output_reloads_as_pair(capsys):
    code, out, _ = _run(capsys, ["model", "glr", "--n", "2", "--r", "2", "--s", "1"])
    assert code == 0
    P = pair_from_json(json.loads(out))
    assert canonical(pair_to_json(P)) + "\n" == out


# built-in pairs have even dimension (2^n, 2g + 2, and an Orlik-Solomon
# algebra's Poincare polynomial has the factor 1 + t), so MAX_PAIR_DIM + 2
# is the smallest dimension above the cap
HALF = MAX_PAIR_DIM // 2


@pytest.mark.parametrize("argv, path", [
    (["exterior", "--n", str(MAX_GENERATORS + 1)], "--n"),
    (["glr", "--n", str(MAX_GENERATORS + 1), "--r", "1"], "--n"),
    (["exterior", "--n", str(10**12)], "--n"),
    (["exterior", "--n", "0"], "--n"),
    (["exterior", "--n", "1", "--r", str(math.isqrt(HALF) + 1)], "--r"),
    (["exterior", "--n", "2", "--r", "0"], "--r"),
    (["glr", "--n", "1", "--r", "1", "--s", str(HALF + 1)], "--s"),
    (["glr", "--n", "1", "--r", "2", "--s", str(10**12)], "--s"),
    (["surface", "--g", str(HALF)], "--g"),
    (["surface", "--g", "0"], "--g"),
    (["os", "--normals", "arrangement"], "--normals/normals"),
])
def test_model_size_is_refused_before_it_is_built(tmp_path, capsys, argv, path):
    normals = {"normals": [[1, k] for k in range(MAX_HYPERPLANES + 1)]}
    argv = [_write(tmp_path, "arr.json", normals) if a == "arrangement" else a
            for a in argv]
    start = time.perf_counter()
    code, out, err = _run(capsys, ["model"] + argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["path"] == path


def test_os_algebra_above_the_pair_cap_is_refused(tmp_path, capsys):
    # 9 generic planes in R^4 (normals on the moment curve): dimension 186
    arr = _write(tmp_path, "arr.json",
                 {"normals": [[t ** e for e in range(4)] for t in range(1, 10)]})
    start = time.perf_counter()
    code, out, err = _run(capsys, ["model", "os", "--normals", arr])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    err = json.loads(err)
    assert err["path"] == "--normals"
    assert f"dimension 186 above bound {MAX_PAIR_DIM}" in err["error"]


@pytest.mark.parametrize("argv", [
    ["glr", "--n", "1", "--r", "1", "--s", str(HALF)],
    ["surface", "--g", str(HALF - 1)],
])
def test_model_at_the_size_cap_is_built(capsys, argv):
    code, out, _ = _run(capsys, ["model"] + argv)
    assert code == 0
    obj = json.loads(out)
    dims = obj["lie"]["dims"] + obj["module"]["dims"]
    assert max(sum(obj["lie"]["dims"]), sum(obj["module"]["dims"])) == MAX_PAIR_DIM
    assert max(dims) <= MAX_PAIR_DIM <= MAX_DIM


def test_reruns_are_byte_identical(tmp_path, capsys):
    arr = _write(tmp_path, "arr.json", ARR)
    outs = []
    for _ in range(2):
        code, pair_text, _ = _run(capsys, ["model", "os", "--normals", arr])
        assert code == 0
        outs.append(pair_text)
    assert outs[0] == outs[1]


def test_malformed_json_is_exit_2_with_location(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{broken")
    code, out, err = _run(capsys, ["jump", "--complex", str(f), "--i", "0"])
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["path"].startswith("--complex:")


def test_wrong_shape_is_exit_2_with_path(tmp_path, capsys):
    f = _write(tmp_path, "notacomplex.json", [["0"], ["0"]])
    code, _, err = _run(capsys, ["jump", "--complex", str(f), "--i", "0"])
    assert code == 2
    assert json.loads(err)["path"] == "--complex"


def test_non_complex_differentials_exit_2(tmp_path, capsys):
    bad = dict(CX_LINE, ranks=[1, 1, 1], diffs=[[["x0"]], [["x0"]]])
    f = _write(tmp_path, "notdsq.json", bad)
    code, _, err = _run(capsys, ["jump", "--complex", f, "--i", "0"])
    assert code == 2
    assert "d.d" in json.loads(err)["error"]


def test_broken_bracket_axiom_reports_witness(tmp_path, capsys):
    # both orientations of a degree-0 bracket stored with the same sign
    bad = {
        "lie": {"degrees": [0, 0], "dims": [2], "d": [],
                "bracket": [{"i": 0, "a": 0, "j": 0, "b": 1, "out": ["1", "0"]},
                            {"i": 0, "a": 1, "j": 0, "b": 0, "out": ["1", "0"]}]},
        "module": {"degrees": [0, 0], "dims": [1], "d": [], "action": []},
    }
    f = _write(tmp_path, "skew.json", bad)
    code, _, err = _run(capsys, ["cone", "--pair", f])
    assert code == 2
    assert json.loads(err)["witness"]["axiom"] == "skew"


def test_non_list_matrix_row_is_exit_2_with_path(capsys, monkeypatch):
    bad = {"lie": {"degrees": [0, 1], "dims": [1, 1], "d": [[1]]},
           "module": {"degrees": [0, 0], "dims": [1]}}
    code, out, err = _run(capsys, ["cone"], stdin_text=json.dumps(bad),
                          monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert json.loads(err)["path"] == "--pair/lie/d/0/0"


def test_declared_dimension_above_bound_is_exit_2_with_path(capsys, monkeypatch):
    """A declared dimension is checked before any basis vector is labelled."""
    assert _gvs_from_json({"degrees": [0, 1], "dims": [1, MAX_DIM]}, "/lie").dim(1) == MAX_DIM
    for side in ("lie", "module"):
        bad = {"lie": {"degrees": [0, 0], "dims": [1]},
               "module": {"degrees": [0, 0], "dims": [1]}}
        bad[side] = {"degrees": [0, 1], "dims": [1, MAX_DIM + 1]}
        code, out, err = _run(capsys, ["cone"], stdin_text=json.dumps(bad),
                              monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert json.loads(err)["path"] == f"--pair/{side}/dims/1"
        assert f"above bound {MAX_DIM}" in json.loads(err)["error"]


def test_structureless_pair_at_the_bound_is_checked_quickly():
    """The axiom check walks the nonzero entries, so a pair that declares
    MAX_DIM vectors per side and no structure is read at once (a walk over
    every basis triple would take days)."""
    empty = {"lie": {"degrees": [0, 0], "dims": [MAX_DIM]},
             "module": {"degrees": [0, 0], "dims": [MAX_DIM]}}
    res = subprocess.run([sys.executable, "-m", "cjl.cli", "cone"],
                         input=json.dumps(empty), capture_output=True,
                         text=True, env=_child_env(), timeout=20)
    assert res.returncode == 0
    assert res.stdout == '{"generators":[]}\n'


@pytest.mark.parametrize("p, message", [
    ("7", "p must be an integer"),
    (True, "p must be an integer"),
    (1000000000000000003, "p must be below 2^31"),
])
def test_bad_prime_is_exit_2_with_path(tmp_path, capsys, monkeypatch, p, message):
    pair = {"field": "Fp", "p": p,
            "lie": {"degrees": [0, 0], "dims": [1]},
            "module": {"degrees": [0, 0], "dims": [1]}}
    code, out, err = _run(capsys, ["cone"], stdin_text=json.dumps(pair),
                          monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert json.loads(err)["path"] == "--pair/p"
    assert message in json.loads(err)["error"]

    f = _write(tmp_path, "cx.json",
               dict(CX_LINE, ring=dict(CX_LINE["ring"], field="Fp", p=p)))
    code, out, err = _run(capsys, ["jump", "--complex", f, "--i", "0"])
    assert code == 2 and out == ""
    assert json.loads(err)["path"] == "--complex/ring/p"
    assert message in json.loads(err)["error"]


def test_unknown_field_is_exit_2_with_path(capsys, monkeypatch):
    pair = {"field": "R", "lie": {"degrees": [0, 0], "dims": [1]},
            "module": {"degrees": [0, 0], "dims": [1]}}
    code, out, err = _run(capsys, ["cone"], stdin_text=json.dumps(pair),
                          monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert json.loads(err)["path"] == "--pair/field"


def test_largest_allowed_prime_is_accepted(tmp_path, capsys):
    f = _write(tmp_path, "cx.json",
               dict(CX_LINE, ring=dict(CX_LINE["ring"], field="Fp", p=2**31 - 1)))
    code, out, _ = _run(capsys, ["jump", "--complex", f, "--i", "0"])
    assert code == 0 and json.loads(out) == {"J": {"0,1": ["x0"]}}


def test_budget_exhaustion_is_exit_3(tmp_path, capsys, monkeypatch):
    _, pair_text, _ = _run(capsys, ["model", "os", "--normals",
                                    _write(tmp_path, "arr.json", ARR)])
    monkeypatch.setenv("CJL_STEP_BUDGET", "1")
    code, _, err = _run(capsys, ["analyze"], stdin_text=pair_text,
                        monkeypatch=monkeypatch)
    assert code == 3
    assert json.loads(err)["budget"] == 1


def test_internal_check_error_is_exit_4(capsys, monkeypatch):
    def broken(args):
        raise InternalCheckError("pivot row did not clear")

    monkeypatch.setitem(cli._DISPATCH, "cone", broken)
    code, out, err = _run(capsys, ["cone"])
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "pivot row did not clear"}


def test_minimal_model_check_failure_is_exit_4(tmp_path, capsys, monkeypatch):
    """mc --jump 1 1 on the selftest's solvable pair with a zero omega splits
    the twisted complex's units; a d.d failure of its minimal model is a
    bug, reported as exit 4 with a JSON error that names the model."""
    pair = _write(tmp_path, "pair.json", pair_to_json(acceptance._solvable_pair()))
    om = _write(tmp_path, "zero.json", [["0"], ["0"]])
    argv = ["mc", "--pair", pair, "--omega", om, "--jump", "1", "1"]
    assert _run(capsys, argv) == (0, '{"jump_vanishes":false,"mc":true}\n', "")
    inside = []
    real_minimize, real_dd = complexes.minimize_complex, complexes.FreeComplex._check_dd

    def minimize(E):
        inside.append(E)
        try:
            return real_minimize(E)
        finally:
            inside.pop()

    def check_dd(self):
        if inside:
            raise ValidationError("d.d != 0 at degrees 0 -> 2, entry (0,0)")
        real_dd(self)

    monkeypatch.setattr(complexes, "minimize_complex", minimize)
    monkeypatch.setattr(complexes.FreeComplex, "_check_dd", check_dd)
    code, out, err = _run(capsys, argv)
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "minimal model: d.d != 0 at degrees 0 -> 2, entry (0,0)"}


def test_usage_errors_exit_2(capsys):
    assert _run(capsys, ["resonance", "--nope"])[0] == 2
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["--help"])[0] == 0


def test_complex_json_round_trip(tmp_path, capsys):
    E = complex_from_json(CX_LINE)
    ring = CX_LINE["ring"]
    assert (E.ring.field, list(E.ring.names), E.ring.order) == \
        (QQ(), ring["vars"], ring["order"])
    assert (E.lo, list(E.ranks)) == (CX_LINE["lo"], CX_LINE["ranks"])
    assert [[[format_poly(e) for e in row] for row in E.diff(i)]
            for i in range(E.lo, E.hi)] == CX_LINE["diffs"]
    with pytest.raises(ValidationError):
        complex_from_json(dict(CX_LINE, diffs=[]))


def _child_env() -> dict:
    """The environment of a child interpreter that imports the same cjl as
    this one, installed or not."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_subprocess_pipe_end_to_end():
    env = _child_env()
    model = subprocess.run(
        [sys.executable, "-m", "cjl.cli", "model", "exterior", "--n", "2"],
        capture_output=True, text=True, env=env)
    assert model.returncode == 0
    res = subprocess.run(
        [sys.executable, "-m", "cjl.cli", "resonance", "--i", "1", "--k", "1"],
        input=model.stdout, capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert res.stdout == '{"generators":["x0^2","x0*x1","x1^2"]}\n'


def test_repeated_runs_match_fresh_processes(capsys, monkeypatch):
    """The parser is built once per process; runs that follow one another
    in one process, mixing verbs and a usage error, print and exit as
    fresh processes do."""
    env = _child_env()
    ext2 = subprocess.run([sys.executable, "-m", "cjl.cli", "model", "exterior", "--n", "2"],
                          capture_output=True, text=True, env=env).stdout
    requests = [
        (["model", "surface", "--g", "2"], ""),
        (["resonance", "--i", "1", "--k", "1"], ext2),
        (["resonance", "--k", "1"], ext2),          # --i missing: usage error
        (["cone"], ext2),
        (["model", "glr", "--n", "2"], ""),         # --r missing: usage error
        (["analyze"], ext2),
        (["resonance", "--i", "1", "--k", "1"], ext2),
    ]
    here = []
    for argv, stdin_text in requests:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = run(argv)
        cap = capsys.readouterr()
        here.append((code, cap.out, cap.err))
    fresh = []
    for argv, stdin_text in requests:
        res = subprocess.run([sys.executable, "-m", "cjl.cli", *argv], input=stdin_text,
                             capture_output=True, text=True, env=env)
        fresh.append((res.returncode, res.stdout, res.stderr))
    assert [c for c, _, _ in here] == [0, 0, 2, 0, 2, 0, 0]
    assert here == fresh
    assert cli.build_parser() is cli.build_parser()
