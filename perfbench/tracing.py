"""Per-layer tracing, done from the benchmark's own files.

``Tracer.install`` replaces public functions of the ``cjl`` modules by
wrappers (in every module that holds a reference to them) and ``uninstall``
puts the originals back.  Three kinds of wrapper:

* span: timed, on the call stack, and kept in memory as a span record
  (name, start, end, parent span, request id), written out after the pass;
* leaf: timed and on the call stack, but only summed (the hot leaves:
  polynomial and Artin arithmetic, echelon steps, normal forms);
* count: only counted (field operations, far too many to time).

A layer's self time is the time of its wrappers minus the time of the
wrapped calls made inside them.  Every request enters through a wrapped
function, so the self times of all layers add up to the traced requests'
time; time of unwrapped code lands in the caller's layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

SPAN, LEAF = "span", "leaf"

# (layer, module, qualified name, kind); layer "cli" covers cli and parse
WRAPPED = [
    ("cli", "cli", "run", SPAN),
    ("cli", "cli", "complex_from_json", SPAN),
    ("cli", "parse", "parse_poly", LEAF),
    ("dgla", "dgla", "pair_from_json", SPAN),
    ("dgla", "dgla", "check_dgla", SPAN),
    ("dgla", "dgla", "check_pair", SPAN),
    ("dgla", "dgla", "cohomology_pair", SPAN),
    ("resonance", "resonance", "quadratic_cone_ideal", SPAN),
    ("resonance", "resonance", "universal_aomoto", SPAN),
    ("resonance", "resonance", "resonance_ideal", SPAN),
    ("resonance", "resonance", "pointwise_resonance", SPAN),
    ("geometry", "geometry", "analyze", SPAN),
    ("groebner", "groebner", "buchberger", SPAN),
    ("groebner", "groebner", "reduce_full", LEAF),
    ("groebner", "groebner", "Ideal.radical_contains", SPAN),
    ("groebner", "groebner", "Ideal.equals", SPAN),
    ("groebner", "groebner", "krull_dimension", SPAN),
    ("complexes", "complexes", "jump_ideal", SPAN),
    ("complexes", "complexes", "block_diag_determinantal", SPAN),
    ("complexes", "complexes", "determinantal_ideal", SPAN),
    ("complexes", "complexes", "matrix_minors", SPAN),
    ("complexes", "complexes", "minimize_complex", SPAN),
    ("complexes", "complexes", "FreeComplex.__init__", LEAF),
    ("poly", "poly", "Polynomial.__add__", LEAF),
    ("poly", "poly", "Polynomial.__mul__", LEAF),
    ("poly", "poly", "Polynomial.__neg__", LEAF),
    ("poly", "poly", "RingContext.normal_form", LEAF),
    ("linalg", "linalg", "rank", SPAN),
    ("linalg", "linalg", "nullspace", SPAN),
    ("linalg", "linalg", "solve", SPAN),
    ("linalg", "linalg", "bareiss_rank", SPAN),
    ("linalg", "linalg", "generic_rank_bareiss", SPAN),
    ("linalg", "linalg", "mat_vec", LEAF),
    ("linalg", "linalg", "Echelon.add", LEAF),
    ("linalg", "linalg", "Echelon.reduce", LEAF),
    ("artin", "artin", "artin_from_json", SPAN),
    ("artin", "artin", "make_artin", SPAN),
    ("artin", "artin", "ArtinIdeal.__init__", LEAF),
    ("artin", "artin", "ArtinIdeal.times", LEAF),
    ("artin", "artin", "ArtinLocalAlgebra.mul", LEAF),
    ("artin", "artin", "ArtinLocalAlgebra.inverse", LEAF),
    ("mc", "mc", "tensor_from_json", SPAN),
    ("mc", "mc", "maurer_cartan_check", SPAN),
    ("mc", "mc", "mc_defect", SPAN),
    ("mc", "mc", "gauge_act", SPAN),
    ("mc", "mc", "aomoto_complex", SPAN),
    ("mc", "mc", "def_jump_test", SPAN),
    ("mc", "mc", "bracket_tensor", LEAF),
    ("mc", "mc", "action_tensor", LEAF),
]
FIELD_OPS = ["add", "sub", "mul", "neg", "inv", "div", "is_zero", "eq", "from_int",
             "parse", "format"]

LAYERS = ["cli", "dgla", "resonance", "geometry", "groebner", "complexes", "poly",
          "linalg", "artin", "mc"]


def _buchberger_sizes(args, result, counts):
    counts["buchberger_gens"] += len(args[0])
    counts["basis_elems"] += len(result)


def _minor_count(args, result, counts):
    counts["minors"] += len(result)


def _ideal_gens(args, result, counts):
    counts["ideal_gens"] += len(args[0].gens)


# work counts read off the arguments and results of some calls
SIZE_HOOKS = {
    "groebner.buchberger": _buchberger_sizes,
    "complexes.matrix_minors": _minor_count,
    "artin.ArtinIdeal.__init__": _ideal_gens,
}


class Tracer:
    def __init__(self):
        self.stack = []                                 # [child time] per open call
        self.spans = []                                 # span records
        self.calls = defaultdict(lambda: [0, 0.0])      # name -> [calls, inclusive s]
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self.request = None
        self._patches = []

    # -- wrappers --------------------------------------------------------

    def _timed(self, layer, name, fn, keep):
        stack, spans, layer_self, counts = self.stack, self.spans, self.layer_self, self.counts
        stat = self.calls[name]
        hook = SIZE_HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d
                layer_self[layer] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if keep:
                    spans[frame[1]] = (name, t0, t1, parent, tracer.request)
            if hook is not None:
                hook(args, result, counts)
            return result
        return wrapper

    def _counter(self, fn):
        counts = self.counts

        def wrapper(*args):
            counts["field_ops"] += 1
            return fn(*args)
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"cjl.{m}") for m in
                ("cli", "parse", "dgla", "resonance", "geometry", "groebner", "complexes",
                 "poly", "linalg", "artin", "mc", "field")}
        for layer, mod, qual, kind in WRAPPED:
            name = f"{mod}.{qual}"
            owner = mods[mod]
            if "." in qual:
                cls, attr = qual.split(".")
                owner = getattr(owner, cls)
                self._set(owner, attr, self._timed(layer, name, owner.__dict__[attr], kind == SPAN))
                continue
            orig = getattr(owner, qual)
            wrapped = self._timed(layer, name, orig, kind == SPAN)
            # every module that holds the function, under any name
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("cjl"):
                    for attr, val in list(m.__dict__.items()):
                        if val is orig:
                            self._set(m, attr, wrapped)
        for cls in (mods["field"].QQ, mods["field"].GFp):
            for op in FIELD_OPS:
                raw = cls.__dict__[op]
                if isinstance(raw, staticmethod):
                    self._set(cls, op, staticmethod(self._counter(raw.__func__)))
                else:
                    self._set(cls, op, self._counter(raw))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def summary(self, pass_s: float) -> dict:
        """Per-layer figures of the pass (counts exact, times in seconds)."""
        c, n = self.calls, self.counts

        def calls(name):
            return c[name][0] if name in c else 0

        def incl(name):
            return c[name][1] if name in c else 0.0

        out = {
            "groebner.radical_tests": calls("groebner.Ideal.radical_contains"),
            "groebner.radical_s": incl("groebner.Ideal.radical_contains"),
            "groebner.buchberger_calls": calls("groebner.buchberger"),
            "groebner.buchberger_gens": n["buchberger_gens"],
            "groebner.basis_elems": n["basis_elems"],
            "groebner.buchberger_s": incl("groebner.buchberger"),
            "groebner.reduce_full_calls": calls("groebner.reduce_full"),
            "groebner.reduce_full_s": incl("groebner.reduce_full"),
            "groebner.ideal_equals": calls("groebner.Ideal.equals"),
            "groebner.krull_calls": calls("groebner.krull_dimension"),
            "groebner.krull_s": incl("groebner.krull_dimension"),
            "complexes.jump_ideals": calls("complexes.jump_ideal"),
            "complexes.minors": n["minors"],
            "complexes.minors_s": incl("complexes.matrix_minors"),
            "complexes.minimize_s": incl("complexes.minimize_complex"),
            "artin.ideals": calls("artin.ArtinIdeal.__init__"),
            "artin.ideal_gens": n["ideal_gens"],
            "artin.ideal_s": incl("artin.ArtinIdeal.__init__"),
            "artin.mul_calls": calls("artin.ArtinLocalAlgebra.mul"),
            "mc.mc_checks": calls("mc.maurer_cartan_check"),
            "mc.gauge_acts": calls("mc.gauge_act"),
            "dgla.pair_from_json_s": incl("dgla.pair_from_json"),
            "poly.mul_calls": calls("poly.Polynomial.__mul__"),
            "poly.add_calls": calls("poly.Polynomial.__add__"),
            "linalg.rank_calls": sum(calls(f"linalg.{f}") for f in
                                     ("rank", "bareiss_rank", "generic_rank_bareiss")),
            "linalg.echelon_adds": calls("linalg.Echelon.add"),
            "field.ops": n["field_ops"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self.get(layer, 0.0)
        out["trace.accounted"] = sum(self.layer_self.values()) / pass_s
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, t0, t1, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": req}) + "\n")
