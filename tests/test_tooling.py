"""Checks on the source tree itself.

The benchmark's tracer wraps functions of ``cjl`` by module and name
(``perfbench/tracing.py``, list ``WRAPPED``).  Deleting or renaming one of
them must fail the test suite, not only a traced benchmark run.  Every
function, class and method in ``src/cjl`` must have a caller outside the
tests, and the examples in the module docstrings must run."""

import ast
import doctest
import importlib
import importlib.util
import pkgutil
from collections import Counter
from pathlib import Path

import cjl
import cjl.linalg

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_on_every_wrapped_name():
    tracing = load_tracing()
    rank = cjl.linalg.rank
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cjl.linalg.rank is not rank
    finally:
        tracer.uninstall()
    assert cjl.linalg.rank is rank


def _names(tree):
    """Every name read or written as an ``ast.Name`` or ``ast.Attribute``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _definitions(node, prefix=""):
    """(qualified name, node) of every function, class and method, nested
    ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


# Definitions that no code in src/cjl names and that stay only because the
# benchmark names them: perfbench/tracing.py wraps both by name, so each
# goes when the tracer does.  generic_rank_bareiss is also the test oracle
# for the generic ranks.
BENCHMARK_ONLY = ["artin.ArtinIdeal.times", "linalg.generic_rank_bareiss"]


def test_every_src_function_has_a_caller():
    """Each non-dunder function, class and method of ``src/cjl`` is named
    somewhere in ``src/cjl`` outside its own body, or is on
    ``BENCHMARK_ONLY`` and is named by the benchmark: in
    ``perfbench/tracing.WRAPPED`` or in ``perfbench/workloads.py``,
    ``bench_pass.py`` or ``run.py`` (``oracle.py`` imports nothing from
    ``cjl``).  A listed name that has a caller in ``src/cjl`` again fails
    too, so the list stays exact.  Matching is by name alone, so a
    definition that shares its name with live code (``_GradedTable.get``
    with ``dict.get``, say) escapes the check."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "cjl").glob("*.py"))}
    used = Counter(n for tree in trees.values() for n in _names(tree))
    wrapped = {(mod, qual) for _, mod, qual, _ in load_tracing().WRAPPED}
    bench = {n for f in ("workloads.py", "bench_pass.py", "run.py")
             for n in _names(ast.parse((ROOT / "perfbench" / f).read_text()))}
    orphans, bench_only = [], []
    for mod, tree in trees.items():
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - Counter(_names(node))[name] > 0:
                continue
            named = (mod, qual) in wrapped or name in bench
            (bench_only if named else orphans).append(f"{mod}.{qual}")
    assert orphans == []
    assert bench_only == BENCHMARK_ONLY


def test_module_docstring_examples():
    attempted = 0
    for info in pkgutil.iter_modules(cjl.__path__):
        mod = importlib.import_module(f"cjl.{info.name}")
        result = doctest.testmod(mod)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0
