"""The benchmark's tracer wraps functions of ``cjl`` by module and name
(``perfbench/tracing.py``, list ``WRAPPED``).  Deleting or renaming one of
them must fail the test suite, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

import cjl.linalg


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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
