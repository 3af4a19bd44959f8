"""The benchmark's layer tracer (perfbench/tracing.py) patches functions of
the package by name, so renaming or deleting one of them crashes a traced
benchmark run. Installing the tracer against the package as it stands
catches that here first."""

from importlib import import_module
from pathlib import Path
from random import Random

from conftest import unit_triangle
from polymom.config import RunConfig
from polymom.moments import PolytopeMomentOracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_traces_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = import_module("tracing")
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracing.SPANS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        oracle = PolytopeMomentOracle(unit_triangle())
        result = tracer.call_op(0, "reconstruct", lambda: tracing.reconstruct.reconstruct(
            oracle, 3, RunConfig(seed=1), Random(1)))
    finally:
        tracer.uninstall()
    assert len(result.vertices) == 3
    # the matching core shows in its own layers
    assert tracer.calls["reconstruct.choose_beta"] == 1
    assert tracer.calls["reconstruct.match"] >= 1
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
