"""The benchmark's layer tracer (perfbench/tracing.py) patches functions of
the package by name, so renaming or deleting one of them crashes a traced
benchmark run. Installing the tracer against the package as it stands
catches that here first."""

from importlib import import_module
from pathlib import Path
from random import Random

from conftest import unit_cube, unit_triangle
from polymom.config import RunConfig
from polymom.geometry import sample_generic_direction
from polymom.moments import PolytopeMomentOracle, moment_sequence
from polymom.numeric import poly_parse
from polymom.prony import moments_needed

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
        root_searches = tracer.calls["prony.roots_exact"]
        # a density runs the differentiated vertex sum under moments.brion
        dense = PolytopeMomentOracle(unit_triangle(), poly_parse("2 + x1 - x2", 2))
        dense_result = tracer.call_op(1, "reconstruct", lambda: tracing.reconstruct.reconstruct(
            dense, 3, RunConfig(seed=1), Random(1)))
        adaptive_pairings = tracer.calls["reconstruct.choose_beta"]
        # the sequence driver pairs its d - 1 directions through the same loop
        cube, rng = unit_cube(), Random(2)
        base = [sample_generic_direction(3, rng=rng).coords for _ in range(3)]
        combined = [tuple(a + beta * b for a, b in zip(base[0], zi))
                    for zi in base[1:] for beta in (1, 2, 3)]
        sequences = [moment_sequence(cube, z, moments_needed(3, 8, 0)) for z in base + combined]
        from_files = tracer.call_op(2, "sequences", lambda: (
            tracing.reconstruct.reconstruct_from_sequences(sequences, 8)))
    finally:
        tracer.uninstall()
    assert len(result.vertices) == 3 and dense_result.vertices == result.vertices
    # the matching core shows in its own layers
    assert adaptive_pairings == 2
    assert from_files.vertices == tuple(sorted(cube.vertices))
    assert tracer.calls["reconstruct.choose_beta"] == 2 + 2
    assert tracer.calls["reconstruct.match"] >= 2
    # one root search per base direction, and one per combined direction
    # in exact matching: 2 + 1 on the triangle
    assert root_searches >= 3
    assert tracer.calls["moments.brion"] >= 2
    # the _ensure probe counted every measurement the oracles computed
    assert tracer.counts["moments.oracle.computed"] >= oracle.unique_count + dense.unique_count
    assert tracer.counts["numeric.jet_mul.calls"] == 0
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)


def test_oracle_cache_layout():
    # the tracer's _ensure probe reads a direction's entries as (coords, j)
    oracle = PolytopeMomentOracle(unit_triangle(), poly_parse("1 + x1", 2))
    coords = (3, 5)
    ms = oracle.sequence(coords, 6)
    assert (coords, 5) in oracle._values and (coords, 6) not in oracle._values
    assert ms.moments == tuple(oracle._values[coords, j] for j in range(6))
