"""The benchmark's workloads (perfbench/workloads.py) call the public API of
the package, so a renamed function or a changed parameter list crashes a
benchmark run. Running the first op of each kind of each workload through
its own check catches that here first."""

from importlib import import_module
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

KINDS = {
    "exact-ladder": {"reconstruct", "frugal", "univar", "sequences"},
    "forward-routes": {"forward"},
    "float-noisy": {"reconstruct"},
}


def test_first_op_of_each_kind_passes_its_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads, check = import_module("workloads"), import_module("check")
    assert set(workloads.WORKLOADS) == set(KINDS)
    for workload, kinds in KINDS.items():
        first = {}
        for op in workloads.build_cycle(workload, 1, 0):
            first.setdefault(op.kind, op)
        assert set(first) == kinds, workload
        for op in first.values():
            outcome = check.run_op(op)
            assert outcome.status == "ok", (workload, op.kind, op.label, outcome.error)
