"""Self-test of the per-op checker: feeds it results that must be classified
as wrong or failed, and results that must pass. Every benchmark run calls
``run()`` first; on its own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import env


def _result(vertices, retries=0):
    prov = SimpleNamespace(retries=retries, directions=[(1, 2), (3, 4)])
    return SimpleNamespace(vertices=tuple(vertices), provenance=prov)


def _op(label, value, check_fn, certified=True):
    from check import Op

    def run():
        if isinstance(value, BaseException):
            raise value
        return value

    return Op("reconstruct", label, run, check_fn, lambda _r: 7, certified)


def run():
    """Returns the list of problems found (empty when the checker is sound)."""
    import check
    from polymom.errors import PolymomError, RankInstability

    truth = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    floats = [tuple(float(x) for x in v) for v in truth]
    exact, flt = check.vertex_check(truth, "exact"), check.vertex_check(truth, "float")
    moments = (F(1, 2), F(1, 3))
    seq = SimpleNamespace
    cases = [
        # (label, returned value or raised error, check, expected status)
        ("exact truth", _result(reversed(truth)), exact, "ok"),
        ("exact perturbed", _result(truth[:2] + ((F(0), F(1) + F(1, 10**9)),)), exact, "wrong"),
        ("exact as floats", _result(floats), exact, "wrong"),
        ("exact missing vertex", _result(truth[:2]), exact, "wrong"),
        ("exact extra vertex", _result(truth + ((F(1), F(1)),)), exact, "wrong"),
        ("float truth", _result([(x + 1e-9, y) for x, y in floats]), flt, "ok"),
        ("float perturbed", _result([(x + 1e-3, y) for x, y in floats]), flt, "wrong"),
        ("float missing vertex", _result(floats[:2]), flt, "wrong"),
        ("float extra vertex", _result(floats + [(1.0, 1.0)]), flt, "wrong"),
        ("float duplicate vertex", _result(floats[:2] + floats[:1]), flt, "wrong"),
        ("float not finite", _result(floats[:2] + [(float("nan"), 1.0)]), flt, "wrong"),
        ("raised PolymomError", PolymomError("declared failure"), exact, "failed"),
        ("raised RankInstability", RankInstability("rank"), flt, "failed"),
        ("raised ValueError", ValueError("not a PolymomError"), exact, "crashed"),
        ("malformed result", object(), exact, "wrong"),
        ("routes agree", (seq(moments=moments), seq(moments=moments)),
         check.forward_check(2), "ok"),
        ("routes disagree", (seq(moments=moments), seq(moments=(F(1, 2), F(1, 4)))),
         check.forward_check(2), "wrong"),
        ("routes short", (seq(moments=moments[:1]), seq(moments=moments[:1])),
         check.forward_check(2), "wrong"),
    ]
    problems = []
    for label, value, check_fn, expected in cases:
        with contextlib.redirect_stderr(io.StringIO()):  # the crash case's traceback
            outcome = check.run_op(_op(label, value, check_fn))
        if outcome.status != expected:
            problems.append(f"{label}: classified {outcome.status}, expected {expected}")
        if outcome.moments != 7:
            problems.append(f"{label}: moment count not read")

    # whole runs: a certified (exact or forward) op that does not pass its
    # check makes the run incorrect, even when it raised a PolymomError;
    # wrong or failed float ops are counted but leave the run correct
    runs = [
        # (label, [(returned value or raised error, check, certified)], expected)
        ("all passed", [(_result(truth), exact, True), (_result(floats), flt, False)], True),
        ("certified op raised PolymomError",
         [(_result(truth), exact, True), (PolymomError("gave up"), exact, True)], False),
        ("certified op wrong", [(_result(truth[:2]), exact, True)], False),
        ("float op raised", [(_result(truth), exact, True),
                             (RankInstability("rank"), flt, False)], True),
        ("float op wrong", [(_result(floats[:2]), flt, False)], True),
        ("float op crashed", [(ValueError("bug"), flt, False)], False),
    ]
    for label, ops, expected in runs:
        with contextlib.redirect_stderr(io.StringIO()):
            outcomes = [check.run_op(_op(label, value, check_fn, certified))
                        for value, check_fn, certified in ops]
        if check.run_is_correct(outcomes) != expected:
            problems.append(f"run '{label}': correct is {not expected}, expected {expected}")
    return problems


if __name__ == "__main__":
    if not env.use_checkout_source():
        sys.exit(f"error: no polymom package under {env.SRC}")
    found = run()
    for p in found:
        print(p)
    print("checker self-test: " + ("FAILED" if found else "ok"))
    sys.exit(1 if found else 0)
