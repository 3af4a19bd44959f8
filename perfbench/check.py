"""Per-op correctness check and outcome classification.

An op is one call into the public API of polymom. ``run_op`` times it and
classifies what came back:

* ``ok``      -- returned, and the result passed the op's check;
* ``wrong``   -- returned, but the result failed the check;
* ``failed``  -- raised a ``PolymomError`` (a documented, declared failure);
* ``crashed`` -- raised any other exception (a bug outside the error contract).

The checks never call the library, so a library defect cannot hide itself.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

from polymom.errors import PolymomError

# criterion 9's 1e-6 coordinate bound, made relative to the shape's size
FLOAT_REL_TOL = 1e-6


@dataclass
class Op:
    kind: str                       # op.<kind> names its span in the traced run
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    moments: Callable[[object], int]  # called with the result, or None on failure
    certified: bool                 # exact mode: a wrong result is a program bug
    draws_directions: bool = True   # False when the op is handed its directions


@dataclass
class Outcome:
    kind: str
    label: str
    status: str
    seconds: float
    moments: int
    retries: int | None             # provenance.retries of a returned result
    directions_kept: int
    certified: bool
    error: str | None = None


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def exact_vertices(truth, result) -> bool:
    """The returned vertex set equals the true one bit for bit."""
    got = [tuple(v) for v in result.vertices]
    if not all(_is_exact(x) for v in got for x in v):
        return False
    return sorted(got) == sorted(tuple(v) for v in truth)


def float_vertices(truth, result) -> bool:
    """Same vertex count, and a bijection under which every coordinate is
    within FLOAT_REL_TOL * max(1, largest true |coordinate|)."""
    want = [tuple(float(x) for x in v) for v in truth]
    try:
        got = [tuple(float(x) for x in v) for v in result.vertices]
    except (TypeError, ValueError):
        return False
    if len(got) != len(want) or any(len(v) != len(want[0]) for v in got):
        return False
    if not all(math.isfinite(x) for v in got for x in v):
        return False
    tol = FLOAT_REL_TOL * max(1.0, max(abs(x) for v in want for x in v))
    unused = list(range(len(got)))
    for v in want:
        near = [i for i in unused if max(abs(a - b) for a, b in zip(v, got[i])) <= tol]
        if len(near) != 1:
            return False
        unused.remove(near[0])
    return True


def vertex_check(truth, mode):
    truth = tuple(truth)
    if mode == "exact":
        return lambda result: exact_vertices(truth, result)
    return lambda result: float_vertices(truth, result)


def forward_check(count):
    """Both routes returned ``count`` exact moments, and they are equal."""

    def check(result):
        brion, direct = (tuple(ms.moments) for ms in result)
        return (
            len(brion) == len(direct) == count
            and all(_is_exact(x) for x in brion + direct)
            and brion == direct
        )

    return check


def run_is_correct(outcomes) -> bool:
    """False when an op crashed, or when a certified op (exact mode, forward
    routes) did anything but pass its check: came back wrong or raised a
    ``PolymomError``. Wrong or failed float results are the defect the
    float workload measures: counted, not a fault of the run."""
    return not any(o.status == "crashed" or (o.certified and o.status != "ok")
                   for o in outcomes)


def run_op(op: Op, call=None) -> Outcome:
    """Time one op and classify it; ``call`` replaces ``op.run`` (the traced
    run passes the op wrapped in its root span)."""
    call = call or op.run
    start = perf_counter()
    try:
        result = call()
    except PolymomError as exc:
        seconds = perf_counter() - start
        return Outcome(op.kind, op.label, "failed", seconds, op.moments(None),
                       None, 0, op.certified, type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 -- the loop must go on and report it
        seconds = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Outcome(op.kind, op.label, "crashed", seconds, op.moments(None),
                       None, 0, op.certified, type(exc).__name__)
    seconds = perf_counter() - start
    try:
        ok = bool(op.check(result))
    except Exception:  # noqa: BLE001 -- a malformed result fails its check
        ok = False
    prov = getattr(result, "provenance", None)
    return Outcome(
        op.kind,
        op.label,
        "ok" if ok else "wrong",
        seconds,
        op.moments(result),
        prov.retries if prov is not None else 0,
        len(prov.directions) if prov is not None and op.draws_directions else 0,
        op.certified,
    )
