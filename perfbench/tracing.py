"""Traced-run harness: times each layer of polymom from outside.

``Tracer.install`` replaces public functions of the package modules with
wrappers at run time (``src/`` is never edited) and ``uninstall`` puts the
originals back. A wrapper opens a span named after the layer; a span's
self time is its duration minus the time covered by its child spans. A
call made while a span of the same name is innermost (a layer calling
itself, say the oracle's ``sequence`` calling ``moment``) joins that span.
Wrappers record nothing outside an op, so instance generation between ops
leaves no trace.

Spans stay in memory and are written out by ``write_spans`` at the end.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from importlib import import_module
from time import perf_counter

# by module path: the package namespace binds the name ``reconstruct`` to the
# function, not the module
linalg, moments, numeric, prony, reconstruct, univar = (
    import_module(f"polymom.{name}")
    for name in ("linalg", "moments", "numeric", "prony", "reconstruct", "univar"))

# (module or class, attribute, span name); prony is patched before the
# reconstruct bindings of the same functions
SPANS = (
    (prony, "prony_polynomial_from_sequence", "prony.hankel"),
    (prony, "minimal_kernel_vector", "prony.kernel"),
    (prony, "roots_exact", "prony.roots_exact"),
    (prony, "roots_float", "prony.roots_float"),
    (reconstruct, "projections_from_moments", "prony.solve"),
    (reconstruct, "prony_polynomial_from_sequence", "prony.solve"),
    (reconstruct, "axial_moments_direct", "moments.direct"),
    (reconstruct, "sample_generic_direction", "geometry.direction"),
    (reconstruct, "choose_beta", "reconstruct.choose_beta"),
    (reconstruct, "match_projections", "reconstruct.match"),
    (reconstruct, "assemble_vertices", "reconstruct.assemble"),
    (linalg, "solve_exact", "linalg.solve"),
    (linalg, "det_exact", "linalg.det"),
    (moments, "axial_moments_brion_density", "moments.brion"),
    (moments, "axial_moments_brion", "moments.brion"),
    (moments, "axial_moments_direct", "moments.direct"),
    (moments.PolytopeMomentOracle, "moment", "moments.oracle"),
    (moments.PolytopeMomentOracle, "sequence", "moments.oracle"),
    (univar, "interpolate_fab", "univar.interpolate"),
    (univar, "lagrange_coefficients", "univar.lagrange"),
)

COUNTERS = (
    (numeric.Jet, "__mul__", "numeric.jet_mul.calls"),
    (numeric.Jet, "__rmul__", "numeric.jet_mul.calls"),
    (numeric.MultiPoly, "__mul__", "numeric.poly_mul.calls"),
    (numeric.MultiPoly, "__rmul__", "numeric.poly_mul.calls"),
)

LAYERS = tuple(dict.fromkeys(
    ["linalg.bareiss"] + [name for _, _, name in SPANS]))
OP_KINDS = ("reconstruct", "frugal", "univar", "sequences", "forward")
PRONY_FAILURES = ("FullRankHankel", "RankInstability", "RankNotDivisible",
                  "MultiplicityMismatch", "IrrationalRoot", "InsufficientMoments",
                  "DenominatorVanishes")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count/op"
        units[f"{layer}.self_s"] = "s/op"
    for kind in OP_KINDS:
        units[f"op.{kind}.self_s"] = "s/op"
    units["linalg.bareiss.max_bits"] = "bits"
    units["linalg.bareiss.per_solve"] = "ratio"
    units["numeric.poly_mul.calls"] = "count/op"
    units["numeric.jet_mul.calls"] = "count/op"
    units["prony.solve.ok_ratio"] = "ratio"
    for exc in PRONY_FAILURES:
        units[f"prony.solve.fail.{exc}"] = "count/op"
    units["reconstruct.match.ok_ratio"] = "ratio"
    units["geometry.direction.useful_ratio"] = "ratio"
    units["moments.oracle.useful_ratio"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    MAX_SPANS = 300_000

    def __init__(self):
        self.active = False
        self.op = -1
        self.stack = []             # open spans: [name, id, time covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.max_bits = 0
        self.spans = []             # (op, id, parent id, name, start, end)
        self.dropped = 0
        self._ids = itertools.count()
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result)`` runs once the span has
        closed, and its time is hidden from the parent's self time."""

        def wrapper(*args, **kwargs):
            stack = self.stack
            if not self.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            frame = [name, next(self._ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, parent, start, perf_counter())
                if isinstance(exc, Exception):
                    self.counts[f"{name}.fail.{type(exc).__name__}"] += 1
                raise
            self._close(frame, parent, start, perf_counter())
            self.counts[f"{name}.ok"] += 1
            if after is not None:
                begin = perf_counter()
                after(result)
                if stack:
                    stack[-1][2] += perf_counter() - begin
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, parent, start, end):
        self.stack.pop()
        name, span_id, covered = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append((self.op, span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_bits(self, echelon):
        bits = max((abs(x).bit_length() for row in echelon.rows for x in row), default=0)
        self.max_bits = max(self.max_bits, bits)

    def _oracle_ensure(self, fn):
        def wrapper(oracle, coords, count):
            if self.active and (coords, count - 1) not in oracle._values:
                self.counts["moments.oracle.computed"] += count
            return fn(oracle, coords, count)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / run ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        self._patch(linalg, "bareiss_echelon",
                    self.span("linalg.bareiss", linalg.bareiss_echelon, self._record_bits))
        for owner, attr, name in SPANS:
            target = getattr(owner, attr)
            if owner is reconstruct and attr == "prony_polynomial_from_sequence":
                # wrap prony's traced function, so these solves show their hankel child
                target = prony.prony_polynomial_from_sequence
            self._patch(owner, attr, self.span(name, target))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self.counter(name, owner.__dict__[attr]))
        oracle = moments.PolytopeMomentOracle
        self._patch(oracle, "_ensure", self._oracle_ensure(oracle._ensure))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call_op(self, index, kind, fn):
        """Run one op inside its root span ``op.<kind>``."""
        self.op = index
        self.active = True
        try:
            return self.span(f"op.{kind}", fn)()
        finally:
            self.active = False

    # -- report -------------------------------------------------------------

    def metrics(self, n_ops, directions_kept, served):
        """Per-layer metrics, normalised per op where they are totals;
        ``served`` is the distinct measurements the ops' oracles served."""

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / n_ops
            out[f"{layer}.self_s"] = self.self_s[layer] / n_ops
        for kind in OP_KINDS:
            out[f"op.{kind}.self_s"] = self.self_s[f"op.{kind}"] / n_ops
        out["linalg.bareiss.max_bits"] = self.max_bits
        out["linalg.bareiss.per_solve"] = ratio(self.calls["linalg.bareiss"],
                                                self.calls["prony.solve"])
        out["numeric.poly_mul.calls"] = self.counts["numeric.poly_mul.calls"] / n_ops
        out["numeric.jet_mul.calls"] = self.counts["numeric.jet_mul.calls"] / n_ops
        out["prony.solve.ok_ratio"] = ratio(self.counts["prony.solve.ok"],
                                            self.calls["prony.solve"])
        for exc in PRONY_FAILURES:
            out[f"prony.solve.fail.{exc}"] = self.counts[f"prony.solve.fail.{exc}"] / n_ops
        out["reconstruct.match.ok_ratio"] = ratio(self.counts["reconstruct.match.ok"],
                                                  self.calls["reconstruct.match"])
        out["geometry.direction.useful_ratio"] = ratio(directions_kept,
                                                       self.calls["geometry.direction"])
        out["moments.oracle.useful_ratio"] = ratio(served,
                                                   self.counts["moments.oracle.computed"])
        return out

    def other_failures(self):
        """prony.solve failures of classes outside PRONY_FAILURES."""
        prefix = "prony.solve.fail."
        return {k[len(prefix):]: v for k, v in self.counts.items()
                if k.startswith(prefix) and k[len(prefix):] not in PRONY_FAILURES}

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("op\tid\tparent\tname\tstart_s\tend_s\n")
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(f"{op}\t{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
