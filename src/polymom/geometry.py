"""Polytope representation, validation, and generic direction sampling.

A polytope is stored by its vertex list plus optional per-vertex tangent
cone data (simple polytopes) and/or an explicit triangulation (index lists
into the vertex array, no new vertices). Automatic triangulation is
provided for d=2 only; in higher dimension the caller must supply cones or
simplices.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from . import linalg
from .errors import InputError
from .numeric import EXACT, FLOAT, index_from_json, integerize, scalar_from_json, scalar_to_json

# Smallest prime >= 10^6; default denominator for rational direction sampling.
DEFAULT_DENOMINATOR = 1000003


def _to_double(x, what):
    """float(x), or InputError naming ``what`` beyond the double range."""
    try:
        return float(x)
    except OverflowError:
        raise InputError(f"float mode: a {what} is beyond the double range") from None


@dataclass(frozen=True)
class TangentCone:
    """Edge data of the tangent cone at one vertex of a simple polytope."""

    vertex: int
    edges: tuple
    det: object  # |det| of the edge matrix, positive

    def recompute_det(self):
        return abs(linalg.det_exact([list(col) for col in zip(*self.edges)]))


@dataclass(frozen=True)
class Polytope:
    dim: int
    vertices: tuple
    cones: tuple | None = None
    simplices: tuple | None = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @functools.cached_property
    def cone_table(self):
        """(V, vertices, cones), the part of the vertex sum that does not
        depend on z, built once: exact vertices times their common
        denominator V, and per cone (given, or the triangulation's simplex
        cones) (cone, edges, det), each edge scaled to integers and |det| by
        the same factors, so that det / prod <edge, z> = D_v(z). Float data
        stays as given, with V = None."""
        cones = self.cones
        if cones is None:
            cones = [c for s in triangulation_of(self) for c in simplex_cones(self.vertices, s)]
        flat = [x for v in self.vertices for x in v]
        data = flat + [c.det for c in cones] + [x for c in cones for w in c.edges for x in w]
        if any(isinstance(x, float) for x in data):
            return None, self.vertices, tuple((c, c.edges, c.det) for c in cones)
        flat, scale = integerize(flat)
        table = []
        for c in cones:
            edges, factors = zip(*(integerize(w) for w in c.edges))
            table.append((c, edges, Fraction(c.det) * prod(factors)))
        d = self.dim
        vertices = tuple(flat[i:i + d] for i in range(0, len(flat), d))
        return scale, vertices, tuple(table)

    @functools.cached_property
    def cone_arrays(self):
        """``cone_table`` as float arrays for the float vertex sum, built
        once: (points, edges, dets, index). The rows of ``points`` are the
        vertices of the sum's terms: one per cone when the cones are given
        (``index`` None), else the triangulation's vertices in sorted order,
        with ``index`` the row of each cone's vertex. Per cone, ``edges``
        holds its d edges and ``dets`` its |det|."""
        # imported here, not at the top: numpy loaded before the package's
        # other modules raises the peak memory of importing them from source
        import numpy as np

        _, vertices, cones = self.cone_table
        rows = [c.vertex for c, _, _ in cones]
        index = None
        if self.cones is None:
            position = {v: r for r, v in enumerate(sorted(set(rows)))}
            rows, index = list(position), np.array([position[v] for v in rows])
        d = self.dim
        points = np.array([vertices[v] for v in rows], dtype=float).reshape(len(rows), d)
        edges = np.array([e for _, e, _ in cones], dtype=float).reshape(len(cones), d, d)
        dets = np.array([_to_double(det, "cone determinant") for _, _, det in cones])
        return points, edges, dets, index


@dataclass(frozen=True)
class Direction:
    """A direction vector; rational samples carry their denominator."""

    coords: tuple
    denominator: int | None = None


def dot(u, v):
    total = 0
    for a, b in zip(u, v):
        total = total + a * b
    return total


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def simplex_cones(vertices, simplex):
    """Tangent cones of a single simplex, one per vertex.

    ``simplex`` is a (d+1)-tuple of indices into ``vertices``. At vertex v
    the edges are u - v over the other vertices; |det| is the same for all
    of them and must be nonzero.
    """
    pts = [vertices[i] for i in simplex]
    d = len(pts[0])
    if len(simplex) != d + 1:
        raise InputError(f"simplex {simplex} must have {d + 1} vertices")
    cones = []
    for i, vi in enumerate(simplex):
        edges = tuple(_sub(pts[j], pts[i]) for j in range(len(pts)) if j != i)
        det = abs(linalg.det_exact([list(col) for col in zip(*edges)]))
        if det == 0:
            raise InputError(f"degenerate simplex {simplex}")
        cones.append(TangentCone(vertex=vi, edges=edges, det=det))
    return cones


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _angular_order(vertices):
    """Indices of 2-d points sorted counterclockwise around their centroid,
    compared on the offsets from it, which ``integerize`` scales to ints by
    one positive factor for exact data; and those integer offsets, or None
    for float data."""
    n = len(vertices)
    cx = sum((v[0] for v in vertices), Fraction(0)) / n
    cy = sum((v[1] for v in vertices), Fraction(0)) / n
    flat, _ = integerize([w for v in vertices for w in (v[0] - cx, v[1] - cy)])
    offsets = [flat[k:k + 2] for k in range(0, 2 * n, 2)]
    halves = [0 if (y > 0 or (y == 0 and x > 0)) else 1 for x, y in offsets]

    def cmp(i, j):
        if halves[i] != halves[j]:
            return halves[i] - halves[j]
        (xi, yi), (xj, yj) = offsets[i], offsets[j]
        cr = xi * yj - yi * xj
        return (cr < 0) - (cr > 0)

    order = sorted(range(n), key=functools.cmp_to_key(cmp))
    return order, offsets if all(isinstance(x, int) for x in flat) else None


def fan_triangulate_2d(p: Polytope):
    """Fan triangulation of a convex polygon: N-2 triangles sharing vertex 0.

    Vertices may be listed in any order; they are sorted angularly around
    the centroid and checked for strict convexity first. On exact data the
    check compares the signs of cross products of the integer offsets,
    which are those of the vertices' own (times one positive square).
    """
    if p.dim != 2:
        raise InputError("fan triangulation requires dim 2")
    n = p.n_vertices
    if n < 3:
        raise InputError("need at least 3 vertices")
    order, offsets = _angular_order(p.vertices)
    points = p.vertices if offsets is None else offsets
    for k in range(n):
        cr = _cross2(*(points[order[(k + i) % n]] for i in range(3)))
        if cr == 0:
            raise InputError("collinear vertex triple: zero-area triangle")
        if cr < 0:
            raise InputError("vertices are not in convex position")
    start = order.index(0)
    cyc = order[start:] + order[:start]
    return tuple((0, cyc[k], cyc[k + 1]) for k in range(1, n - 1))


def triangulation_of(p: Polytope):
    """The simplex list used for triangulated evaluation.

    Explicit simplices win; otherwise d=2 polygons are fan-triangulated and
    a (d+1)-vertex polytope is its own simplex.
    """
    if p.simplices is not None:
        return p.simplices
    if p.dim == 2:
        return fan_triangulate_2d(p)
    if p.n_vertices == p.dim + 1:
        return (tuple(range(p.dim + 1)),)
    raise InputError(
        "polytope needs cones or an explicit triangulation in dimension "
        f"{p.dim} with {p.n_vertices} vertices"
    )


def polygon_cones(p: Polytope):
    """Tangent cones of a convex polygon: the two incident edge vectors."""
    order, _ = _angular_order(p.vertices)
    n = len(order)
    cones = []
    for k, idx in enumerate(order):
        prev_v = p.vertices[order[(k - 1) % n]]
        next_v = p.vertices[order[(k + 1) % n]]
        v = p.vertices[idx]
        edges = (_sub(prev_v, v), _sub(next_v, v))
        (a, b), (c, e) = edges
        # float vertices keep the exact determinant of their binary values
        det = abs(Fraction(a) * Fraction(e) - Fraction(b) * Fraction(c))
        if det == 0:
            raise InputError("degenerate polygon corner")
        cones.append(TangentCone(vertex=idx, edges=edges, det=det))
    cones.sort(key=lambda c: c.vertex)
    return tuple(cones)


def validate_polytope(p: Polytope):
    """Check all structural invariants; returns a list of findings
    (empty iff valid)."""
    findings = []
    d = p.dim
    if len(set(map(tuple, p.vertices))) != p.n_vertices:
        findings.append("duplicate vertex")
    if p.n_vertices < d + 1:
        findings.append(f"fewer than {d + 1} vertices")
    for v in p.vertices:
        if len(v) != d:
            findings.append(f"vertex {v} has wrong dimension")
    if p.cones is not None:
        seen = set()
        for cone in p.cones:
            if not 0 <= cone.vertex < p.n_vertices:
                findings.append(f"cone references missing vertex {cone.vertex}")
                continue
            seen.add(cone.vertex)
            if len(cone.edges) != d:
                findings.append(f"cone at vertex {cone.vertex}: expected {d} edges")
                continue
            det = cone.recompute_det()
            if det == 0:
                findings.append(f"degenerate cone at vertex {cone.vertex}")
                continue
            if isinstance(cone.det, float):
                ok = abs(float(det) - cone.det) <= 1e-12 * max(1.0, abs(cone.det))
            else:
                ok = det == cone.det
            if not ok:
                findings.append(
                    f"cone at vertex {cone.vertex}: stored det {cone.det} != {det}"
                )
        if len(seen) != p.n_vertices:
            findings.append("cones missing for some vertices")
    if p.simplices is not None:
        for s in p.simplices:
            if len(set(s)) != d + 1 or any(not 0 <= i < p.n_vertices for i in s):
                findings.append(f"bad simplex index list {s}")
                continue
            pts = [p.vertices[i] for i in s]
            m = [list(_sub(pts[j], pts[0])) for j in range(1, d + 1)]
            if linalg.det_exact(m) == 0:
                findings.append(f"zero-volume simplex {s}")
    return findings


def simplex_volume(vertices, simplex):
    pts = [vertices[i] for i in simplex]
    d = len(pts[0])
    m = [list(_sub(pts[j], pts[0])) for j in range(1, d + 1)]
    return abs(linalg.det_exact(m)) / factorial(d)


# Miller-Rabin with the first 13 primes as bases decides primality for every
# n below _MR_BOUND, and with the first 4 for every n below 3,215,031,751
# (Jaeschke, Math. Comp. 1993; Sorenson & Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin, a few modular powers per
    call. The bases decide nothing at or above ``_MR_BOUND``, so such n
    raise InputError."""
    if n >= _MR_BOUND:
        raise InputError(f"denominator {n} is too large: primality is decided "
                         f"below {_MR_BOUND} only")
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES[:4] if n < 3215031751 else _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sample_generic_direction(dim, r=DEFAULT_DENOMINATOR, rng=None, mode=EXACT):
    """Draw z uniformly from {0, 1/r, ..., (r-1)/r}^dim with r prime.

    Genericity is not certified here; the inverse pipeline detects bad
    directions downstream (rank instability) and resamples.
    """
    if rng is None:
        raise InputError("an explicit rng is required for reproducibility")
    if r < 2 or not _is_prime(r):
        raise InputError(f"denominator {r} must be a prime >= 2")
    draws = [rng.randrange(r) for _ in range(dim)]
    if mode == FLOAT:
        coords = tuple(k / r for k in draws)
    else:
        coords = tuple(Fraction(k, r) for k in draws)
    return Direction(coords=coords, denominator=r)


def check_distinct_projections(p: Polytope, z) -> bool:
    """True iff all vertex projections <v, z> are pairwise distinct.

    Test-harness helper: the inverse pipeline never sees the vertex set.
    """
    coords = z.coords if isinstance(z, Direction) else tuple(z)
    projections = [dot(v, coords) for v in p.vertices]
    return len(set(projections)) == len(projections)


def polytope_to_json(p: Polytope) -> dict:
    doc = {
        "dim": p.dim,
        "vertices": [[scalar_to_json(x) for x in v] for v in p.vertices],
    }
    if p.cones is not None:
        doc["cones"] = [
            {
                "vertex": c.vertex,
                "edges": [[scalar_to_json(x) for x in e] for e in c.edges],
            }
            for c in p.cones
        ]
    if p.simplices is not None:
        doc["simplices"] = [list(s) for s in p.simplices]
    return doc


def polytope_from_json(doc, mode=EXACT) -> Polytope:
    try:
        d = index_from_json(doc["dim"], "dim")
        vertices = tuple(
            tuple(scalar_from_json(x, mode) for x in v) for v in doc["vertices"]
        )
        if any(len(v) != d for v in vertices):
            raise InputError(f"every vertex needs {d} coordinates")
        cones = None
        if doc.get("cones") is not None:
            cones = []
            for c in doc["cones"]:
                edges = tuple(tuple(scalar_from_json(x, mode) for x in e) for e in c["edges"])
                if len(edges) != d or any(len(e) != d for e in edges):
                    raise InputError(f"every cone needs {d} edges of {d} coordinates")
                det = abs(linalg.det_exact([list(col) for col in zip(*edges)]))
                if mode == FLOAT:
                    det = _to_double(det, "cone determinant")
                cones.append(TangentCone(vertex=index_from_json(c["vertex"], "cone vertex"),
                                         edges=edges, det=det))
            cones = tuple(cones)
        simplices = None
        if doc.get("simplices") is not None:
            simplices = tuple(tuple(index_from_json(i, "simplex index") for i in s)
                                  for s in doc["simplices"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad polytope document: {exc}") from None
    p = Polytope(dim=d, vertices=vertices, cones=cones, simplices=simplices)
    findings = validate_polytope(p)
    if findings:
        raise InputError("bad polytope document: " + "; ".join(findings))
    return p


def load_polytope(path, mode=EXACT) -> Polytope:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read polytope file {path}: {exc}") from None
    return polytope_from_json(doc, mode)


def save_polytope(p: Polytope, path):
    with open(path, "w") as fh:
        json.dump(polytope_to_json(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def polytope_to_float(p: Polytope) -> Polytope:
    """Float-mode copy of an exact polytope."""
    verts = tuple(tuple(_to_double(x, "vertex coordinate") for x in v) for v in p.vertices)
    cones = None
    if p.cones is not None:
        cones = tuple(
            TangentCone(
                vertex=c.vertex,
                edges=tuple(tuple(_to_double(x, "edge coordinate") for x in e) for e in c.edges),
                det=_to_double(c.det, "cone determinant"),
            )
            for c in p.cones
        )
    return Polytope(dim=p.dim, vertices=verts, cones=cones, simplices=p.simplices)
