"""Seeded instance generator for the benchmark.

Every family is built from a ``random.Random`` the caller seeds, so the
same seed gives the same shapes. Polytopes carry tangent-cone data where
they are simple and a triangulation always, exactly as the library's
forward routes need them. Vertices are rational (``Fraction``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from polymom.geometry import Polytope, TangentCone, fan_triangulate_2d, polygon_cones
from polymom.numeric import MultiPoly


def _polygon(vertices) -> Polytope:
    bare = Polytope(dim=2, vertices=tuple(vertices))
    return Polytope(
        dim=2,
        vertices=bare.vertices,
        cones=polygon_cones(bare),
        simplices=fan_triangulate_2d(bare),
    )


def ngon(n: int) -> Polytope:
    """The ladder polygon: vertices (k, k^2/7) for k < n, all on a parabola."""
    return _polygon((Fraction(k), Fraction(k * k, 7)) for k in range(n))


# fixed densities for ngon(12) in forward-routes, by degree; ngon vertices
# have nonnegative coordinates, so both are at least 1 on it
NGON_DENSITIES = {
    0: None,
    1: MultiPoly(2, {(0, 0): Fraction(1), (1, 0): Fraction(1), (0, 1): Fraction(1)}),
    2: MultiPoly(2, {(0, 0): Fraction(1), (2, 0): Fraction(1), (1, 1): Fraction(1),
                     (0, 2): Fraction(1)}),
}


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points):
    """Andrew's monotone chain over exact rationals (strictly convex hull)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def rational_polygon(rng: Random, vertices: int | None = None) -> Polytope:
    """Convex hull of random points with coordinates p/q, |p| <= 60, q <= 10.

    By default the hull of 5..11 points, kept when it has 3..8 vertices.
    With ``vertices`` given, ``vertices`` of the hull vertices of
    4 * vertices points, so that an op's cost does not swing with the
    vertex count."""
    while True:
        count = rng.randint(5, 11) if vertices is None else 4 * vertices
        pts = [
            (Fraction(rng.randint(-60, 60), rng.randint(1, 10)),
             Fraction(rng.randint(-60, 60), rng.randint(1, 10)))
            for _ in range(count)
        ]
        hull = _hull(pts)
        if vertices is None:
            if 3 <= len(hull) <= 8:
                return _polygon(hull)
        elif len(hull) >= vertices:
            # any subset of a strictly convex polygon's vertices is one too
            return _polygon(hull[i] for i in sorted(rng.sample(range(len(hull)), vertices)))


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _coord(rng, lo, hi, dmax):
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def _vec(rng, lo, hi, dmax):
    return tuple(_coord(rng, lo, hi, dmax) for _ in range(3))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _small(vertices, bound=100):
    return all(abs(x.numerator) <= bound and x.denominator <= bound
               for v in vertices for x in v)


def tetrahedron(rng: Random) -> Polytope:
    """Four random rational points in general position (|p| <= 20, q <= 4)."""
    while True:
        pts = [_vec(rng, -20, 20, 4) for _ in range(4)]
        if _det3(*(_sub(p, pts[0]) for p in pts[1:])) != 0:
            return Polytope(dim=3, vertices=tuple(pts), simplices=((0, 1, 2, 3),))


def _box_simplices():
    """Staircase triangulation of a box whose 8 vertices are listed in
    ``itertools.product((0, 1), repeat=3)`` order: one simplex per axis order."""
    index = {bits: i for i, bits in enumerate(itertools.product((0, 1), repeat=3))}
    out = []
    for perm in itertools.permutations(range(3)):
        bits = [0, 0, 0]
        chain = [index[tuple(bits)]]
        for axis in perm:
            bits[axis] = 1
            chain.append(index[tuple(bits)])
        out.append(tuple(chain))
    return tuple(out)


def _box(origin, edges) -> Polytope:
    """The parallelepiped origin + {0,1}-combinations of three edges, with
    its eight (congruent up to sign) tangent cones."""
    det = abs(_det3(*edges))
    vertices, cones = [], []
    for i, bits in enumerate(itertools.product((0, 1), repeat=3)):
        v = origin
        for b, e in zip(bits, edges):
            if b:
                v = _add(v, e)
        vertices.append(v)
        cone_edges = tuple(tuple(-x for x in e) if b else e for b, e in zip(bits, edges))
        cones.append(TangentCone(vertex=i, edges=cone_edges, det=det))
    return Polytope(dim=3, vertices=tuple(vertices), cones=tuple(cones),
                    simplices=_box_simplices())


def unit_cube() -> Polytope:
    zero, one = Fraction(0), Fraction(1)
    axes = tuple(tuple(one if t == k else zero for t in range(3)) for k in range(3))
    return _box((zero, zero, zero), axes)


def parallelepiped(rng: Random) -> Polytope:
    """A random box with small rational coordinates (|p| <= 100, q <= 100)."""
    while True:
        origin = _vec(rng, -10, 10, 2)
        edges = tuple(_vec(rng, -8, 8, 2) for _ in range(3))
        if _det3(*edges) == 0:
            continue
        box = _box(origin, edges)
        if _small(box.vertices):
            return box


def prism(rng: Random) -> Polytope:
    """A random triangle swept along an off-plane vector: 6 vertices, simple."""
    while True:
        tri = [_vec(rng, -12, 12, 2) for _ in range(3)]
        w = _vec(rng, -8, 8, 2)
        if _det3(_sub(tri[1], tri[0]), _sub(tri[2], tri[0]), w) == 0:
            continue
        top = [_add(v, w) for v in tri]
        if not _small(tri + top):
            continue
        cones = []
        for layer, lift, offset in ((tri, w, 0), (top, tuple(-x for x in w), 3)):
            for i in range(3):
                edges = (_sub(layer[(i + 1) % 3], layer[i]),
                         _sub(layer[(i + 2) % 3], layer[i]), lift)
                cones.append(TangentCone(vertex=offset + i, edges=edges,
                                         det=abs(_det3(*edges))))
        return Polytope(dim=3, vertices=tuple(tri + top), cones=tuple(cones),
                        simplices=((0, 1, 2, 5), (0, 1, 5, 4), (0, 4, 5, 3)))


def square_pyramid() -> Polytope:
    """Apex over the unit square. The apex cone has four edges, so the
    polytope is not simple and carries a triangulation only."""
    f = Fraction
    vertices = ((f(0), f(0), f(0)), (f(1), f(0), f(0)), (f(1), f(1), f(0)),
                (f(0), f(1), f(0)), (f(1, 2), f(1, 2), f(1)))
    return Polytope(dim=3, vertices=vertices, simplices=((0, 1, 2, 4), (0, 2, 3, 4)))


def _exponents(dim, degree):
    for exp in itertools.product(range(degree + 1), repeat=dim):
        if sum(exp) <= degree:
            yield exp


def density(rng: Random, polytope: Polytope, degree: int) -> MultiPoly:
    """A random polynomial with every monomial of degree <= ``degree``
    (degree >= 1), shifted so that it is at least 1 on the polytope.

    A linear density is smallest at a vertex. For higher degree the shift
    uses the bound rho >= c_0 - sum |c_e| M^|e| with M the largest vertex
    coordinate in absolute value."""
    dim = polytope.dim
    zero = (0,) * dim
    terms = {exp: Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
             for exp in _exponents(dim, degree)}
    terms[zero] = Fraction(rng.randint(1, 6))
    rho = MultiPoly(dim, terms)
    if degree == 1:
        low = min(rho.evaluate(v) for v in polytope.vertices)
    else:
        big = max(abs(x) for v in polytope.vertices for x in v)
        low = terms[zero] - sum(abs(c) * big ** sum(e)
                                for e, c in rho.terms.items() if e != zero)
    if low < 1:
        rho = rho + MultiPoly.constant(dim, 1 - low)
    return rho
