"""Polytope structure, triangulation, and direction sampling."""

import functools
import json
from fractions import Fraction
from random import Random
from time import perf_counter

import pytest

from conftest import random_polygon, unit_cube, unit_square, unit_triangle
from polymom import linalg
from polymom.config import RunConfig
from polymom.errors import InputError
from polymom.geometry import (
    Polytope,
    TangentCone,
    _angular_order,
    _is_prime,
    check_distinct_projections,
    fan_triangulate_2d,
    polygon_cones,
    polytope_from_json,
    polytope_to_json,
    sample_generic_direction,
    simplex_cones,
    simplex_volume,
    validate_polytope,
)

F = Fraction


class TestValidate:
    def test_valid_square(self):
        assert validate_polytope(unit_square()) == []

    def test_duplicate_vertex(self):
        p = Polytope(dim=2, vertices=((F(0), F(0)), (F(1), F(0)), (F(0), F(0))))
        assert any("duplicate vertex" in f for f in validate_polytope(p))

    def test_degenerate_cone(self):
        cones = (
            TangentCone(vertex=0, edges=((F(1), F(0)), (F(2), F(0))), det=F(0)),
        )
        p = Polytope(
            dim=2,
            vertices=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
            cones=cones,
        )
        findings = validate_polytope(p)
        assert any("degenerate cone" in f for f in findings)

    def test_too_few_vertices(self):
        p = Polytope(dim=2, vertices=((F(0), F(0)), (F(1), F(0))))
        assert any("fewer than" in f for f in validate_polytope(p))

    def test_wrong_stored_det(self):
        cones = (
            TangentCone(vertex=0, edges=((F(1), F(0)), (F(0), F(1))), det=F(7)),
        )
        p = Polytope(
            dim=2,
            vertices=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
            cones=cones,
        )
        assert any("stored det" in f for f in validate_polytope(p))

    def test_bad_simplex(self):
        p = Polytope(
            dim=2,
            vertices=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
            simplices=((0, 1, 1),),
        )
        assert any("bad simplex" in f for f in validate_polytope(p))


class TestFanTriangulation:
    def test_square(self):
        p = Polytope(
            dim=2,
            vertices=((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))),
        )
        assert fan_triangulate_2d(p) == ((0, 1, 2), (0, 2, 3))

    def test_triangle_is_itself(self):
        p = Polytope(dim=2, vertices=((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
        assert fan_triangulate_2d(p) == ((0, 1, 2),)

    def test_pentagon_area_matches_shoelace(self):
        verts = (
            (F(0), F(0)),
            (F(2), F(0)),
            (F(3), F(2)),
            (F(1), F(3)),
            (F(-1), F(1)),
        )
        p = Polytope(dim=2, vertices=verts)
        tri = fan_triangulate_2d(p)
        assert len(tri) == 3
        total = sum(simplex_volume(verts, s) for s in tri)
        # shoelace formula as the independent oracle
        shoelace = (
            sum(
                verts[i][0] * verts[(i + 1) % 5][1]
                - verts[(i + 1) % 5][0] * verts[i][1]
                for i in range(5)
            )
            / 2
        )
        assert total == abs(shoelace)

    def test_scrambled_vertex_order(self):
        verts = ((F(1), F(1)), (F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
        p = Polytope(dim=2, vertices=verts)
        tri = fan_triangulate_2d(p)
        total = sum(simplex_volume(verts, s) for s in tri)
        assert total == 1

    def test_collinear_triple_rejected(self):
        p = Polytope(
            dim=2,
            vertices=((F(0), F(0)), (F(1), F(0)), (F(2), F(0)), (F(0), F(1))),
        )
        with pytest.raises(InputError, match="collinear"):
            fan_triangulate_2d(p)

    def test_non_convex_rejected(self):
        p = Polytope(
            dim=2,
            vertices=(
                (F(0), F(0)),
                (F(4), F(0)),
                (F(4), F(4)),
                (F(2), F(1)),  # interior dent
            ),
        )
        with pytest.raises(InputError, match="convex"):
            fan_triangulate_2d(p)

    def test_random_polygons_tile_exactly(self, rng):
        for _ in range(10):
            p = random_polygon(rng)
            total = sum(simplex_volume(p.vertices, s) for s in p.simplices)
            n = p.n_vertices
            shoelace = (
                sum(
                    p.vertices[i][0] * p.vertices[(i + 1) % n][1]
                    - p.vertices[(i + 1) % n][0] * p.vertices[i][1]
                    for i in range(n)
                )
                / 2
            )
            # vertices are already in hull (counterclockwise) order
            assert total == abs(shoelace)


def _fraction_angular_order(vertices):
    """The angular order by Fraction cross products around the centroid."""
    n = len(vertices)
    cx = sum((v[0] for v in vertices), F(0)) / n
    cy = sum((v[1] for v in vertices), F(0)) / n

    def key(i):
        x, y = vertices[i][0] - cx, vertices[i][1] - cy
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(i, j):
        if key(i) != key(j):
            return key(i) - key(j)
        (ax, ay), (bx, by) = vertices[i], vertices[j]
        cr = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    return sorted(range(n), key=functools.cmp_to_key(cmp))


class TestAngularOrder:
    def test_matches_fraction_order(self, rng):
        for _ in range(40):
            verts = list(random_polygon(rng).vertices)
            rng.shuffle(verts)
            for pts in (verts, [tuple(float(x) for x in v) for v in verts]):
                assert _angular_order(pts)[0] == _fraction_angular_order(pts)

    def test_points_level_with_the_centroid(self):
        # centroid (1/2, 0): vertices 1 and 3 sit level with it on either
        # side, so the half-plane test alone places them
        verts = [(F(1, 2), F(1)), (F(3), F(0)), (F(1, 2), F(-1)), (F(-2), F(0))]
        for pts in (verts, [tuple(float(x) for x in v) for v in verts]):
            assert _angular_order(pts)[0] == _fraction_angular_order(pts) == [1, 0, 3, 2]
            p = Polytope(dim=2, vertices=tuple(pts))
            assert fan_triangulate_2d(p) == ((0, 3, 2), (0, 2, 1))


def _vertex_check_fan(p):
    """The fan triangulation with its convexity check on Fraction cross
    products of the vertices themselves, kept as the reference."""
    n = p.n_vertices
    order = _fraction_angular_order(p.vertices)
    for k in range(n):
        o, a, b = (p.vertices[order[(k + i) % n]] for i in range(3))
        cr = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        if cr == 0:
            raise InputError("collinear vertex triple: zero-area triangle")
        if cr < 0:
            raise InputError("vertices are not in convex position")
    start = order.index(0)
    cyc = order[start:] + order[:start]
    return tuple((0, cyc[k], cyc[k + 1]) for k in range(1, n - 1))


def _fan_outcome(fan, p):
    try:
        return fan(p)
    except InputError as exc:
        return str(exc)


class TestFanConvexityCheck:
    def test_matches_the_vertex_check(self, rng):
        outcomes = set()
        for _ in range(60):
            verts = list(random_polygon(rng).vertices)
            (ax, ay), (bx, by) = verts[0], verts[1]
            kind = rng.randrange(3)
            if kind == 1:  # a point on an edge: a collinear triple
                verts.append(((ax + bx) / 2, (ay + by) / 2))
            elif kind == 2:  # a point just inside that edge: not convex
                cx = sum(v[0] for v in verts) / len(verts)
                cy = sum(v[1] for v in verts) / len(verts)
                verts.append(((ax + bx) * F(9, 20) + cx / 10, (ay + by) * F(9, 20) + cy / 10))
            rng.shuffle(verts)
            for pts in (verts, [tuple(float(x) for x in v) for v in verts]):
                p = Polytope(dim=2, vertices=tuple(pts))
                want = _fan_outcome(_vertex_check_fan, p)
                assert _fan_outcome(fan_triangulate_2d, p) == want
                outcomes.add(want if isinstance(want, str) else "ok")
        assert len(outcomes) == 3


def _trial_division_prime(n):
    """The primality check before Miller-Rabin, kept as the reference."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _reference_draw(dim, r, rng, mode):
    """The direction draw with the trial-division check, kept as the
    reference."""
    if r < 2 or not _trial_division_prime(r):
        raise InputError(f"denominator {r} must be a prime >= 2")
    draws = [rng.randrange(r) for _ in range(dim)]
    if mode == "float":
        return tuple(k / r for k in draws)
    return tuple(F(k, r) for k in draws)


class TestPrimality:
    def test_matches_trial_division(self):
        rng = Random(3)
        # strong pseudoprimes to the base 2, to 2..7 (the first at the
        # four-base bound) and to 2..13; a product of two primes
        hard = [2047, 3277, 1373653, 25326001, 3215031751, 2152302898747,
                3474749660383, 1000003 * 1000033]
        samples = [*range(-2, 30000), *hard, *(rng.randrange(10**6, 10**9) for _ in range(300))]
        for n in samples:
            assert _is_prime(n) == _trial_division_prime(n), n
        # strong pseudoprimes to 2..17 and 2..23, beyond trial division here
        assert not _is_prime(341550071728321) and not _is_prime(3825123056546413051)
        assert _is_prime(2**61 - 1)

    def test_denominator_beyond_the_bases_rejected_at_once(self):
        # the first prime above _MR_BOUND: trial division up to its square
        # root (1.8e12) would not return for hours
        n = 3317044064679887385962123
        start = perf_counter()
        with pytest.raises(InputError, match="too large"):
            RunConfig(denominator=n).validate()
        with pytest.raises(InputError, match="too large"):
            sample_generic_direction(2, n, Random(0))
        assert perf_counter() - start < 1

    def test_draws_are_unchanged(self):
        for r in (2, 1009, 10007, 1000003, 1000001, 1, 9):
            for mode in ("exact", "float"):
                a, b = Random(r), Random(r)
                for dim in (1, 2, 3):
                    try:
                        want = _reference_draw(dim, r, a, mode)
                    except InputError as exc:
                        with pytest.raises(InputError, match=str(exc)):
                            sample_generic_direction(dim, r, b, mode)
                        continue
                    assert sample_generic_direction(dim, r, b, mode).coords == want


class TestSimplexCones:
    def test_unit_triangle_all_vertices(self):
        verts = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
        cones = simplex_cones(verts, (0, 1, 2))
        by_vertex = {c.vertex: c for c in cones}
        assert by_vertex[0].edges == ((F(1), F(0)), (F(0), F(1)))
        assert by_vertex[0].det == 1
        assert by_vertex[1].edges == ((F(-1), F(0)), (F(-1), F(1)))
        assert by_vertex[1].det == 1
        assert by_vertex[2].edges == ((F(0), F(-1)), (F(1), F(-1)))
        assert by_vertex[2].det == 1

    def test_det_equal_across_vertices(self, rng):
        from conftest import random_tetrahedron

        for _ in range(10):
            t = random_tetrahedron(rng)
            dets = {c.det for c in simplex_cones(t.vertices, t.simplices[0])}
            assert len(dets) == 1
            for c in simplex_cones(t.vertices, t.simplices[0]):
                assert c.recompute_det() == c.det

    def test_degenerate_simplex(self):
        verts = ((F(0), F(0)), (F(1), F(0)), (F(2), F(0)))
        with pytest.raises(InputError, match="degenerate"):
            simplex_cones(verts, (0, 1, 2))


class TestPolygonCones:
    def test_det_is_det_exact(self):
        # the corner's cross product against the Bareiss determinant, on
        # exact vertices and on their float copies
        rng = Random(17)
        for _ in range(40):
            p = random_polygon(rng)
            floats = Polytope(dim=2, vertices=tuple(
                tuple(float(x) for x in v) for v in p.vertices))
            mixed = Polytope(dim=2, vertices=floats.vertices[:1] + p.vertices[1:])
            for q in (p, floats, mixed):
                for c in polygon_cones(q):
                    want = abs(linalg.det_exact([list(col) for col in zip(*c.edges)]))
                    assert type(c.det) is Fraction and c.det == want


class TestDirectionSampling:
    def test_enumeration_uniform_at_small_r(self):
        counts = {}
        rng = Random(3)
        for _ in range(8000):
            d = sample_generic_direction(2, 2, rng)
            counts[d.coords] = counts.get(d.coords, 0) + 1
        assert len(counts) == 4
        assert all(abs(c - 2000) < 250 for c in counts.values())

    def test_denominator_r(self):
        d = sample_generic_direction(3, 10007, Random(5))
        assert d.denominator == 10007
        for x in d.coords:
            assert 0 <= x < 1
            assert x.denominator in (1, 10007)

    def test_seed_pin(self):
        # regression pin recorded on first run
        d = sample_generic_direction(2, 10007, Random(1234))
        assert d.coords == (F(7220, 10007), F(1914, 10007))

    def test_r_must_be_prime(self):
        with pytest.raises(InputError, match="prime"):
            sample_generic_direction(2, 10, Random(0))

    def test_float_mode(self):
        d = sample_generic_direction(2, 10007, Random(1234), mode="float")
        assert d.coords == (7220 / 10007, 1914 / 10007)


class TestDistinctProjections:
    def test_collision(self):
        assert not check_distinct_projections(unit_triangle(), (F(1), F(0)))

    def test_distinct(self):
        assert check_distinct_projections(unit_triangle(), (F(1), F(2)))

    def test_zero_direction(self):
        assert not check_distinct_projections(unit_triangle(), (F(0), F(0)))


class TestJsonRoundTrip:
    def test_polytope_round_trip(self, tmp_path):
        for p in (unit_triangle(), unit_square(), unit_cube()):
            doc = polytope_to_json(p)
            text = json.dumps(doc)
            back = polytope_from_json(json.loads(text))
            assert back == p

    def test_scalars_as_strings_and_numbers(self):
        doc = {
            "dim": 2,
            "vertices": [["0", 0], ["1/2", 1], [0.5, "2"]],
        }
        p = polytope_from_json(doc)
        assert p.vertices[1] == (F(1, 2), F(1))
        assert p.vertices[2] == (F(1, 2), F(2))

    def test_bad_document(self):
        with pytest.raises(InputError):
            polytope_from_json({"vertices": [[0, 0]]})

    def test_float_mode_load(self):
        doc = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
        p = polytope_from_json(doc, mode="float")
        assert p.vertices[2] == (0.0, 1.0)
