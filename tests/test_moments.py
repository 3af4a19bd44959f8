"""Forward moments: vertex-cone route vs barycentric integration."""

import json
from fractions import Fraction
from math import comb, factorial, isfinite, lcm, prod
from random import Random

import pytest

from conftest import (
    random_density,
    random_parallelepiped,
    random_polygon,
    random_prism,
    random_tetrahedron,
    square_pyramid,
    unit_cube,
    unit_square,
    unit_triangle,
)
from polymom import moments
from polymom.errors import DenominatorVanishes, InputError, InsufficientMoments
from polymom.geometry import (
    Polytope,
    TangentCone,
    dot,
    polygon_cones,
    polytope_from_json,
    polytope_to_float,
    polytope_to_json,
    sample_generic_direction,
    simplex_cones,
)
from polymom.linalg import det_exact
from polymom.prony import projections_from_moments
from polymom.moments import (
    MomentSequence,
    PolytopeMomentOracle,
    SequenceMomentOracle,
    add_noise,
    axial_moment_brion,
    axial_moment_brion_density,
    axial_moment_direct,
    axial_moments_brion,
    axial_moments_brion_density,
    axial_moments_direct,
    companion_identity_residual,
    moment_sequence,
    moments_from_json,
    moments_to_csv,
    moments_to_json,
    monomial_moment,
    monomial_moments_of_degree,
    scaled_moment_vector,
    triangulation_of,
    vertex_side_scaled_entry,
    _vertex_contractions,
)
from polymom.numeric import (
    Jet,
    MultiPoly,
    exact_div,
    extract_diff,
    falling,
    falling_column,
    integerize,
    jet_variables,
    mfactorial,
    poly_parse,
)

F = Fraction


def vertex_weight_terms(p, z):
    """Pairs (<v,z>, D-tilde_v(z)) per vertex of P from ``p.cone_table``,
    one cone at a time: the scalar form of the weights that the float route
    computes on ``Polytope.cone_arrays``. ``z`` may hold scalars or jets.
    Without simple cones the weights are accumulated over the
    triangulation (the D-tilde of the non-simple case)."""
    coords = tuple(z)
    scale, vertices, cones = p.cone_table
    terms = []
    for c, edges, det in cones:
        values = [dot(e, coords) for e in edges]
        for w, s in zip(c.edges, values):
            if (s.value() if isinstance(s, Jet) else s) == 0:
                raise DenominatorVanishes(c.vertex, tuple(w))
        terms.append((c.vertex, det / prod(values)))
    if p.cones is None:
        weights = {}
        for v, w in terms:
            weights[v] = weights[v] + w if v in weights else w
        terms = sorted(weights.items())
    if scale not in (None, 1):  # <v, z> = <V v, z / V>, scaled once, not per vertex
        coords = [exact_div(x, scale) for x in coords]
    return [(dot(vertices[v], coords), w) for v, w in terms]


class TestDirectIntegration:
    def test_triangle_area(self):
        assert axial_moment_direct(unit_triangle(), (F(1), F(0)), 0) == F(1, 2)

    def test_triangle_x_squared(self):
        # integral of x^2 over the unit triangle: int_0^1 x^2 (1-x) dx = 1/12
        assert axial_moment_direct(unit_triangle(), (F(1), F(0)), 2) == F(1, 12)

    def test_square_density_x(self):
        rho = poly_parse("x1", 2)
        # int over [0,1]^2 of x * x dA = 1/3
        assert axial_moment_direct(unit_square(), (F(1), F(0)), 1, rho) == F(1, 3)
        # j=0: int x dA = 1/2
        assert axial_moment_direct(unit_square(), (F(1), F(0)), 0, rho) == F(1, 2)

    def test_cube_volume(self):
        assert axial_moment_direct(unit_cube(), (F(1), F(2), F(3)), 0) == 1

    def test_pyramid_volume(self):
        assert axial_moment_direct(square_pyramid(), (F(1), F(2), F(3)), 0) == F(1, 3)


class TestBrion:
    def test_triangle_moments(self):
        tri = unit_triangle()
        z = (F(1), F(2))
        # D = (1/2, -1, 1/2) at projections (0, 1, 2)
        assert axial_moment_brion(tri, z, 0) == F(1, 2)
        assert axial_moment_brion(tri, z, 1) == F(1, 2)
        assert axial_moments_brion(tri, z, 3)[2] == F(7, 12)

    def test_square_area(self):
        # D = (1/2, -1/2, -1/2, 1/2) at projections (0, 1, 2, 3)
        assert axial_moment_brion(unit_square(), (F(1), F(2)), 0) == 1

    def test_denominator_vanishes(self):
        with pytest.raises(DenominatorVanishes):
            axial_moment_brion(unit_square(), (F(1), F(0)), 0)

    def test_triangulated_route_matches_cone_route(self):
        tri = unit_triangle()
        no_cones = Polytope(dim=2, vertices=tri.vertices, simplices=tri.simplices)
        z = (F(3), F(7))
        for j in range(5):
            assert axial_moment_brion(no_cones, z, j) == axial_moment_brion(tri, z, j)


class TestBrionDensity:
    def test_constant_density_reduces_to_uniform(self):
        tri = unit_triangle()
        z = (F(1), F(2))
        rho = poly_parse("1", 2)
        assert axial_moment_brion_density(tri, z, 1, rho) == F(1, 2)

    def test_square_density_x1(self):
        rho = poly_parse("x1", 2)
        got = axial_moment_brion_density(unit_square(), (F(1), F(3)), 0, rho)
        assert got == F(1, 2)

    def test_triangle_density_sum(self):
        rho = poly_parse("x1 + x2", 2)
        got = axial_moment_brion_density(unit_triangle(), (F(1), F(2)), 0, rho)
        assert got == F(1, 3)

    def test_against_direct_small_corpus(self, rng):
        # 25 random simplices here; the acceptance suite runs the full 200
        for _ in range(25):
            if rng.random() < 0.5:
                p = random_polygon(rng, max_vertices=3)
            else:
                p = random_tetrahedron(rng)
            deg = rng.randint(0, 2)
            rho = random_density(rng, p.dim, deg) if deg else None
            while True:
                z = sample_generic_direction(p.dim, 1009, rng).coords
                try:
                    brion = axial_moments_brion_density(p, z, 9, rho)
                    break
                except DenominatorVanishes:
                    continue
            direct = axial_moments_direct(p, z, 9, rho)
            assert brion == direct

    def test_vanished_term_stays_exact(self):
        # a density piece contributing exactly zero must not inject floats
        tri = Polytope(
            dim=2,
            vertices=((F(-1), F(0)), (F(1), F(0)), (F(0), F(1))),
            simplices=((0, 1, 2),),
        )
        rho = poly_parse("1 + x1", 2)  # int x1 dA = 0 by symmetry
        out = axial_moments_brion_density(tri, (F(1), F(3)), 3, rho)
        assert all(isinstance(m, Fraction) for m in out)
        assert out == axial_moments_direct(tri, (F(1), F(3)), 3, rho)


def _direct_reference(p, z, count, rho=None):
    """The generic-algebra direct route: expand rho(x) <x,z>^j in the
    barycentric coordinates with one MultiPoly product per j and integrate
    each monomial by Dirichlet's formula."""
    d = p.dim
    n = d + 1
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    out = [0] * count
    for simplex in triangulation_of(p):
        pts = [p.vertices[i] for i in simplex]
        vol = abs(det_exact([[pts[k][t] - pts[0][t] for t in range(d)]
                             for k in range(1, n)]))
        coord = [MultiPoly(n, {units[i]: pts[i][t] for i in range(n)})
                 for t in range(d)]
        cur = MultiPoly.constant(n, F(1))
        if rho is not None:
            cur = MultiPoly(n, {})
            for exp, coef in rho.terms.items():
                term = MultiPoly.constant(n, coef)
                for t, e in enumerate(exp):
                    term = term * coord[t] ** e
                cur = cur + term
        lin = MultiPoly(n, {units[i]: dot(pts[i], z) for i in range(n)})
        for j in range(count):
            for exp, coef in cur.terms.items():
                out[j] = out[j] + vol * coef * F(mfactorial(exp), factorial(d + sum(exp)))
            cur = cur * lin
    return out


def _brion_reference(p, z, count, rho=None):
    """The jet-power Brion route: the full jet of sum_v <v,z>^(j+d+s) W_v
    for every j and every homogeneous piece rho_s."""
    d = p.dim
    rho = MultiPoly.constant(d, F(1)) if rho is None else rho
    out = [0] * count
    for s, piece in rho.homogeneous_parts().items():
        terms = vertex_weight_terms(p, jet_variables(tuple(z), s))
        for j in range(count):
            total = 0
            for proj, w in terms:
                total = total + proj ** (j + d + s) * w
            val = extract_diff(piece, total)
            out[j] = out[j] + exact_div((-1) ** d * val, falling(j + d + s, d + s))
    return out


def _translated(p, shift):
    """P - shift; cones and triangulation carry over unchanged."""
    verts = tuple(tuple(x - s for x, s in zip(v, shift)) for v in p.vertices)
    return Polytope(dim=p.dim, vertices=verts, cones=p.cones, simplices=p.simplices)


def _closed_form_cases(seed, n):
    """Seeded (polytope, density, direction, count) cases for d = 2 and 3:
    simplices, polygons, prisms, parallelepipeds and the non-simple
    pyramid; densities of degree 0..3 and the zero density; in about half
    the cases a vertex is moved to the origin, so that <v,z> = 0."""
    rng = Random(seed)
    makers = (
        lambda: random_polygon(rng, max_vertices=3),
        lambda: random_polygon(rng, max_vertices=6),
        lambda: random_tetrahedron(rng),
        lambda: random_prism(rng),
        lambda: random_parallelepiped(rng),
        square_pyramid,
    )
    for k in range(n):
        p = makers[k % len(makers)]()
        if rng.random() < 0.5:
            p = _translated(p, rng.choice(p.vertices))
        deg = rng.randint(-1, 3 if p.n_vertices <= 6 else 1)
        rho = MultiPoly(p.dim, {}) if deg < 0 else random_density(rng, p.dim, deg)
        count = rng.randint(0, 12)
        while True:
            z = sample_generic_direction(p.dim, 1009, rng).coords
            try:
                vertex_weight_terms(p, z)
                break
            except DenominatorVanishes:
                continue
        yield p, rho, z, count


def _as_rational(p):
    """The exact polytope that a float polytope stands for."""
    def conv(t):
        return tuple(F(x) for x in t)

    cones = None
    if p.cones is not None:
        cones = tuple(TangentCone(c.vertex, tuple(map(conv, c.edges)), F(c.det))
                      for c in p.cones)
    return Polytope(dim=p.dim, vertices=tuple(map(conv, p.vertices)), cones=cones,
                    simplices=p.simplices)


def _relative_error(values, exact):
    return max((abs(F(a) - b) / abs(b) if b else abs(F(a))
                for a, b in zip(values, exact)), default=0)


class TestClosedForms:
    """The closed-form routes against the generic-algebra routes they
    replace, kept here as references."""

    def test_exact_against_references(self):
        seen_zero_projection = False
        for p, rho, z, count in _closed_form_cases(7, 36):
            direct = axial_moments_direct(p, z, count, rho)
            brion = axial_moments_brion_density(p, z, count, rho)
            assert direct == _direct_reference(p, z, count, rho)
            assert brion == _brion_reference(p, z, count, rho)
            assert brion == direct
            assert all(isinstance(m, Fraction) for m in direct)
            seen_zero_projection |= any(dot(v, z) == 0 for v in p.vertices)
        assert seen_zero_projection

    def test_vertex_side_entries_match_moments(self):
        # the companion identities' vertex side runs through the same
        # per-vertex contraction: it must equal c from the moments for all k
        for p, rho, z, count in _closed_form_cases(8, 12):
            lead = p.dim + rho.degree
            k_max = lead + count - 1
            c = scaled_moment_vector(moment_sequence(p, z, count, rho), k_max)
            for k in range(k_max + 1):
                assert vertex_side_scaled_entry(p, z, k, rho) == c[k], k

    def test_float_against_references(self):
        # float inputs read back as rationals give the exact value that both
        # float routes approximate
        for p, rho, z, count in _closed_form_cases(9, 18):
            pf, rf = polytope_to_float(p), rho.to_float()
            zf = tuple(float(x) for x in z)
            exact = axial_moments_direct(
                _as_rational(pf), tuple(map(F, zf)), count,
                MultiPoly(p.dim, {e: F(c) for e, c in rf.terms.items()}))
            direct = axial_moments_direct(pf, zf, count, rf)
            brion = axial_moments_brion_density(pf, zf, count, rf)
            assert len(direct) == len(brion) == count
            assert all(isinstance(m, float) for m in direct + brion)
            for a, b in zip(direct, _direct_reference(pf, zf, count, rf)):
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (a, b)
            assert _relative_error(direct, exact) <= 1e-12
            # the vertex sum cancels, and the jet-power route it replaces is
            # off by up to about 1e-11 here: hold the closed form to the
            # same accuracy rather than to agreement with that route
            ref_error = _relative_error(_brion_reference(pf, zf, count, rf), exact)
            assert _relative_error(brion, exact) <= max(10 * ref_error, 1e-14)

    def test_uniform_density_is_complete_homogeneous(self):
        # int over the simplex of <x,z>^j = vol j!/(j+d)! h_j(c_0..c_d)
        tri = unit_triangle()
        z = (F(2), F(5))
        h = [1, 7, 39, 203]  # h_j(0, 2, 5)
        want = [F(factorial(j), factorial(j + 2)) * h[j] for j in range(4)]
        assert axial_moments_direct(tri, z, 4) == want

    def test_degenerate_simplex_rejected(self):
        flat = Polytope(
            dim=2,
            vertices=((F(0), F(0)), (F(1), F(1)), (F(2), F(2))),
            simplices=((0, 1, 2),),
        )
        for count in (0, 3):
            with pytest.raises(InputError, match="degenerate"):
                axial_moments_direct(flat, (F(1), F(2)), count)


def _ladder_polygon(n):
    """The polygon (k, k^2/7), k < n: n - 2 fan simplices."""
    return Polytope(dim=2, vertices=tuple((F(k), F(k * k, 7)) for k in range(n)))


# <edge, z> = dk (2 + 5 (k + k') / 7) / 1009 never vanishes on the ladder polygons
LADDER_Z = (F(2, 1009), F(5, 1009))
LADDER_RHO = MultiPoly(2, {(0, 0): F(3), (1, 0): F(1, 2), (2, 0): F(1, 3),
                           (1, 1): F(-2, 5), (0, 2): F(1)})


class TestDirectOnIntegers:
    """The direct route sums every simplex over one denominator."""

    def test_one_division_per_moment(self, monkeypatch):
        p = _ladder_polygon(8)
        assert len(triangulation_of(p)) == 6
        divisors = []

        def counting(value, divisor):
            divisors.append(divisor)
            return exact_div(value, divisor)

        monkeypatch.setattr(moments, "exact_div", counting)
        out = axial_moments_direct(p, LADDER_Z, 10, LADDER_RHO)
        monkeypatch.undo()
        assert len(divisors) == 10
        assert out == _direct_reference(p, LADDER_Z, 10, LADDER_RHO)
        assert out == axial_moments_brion_density(p, LADDER_Z, 10, LADDER_RHO)

    @pytest.mark.parametrize("rho", [None, LADDER_RHO], ids=["uniform", "density"])
    def test_mixed_exact_and_float_inputs(self, rho):
        p = _ladder_polygon(6)
        pf, zf = polytope_to_float(p), tuple(float(x) for x in LADDER_Z)
        count = 12
        cases = [
            (pf, LADDER_Z, _as_rational(pf), LADDER_Z),  # exact direction, float polytope
            (p, zf, p, tuple(map(F, zf))),  # float direction, exact polytope
        ]
        for poly, z, exact_poly, exact_z in cases:
            out = axial_moments_direct(poly, z, count, rho)
            assert len(out) == count
            assert all(type(m) is float for m in out)
            exact = axial_moments_direct(exact_poly, exact_z, count, rho)
            assert _relative_error(out, exact) <= 1e-12

    def test_counts_zero_and_one(self):
        p = _ladder_polygon(8)
        pf, zf = polytope_to_float(p), tuple(float(x) for x in LADDER_Z)
        for rho in (None, LADDER_RHO):
            assert axial_moments_direct(p, LADDER_Z, 0, rho) == []
            assert axial_moments_direct(pf, zf, 0, rho) == []
            mass = axial_moments_direct(p, LADDER_Z, 1, rho)
            assert mass == axial_moments_brion_density(p, LADDER_Z, 1, rho)
            assert type(mass[0]) is Fraction
            (approx,) = axial_moments_direct(pf, zf, 1, rho)
            assert type(approx) is float and _relative_error([approx], mass) <= 1e-12
        vs = p.vertices
        area = abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(vs, vs[1:] + vs[:1]))) / 2
        assert axial_moments_direct(p, LADDER_Z, 1) == [area]

    def test_degenerate_simplex_rejected_at_count_zero(self):
        flat = Polytope(dim=2, vertices=((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)),
                        simplices=((0, 1, 2),))
        with pytest.raises(InputError, match="degenerate"):
            axial_moments_direct(flat, (0.5, 0.25), 0, LADDER_RHO)


def _cone_weight_reference(cone, z):
    denom = None
    for w in cone.edges:
        s = dot(w, z)
        if s == 0:
            raise DenominatorVanishes(cone.vertex, tuple(w))
        denom = s if denom is None else denom * s
    return cone.det / denom


def _vertex_weight_terms_reference(p, z):
    """The vertex weights before the cone table: every cone rebuilt from
    the polytope's own (Fraction or float) data for each direction."""
    if p.cones is not None:
        return [(dot(p.vertices[c.vertex], z), _cone_weight_reference(c, z))
                for c in p.cones]
    weights = {}
    for simplex in triangulation_of(p):
        for cone in simplex_cones(p.vertices, simplex):
            w = _cone_weight_reference(cone, z)
            weights[cone.vertex] = weights[cone.vertex] + w if cone.vertex in weights else w
    return [(dot(p.vertices[i], z), weights[i]) for i in sorted(weights)]


def _uniform_brion_reference(p, z, count):
    """The uniform vertex sum on Fraction (or float) powers, vertex by
    vertex, with the weights of ``_vertex_weight_terms_reference``. Only a
    rational direction is cleared, to q z, and mu_j is divided by q^j at
    the end."""
    d = p.dim
    q = 1
    if all(isinstance(x, Fraction) for x in z):
        q = lcm(*(x.denominator for x in z))
    terms = _vertex_weight_terms_reference(p, tuple(x * q for x in z))
    powers = [proj**d * w for proj, w in terms]
    out = []
    for j in range(count):
        total = 0
        for t in powers:
            total = total + t
        out.append(exact_div(exact_div((-1) ** d * total, falling(j + d, d)), q**j))
        powers = [t * proj for t, (proj, _) in zip(powers, terms)]
    return out


class TestUniformBrionOnIntegers:
    def test_exact_against_reference(self):
        # simple cones (polygons, prisms, ...) and the triangulated
        # non-simple pyramid, with and without a vertex at the origin
        kinds = set()
        for p, _, z, count in _closed_form_cases(10, 36):
            got = axial_moments_brion(p, z, count)
            assert got == _uniform_brion_reference(p, z, count)
            assert all(isinstance(m, Fraction) for m in got)
            kinds.add(p.cones is None)
        assert kinds == {True, False}

    def test_integer_direction_and_vertices(self):
        for p in (unit_cube(), square_pyramid(), unit_square()):
            z = tuple(F(k) for k in (3, 5, 11)[:p.dim])
            got = axial_moments_brion(p, z, 9)
            assert got == _uniform_brion_reference(p, z, 9)
            assert got == axial_moments_direct(p, z, 9)
            assert all(isinstance(m, Fraction) for m in got)

    def test_float_is_the_old_float_path(self):
        for p, _, z, count in _closed_form_cases(11, 24):
            pf, zf = polytope_to_float(p), tuple(float(x) for x in z)
            # float direction, and exact direction on a float polytope, which
            # runs on the float direction
            for w in (zf, z):
                assert axial_moments_brion(pf, w, count) == _uniform_brion_reference(pf, zf, count)


def _without_cones(p):
    return Polytope(dim=p.dim, vertices=p.vertices, simplices=p.simplices)


def _integer_polytope(p, factor):
    """factor * P with integer vertices, its cones and triangulation kept."""
    scaled = tuple(tuple(int(x * factor) for x in v) for v in p.vertices)
    return Polytope(dim=p.dim, vertices=scaled, cones=p.cones, simplices=p.simplices)


def _float_brion_sum_reference(p, coords, q, count, pieces):
    """The scalar moment loop of ``_brion_sum`` before its float arrays,
    kept as the reference."""
    d = p.dim
    projs, scale, tables = _vertex_contractions(p, coords, pieces)
    top = max(piece.degree for piece in pieces)
    den = lcm(*(t[0] for t in tables))
    groups = []  # (s, i, factor, running values)
    for piece, (piece_den, rows) in zip(pieces, tables):
        s = piece.degree
        factor = den // piece_den * scale ** (top - s)
        for i in range(s + 1):
            groups.append((s, i, factor, [n ** (d + s - i) * f[i] for n, f in zip(projs, rows)]))
    sign = (-1) ** d
    unit = den * scale ** (d + top)
    out = []
    for j, fall in enumerate(falling_column(d + top, count)):
        total = 0
        for s, i, factor, run in groups:
            total = total + falling(j + d + top, top - s) * factor * comb(j + d + s, i) * sum(run)
        out.append(exact_div(sign * total, fall * unit))
        if j + 1 < count:
            unit *= scale * q
            groups = [(s, i, f, [t * n for t, n in zip(run, projs)]) for s, i, f, run in groups]
    return out


def _outcome(call, *args):
    """The moments, or the class, vertex and edge of a DenominatorVanishes."""
    try:
        return call(*args)
    except DenominatorVanishes as exc:
        return DenominatorVanishes, exc.vertex, exc.edge


def _edge_normal_directions(p):
    """Float directions orthogonal to an edge of p: (-e_y, e_x) in the
    plane, a coordinate axis along which an axis-parallel edge does not
    move in space; <e, z> is then exactly 0 in floats."""
    _, _, cones = p.cone_table
    for _, edges, _ in cones:
        for e in edges:
            if p.dim == 2:
                yield (-float(e[1]), float(e[0]))
            elif sum(x == 0 for x in e) == p.dim - 1:
                yield tuple(float(x == 0) * (k + 1) for k, x in enumerate(e))


def _wide_triangle(leg):
    """The triangle (0, 0), (leg, 0), (0, leg), triangulated."""
    return Polytope(dim=2, vertices=((F(0), F(0)), (F(leg), F(0)), (F(0), F(leg))))


class TestFloatRange:
    """Float data whose cone determinants, denominators, projection powers
    or moments leave the double range raises InputError naming the quantity."""

    @pytest.mark.parametrize("build", ["triangulated", "float-copy-cones", "document-cones"])
    def test_cone_determinant(self, build):
        # |det| = 1e400: legs of 1e200 are doubles, their product is not
        exact = _wide_triangle(10**200)
        with pytest.raises(InputError, match="cone determinant is beyond the double range"):
            if build == "triangulated":
                axial_moments_brion(polytope_to_float(exact), (1.0, 2.0), 4)
            else:
                with_cones = Polytope(dim=2, vertices=exact.vertices, cones=polygon_cones(exact))
                if build == "float-copy-cones":
                    polytope_to_float(with_cones)
                else:
                    polytope_from_json(polytope_to_json(with_cones), "float")

    @pytest.mark.parametrize("z, quantity", [
        ((1e308, 1e308), "cone denominator"),
        ((1e200, 1e-200), r"power <v, z>\^2"),
    ])
    def test_direction(self, z, quantity):
        p = polytope_to_float(unit_square())
        with pytest.raises(InputError, match=f"{quantity} is beyond the double range"):
            axial_moments_brion(p, z, 4)

    def test_moment(self):
        # <v, z> = 1e100 and its square are doubles, but the vertex sum's
        # power <v, z>^(d + j) leaves the double range at j = 2
        p = polytope_to_float(unit_square())
        with pytest.raises(InputError, match="moment is beyond the double range"):
            moment_sequence(p, (1e100, 1.0), 5)
        oracle = PolytopeMomentOracle(unit_square(), mode="float")
        with pytest.raises(InputError, match="moment is beyond the double range"):
            oracle.sequence((1e100, 1.0), 5)
        assert oracle.unique_count == 0

    def test_exact_polytope_beyond_doubles(self):
        with pytest.raises(InputError, match="vertex coordinate is beyond the double range"):
            polytope_to_float(_wide_triangle(10**400))


class TestFloatBrionOnArrays:
    """The float vertex sums on arrays against the scalar loops they
    replace: equal bit for bit, and a vanishing edge denominator names the
    same cone and edge."""

    def test_density_sum_is_the_scalar_loop(self):
        seen = set()
        for p, rho, z, count in _closed_form_cases(31, 48):
            pf = polytope_to_float(p)
            pieces = list(rho.to_float().homogeneous_parts().values())
            if not pieces:
                continue
            directions = [tuple(float(x) for x in z), *list(_edge_normal_directions(pf))[:2]]
            for w in directions:
                want = _outcome(_float_brion_sum_reference, pf, w, 1, count, pieces)
                got = _outcome(moments._brion_sum, pf, w, 1, count, pieces)
                assert got == want, (p, w)
                seen.add(type(want))
        assert seen == {list, tuple}

    def test_uniform_sum_names_the_same_cone_and_edge(self):
        seen = 0
        for p, _, _, count in _closed_form_cases(32, 36):
            for variant in (polytope_to_float(p), polytope_to_float(_without_cones(p))):
                if variant.cones is None and variant.simplices is None and variant.dim == 3:
                    continue
                for w in _edge_normal_directions(variant):
                    want = _outcome(_uniform_brion_reference, variant, w, count)
                    assert _outcome(axial_moments_brion, variant, w, count) == want
                    seen += isinstance(want, tuple)
        assert seen >= 20

    @pytest.mark.parametrize("rho", [None, LADDER_RHO, LADDER_RHO.to_float()],
                             ids=["uniform", "density", "float-density"])
    def test_exact_direction_on_a_float_polytope_runs_on_floats(self, rho):
        # a sampled direction has denominator 1000003: float powers of the
        # projections scaled by it overflowed to nan before
        p = polytope_to_float(_ladder_polygon(12))
        for seed in range(3):
            z = sample_generic_direction(2, rng=Random(seed)).coords
            got = axial_moments_brion_density(p, z, 46, rho)
            assert got == axial_moments_brion_density(p, tuple(map(float, z)), 46, rho)
            assert all(type(m) is float and isfinite(m) for m in got)
            for a, b in zip(got, axial_moments_direct(p, z, 46, rho)):
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))

    def test_exact_direction_on_a_float_polytope_vertex_side_and_monomials(self):
        # both overflowed from k = 44 on (and at monomial degree 30) before
        p = polytope_to_float(_ladder_polygon(12))
        for seed in range(3):
            z = sample_generic_direction(2, rng=Random(seed)).coords
            zf = tuple(map(float, z))
            for k in (44, 45):
                got = vertex_side_scaled_entry(p, z, k)
                assert isfinite(got) and got == vertex_side_scaled_entry(p, zf, k)
            got = monomial_moments_of_degree(p, 30, z=z)
            assert all(map(isfinite, got.values()))
            assert got == monomial_moments_of_degree(p, 30, z=zf)


class TestConeTable:
    """The per-polytope integer cone table against the weights rebuilt
    from the polytope's own data for every direction."""

    def _cases(self, seed, n):
        for p, _, z, count in _closed_form_cases(seed, n):
            q = lcm(*(x.denominator for v in p.vertices for x in v))
            for variant in (p, _without_cones(p), _integer_polytope(p, q)):
                if variant.cones is None and variant.simplices is None and variant.dim == 3:
                    continue
                yield variant, z, count

    def test_exact_moments_and_weights(self):
        kinds = set()
        for p, z, count in self._cases(12, 24):
            try:
                want = _vertex_weight_terms_reference(p, z)
            except DenominatorVanishes:
                # z can be orthogonal to a diagonal of the triangulation
                for call in (vertex_weight_terms, axial_moments_brion):
                    with pytest.raises(DenominatorVanishes):
                        call(p, z, *([count] if call is axial_moments_brion else []))
                continue
            assert vertex_weight_terms(p, z) == want
            got = axial_moments_brion(p, z, count)
            assert got == _uniform_brion_reference(p, z, count)
            assert all(isinstance(m, Fraction) for m in got)
            kinds.add((p.cones is None, isinstance(p.vertices[0][0], int)))
        assert kinds == {(False, False), (True, False), (False, True), (True, True)}

    def test_float_weights_and_moments_are_unchanged(self):
        for p, z, count in self._cases(13, 18):
            pf, zf = polytope_to_float(p), tuple(float(x) for x in z)
            for w in (zf, z):
                assert vertex_weight_terms(pf, w) == _vertex_weight_terms_reference(pf, w)
                assert axial_moments_brion(pf, w, count) == _uniform_brion_reference(pf, zf, count)

    def test_denominator_vanishes_names_the_given_edge(self):
        half = Polytope(
            dim=2,
            vertices=((F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 3))),
            simplices=((0, 1, 2),),
        )
        with_cones = Polytope(dim=2, vertices=half.vertices,
                              cones=tuple(simplex_cones(half.vertices, (0, 1, 2))))
        for p in (half, with_cones):
            for call in (lambda: axial_moments_brion(p, (F(0), F(1)), 3),
                         lambda: vertex_weight_terms(p, (F(0), F(1)))):
                with pytest.raises(DenominatorVanishes) as info:
                    call()
                assert info.value.vertex == 0 and info.value.edge == (F(1, 2), F(0))

    def test_built_once_across_directions(self, monkeypatch):
        from polymom import geometry

        calls = []
        original = geometry.simplex_cones

        def counted(vertices, simplex):
            calls.append(simplex)
            return original(vertices, simplex)

        monkeypatch.setattr(geometry, "simplex_cones", counted)
        pyr = square_pyramid()
        rng = Random(14)
        for _ in range(12):
            z = sample_generic_direction(3, 1009, rng).coords
            assert axial_moments_brion(pyr, z, 4) == axial_moments_direct(pyr, z, 4)
            axial_moments_brion_density(pyr, z, 2, poly_parse("1 + x1 + x2 x3", 3))
        assert sorted(calls) == sorted(pyr.simplices)


class TestCompanionIdentities:
    def test_square_examples(self):
        sq = unit_square()
        z = (F(1), F(2))
        assert companion_identity_residual(sq, z, 0) == 0
        assert companion_identity_residual(sq, z, 1) == 0

    def test_triangle_examples(self):
        tri = unit_triangle()
        z = (F(1), F(2))
        assert companion_identity_residual(tri, z, 0) == 0
        assert companion_identity_residual(tri, z, 1) == 0

    def test_density_range(self, rng):
        tri = unit_triangle()
        rho = random_density(rng, 2, 2)
        z = (F(3), F(5))
        for j in range(2 + 2):
            assert companion_identity_residual(tri, z, j, rho) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            companion_identity_residual(unit_triangle(), (F(1), F(2)), 2)


class TestScaledMomentVector:
    def test_triangle_c_vector(self):
        ms = moment_sequence(unit_triangle(), (F(1), F(2)), 7)
        assert scaled_moment_vector(ms, 6) == (0, 0, 1, 3, 7, 15, 31)

    def test_density_leading_zeros(self):
        rho = poly_parse("x1", 2)
        ms = moment_sequence(unit_triangle(), (F(1), F(2)), 4, rho)
        c = scaled_moment_vector(ms, 5)
        assert c[:3] == (0, 0, 0)
        assert len(c) == 6

    def test_zero_moments_give_zero_c(self):
        ms = MomentSequence(
            dim=2, direction=(F(1), F(1)), density_degree=0, mode="exact",
            moments=(F(0),) * 5,
        )
        assert all(x == 0 for x in scaled_moment_vector(ms, 6))

    def test_insufficient(self):
        ms = moment_sequence(unit_triangle(), (F(1), F(2)), 2)
        with pytest.raises(InsufficientMoments):
            scaled_moment_vector(ms, 6)

    def test_vandermonde_residual(self, rng):
        # row-wise matrix identity: sum_i x_i^k D_i = c_{k+1} for k <= 2N
        for _ in range(5):
            p = random_polygon(rng)
            n = p.n_vertices
            while True:
                z = sample_generic_direction(2, 1009, rng).coords
                try:
                    ms = moment_sequence(p, z, 2 * n + 1)
                    break
                except DenominatorVanishes:
                    continue
            c = scaled_moment_vector(ms, 2 * n)
            for k in range(2 * n + 1):
                assert vertex_side_scaled_entry(p, z, k) == c[k]


def _jet_contractions(p, z, piece):
    """e_{v,i} = [piece(d/dz) W_v L_v^i](z), i <= deg(piece), per vertex
    from the jets of ``vertex_weight_terms``, as sorted (<v,z>, row)."""
    out = []
    for proj, weight in vertex_weight_terms(p, jet_variables(tuple(z), piece.degree)):
        value = proj.value()
        lin, jet, row = proj - value, weight, []
        for _ in range(piece.degree + 1):
            row.append(extract_diff(piece, jet))
            jet = jet * lin
        out.append((value, tuple(row)))
    return sorted(out)


def _closed_contractions(p, z, pieces):
    """The same rows from ``_vertex_contractions``, one list per piece."""
    projs, scale, tables = _vertex_contractions(p, z, pieces)
    return [sorted((F(n) / scale, tuple(F(x) / (den * scale**i) for i, x in enumerate(row)))
                   for n, row in zip(projs, rows))
            for den, rows in tables]


class TestClosedFormContraction:
    """The closed-form contraction against the jet path it replaced."""

    def _cases(self, seed, n):
        rng = Random(seed)
        makers = (lambda: random_polygon(rng), lambda: random_tetrahedron(rng),
                  lambda: random_prism(rng), lambda: random_parallelepiped(rng),
                  square_pyramid)
        for k in range(n):
            p = makers[k % len(makers)]()
            pieces = [random_density(rng, p.dim, s).homogeneous_parts()[s] for s in (1, 2, 3)]
            # monomial moments shift a piece by x^m, up to degree 6
            for q in (1, 2, 3):
                base = random_density(rng, p.dim, 3).homogeneous_parts()[3]
                m = (q,) + (0,) * (p.dim - 1) if k % 2 else tuple(rng.choice((0, 1)) for _ in range(p.dim))
                pieces.append(MultiPoly(p.dim, {tuple(a + b for a, b in zip(m, e)): c
                                                for e, c in base.terms.items()}))
            while True:
                z = integerize(sample_generic_direction(p.dim, 1009, rng).coords)[0]
                try:
                    vertex_weight_terms(p, z)
                    break
                except DenominatorVanishes:
                    continue
            yield p, pieces, z

    def test_exact_equals_jets(self):
        degrees, kinds = set(), set()
        for p, pieces, z in self._cases(21, 10):
            for piece, rows in zip(pieces, _closed_contractions(p, z, pieces)):
                assert rows == _jet_contractions(p, z, piece)
                degrees.add(piece.degree)
            kinds.add((p.dim, p.cones is None))
        assert {1, 2, 3, 6} <= degrees
        assert kinds == {(2, False), (3, False), (3, True)}

    def test_float_within_1e_12(self):
        for p, pieces, z in self._cases(22, 10):
            exact = _closed_contractions(p, z, pieces)
            pf, zf = polytope_to_float(p), tuple(float(x) for x in z)
            got = _closed_contractions(pf, zf, [piece.to_float() for piece in pieces])
            for want_rows, got_rows in zip(exact, got):
                for (_, want), (_, row) in zip(want_rows, got_rows):
                    size = max(map(abs, want))
                    assert all(abs(x - w) <= 1e-12 * size for x, w in zip(row, want))

    def test_zero_edge_value_names_the_given_edge(self):
        tri = Polytope(dim=2, vertices=((F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 3))),
                       simplices=((0, 1, 2),))
        with pytest.raises(DenominatorVanishes) as info:
            axial_moments_brion_density(tri, (0, 1), 3, poly_parse("1 + x1", 2))
        assert info.value.vertex == 0 and info.value.edge == (F(1, 2), F(0))


class TestMonomialMoments:
    def test_square_first_moment(self):
        assert monomial_moment(unit_square(), (1, 0)) == F(1, 2)

    def test_square_area(self):
        assert monomial_moment(unit_square(), (0, 0)) == 1

    def test_triangle_xy(self):
        assert monomial_moment(unit_triangle(), (1, 1)) == F(1, 24)

    def test_z_independence(self):
        tri = unit_triangle()
        a = monomial_moment(tri, (2, 1), z=(F(1), F(3)))
        b = monomial_moment(tri, (2, 1), z=(F(2), F(5)))
        assert a == b

    def test_against_direct_integration(self, rng):
        # fold the monomial into the density and integrate directly
        cases = [(random_polygon(rng, max_vertices=5), None) for _ in range(4)]
        cases += [(random_tetrahedron(rng), None), (square_pyramid(), None)]
        # densities with pieces of degrees 0 and 2 (and 1 at random)
        for p in (random_polygon(rng, max_vertices=5), random_parallelepiped(rng),
                  random_prism(rng)):
            cases.append((p, random_density(rng, p.dim, 2, p)))
        for p, rho in cases:
            e1 = (F(1),) + (F(0),) * (p.dim - 1)
            for q in range(4 if p.dim == 2 else 3):
                got = monomial_moments_of_degree(p, q, rho)
                for m, val in got.items():
                    mono = MultiPoly(p.dim, {m: F(1)})
                    density = mono if rho is None else mono * rho
                    assert val == axial_moment_direct(p, e1, 0, density), m

    def test_exponent_of_another_length_rejected(self):
        # (1, 0, 0) on the square died with KeyError, (0.5, 0.5) with TypeError
        for m in ((1, 0, 0), (1,), (-1, 2), (0.5, 0.5)):
            with pytest.raises(InputError, match="multi-index"):
                monomial_moment(unit_square(), m)

    def test_density_folding(self):
        rho = poly_parse("1 + x2", 2)
        got = monomial_moment(unit_square(), (1, 0), rho)
        # int x (1 + y) dA over the unit square = 1/2 + 1/4
        assert got == F(3, 4)


class TestNoise:
    def _ms(self):
        return moment_sequence(unit_square(), (0.25, 0.75), 5)

    def test_zero_noise_identity(self):
        ms = self._ms()
        assert add_noise(ms, 0.0, Random(1)).moments == ms.moments

    def test_relative_bound(self):
        ms = self._ms()
        noisy = add_noise(ms, 1e-9, Random(1))
        for a, b in zip(noisy.moments, ms.moments):
            assert abs(a - b) <= 1e-9 * abs(b)

    def test_seed_pin(self):
        ms = MomentSequence(
            dim=2, direction=(1.0, 2.0), density_degree=0, mode="float",
            moments=(1.0, 0.5, 0.25),
        )
        out = add_noise(ms, 1e-6, Random(2024))
        assert out.moments == (
            0.9999999401814369, 0.5000002282642915, 0.2499999018756792,
        )

    def test_exact_mode_rejected(self):
        ms = moment_sequence(unit_square(), (F(1), F(3)), 3)
        with pytest.raises(InputError):
            add_noise(ms, 1e-9, Random(1))

    def test_positive_noise_without_rng_rejected(self):
        # both died at the first draw with AttributeError on None.uniform
        for eps in (1e-9, 0.0):
            with pytest.raises(InputError, match="explicit rng"):
                add_noise(self._ms(), eps, None)
        with pytest.raises(InputError, match="explicit rng"):
            PolytopeMomentOracle(unit_square(), mode="float", noise=1e-9)
        PolytopeMomentOracle(unit_square(), mode="float").sequence((0.25, 0.75), 3)  # no draw


class TestRoutesAndFiles:
    def test_sequence_mode_follows_the_data(self):
        # float when the polytope, the direction or the density holds a float
        tri, z, rho = unit_triangle(), (F(1), F(2)), poly_parse("1 + x1", 2)
        for route in ("brion", "direct", "both"):
            exact = moment_sequence(tri, z, 5, rho, route=route)
            assert exact.mode == "exact"
            assert all(isinstance(m, F) for m in exact.moments)
            for p, zz, r in ((polytope_to_float(tri), z, rho), (tri, (1.0, 2.0), rho),
                             (tri, z, rho.to_float())):
                ms = moment_sequence(p, zz, 5, r, route=route)
                assert ms.mode == "float"
                assert all(type(m) is float for m in ms.moments)
                assert all(abs(a - b) <= 1e-12 * abs(b)
                           for a, b in zip(ms.moments, exact.moments))

    def test_both_route_agreement(self):
        ms = moment_sequence(unit_triangle(), (F(1), F(2)), 5, route="both")
        assert ms.moments[0] == F(1, 2)

    def test_json_round_trip(self, tmp_path):
        ms = moment_sequence(unit_triangle(), (F(1), F(2)), 5)
        doc = moments_to_json(ms)
        back = moments_from_json(json.loads(json.dumps(doc)))
        assert back == ms

    def test_json_dim_must_match_the_direction(self):
        # labelled dim 3, the unit square along (1, 3) surfaced as IrrationalRoot
        doc = moments_to_json(moment_sequence(unit_square(), (F(1), F(3)), 9))
        with pytest.raises(InputError, match="2 coordinates in dimension 3"):
            moments_from_json({**doc, "dim": 3})

    def test_unknown_mode_or_route_rejected(self):
        # a "bogus" oracle labelled its sequences so and Prony solved them as
        # float; any route but "direct" ran Brion; "Float" read exact values
        for kwargs in ({"mode": "bogus"}, {"mode": "Float"},
                       {"route": "both"}, {"route": "bogus"}):
            with pytest.raises(InputError, match="unknown"):
                PolytopeMomentOracle(unit_square(), **kwargs)
        doc = moments_to_json(moment_sequence(unit_triangle(), (F(1), F(2)), 5))
        with pytest.raises(InputError, match="unknown mode 'Float'"):
            moments_from_json({**doc, "mode": "Float"})

    def test_csv_export(self, tmp_path):
        ms = moment_sequence(unit_triangle(), (F(1), F(2)), 3)
        path = tmp_path / "m.csv"
        moments_to_csv(ms, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,value"
        assert lines[1] == "0,1/2"

    def test_oracle_counts_distinct_measurements(self):
        oracle = PolytopeMomentOracle(unit_triangle())
        z = (F(1), F(2))
        oracle.moment(z, 0)
        oracle.moment(z, 0)
        oracle.moment(z, 1)
        assert oracle.unique_count == 2

    def test_noisy_oracle_is_consistent(self):
        oracle = PolytopeMomentOracle(
            unit_square(), mode="float", noise=1e-6, rng=Random(7)
        )
        z = (0.25, 0.75)
        assert oracle.moment(z, 3) == oracle.moment(z, 3)


class _ReferenceOracle(PolytopeMomentOracle):
    """The oracle's bookkeeping before one store per oracle: a set of
    (coords, j) keys, ``moment`` charging the prefix up to j, and
    ``sequence`` calling ``moment`` for every j."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._requested = set()

    @property
    def unique_count(self):
        return len(self._requested)

    def moment(self, z, j):
        key = (tuple(z), j)
        if key not in self._values:
            self._ensure(tuple(z), j + 1)
        self._requested.update((tuple(z), i) for i in range(j + 1))
        return self._values[key]

    def sequence(self, z, count):
        self._ensure(tuple(z), count)
        return tuple(self.moment(z, j) for j in range(count))


class TestOracleBookkeeping:
    def _calls(self, seed, dim):
        rng = Random(seed)
        dirs = [sample_generic_direction(dim, 1009, rng).coords for _ in range(3)]
        for _ in range(40):
            z = rng.choice(dirs)
            if rng.random() < 0.5:
                yield "moment", z, rng.randint(0, 9)
            else:
                yield "sequence", z, rng.randint(0, 9)

    def test_interleaved_calls_match_the_reference(self):
        square, cube = unit_square(), unit_cube()
        for seed, p, kwargs in ((15, square, {}),
                                (16, cube, {"route": "direct"}),
                                (17, square, {"mode": "float", "noise": 1e-6}),
                                (18, cube, {"mode": "float", "noise": 1e-3})):
            new = PolytopeMomentOracle(p, rng=Random(seed), **kwargs)
            old = _ReferenceOracle(p, rng=Random(seed), **kwargs)
            for kind, z, k in self._calls(seed, p.dim):
                got = getattr(new, kind)(z, k)
                want = getattr(old, kind)(z, k)
                if kind == "sequence":
                    assert got.moments == want and got.direction == z
                else:
                    assert got == want
                assert new.unique_count == old.unique_count

    @pytest.mark.parametrize("kwargs", [{}, {"route": "direct"}, {"mode": "float"},
                                        {"mode": "float", "noise": 1e-6}],
                             ids=["exact", "direct", "float", "noisy"])
    def test_count_is_the_store_size(self, kwargs):
        # every request is a prefix stored whole, so the stored measurements
        # are the longest prefix requested along each direction
        oracle = PolytopeMomentOracle(unit_square(), rng=Random(19), **kwargs)
        longest = {}
        for kind, z, k in self._calls(19, 2):
            getattr(oracle, kind)(z, k)
            longest[z] = max(longest.get(z, 0), k + (kind == "moment"))
            assert oracle.unique_count == len(oracle._values) == sum(longest.values())

    def test_sequence_oracle_counts_the_longest_prefix_read(self):
        calls = list(self._calls(20, 2))
        dirs = list(dict.fromkeys(z for _, z, _ in calls))
        sequences = [moment_sequence(unit_square(), z, 10) for z in dirs]
        oracle = SequenceMomentOracle(sequences)
        longest = dict.fromkeys(dirs, 0)
        for kind, z, k in calls:
            got = getattr(oracle, kind)(z, k)
            want = sequences[dirs.index(z)]
            if kind == "sequence":
                assert got == MomentSequence(2, z, 0, "exact", want.moments[:k])
            else:
                assert got == want.moments[k]
            longest[z] = max(longest[z], k + (kind == "moment"))
            assert oracle.unique_count == sum(longest.values())
        with pytest.raises(InsufficientMoments):
            oracle.sequence(dirs[0], 11)
        assert oracle.unique_count == sum(longest.values())

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -1e-6, -1e-9])
    def test_non_finite_or_negative_noise_rejected(self, noise):
        with pytest.raises(InputError, match="noise"):
            PolytopeMomentOracle(unit_square(), mode="float", noise=noise, rng=Random(7))
        ms = moment_sequence(polytope_to_float(unit_square()), (0.25, 0.75), 4)
        with pytest.raises(InputError, match="noise"):
            add_noise(ms, noise, Random(7))
        # a NaN separation width switched the float solve's guard off
        ms = moment_sequence(polytope_to_float(unit_square()), (0.3, 0.7), 27)
        with pytest.raises(InputError, match="noise"):
            projections_from_moments(ms, 4, noise)

    def test_negative_moment_index_rejected(self):
        oracle = PolytopeMomentOracle(unit_triangle())
        with pytest.raises(InputError):
            oracle.moment((F(1), F(2)), -1)
        assert oracle.unique_count == 0

    def test_negative_count_rejected(self):
        oracle = PolytopeMomentOracle(unit_triangle())
        with pytest.raises(InputError):
            oracle.sequence((F(1), F(2)), -2)
        assert oracle.unique_count == 0

    def test_sequence_oracle_rejects_negative_index(self):
        ms = moment_sequence(unit_triangle(), (F(1), F(2)), 3)
        oracle = SequenceMomentOracle([ms])
        with pytest.raises(InputError):
            oracle.moment(ms.direction, -1)
        with pytest.raises(InputError):
            oracle.sequence(ms.direction, -2)
        assert oracle.unique_count == 0
        assert oracle.moment(ms.direction, 2) == ms.moments[2]

    @pytest.mark.parametrize("call", [
        lambda p, z: moment_sequence(p, z, 3, route="brion"),
        lambda p, z: moment_sequence(p, z, 3, route="direct"),
        lambda p, z: moment_sequence(p, z, 3, route="both"),
        lambda p, z: axial_moments_brion_density(p, z, 3, poly_parse("1 + x1", 2)),
        lambda p, z: axial_moments_direct(p, z, 3),
        lambda p, z: vertex_side_scaled_entry(p, z, 4),
        lambda p, z: companion_identity_residual(p, z, 0),
        lambda p, z: monomial_moment(p, (1, 0), z=z),
    ], ids=["brion", "direct", "both", "brion-density", "direct-moments",
            "vertex-side", "companion", "monomial"])
    def test_direction_of_another_length_rejected(self, call):
        # zip would cut (1, 2, 3) to (1, 2) and label the moments (1, 2, 3);
        # the vertex-side entry read 32 and a companion identity held
        with pytest.raises(InputError, match="3 coordinates, need 2"):
            call(unit_square(), (1, 2, 3))

    @pytest.mark.parametrize("route", ["brion", "direct"])
    def test_oracle_direction_of_another_length_rejected(self, route):
        oracle = PolytopeMomentOracle(unit_square(), route=route)
        with pytest.raises(InputError, match="3 coordinates, need 2"):
            oracle.sequence((1, 2, 3), 3)
        with pytest.raises(InputError, match="1 coordinates, need 2"):
            oracle.moment((1,), 0)
        assert oracle.unique_count == 0

    def test_density_of_another_dimension_rejected(self):
        # a density in x1 alone gave all-zero moments on the square
        rho = poly_parse("1 + x1", 1)
        with pytest.raises(InputError, match="density in 1 variables"):
            moment_sequence(unit_square(), (1, 2), 3, rho)
        for call in (lambda: axial_moments_brion_density(unit_square(), (1, 2), 3, rho),
                     lambda: axial_moments_direct(unit_square(), (1, 2), 3, rho),
                     lambda: vertex_side_scaled_entry(unit_square(), (1, 2), 4, rho),
                     lambda: monomial_moments_of_degree(unit_square(), 1, rho)):
            with pytest.raises(InputError, match="density in 1 variables"):
                call()
        for mode in ("exact", "float"):
            with pytest.raises(InputError, match="density in 1 variables"):
                PolytopeMomentOracle(unit_square(), rho, mode=mode)

    def test_exact_oracle_rejects_a_float_direction(self):
        # its float moments were labelled exact, and the exact solve crashed
        oracle = PolytopeMomentOracle(unit_square())
        with pytest.raises(InputError, match="float direction"):
            oracle.sequence((0.3, 0.7), 9)
        with pytest.raises(InputError, match="float direction"):
            oracle.moment((F(3, 10), 0.7), 2)
        assert oracle.unique_count == 0


class TestPyramidForward:
    def test_triangulated_brion_matches_direct(self):
        pyr = square_pyramid()
        z = (F(2), F(3), F(5))
        for j in range(6):
            assert axial_moment_brion(pyr, z, j) == axial_moment_direct(pyr, z, j)
