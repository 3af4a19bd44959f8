"""Univariate representations: one polynomial's roots parametrize all
vertex coordinates."""

from fractions import Fraction
from math import comb
from random import Random

import pytest

from conftest import random_simple_polytope, unit_cube, unit_square, unit_triangle
from polymom.config import RunConfig
from polymom.errors import DenominatorVanishes, InputError
from polymom.geometry import Polytope, dot
from polymom.moments import PolytopeMomentOracle
from polymom.prony import poly_derivative, poly_eval
from polymom.reconstruct import _Pipeline, reconstruct
from polymom.univar import (
    _derivative_weights,
    _sample,
    g_from_f,
    interpolate_fab,
    lagrange_coefficients,
    vertices_univar,
)

F = Fraction


def _cfg(seed=11):
    return RunConfig(seed=seed, denominator=10007)


class TestLagrange:
    def test_quadratic(self):
        nodes = [F(0), F(1), F(2)]
        values = [F(1), F(2), F(5)]  # 1 + x^2... check: 1, 2, 5
        coeffs = lagrange_coefficients(nodes, values)
        assert coeffs == [F(1), F(0), F(1)]

    def test_rational_nodes(self):
        nodes = [F(0), F(1, 2), F(3)]
        poly = [F(2), F(-1), F(1, 3)]
        values = [poly_eval(poly, x) for x in nodes]
        assert lagrange_coefficients(nodes, values) == poly


class TestInterpolateF:
    def test_triangle_f_at_zero_is_pa(self):
        # f(0, t) = p_a(t) = t^3 - 3t^2 + 2t for a = (1,2)
        tri = unit_triangle()
        oracle = PolytopeMomentOracle(tri)
        fab = interpolate_fab(
            oracle, (F(1), F(2)), (F(1), F(0)), 3, config=_cfg()
        )
        f0 = [s_poly[0] for s_poly in fab]
        assert f0 == [F(0), F(2), F(-3), F(1)]

    def test_non_generic_node_replaced(self):
        # s = 1 gives direction (2,2): projections {0,2,2} collide, so the
        # sample set must shift to a rational fallback node
        tri = unit_triangle()
        oracle = PolytopeMomentOracle(tri)
        pipe_cfg = _cfg()
        fab = interpolate_fab(oracle, (F(1), F(2)), (F(1), F(0)), 3, config=pipe_cfg)
        # interpolation still exact: f(s, t) coefficients are the elementary
        # symmetric functions of {0, 1+s, 2}
        # coefficient of t^2 is -(0 + (1+s) + 2) = -3 - s
        assert fab[2] == [F(-3), F(-1)] or fab[2][:2] == [F(-3), F(-1)]

    def test_exactness_across_s(self):
        # the interpolated t-coefficients reproduce p_{a+sb} at fresh s
        tri = unit_triangle()
        oracle = PolytopeMomentOracle(tri)
        a, b = (F(1), F(2)), (F(1), F(0))
        fab = interpolate_fab(oracle, a, b, 3, config=_cfg())
        s = F(7, 3)
        direction = tuple(x + s * y for x, y in zip(a, b))
        roots = sorted(dot(v, direction) for v in unit_triangle().vertices)
        expect = [F(1)]
        for r in roots:
            expect = [F(0)] + expect
            for i in range(len(expect) - 1):
                expect[i] -= r * expect[i + 1]
        got = [poly_eval(s_poly, s) for s_poly in fab]
        assert got == expect


class TestGFromF:
    def test_triangle_g(self):
        # g(t) = -(t^2 - 2t): only the vertex (1,0) has <v, e1> != 0
        tri = unit_triangle()
        oracle = PolytopeMomentOracle(tri)
        fab = interpolate_fab(oracle, (F(1), F(2)), (F(1), F(0)), 3, config=_cfg())
        g = g_from_f(fab)
        assert g == [F(0), F(2), F(-1)]  # -t^2 + 2t

    def test_zero_offset_gives_zero(self):
        tri = unit_triangle()
        oracle = PolytopeMomentOracle(tri)
        fab = interpolate_fab(oracle, (F(1), F(2)), (F(0), F(0)), 3, config=_cfg())
        assert g_from_f(fab) == []


class TestVerticesUnivar:
    def test_triangle_hand_values(self):
        # theta = 1: coordinate_1 = -g(1)/p'(1) = -(1)/(-1) = 1 -> (1, 0)
        tri = unit_triangle()
        oracle = PolytopeMomentOracle(tri)
        vs = vertices_univar(oracle, 3, _cfg(), Random(7), base_direction=(F(1), F(2)))
        assert vs.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))

    def test_cube(self):
        cube = unit_cube()
        oracle = PolytopeMomentOracle(cube)
        vs = vertices_univar(oracle, 8, _cfg(), Random(7))
        assert vs.vertices == tuple(sorted(cube.vertices))

    def test_density_multiplicity_deflation(self):
        # a degree-1 density triples... doubles every kernel-root multiplicity;
        # the univariate route deflates it back to a squarefree p_a
        from polymom.numeric import poly_parse

        tri = unit_triangle()
        rho = poly_parse("1 + x1", 2)
        oracle = PolytopeMomentOracle(tri, rho)
        vs = vertices_univar(oracle, 3, _cfg(3), Random(5))
        assert vs.vertices == tuple(sorted(tri.vertices))

    def test_matches_reconstruct(self, rng):
        for _ in range(5):
            p = random_simple_polytope(rng)
            a = reconstruct(PolytopeMomentOracle(p), p.n_vertices, _cfg(), rng=rng)
            b = vertices_univar(PolytopeMomentOracle(p), p.n_vertices, _cfg(), rng)
            assert a.vertices == b.vertices == tuple(sorted(p.vertices))

    def test_moment_budget_order_dn_squared(self):
        cube = unit_cube()
        oracle = PolytopeMomentOracle(cube)
        vs = vertices_univar(oracle, 8, _cfg(), Random(7))
        d, n = 3, 8
        # (1 + dN) directions at (2N+1-d) moments each when nothing retries
        assert vs.provenance.moment_count <= 3 * d * n * n
        if vs.provenance.retries == 0:
            assert vs.provenance.moment_count == (1 + d * n) * (2 * n + 1 - d)


class TestSignIdentity:
    def test_minus_sign_forced(self, rng):
        # -g_ab(<w,a>) / p_a'(<w,a>) == <w,b> for every vertex and basis
        # direction; the positive-sign variant fails
        for _ in range(4):
            p = random_simple_polytope(rng)
            n = p.n_vertices
            oracle = PolytopeMomentOracle(p)
            from polymom.reconstruct import _Pipeline

            pipe = _Pipeline(oracle, n, _cfg(), rng)
            a, proj = pipe.acquire()
            pa = list(proj.poly.coeffs) + [F(1)]
            dpa = poly_derivative(pa)
            one = F(1)
            saw_nonzero = False
            for j in range(p.dim):
                e_j = tuple(one if t == j else F(0) for t in range(p.dim))
                fab = interpolate_fab(oracle, a, e_j, n, pipeline=pipe, known_pa=pa)
                g = g_from_f(fab)
                for w in p.vertices:
                    theta = dot(w, a)
                    lhs = -poly_eval(g, theta) / poly_eval(dpa, theta)
                    assert lhs == w[j]
                    if w[j] != 0:
                        saw_nonzero = True
            assert saw_nonzero


class _AvoidingOracle(PolytopeMomentOracle):
    """Reports a vanishing denominator at the listed directions, so that
    interpolation moves on to fallback (non-integer) nodes."""

    def __init__(self, polytope, avoid):
        super().__init__(polytope)
        self.avoid = set(avoid)

    def sequence(self, z, count):
        if tuple(z) in self.avoid:
            raise DenominatorVanishes(0, ())
        return super().sequence(z, count)


class TestDerivativeWeights:
    """g = sum_k L_k'(0) p_{a + s_k b} replaces interpolation in
    ``vertices_univar``."""

    def test_closed_form_on_default_nodes(self):
        # w_0 = -H_n, w_k = (-1)^(k-1) C(n,k) / k
        for n in range(1, 13):
            w = _derivative_weights([F(k) for k in range(n + 1)])
            assert w[0] == -sum(F(1, k) for k in range(1, n + 1))
            assert w[1:] == [F((-1) ** (k - 1) * comb(n, k), k) for k in range(1, n + 1)]

    def test_slope_of_the_interpolant(self):
        rng = Random(3)
        pool = sorted({F(a, b) for a in range(-20, 21) for b in (1, 2, 4, 7) if a})
        for _ in range(60):
            nodes = [F(0)] + rng.sample(pool, rng.randint(1, 9))
            values = [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in nodes]
            slope = sum(w * y for w, y in zip(_derivative_weights(nodes), values))
            assert slope == lagrange_coefficients(nodes, values)[1]

    def test_matches_interpolation_on_fallback_nodes(self, rng):
        for _ in range(3):
            p = random_simple_polytope(rng)
            n = p.n_vertices
            a, proj = _Pipeline(PolytopeMomentOracle(p), n, _cfg(), rng).acquire()
            pa = list(proj.poly.coeffs) + [F(1)]
            for j in range(p.dim):
                b = tuple(F(int(t == j)) for t in range(p.dim))
                avoid = {tuple(x + s * y for x, y in zip(a, b)) for s in (1, 2, n)}
                oracle = _AvoidingOracle(p, avoid)
                pipe = _Pipeline(oracle, n, _cfg(), rng)
                nodes, polys = _sample(pipe, a, b, n, pa)
                assert pipe.prov.retries == 3
                assert nodes[0] == 0 and F(1, 2) in nodes
                w = _derivative_weights(nodes)
                g = [sum(wk * poly[i] for wk, poly in zip(w, polys)) for i in range(n + 1)]
                while g and g[-1] == 0:
                    g.pop()
                fab = interpolate_fab(oracle, a, b, n, pipeline=pipe, known_pa=pa)
                assert g == g_from_f(fab)

    def test_univar_on_fallback_nodes(self, rng):
        p = random_simple_polytope(rng)
        n = p.n_vertices
        a, _ = _Pipeline(PolytopeMomentOracle(p), n, _cfg(), rng).acquire()
        avoid = {tuple(x + F(s) * int(t == j) for t, x in enumerate(a))
                 for j in range(p.dim) for s in (1, 3)}
        vs = vertices_univar(_AvoidingOracle(p, avoid), n, _cfg(), rng, base_direction=a)
        assert vs.vertices == tuple(sorted(p.vertices))
        assert vs.provenance.retries == 2 * p.dim


class TestExactOnly:
    """The route takes exact data: float data raises InputError before a
    moment is drawn (float reconstruction goes through ``reconstruct``)."""

    def test_float_data_rejected(self):
        oracle = PolytopeMomentOracle(unit_square(), mode="float")
        with pytest.raises(InputError, match="exact data"):
            vertices_univar(oracle, 4, RunConfig(mode="float", seed=1), Random(1))
        with pytest.raises(InputError, match="exact data"):
            interpolate_fab(oracle, (0.25, 0.75), (1.0, 0.0), 4)
        assert oracle.unique_count == 0

    def test_float_base_direction_rejected(self):
        # the exact oracle's float moments crashed the exact solve
        oracle = PolytopeMomentOracle(unit_square())
        with pytest.raises(InputError, match="float direction"):
            vertices_univar(oracle, 4, RunConfig(seed=1), Random(1), base_direction=(0.3, 0.7))
        assert oracle.unique_count == 0
