"""Cross-direction matching and full vertex reconstruction."""

import itertools
import sys
from fractions import Fraction
from importlib import import_module
from math import factorial
from random import Random

import numpy as np
import pytest

from conftest import (
    random_density,
    random_parallelepiped,
    random_polygon,
    random_prism,
    random_simple_polytope,
    random_tetrahedron,
    square_pyramid,
    unit_cube,
    unit_square,
    unit_triangle,
)
from polymom.config import RunConfig
from polymom.errors import (
    AmbiguousMatching,
    FullRankHankel,
    InputError,
    InsufficientMoments,
    IrrationalRoot,
    MatchingFailure,
    OracleDisagreement,
    RankInstability,
)
from polymom.geometry import (
    Polytope,
    dot,
    polygon_cones,
    polytope_to_float,
    sample_generic_direction,
)
from polymom.linalg import rank_exact
from polymom.moments import MomentSequence, PolytopeMomentOracle, moment_sequence
from polymom.prony import (
    FLOAT_OVERSAMPLE,
    PronyPolynomial,
    moments_needed,
    projections_from_moments,
    prony_polynomial_from_sequence,
)
from polymom.reconstruct import (
    FLOAT_SEPARATION,
    FLOAT_TOL,
    _Pipeline,
    _alpha_sequence,
    _self_check,
    _tuple_hits,
    assemble_vertices,
    choose_beta,
    match_frugal_d_plus_1,
    match_projections,
    reconstruct,
    reconstruct_from_sequences,
    reconstruction_error,
)
from polymom.univar import vertices_univar

F = Fraction
prony_module = import_module("polymom.prony")


def _poly_from_roots(roots):
    coeffs = [F(1)]
    for r in roots:
        coeffs = [F(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return PronyPolynomial(tuple(coeffs[:-1]))


def _pairing(x1, xi, beta, pz):
    """match_projections on z_1 + beta z_i, as the pairing j -> k_j."""
    hits = match_projections([x1, xi], (1, beta), pz)
    assert [j for j, _ in hits] == list(range(len(x1)))
    return tuple(k for _, k in hits)


class TestMatchProjections:
    # triangle with z1=(1,2), z2=(2,1): X1 = X2 = {0,1,2} as sorted values

    def test_beta_3_unique(self):
        pz = _poly_from_roots([F(0), F(7), F(5)])
        pairing = _pairing((F(0), F(1), F(2)), (F(0), F(1), F(2)), F(3), pz)
        assert pairing == (0, 2, 1)

    def test_beta_2_ambiguous(self):
        # fake pair 0 + 2*2 = 4 collides with true 2 + 2*1 = 4
        pz = _poly_from_roots([F(0), F(5), F(4)])
        with pytest.raises(AmbiguousMatching):
            _pairing((F(0), F(1), F(2)), (F(0), F(1), F(2)), F(2), pz)

    def test_single_vertex_trivial(self):
        pz = _poly_from_roots([F(5)])
        assert _pairing((F(2),), (F(3),), F(1), pz) == (0,)

    def test_size_mismatch(self):
        pz = _poly_from_roots([F(0)])
        with pytest.raises(InputError):
            _pairing((F(0), F(1)), (F(0),), F(1), pz)


def _horner_match(x1, xi, beta, pz):
    """The matcher before root-set matching, kept as the reference: one
    Horner evaluation of pz per candidate pair."""
    pairing = []
    for xj in x1:
        hits = [k for k, yk in enumerate(xi) if pz.eval(xj + beta * yk) == 0]
        if len(hits) != 1:
            raise AmbiguousMatching("reference")
        pairing.append(hits[0])
    if len(set(pairing)) != len(x1):
        raise AmbiguousMatching("reference")
    return tuple(pairing)


def _horner_hits(pz, alphas, values):
    """The frugal hit set before root-set matching, kept as the reference."""
    return [
        combo for combo in itertools.product(range(len(values[0])), repeat=len(values))
        if pz.eval(sum(a * vals[k] for a, vals, k in zip(alphas, values, combo))) == 0
    ]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AmbiguousMatching:
        return AmbiguousMatching


def _matching_cases(seed, count):
    """Seeded polygons and prisms with small integer directions z_1, z_i,
    so that some combined directions collide, as (vertices, x1, xi, z1, zi)
    with x1, xi the sorted projections; directions that collide on their
    own are skipped."""
    rng = Random(seed)
    made = 0
    while made < count:
        p = random_polygon(rng) if made % 2 else random_prism(rng)
        z1, zi = (tuple(F(rng.randint(-3, 3)) for _ in range(p.dim)) for _ in range(2))
        x1, xi = (sorted({dot(v, z) for v in p.vertices}) for z in (z1, zi))
        if len(x1) == len(xi) == p.n_vertices:
            made += 1
            yield p.vertices, x1, xi, z1, zi


def _combined_poly(vertices, z):
    """The combined direction's polynomial prod_v (t - <v,z>), repeated
    roots included where vertices collide on z."""
    return _poly_from_roots([dot(v, z) for v in vertices])


class TestRootSetMatching:
    def test_pairings_equal_the_horner_reference(self):
        outcomes, collided = set(), False
        for verts, x1, xi, z1, zi in _matching_cases(3, 24):
            for beta in (F(1), F(2), F(3), F(5), F(1, 2), F(-1)):
                z = tuple(a + beta * b for a, b in zip(z1, zi))
                pz = _combined_poly(verts, z)
                want = _outcome(_horner_match, x1, xi, beta, pz)
                assert _outcome(_pairing, x1, xi, beta, pz) == want
                outcomes.add(want is AmbiguousMatching)
                collided |= len({dot(v, z) for v in verts}) < len(verts)
        assert outcomes == {True, False} and collided

    def test_frugal_hits_equal_the_horner_reference(self):
        sizes = set()
        for verts, x1, xi, z1, zi in _matching_cases(4, 16):
            d = len(z1)
            zs = [z1, zi] + [tuple(F(k + 1) for k in range(d))] * (d - 2)
            values = [sorted({dot(v, z) for v in verts}) for z in zs]
            if any(len(vals) != len(verts) for vals in values):
                continue
            for q in (1, 2, 3):
                alphas = tuple(F(q) ** k for k in range(d))
                z = tuple(sum(a * w[t] for a, w in zip(alphas, zs)) for t in range(d))
                pz = _combined_poly(verts, z)
                hits = _tuple_hits(pz, alphas, values)
                assert hits == _horner_hits(pz, alphas, values)
                sizes.add(len(hits) == len(verts))
        assert sizes == {True, False}

    def test_root_off_the_common_denominator_is_no_hit(self):
        # the candidate sums are ints over q = 1, so a root 1/2 equals none
        values = [(F(0), F(1)), (F(0), F(1))]
        assert _tuple_hits(_poly_from_roots([F(1, 2), F(3, 2)]), (1, 1), values) == []
        assert _tuple_hits(_poly_from_roots([F(1, 2), F(1)]), (1, 1), values) == [
            (0, 1), (1, 0)]

    def test_irrational_factor_is_a_failed_trial(self):
        # t (t - 3) (t^2 - 2): Horner would find the rational candidates
        pz = _poly_from_roots([F(0), F(3)])
        pz = PronyPolynomial(tuple(_times(pz.full_coeffs(), [F(-2), F(0), F(1)])[:-1]))
        with pytest.raises(AmbiguousMatching, match="irrational"):
            _pairing((F(0), F(1)), (F(0), F(1)), F(3), pz)
        assert _tuple_hits(pz, (F(1), F(3)), [(F(0), F(1)), (F(0), F(1))]) is None

    def test_irrational_root_adds_one_retry(self, monkeypatch):
        # the first root search of the matching steps reports an irrational
        # root: reconstruct and frugal spend exactly one more trial
        def run(solver, p, nmax):
            return solver(PolytopeMomentOracle(p), nmax, _cfg(), rng=Random(5))

        def first_match_irrational(roots_exact):
            calls = []

            def patched(pz):
                # the base directions' Prony solves search roots too
                if sys._getframe(1).f_code is _tuple_hits.__code__:
                    calls.append(pz)
                    if len(calls) == 1:
                        raise IrrationalRoot("injected")
                return roots_exact(pz)

            return patched

        for solver, p, nmax in ((reconstruct, unit_square(), 4),
                                (match_frugal_d_plus_1, unit_cube(), 8)):
            plain = run(solver, p, nmax)
            with monkeypatch.context() as m:
                m.setattr(prony_module, "roots_exact",
                          first_match_irrational(prony_module.roots_exact))
                injected = run(solver, p, nmax)
            assert injected.vertices == plain.vertices
            assert injected.provenance.retries == plain.provenance.retries + 1


def _float_horner_hits(pz, alphas, values, match_tol):
    """The float candidate test before the array one, kept as the
    reference: one Horner evaluation of pz per candidate tuple."""
    scaled = [[a * x for x in vals] for a, vals in zip(alphas, values)]
    return [
        combo for combo in itertools.product(*(range(len(v)) for v in values))
        if abs(pz.eval(sum(row[k] for row, k in zip(scaled, combo)))) < match_tol
    ]


def _float_poly(roots, scale):
    """prod (t - r) in float, stored in t / scale as the float solve does."""
    coeffs = [1.0]
    for r in roots:
        coeffs = [0.0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r / scale * coeffs[i + 1]
    return PronyPolynomial(tuple(coeffs[:-1]), scale=scale)


class TestFloatCandidateTest:
    def test_hits_equal_the_horner_reference(self):
        rng = Random(31)
        kinds = set()
        for verts, _, _, z1, zi in _matching_cases(5, 16):
            d = len(z1)
            fverts = [tuple(float(x) for x in v) for v in verts]
            zs = [tuple(map(float, z)) for z in (z1, zi, (1, 2, 3))[:d]]
            values = [sorted(dot(v, z) for v in fverts) for z in zs]
            for shift in (0.0, 0.0, 0.0, 0.5):  # 0.5: no candidate is a root
                alphas = (1.0,) + tuple(rng.randint(1, 49) / rng.randint(1, 31)
                                        for _ in range(d - 1))
                z = tuple(sum(a * w[t] for a, w in zip(alphas, zs)) for t in range(d))
                scale = rng.choice((1, 1, 7.5, 0.25))
                pz = _float_poly([dot(v, z) + shift for v in fverts], scale)
                for tol in (1e-6, 1e-2, 1e3):
                    hits = _tuple_hits(pz, alphas, values, tol)
                    assert hits == _float_horner_hits(pz, alphas, values, tol)
                    assert all(type(k) is int for h in hits for k in h)
                    n = len(verts)
                    kinds.add((d, scale != 1, "none" if not hits else
                               "n" if len(hits) == n else "more" if len(hits) > n else "some"))
        # d = 2 and 3, scale 1 and not: no hit, one per vertex, more
        assert {(d, s, k) for d in (2, 3) for s in (True, False)
                for k in ("none", "n", "more")} <= kinds, kinds

    def test_degree_zero_polynomial(self):
        # a constant 1: every candidate or none, as per-candidate Horner
        pz = PronyPolynomial(())
        values = [(0.5, 1.5), (2.0, 3.0)]
        for tol in (0.5, 2.0):
            assert _tuple_hits(pz, (1, 2.5), values, tol) == \
                _float_horner_hits(pz, (1, 2.5), values, tol)


def _float_reference_match(pz, alphas, values):
    """The float acceptance before the separation rule: exactly n Horner
    hits below FLOAT_TOL, each column a permutation of 0..n-1."""
    n = len(values[0])
    hits = _float_horner_hits(pz, alphas, values, FLOAT_TOL)
    if len(hits) != n or any(sorted(col) != list(range(n)) for col in zip(*hits)):
        return AmbiguousMatching
    return hits


class TestFloatSeparation:
    # x1 = (0, 1, 4), x2 = (0, 2, 3 + eps), alphas (1, 1): the true tuples
    # (0, 0), (1, 1), (2, 2) sum to 0, 3, 7 + eps, and the false (0, 2) sums
    # to 3 + eps, eps from the root at 3; the roots sit 1e-12 off the truth
    @staticmethod
    def _near_collision(eps):
        values = [(0.0, 1.0, 4.0), (0.0, 2.0, 3.0 + eps)]
        pz = _float_poly([r + 1e-12 for r in (0.0, 3.0, 7.0 + eps)], 1)
        sizes = sorted(abs(pz.eval(x1 + x2)) for x1 in values[0] for x2 in values[1])
        assert len(_tuple_hits(pz, (1.0, 1.0), values)) == 4
        return values, pz, sizes[3] / sizes[2]

    def test_the_n_best_match_when_the_next_stands_apart(self):
        values, pz, gap = self._near_collision(1e-8)
        assert gap > FLOAT_SEPARATION
        assert match_projections(values, (1.0, 1.0), pz) == [(0, 0), (1, 1), (2, 2)]

    def test_a_gap_below_the_separation_stays_ambiguous(self):
        values, pz, gap = self._near_collision(1e-9)
        assert 1 < gap < FLOAT_SEPARATION
        with pytest.raises(AmbiguousMatching, match="4 candidate tuples"):
            match_projections(values, (1.0, 1.0), pz)

    def test_every_reference_acceptance_is_kept(self):
        # seeded float trials, colliding combined directions among them:
        # where the reference accepts, the rule returns its tuples, and it
        # accepts beyond the reference only on more than n hits
        rng = Random(37)
        kinds = set()
        for verts, _, _, z1, zi in _matching_cases(6, 24):
            d = len(z1)
            fverts = [tuple(float(x) for x in v) for v in verts]
            zs = [tuple(map(float, z)) for z in (z1, zi, (1, 2, 3))[:d]]
            values = [sorted(dot(v, z) for v in fverts) for z in zs]
            if any(len(set(vals)) != len(verts) for vals in values):
                continue
            for beta in (1.0, 2.0, 0.5, rng.randint(1, 49) / rng.randint(1, 31)):
                alphas = (1.0,) + (beta,) * (d - 1)
                z = tuple(sum(a * w[t] for a, w in zip(alphas, zs)) for t in range(d))
                jitter = rng.choice((0.0, 1e-13, 1e-10))
                pz = _float_poly([dot(v, z) + jitter * rng.uniform(-1, 1)
                                  for v in fverts], rng.choice((1, 7.5)))
                want = _float_reference_match(pz, alphas, values)
                got = _outcome(match_projections, values, alphas, pz)
                if want is not AmbiguousMatching:
                    assert got == want
                    kinds.add("kept")
                elif got is not AmbiguousMatching:
                    assert len(_tuple_hits(pz, alphas, values)) > len(verts)
                    kinds.add("separated")
                else:
                    kinds.add("rejected")
        assert {"kept", "rejected"} <= kinds, kinds

    def test_exact_data_with_more_than_n_hits_still_raises(self):
        # 0 + 2*2 = 4 collides with 2 + 2*1 = 4: four exact hits for three
        values = [(F(0), F(1), F(2)), (F(0), F(1), F(2))]
        pz = _poly_from_roots([F(0), F(5), F(4)])
        assert len(_tuple_hits(pz, (1, F(2)), values)) == 4
        with pytest.raises(AmbiguousMatching, match="4 candidate tuples"):
            match_projections(values, (1, F(2)), pz)


def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestChooseBeta:
    def _triangle_solver(self):
        tri = unit_triangle()
        oracle = PolytopeMomentOracle(tri)
        z1, z2 = (F(1), F(2)), (F(2), F(1))

        def solver(beta):
            from polymom.prony import prony_polynomial_from_sequence
            from polymom.errors import RankInstability

            coords = tuple(a + beta * b for a, b in zip(z1, z2))
            ms = oracle.sequence(coords, moments_needed(2, 3, 0))
            pz = prony_polynomial_from_sequence(ms, 3)
            if pz.degree != 3:
                raise RankInstability("collision")
            return pz

        return solver

    def test_triangle_beta_sequence(self):
        # beta=1 gives a collided combined direction, beta=2 is ambiguous,
        # beta=3 succeeds
        solver = self._triangle_solver()
        alphas, hits, failures = choose_beta(
            [(F(0), F(1), F(2)), (F(0), F(1), F(2))], lambda a: solver(a[1]),
            _alpha_sequence(2, "exact", None), max_trials=28,
        )
        beta, pairing = alphas[1], tuple(k for _, k in hits)
        assert alphas == (1, 3) and beta == 3
        assert failures == 2
        assert pairing == (0, 2, 1)

    def test_single_vertex_immediate(self):
        pz = _poly_from_roots([F(0)])
        alphas, hits, failures = choose_beta(
            [(F(0),), (F(0),)], lambda a: pz, _alpha_sequence(2, "exact", None), max_trials=2
        )
        assert alphas == (1, 1) and hits == [(0, 0)] and failures == 0

    def test_square_finds_beta_3(self):
        # recorded during implementation: z1=(1,2), z2=(2,1) on the unit
        # square needs beta=3 (1 collides, 2 is ambiguous); within N^3+1
        sq = unit_square()
        oracle = PolytopeMomentOracle(sq)
        z1, z2 = (F(1), F(2)), (F(2), F(1))

        def solver(beta):
            from polymom.prony import prony_polynomial_from_sequence
            from polymom.errors import RankInstability

            coords = tuple(a + beta * b for a, b in zip(z1, z2))
            ms = oracle.sequence(coords, moments_needed(2, 4, 0))
            pz = prony_polynomial_from_sequence(ms, 4)
            if pz.degree != 4:
                raise RankInstability("collision")
            return pz

        alphas, hits, failures = choose_beta(
            [(F(0), F(1), F(2), F(3)), (F(0), F(1), F(2), F(3))],
            lambda a: solver(a[1]), _alpha_sequence(2, "exact", None), max_trials=4**3 + 1,
        )
        assert alphas[1] == 3
        assert hits == [(0, 0), (1, 2), (2, 1), (3, 3)]

    def test_exhaustion(self):
        pz = _poly_from_roots([F(100), F(200)])  # never matches anything
        with pytest.raises(MatchingFailure):
            choose_beta([(F(0), F(1)), (F(0), F(1))], lambda a: pz,
                        _alpha_sequence(2, "exact", None), max_trials=9)

    @pytest.mark.parametrize("max_trials", [1, 3, 9])
    def test_float_exhaustion_draws_one_coefficient_past_the_budget(self, max_trials):
        # the budget check follows the draw, so k trials leave the generator
        # k + 1 coefficients on; the pipeline draws its replacement
        # directions from the same generator, so they depend on it
        pz = _float_poly([100.0, 200.0], 1)
        rng = Random(7)
        with pytest.raises(MatchingFailure):
            choose_beta([(0.0, 1.0), (0.0, 1.0)], lambda a: pz,
                        _alpha_sequence(2, "float", rng), max_trials)
        reference = Random(7)
        for _ in range(max_trials + 1):
            reference.randint(1, 499) / reference.randint(1, 31)
        assert rng.getstate() == reference.getstate()


class TestAssemble:
    def test_identity_basis(self):
        rows = [(F(1), F(0)), (F(0), F(1))]
        got = assemble_vertices(rows, [(F(3), F(4))])
        assert got == [(F(3), F(4))]

    def test_skew_direction_pair(self):
        rows = [(F(1), F(2)), (F(2), F(1))]
        assert assemble_vertices(rows, [(F(1), F(2))]) == [(F(1), F(0))]
        assert assemble_vertices(rows, [(F(0), F(0))]) == [(F(0), F(0))]

    def test_singular_rejected(self):
        rows = [(F(1), F(2)), (F(2), F(4))]
        with pytest.raises(InputError):
            assemble_vertices(rows, [(F(0), F(0))])


def _cfg(seed=11):
    return RunConfig(seed=seed, denominator=10007)


class TestReconstruct:
    def test_unit_triangle(self):
        oracle = PolytopeMomentOracle(unit_triangle())
        vs = reconstruct(oracle, 4, _cfg(), rng=Random(7))
        assert vs.vertices == (
            (F(0), F(0)), (F(0), F(1)), (F(1), F(0)),
        )

    def test_unit_cube(self):
        cube = unit_cube()
        oracle = PolytopeMomentOracle(cube)
        vs = reconstruct(oracle, 8, _cfg(), rng=Random(3))
        assert vs.vertices == tuple(sorted(cube.vertices))

    def test_non_integer_nmax_rejected(self):
        # 4.5 died in range() with a TypeError
        with pytest.raises(InputError, match="nmax must be an integer"):
            reconstruct(PolytopeMomentOracle(unit_triangle()), 4.5, _cfg(), Random(7))

    def test_bool_nmax_rejected(self):
        # a bool is an int, and nmax=True read as 1
        with pytest.raises(InputError, match="nmax must be an integer"):
            RunConfig().validate(True)

    def test_moment_budget_exact(self):
        # (2d-1)(2N+1-d) distinct measurements with nmax = N and no retries
        for p, n in ((unit_triangle(), 3), (unit_square(), 4), (unit_cube(), 8)):
            oracle = PolytopeMomentOracle(p)
            vs = reconstruct(oracle, n, _cfg(), rng=Random(13))
            d = p.dim
            if vs.provenance.retries == 0:
                assert vs.provenance.moment_count == (2 * d - 1) * (2 * n + 1 - d)

    def test_undercounted_base_restarts(self, monkeypatch):
        # (1, -1) projects (0, 0) and (1, 1) both onto 0, so the first
        # direction reports 3 vertices; (1, 2) is full rank at n = 3, its
        # re-probe at nmax finds 4, and the base restarts from it
        draws = iter([(1, -1), (1, 2), (2, 1)])
        monkeypatch.setattr(_Pipeline, "sample_direction", lambda self: next(draws))
        vs = reconstruct(PolytopeMomentOracle(unit_square()), 4, _cfg(), Random(1))
        assert vs.vertices == tuple(sorted(unit_square().vertices))
        assert vs.provenance.directions == [(1, 2), (2, 1)]
        assert (vs.provenance.retries, vs.provenance.moment_count) == (4, 42)

    def test_larger_nmax_still_recovers(self):
        oracle = PolytopeMomentOracle(unit_square())
        vs = reconstruct(oracle, 7, _cfg(), rng=Random(5))
        assert vs.vertices == tuple(sorted(unit_square().vertices))

    def test_pyramid_from_triangulated_moments(self):
        # non-simple apex; the oracle integrates over the triangulation
        pyr = square_pyramid()
        oracle = PolytopeMomentOracle(pyr, route="direct")
        vs = reconstruct(oracle, 6, _cfg(), rng=Random(5))
        assert vs.vertices == tuple(sorted(pyr.vertices))

    def test_density_invariance(self, rng):
        # same vertex set for uniform and random positive density
        for _ in range(3):
            p = random_simple_polytope(rng)
            base = reconstruct(
                PolytopeMomentOracle(p), p.n_vertices, _cfg(), rng=Random(31)
            )
            deg = rng.randint(1, 2)
            rho = random_density(rng, p.dim, deg, p)
            with_rho = reconstruct(
                PolytopeMomentOracle(p, rho), p.n_vertices, _cfg(), rng=Random(31)
            )
            assert base.vertices == with_rho.vertices == tuple(sorted(p.vertices))

    def test_exact_roundtrip_random(self, rng):
        for _ in range(8):
            p = random_simple_polytope(rng)
            oracle = PolytopeMomentOracle(p)
            vs = reconstruct(oracle, p.n_vertices, _cfg(), rng=rng)
            assert vs.vertices == tuple(sorted(p.vertices))

    def test_self_check_exact(self):
        oracle = PolytopeMomentOracle(unit_triangle())
        vs = reconstruct(oracle, 3, _cfg(), rng=Random(7), self_check=True)
        assert vs.provenance.self_check_residual == 0.0
        assert vs.provenance.self_check_moments > 0
        # the main budget stays at the self-check-free count
        assert vs.provenance.moment_count == 15

    def test_float_square_noise(self):
        oracle = PolytopeMomentOracle(
            unit_square(), mode="float", noise=1e-9, rng=Random(42)
        )
        cfg = RunConfig(mode="float", seed=1, denominator=10007, noise=1e-9)
        vs = reconstruct(oracle, 4, cfg, rng=Random(21))
        assert reconstruction_error(unit_square(), vs) <= 1e-6

    def test_float_cube_solves_without_a_retry_storm(self):
        # a characterization of the whole float pipeline: the draw Random(1)
        # solves the float cube after 9 retries, all of them base directions;
        # both matchings pass at their first trial
        cube = unit_cube()
        oracle = PolytopeMomentOracle(cube, mode="float")
        vs = reconstruct(oracle, 8, RunConfig(mode="float", seed=1), Random(1))
        assert vs.provenance.retries == 9
        assert oracle.unique_count == 374
        assert reconstruction_error(cube, vs) <= 1e-6

    def test_float_cube_vertices_to_the_last_bit(self):
        oracle = PolytopeMomentOracle(unit_cube(), mode="float")
        vs = reconstruct(oracle, 8, RunConfig(mode="float", seed=1), Random(1))
        assert vs.vertices == FLOAT_CUBE_VERTICES

    @pytest.mark.parametrize("field, value", [
        ("noise", float("nan")), ("noise", float("inf")), ("noise", -1e-9),
    ])
    def test_meaningless_settings_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            RunConfig(mode="float", **{field: value}).validate()
        oracle = PolytopeMomentOracle(unit_square(), mode="float")
        with pytest.raises(InputError, match=field):
            reconstruct(oracle, 4, RunConfig(mode="float", **{field: value}))
        assert oracle.unique_count == 0

    def test_self_check_reads_its_direction_once(self, monkeypatch):
        # the held-out direction's moments come from one oracle batch, not
        # from one batch per index (counts 1, 2, ..., 7: 28 moments)
        moments_module = import_module("polymom.moments")
        batches = []
        brion = moments_module.axial_moments_brion_density

        def counting(p, z, count, rho):
            batches.append((tuple(z), count))
            return brion(p, z, count, rho)

        monkeypatch.setattr(moments_module, "axial_moments_brion_density", counting)
        oracle = PolytopeMomentOracle(unit_square(), mode="float")
        vs = reconstruct(oracle, 4, RunConfig(mode="float", seed=1), Random(1),
                         self_check=True)
        held_out = batches[-1][0]
        assert [b for b in batches if b[0] == held_out] == [(held_out, 7)]
        assert vs.provenance.self_check_moments == 7

    def test_float_self_check_blocks_wrong_results(self):
        # N=8 boxes sit at the float rank-detection margin: runs either
        # fail honestly, or survive the held-out self-check and are right
        import warnings as _w

        from polymom.errors import PolymomError

        cube = unit_cube()
        survived = 0
        for seed in range(8):
            oracle = PolytopeMomentOracle(cube, mode="float")
            cfg = RunConfig(
                mode="float", seed=seed, denominator=10007, beta_trials=40
            )
            try:
                with _w.catch_warnings():
                    _w.simplefilter("ignore")
                    vs = reconstruct(
                        oracle, 8, cfg, rng=Random(40 + seed), self_check=True
                    )
            except PolymomError:
                continue
            survived += 1
            assert reconstruction_error(cube, vs) <= 1e-6, seed
        assert survived >= 1


# the float cube's vertices under the pipeline draw Random(1), to the last bit
FLOAT_CUBE_VERTICES = (
    (-2.431365876036466e-09, 0.9999999952727219, 2.138086482724902e-09),
    (1.5435234334143085e-10, -1.5869297661537876e-11, -6.511035863451617e-11),
    (1.613500330393468e-09, 1.0000000007443857, 0.9999999992447205),
    (7.918722412922861e-09, -4.688541988602531e-09, 0.9999999954799957),
    (0.9999999901219806, 1.0000000054542895, 6.753256273787919e-09),
    (0.9999999920324826, -2.3905515214035803e-09, 3.025209410804717e-09),
    (0.9999999999995173, 0.999999999996312, 1.0000000000025229),
    (1.0000000085499676, 8.550599393213166e-09, 0.9999999935723671),
)


@pytest.mark.parametrize("noise", [0.0, 1e-9])
def test_direct_float_solve_is_the_pipelines(noise):
    # the direct call sizes its Hankel and its separation guard from the
    # sequence's mode and the noise level, as the pipeline does
    oracle = PolytopeMomentOracle(unit_square(), mode="float", noise=noise, rng=Random(4))
    pipe = _Pipeline(oracle, 4, RunConfig(mode="float", seed=1, noise=noise), Random(1))
    coords = (0.3, 0.7)
    want = pipe.projections_at(coords, 4)
    got = projections_from_moments(pipe.sequence_at(coords, 4), 4, noise)
    assert (got.values, got.n, got.rank, got.poly) == (want.values, want.n, want.rank, want.poly)
    assert want.n == 4


class TestEarlyRankExit:
    """A combined-direction trial whose Hankel rank at m is not (D+1) n
    stops after that one values-only SVD; a trial at the expected rank
    takes three SVDs and one least-squares solve."""

    def test_svd_and_lstsq_counts(self, monkeypatch):
        calls = []
        svd, lstsq = np.linalg.svd, np.linalg.lstsq

        def counting_svd(*args, **kwargs):
            calls.append("svd" if kwargs.get("compute_uv", True) else "values")
            return svd(*args, **kwargs)

        def counting_lstsq(*args, **kwargs):
            calls.append("lstsq")
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        oracle = PolytopeMomentOracle(unit_square(), mode="float")
        pipe = _Pipeline(oracle, 4, RunConfig(mode="float", seed=1), Random(1))
        coords = (0.3, 0.7)  # projections 0, 0.3, 0.7, 1
        assert pipe.poly_at(coords, 4).degree == 4
        assert calls == ["values", "values", "svd", "lstsq"]
        del calls[:]
        with pytest.raises(RankInstability, match="rank 4 != 3"):
            pipe.poly_at(coords, 3)
        assert calls == ["values"]
        # the public solve keeps deciding on the ranks alone
        del calls[:]
        ms = oracle.sequence(coords, moments_needed(2, 3, 0, "float"))
        assert prony_polynomial_from_sequence(ms, 3).degree == 4
        assert calls == ["values", "values", "svd", "lstsq"]


def _fail_first_match(monkeypatch):
    """Make the first matching of a run exhaust its budget, so that
    ``reconstruct`` falls back to a replacement direction."""
    match, calls = _Pipeline.match, []

    def patched(self, values, poly_for):
        calls.append(None)
        if len(calls) == 1:
            raise MatchingFailure("injected")
        return match(self, values, poly_for)

    monkeypatch.setattr(_Pipeline, "match", patched)


class _Stop(Exception):
    pass


class TestMatchingFallback:
    def test_replacement_is_independent_of_the_later_base_rows(self, monkeypatch):
        # (3, 6, 5) = z_1 + z_3 is independent of z_1 alone, but a base of
        # z_1, z_1 + z_3 and z_3 is singular: it is rejected and (5, 1, 3)
        # replaces z_2
        draws = iter([(1, 2, 4), (4, 1, 2), (2, 4, 1), (3, 6, 5), (5, 1, 3)])
        monkeypatch.setattr(_Pipeline, "sample_direction", lambda self: next(draws))
        _fail_first_match(monkeypatch)
        cube = unit_cube()
        vs = reconstruct(PolytopeMomentOracle(cube), 8, _cfg(), Random(1))
        assert vs.vertices == tuple(sorted(cube.vertices))
        assert vs.provenance.directions == [(1, 2, 4), (5, 1, 3), (2, 4, 1)]

    @pytest.mark.parametrize("shape, r, seed", [
        ("cube", 7, 7), ("cube", 7, 16), ("cube", 13, 19), ("parallelepiped", 7, 9),
    ])
    def test_small_denominator_replacements_span_the_base(self, monkeypatch, shape, r, seed):
        # these draws once took a replacement for z_2 in the span of z_1 and
        # z_3, so that assembly raised InputError("singular matrix"); each
        # replacement is drawn against the d - 1 other base rows and is
        # independent of them. These exact matchings fail at every budget and
        # draw no random coefficients, so a budget of one trial sees the same
        # replacements; the test stops after three of them
        p = unit_cube() if shape == "cube" else random_parallelepiped(Random(0))
        acquire, replacements = _Pipeline.acquire, []

        def checked(self, existing=(), n=None):
            coords, proj = acquire(self, existing, n)
            if self.prov.directions:  # set once the base is complete
                rows = [*existing, coords]
                assert len(rows) == p.dim and rank_exact([list(z) for z in rows]) == p.dim
                replacements.append(coords)
                if len(replacements) == 3:
                    raise _Stop
            return coords, proj

        monkeypatch.setattr(_Pipeline, "acquire", checked)
        with pytest.raises((_Stop, MatchingFailure)):
            reconstruct(PolytopeMomentOracle(p), p.n_vertices,
                        RunConfig(denominator=r, seed=seed, beta_trials=1), Random(seed))
        assert replacements

    def test_replacement_showing_more_vertices_raises_rank_instability(self, monkeypatch):
        # (1, -1) and (1, 1) each collide two square vertices, so the base
        # counts 3; the replacement (1, 2) is full rank at 3, and acquire's
        # re-probe at nmax returns its 4 projections
        draws = iter([(1, -1), (1, 1), (1, 2)])
        monkeypatch.setattr(_Pipeline, "sample_direction", lambda self: next(draws))
        _fail_first_match(monkeypatch)
        with pytest.raises(RankInstability, match="shows 4 vertices, not 3"):
            reconstruct(PolytopeMomentOracle(unit_square()), 4, _cfg(), Random(1))


def _ngon(n):
    """The polygon (k, k^2/7), k < n."""
    bare = Polytope(dim=2, vertices=tuple((F(k), F(k * k, 7)) for k in range(n)))
    return Polytope(dim=2, vertices=bare.vertices, cones=polygon_cones(bare))


class TestSelfCheckRejects:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float_ngon8(self, seed):
        # float rank detection undercounts ngon(8); the forward self-check
        # sees it (residual 0.08-0.17)
        oracle = PolytopeMomentOracle(_ngon(8), mode="float")
        with pytest.raises(OracleDisagreement, match="residual"):
            reconstruct(oracle, 8, RunConfig(mode="float", seed=seed), Random(seed),
                        self_check=True)

    def test_exact_forward_branch(self):
        pipe = _Pipeline(PolytopeMomentOracle(unit_square()), 4, _cfg(), Random(1))
        wide = [(F(0), F(0)), (F(2), F(0)), (F(2), F(1)), (F(0), F(1))]
        with pytest.raises(OracleDisagreement):
            _self_check(pipe, wide)
        assert pipe.prov.self_check_residual == 1.0

    def test_exact_projection_branch(self):
        # no triangulation of 8 points in 3-D: the held-out projections decide
        cube = unit_cube()
        moved = [v if v != (1, 1, 1) else (F(1), F(1), F(2)) for v in cube.vertices]
        pipe = _Pipeline(PolytopeMomentOracle(cube), 8, _cfg(), Random(1))
        with pytest.raises(OracleDisagreement):
            _self_check(pipe, moved)
        assert pipe.prov.self_check_residual == 1.0
        _self_check(pipe, list(cube.vertices))
        assert pipe.prov.self_check_residual == 0.0

    @pytest.mark.parametrize("wrong", ["missing", "extra"])
    def test_exact_projection_branch_at_a_small_prime(self, wrong):
        # the held-out direction is drawn at 1000003 whatever the run's r,
        # and a held-out solve that cannot show the result's count rejects
        cube = sorted(unit_cube().vertices)
        if wrong == "missing":  # two opposite corners
            vertices = [v for v in cube if v not in ((0, 0, 0), (1, 1, 1))]
        else:
            vertices = [*cube, (F(2), F(2), F(2))]
        pipe = _Pipeline(PolytopeMomentOracle(unit_cube()), 8,
                         RunConfig(denominator=7, seed=1), Random(1))
        with pytest.raises(OracleDisagreement):
            _self_check(pipe, vertices)
        assert pipe.prov.self_check_residual == 1.0
        _self_check(pipe, cube)
        assert pipe.prov.self_check_residual == 0.0

    def test_exact_cube_undercount_at_r7(self):
        # the directions drawn at r = 7 undercount the cube, and the run
        # returns 6 vertices; the held-out solve at 6 fails, which rejects them
        oracle = PolytopeMomentOracle(unit_cube())
        with pytest.raises(OracleDisagreement, match="residual"):
            reconstruct(oracle, 8, RunConfig(denominator=7, seed=2), Random(2),
                        self_check=True)

    def test_inconclusive_when_every_draw_is_unusable(self, monkeypatch):
        # (1, 0, 0) projects the cube onto two values
        cube = unit_cube()
        pipe = _Pipeline(PolytopeMomentOracle(cube), 8, _cfg(), Random(1))
        monkeypatch.setattr(_Pipeline, "sample_direction", lambda self, r=None: (1, 0, 0))
        with pytest.warns(UserWarning, match="inconclusive"):
            _self_check(pipe, list(cube.vertices))
        assert pipe.prov.self_check_residual is None

    @pytest.mark.parametrize("oracle_mode, config_mode", [("exact", "float"), ("float", "exact")])
    def test_config_mode_must_match_the_oracle(self, oracle_mode, config_mode):
        oracle = PolytopeMomentOracle(unit_square(), mode=oracle_mode)
        with pytest.raises(InputError, match="config mode"):
            _Pipeline(oracle, 4, RunConfig(mode=config_mode), None)


def test_exact_ngon48_at_default_settings():
    # the projections reach 48 * 1000003: the root search seeds on the
    # integer polynomial scaled into the unit disc, so no float overflows
    p = _ngon(48)
    vs = reconstruct(PolytopeMomentOracle(p), 48, RunConfig(seed=1), Random(1))
    assert vs.vertices == tuple(sorted(p.vertices))
    assert vs.provenance.moment_count == (2 * 2 - 1) * (2 * 48 + 1 - 2)


class TestFrugal:
    def test_triangle_matches_reconstruct(self):
        tri = unit_triangle()
        a = reconstruct(PolytopeMomentOracle(tri), 3, _cfg(), rng=Random(7))
        b = match_frugal_d_plus_1(PolytopeMomentOracle(tri), 3, _cfg(), rng=Random(7))
        assert a.vertices == b.vertices

    def test_square(self):
        sq = unit_square()
        vs = match_frugal_d_plus_1(PolytopeMomentOracle(sq), 4, _cfg(), rng=Random(9))
        assert vs.vertices == tuple(sorted(sq.vertices))

    def test_cube_uses_d_plus_1_directions(self):
        cube = unit_cube()
        oracle = PolytopeMomentOracle(cube)
        vs = match_frugal_d_plus_1(oracle, 8, _cfg(), rng=Random(9))
        assert vs.vertices == tuple(sorted(cube.vertices))
        if vs.provenance.retries == 0:
            # 4 directions at 2N+1-d moments each
            assert vs.provenance.moment_count == 4 * (2 * 8 + 1 - 3)

    def test_simplex_candidate_count_trivial(self):
        # N = d+1: candidate tuples are few and matching is immediate
        from conftest import random_tetrahedron

        t = random_tetrahedron(Random(8))
        vs = match_frugal_d_plus_1(PolytopeMomentOracle(t), 4, _cfg(), rng=Random(2))
        assert vs.vertices == tuple(sorted(t.vertices))


class TestSequenceReconstruction:
    def _sequences(self, p, directions, count, betas=()):
        # the direct route works for any direction, poles included, like a
        # physical measurement would
        seqs = [moment_sequence(p, z, count, route="direct") for z in directions]
        z1 = directions[0]
        for i, beta in betas:
            zc = tuple(a + beta * b for a, b in zip(z1, directions[i]))
            seqs.append(moment_sequence(p, zc, count, route="direct"))
        return seqs

    def test_triangle_from_files(self):
        tri = unit_triangle()
        dirs = [(F(1), F(2)), (F(2), F(1))]
        # beta = 1 collides two projections, but the confluent combined
        # polynomial t (t-3)^2 still vanishes exactly at the true pairs, so
        # the supplied file already matches unambiguously
        seqs = self._sequences(
            tri, dirs, 7, betas=[(1, F(1)), (1, F(2)), (1, F(3))]
        )
        vs = reconstruct_from_sequences(seqs, 3)
        assert vs.vertices == tuple(sorted(tri.vertices))
        assert vs.provenance.betas == [F(1)]

    def test_triangle_from_files_late_beta(self):
        tri = unit_triangle()
        dirs = [(F(1), F(2)), (F(2), F(1))]
        # with only the ambiguous beta=2 and the good beta=3 on file, the
        # matcher skips to 3
        seqs = self._sequences(tri, dirs, 7, betas=[(1, F(2)), (1, F(3))])
        vs = reconstruct_from_sequences(seqs, 3)
        assert vs.vertices == tuple(sorted(tri.vertices))
        assert vs.provenance.betas == [F(3)]

    def test_irrational_combined_file_is_a_failed_trial(self):
        # a supplied z1 + z2 file whose polynomial is t (t^2 - 2), of full
        # degree 3: c_k = 2^(k/2+1) for even k > 0, else 0, and
        # mu_j = c_(j+2) j!/(j+2)!; the beta = 3 file after it still matches
        tri = unit_triangle()
        dirs = [(F(1), F(2)), (F(2), F(1))]
        seqs = self._sequences(tri, dirs, 7, betas=[(1, F(3))])
        c = [F(2 ** (k // 2 + 1)) if k % 2 == 0 and k else F(0) for k in range(9)]
        fake = MomentSequence(
            dim=2, direction=(F(3), F(3)), density_degree=0, mode="exact",
            moments=tuple(c[j + 2] * F(factorial(j), factorial(j + 2)) for j in range(7)))
        vs = reconstruct_from_sequences(seqs[:2] + [fake] + seqs[2:], 3)
        assert vs.vertices == tuple(sorted(tri.vertices))
        assert vs.provenance.betas == [F(3)]
        assert vs.provenance.retries == 1
        with pytest.raises(MatchingFailure, match="irrational"):
            reconstruct_from_sequences(seqs[:2] + [fake], 3)

    def test_missing_combined_direction(self):
        tri = unit_triangle()
        seqs = self._sequences(tri, [(F(1), F(2)), (F(2), F(1))], 7)
        with pytest.raises(MatchingFailure, match="matches base direction 1"):
            reconstruct_from_sequences(seqs, 3)

    @pytest.mark.parametrize("triangle_first", [True, False])
    def test_a_direction_supplied_twice_must_agree(self, triangle_first):
        # a triangle's z_1 file among the square's: first, the square came
        # back with a success status; last, the solve blamed the directions
        dirs = [(F(1), F(2)), (F(2), F(1))]
        square = self._sequences(unit_square(), dirs, 9, betas=[(1, F(b)) for b in (1, 2, 3)])
        other = self._sequences(unit_triangle(), dirs[:1], 9)
        with pytest.raises(InputError, match="two moment sequences along direction"):
            reconstruct_from_sequences(other + square if triangle_first else square + other, 4)
        vs = reconstruct_from_sequences(square + square[:1], 4)
        assert vs.vertices == tuple(sorted(unit_square().vertices))

    def test_too_few_directions(self):
        tri = unit_triangle()
        seqs = self._sequences(tri, [(F(1), F(2))], 7)
        with pytest.raises(InputError):
            reconstruct_from_sequences(seqs, 3)

    def test_float_polytope_sequences_are_float(self):
        # the sequences take float mode from the float polytope, and solve
        square = unit_square()
        fsquare = polytope_to_float(square)
        dirs = [(1.0, 0.3), (0.4, 1.0), (1.4, 1.3), (1.8, 2.3)]
        count = moments_needed(2, 4, 0, "float")
        seqs = [moment_sequence(fsquare, z, count) for z in dirs]
        assert {ms.mode for ms in seqs} == {"float"}
        vs = reconstruct_from_sequences(seqs, 4)
        assert reconstruction_error(square, vs) <= 1e-9

    def test_float_files_oversampled(self):
        # float mode reads the same oversampled Hankel as the adaptive
        # pipeline, so each file must hold moments_needed(d, nmax, D, "float")
        square = unit_square()
        fsquare = polytope_to_float(square)
        dirs = [(1.0, 0.3), (0.4, 1.0)]
        combined = [tuple(a + beta * b for a, b in zip(*dirs)) for beta in (1.0, 2.0, 3.0)]
        need = moments_needed(2, 4, 0, "float")
        assert need == 2 * (4 + 1 + FLOAT_OVERSAMPLE) - 1 - 2

        def files(count):
            return [moment_sequence(fsquare, z, count, route="direct")
                    for z in dirs + combined]

        vs = reconstruct_from_sequences(files(need), 4)
        assert reconstruction_error(square, vs) <= 1e-10
        with pytest.raises(InsufficientMoments):
            reconstruct_from_sequences(files(need - 1), 4)


def _pin_corpus():
    """Seeded polygons with densities of degree 0-2, a tetrahedron with a
    degree-1 density, a prism and the cube; small direction denominators
    so that some runs retry."""
    rng = Random(2026)
    for k in range(12):
        p = random_polygon(rng, max_vertices=5)
        yield p, (random_density(rng, 2, k % 3, p) if k % 3 else None)
    p = random_tetrahedron(rng)
    yield p, random_density(rng, 3, 1, p)
    yield random_prism(rng), None
    yield unit_cube(), None


# (moment_count, retries) of reconstruct, frugal and univar per corpus entry,
# as the pipeline gave them with rational sampled directions
PINNED_RUNS = (
    ((21, 0), (21, 0), (63, 0)), ((54, 0), (54, 0), (198, 0)),
    ((81, 1), (81, 1), (297, 0)), ((21, 0), (21, 0), (63, 0)),
    ((54, 0), (54, 0), (198, 0)), ((81, 0), (81, 0), (297, 0)),
    ((27, 0), (27, 0), (99, 0)), ((42, 0), (42, 0), (126, 0)),
    ((81, 0), (81, 0), (297, 0)), ((21, 0), (21, 0), (63, 0)),
    ((54, 0), (54, 0), (198, 0)), ((63, 0), (63, 0), (189, 0)),
    ((65, 0), (91, 4), (169, 1)), ((70, 2), (90, 5), (190, 0)),
    ((294, 19), (196, 13), (364, 2)),
)


class TestIntegerDirections:
    """Exact mode samples the integer numerators r z of its directions."""

    def test_runs_are_unchanged(self):
        for i, ((p, rho), pinned) in enumerate(zip(_pin_corpus(), PINNED_RUNS, strict=True)):
            config = RunConfig(seed=i, denominator=(3, 5, 7)[i % 3])
            got = []
            for run in (reconstruct, match_frugal_d_plus_1, vertices_univar):
                vs = run(PolytopeMomentOracle(p, rho), p.n_vertices, config, Random(i))
                assert vs.vertices == tuple(sorted(p.vertices))
                got.append((vs.provenance.moment_count, vs.provenance.retries))
            assert tuple(got) == pinned, i

    def test_directions_are_r_times_the_draws(self):
        for seed, (p, r) in enumerate([(unit_square(), 1000003), (unit_cube(), 1000003),
                                       (square_pyramid(), 7)]):
            replay = Random(seed)
            draws = {sample_generic_direction(p.dim, r, replay).coords for _ in range(200)}
            vs = reconstruct(PolytopeMomentOracle(p), p.n_vertices,
                             RunConfig(seed=seed, denominator=r), Random(seed))
            assert vs.provenance.directions
            for z in vs.provenance.directions:
                assert all(type(x) is int for x in z)
                assert tuple(F(x, r) for x in z) in draws

    @pytest.mark.parametrize("run", [reconstruct, match_frugal_d_plus_1, vertices_univar])
    def test_undersized_nmax_stops_at_the_first_direction(self, run):
        # the exact Hankel rank is at most N along every direction, so a
        # full rank at nmax = 3 < 4 is conclusive: 2m - 1 - d = 5 moments
        oracle = PolytopeMomentOracle(unit_square())
        with pytest.raises(FullRankHankel):
            run(oracle, 3, RunConfig(seed=1), Random(1))
        assert oracle.unique_count == 5

    @pytest.mark.parametrize("run", [reconstruct, match_frugal_d_plus_1, vertices_univar])
    @pytest.mark.parametrize("shape, nmax", [(unit_square, 1), (unit_cube, 2)])
    def test_nmax_below_the_dimension_stops_at_the_first_direction(self, run, shape, nmax):
        # the d structural zeros of the scaled vector push the linear
        # complexity past m = nmax + 1, which exact data reaches only when
        # nmax < N: one probe of 2m - 1 - d = nmax measurements, no retries
        oracle = PolytopeMomentOracle(shape())
        with pytest.raises(RankInstability, match=f"nmax={nmax} is below the vertex count"):
            run(oracle, nmax, RunConfig(seed=1), Random(1))
        assert oracle.unique_count == nmax


class TestReconstructionError:
    def test_exact_zero(self):
        tri = unit_triangle()
        vs = reconstruct(PolytopeMomentOracle(tri), 3, _cfg(), rng=Random(7))
        assert reconstruction_error(tri, vs) == 0

    def test_count_mismatch_infinite(self):
        from polymom.reconstruct import VertexSet

        tri = unit_triangle()
        vs = VertexSet(dim=2, vertices=((F(0), F(0)),))
        assert reconstruction_error(tri, vs) == float("inf")
