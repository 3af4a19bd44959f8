"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (run with -s to
see them live). The shared 100-polytope corpus comes from conftest: random
rational simple polytopes, d in {2,3}, N <= 8, coordinate numerators and
denominators bounded by 100.
"""

import time
from fractions import Fraction
from random import Random

from conftest import (
    random_density,
    random_polygon,
    random_tetrahedron,
    square_pyramid,
    unit_square,
    unit_triangle,
)
from polymom.config import RunConfig
from polymom.geometry import check_distinct_projections, dot, sample_generic_direction
from polymom.moments import (
    PolytopeMomentOracle,
    axial_moment_direct,
    axial_moments_brion_density,
    axial_moments_direct,
    companion_identity_residual,
    monomial_moments_of_degree,
    scaled_moment_vector,
)
from polymom.prony import (
    build_hankel,
    hankel_size,
    moments_needed,
    poly_derivative,
    poly_eval,
    rank_and_kernel,
)
from polymom.reconstruct import match_frugal_d_plus_1, reconstruct, reconstruction_error
from polymom.univar import g_from_f, interpolate_fab, vertices_univar
from polymom.numeric import poly_parse

F = Fraction


def _report(num, ok, detail=""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _cfg(seed=0):
    return RunConfig(seed=seed, denominator=10007)


def _generic_sequence(oracle, p, nmax, rng):
    while True:
        z = sample_generic_direction(p.dim, 1009, rng).coords
        if not check_distinct_projections(p, z):
            continue
        try:
            return z, oracle.sequence(z, moments_needed(p.dim, nmax, oracle.density_degree))
        except Exception:
            continue


def test_criterion_1_exact_roundtrip(corpus):
    """100 random rational simple polytopes, uniform density: exact vertex
    recovery, zero tolerance, under 60 seconds."""
    ok = False
    start = time.time()
    try:
        for i, p in enumerate(corpus):
            oracle = PolytopeMomentOracle(p)
            vs = reconstruct(oracle, p.n_vertices, _cfg(), rng=Random(9000 + i))
            assert vs.vertices == tuple(sorted(p.vertices)), f"instance {i}"
        elapsed = time.time() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
        ok = True
    finally:
        _report(1, ok, f"100/100 exact recoveries in {time.time() - start:.1f}s")


def test_criterion_2_hankel_rank_theorem(corpus):
    """Rank N at m in {N+1, N+2} for uniform density; rank (deg+1) N with
    random densities of degree 1 and 2 positive on the vertices."""
    ok = False
    rng = Random(77)
    try:
        for p in corpus:
            n = p.n_vertices
            oracle = PolytopeMomentOracle(p)
            _, ms = _generic_sequence(oracle, p, n + 1, rng)
            c = scaled_moment_vector(ms, 2 * (n + 2) - 2)
            for m in (n + 1, n + 2):
                rank, _ = rank_and_kernel(build_hankel(c, m))
                assert rank == n
        for p in corpus:
            n = p.n_vertices
            for deg in (1, 2):
                rho = random_density(rng, p.dim, deg, p)
                oracle = PolytopeMomentOracle(p, rho)
                _, ms = _generic_sequence(oracle, p, n, rng)
                m = hankel_size(n, deg)
                c = scaled_moment_vector(ms, 2 * m - 2)
                rank, _ = rank_and_kernel(build_hankel(c, m))
                assert rank == (deg + 1) * n, (p.dim, n, deg, rank)
        ok = True
    finally:
        _report(2, ok, "rank == N and rank == (deg+1)N on 100 polytopes")


def test_criterion_3_companion_identities(corpus):
    """The d + deg low-order vertex sums vanish exactly."""
    ok = False
    rng = Random(31)
    try:
        for p in corpus:
            while True:
                z = sample_generic_direction(p.dim, 1009, rng).coords
                try:
                    for j in range(p.dim):
                        assert companion_identity_residual(p, z, j) == 0
                    break
                except Exception as exc:
                    if type(exc).__name__ == "DenominatorVanishes":
                        continue
                    raise
            deg = rng.randint(1, 2)
            rho = random_density(rng, p.dim, deg, p)
            while True:
                z = sample_generic_direction(p.dim, 1009, rng).coords
                try:
                    for j in range(p.dim + deg):
                        assert companion_identity_residual(p, z, j, rho) == 0
                    break
                except Exception as exc:
                    if type(exc).__name__ == "DenominatorVanishes":
                        continue
                    raise
        ok = True
    finally:
        _report(3, ok, "residuals exactly 0 for j < d + deg on 100 polytopes")


def test_criterion_4_forward_oracle_equivalence():
    """Vertex-cone formulas equal barycentric integration exactly on 200
    random simplices, j <= 8, density degree <= 2."""
    ok = False
    rng = Random(4242)
    try:
        for i in range(200):
            p = random_polygon(rng, max_vertices=3) if i % 2 else random_tetrahedron(rng)
            deg = i % 3
            rho = random_density(rng, p.dim, deg) if deg else None
            while True:
                z = sample_generic_direction(p.dim, 1009, rng).coords
                try:
                    brion = axial_moments_brion_density(p, z, 9, rho)
                    break
                except Exception as exc:
                    if type(exc).__name__ == "DenominatorVanishes":
                        continue
                    raise
            assert brion == axial_moments_direct(p, z, 9, rho), i
        ok = True
    finally:
        _report(4, ok, "brion == direct exactly on 200 simplices, j <= 8")


def test_criterion_5_moment_budget(corpus):
    """Zero-retry reconstructions consume exactly (2d-1)(2N+1-d) distinct
    measurements for uniform density with nmax = N."""
    ok = False
    zero_retry = 0
    try:
        for i, p in enumerate(corpus):
            oracle = PolytopeMomentOracle(p)
            vs = reconstruct(oracle, p.n_vertices, _cfg(), rng=Random(5000 + i))
            assert vs.vertices == tuple(sorted(p.vertices))
            d, n = p.dim, p.n_vertices
            if vs.provenance.retries == 0:
                zero_retry += 1
                assert vs.provenance.moment_count == (2 * d - 1) * (2 * n + 1 - d), i
        assert zero_retry >= 90, f"only {zero_retry} zero-retry runs"
        ok = True
    finally:
        _report(
            5, ok,
            f"budget exact on {zero_retry}/100 zero-retry runs",
        )


def test_criterion_6_method_equivalence(corpus):
    """reconstruct, the d+1-direction variant, and the univariate route
    return identical vertex sets; univar consumes O(d N^2) moments."""
    ok = False
    worst_c = 0.0
    try:
        for i, p in enumerate(corpus):
            n = p.n_vertices
            truth = tuple(sorted(p.vertices))
            a = reconstruct(
                PolytopeMomentOracle(p), n, _cfg(), rng=Random(100 + i)
            )
            b = match_frugal_d_plus_1(
                PolytopeMomentOracle(p), n, _cfg(), rng=Random(200 + i)
            )
            u = vertices_univar(
                PolytopeMomentOracle(p), n, _cfg(), Random(300 + i)
            )
            assert a.vertices == b.vertices == u.vertices == truth, i
            c_ratio = u.provenance.moment_count / (p.dim * n * n)
            worst_c = max(worst_c, c_ratio)
        assert worst_c <= 3.0
        ok = True
    finally:
        _report(
            6, ok,
            f"three methods agree on 100 polytopes; univar C = {worst_c:.2f}",
        )


def test_criterion_7_univariate_sign_identity(corpus):
    """-g_ab(<w,a>) / p_a'(<w,a>) equals <w,b> exactly for every corpus
    polytope, vertex, and basis direction (the corrected sign)."""
    ok = False
    checked = 0
    try:
        from polymom.reconstruct import _Pipeline

        for i, p in enumerate(corpus):
            n = p.n_vertices
            oracle = PolytopeMomentOracle(p)
            pipe = _Pipeline(oracle, n, _cfg(), Random(400 + i))
            a, proj = pipe.acquire()
            if proj.n != n:
                a, proj = pipe.acquire()
            assert proj.n == n
            pa = list(proj.poly.coeffs) + [F(1)]
            dpa = poly_derivative(pa)
            for j in range(p.dim):
                e_j = tuple(F(1) if t == j else F(0) for t in range(p.dim))
                g = g_from_f(
                    interpolate_fab(oracle, a, e_j, n, pipeline=pipe, known_pa=pa)
                )
                for w in p.vertices:
                    theta = dot(w, a)
                    assert -poly_eval(g, theta) / poly_eval(dpa, theta) == w[j]
                    checked += 1
        ok = True
    finally:
        _report(7, ok, f"sign identity exact on {checked} (vertex, basis) pairs")


def test_criterion_8_monomial_moment_relation(corpus):
    """The derivative relation |m|! mu_m = d^m mu_{|m|}(z) reproduces direct
    integration for all |m| <= 4 on 50 instances."""
    ok = False
    checked = 0
    try:
        for i, p in enumerate(corpus[:50]):
            for q in range(5):
                got = monomial_moments_of_degree(p, q, rng=Random(800 + i))
                for m, val in got.items():
                    expr = " ".join(
                        f"x{t + 1}^{e}" for t, e in enumerate(m) if e
                    ) or "1"
                    mono = poly_parse(expr, p.dim)
                    direct = axial_moment_direct(
                        p, tuple(F(1) if t == 0 else F(0) for t in range(p.dim)),
                        0, mono,
                    )
                    assert val == direct, (i, m)
                    checked += 1
        ok = True
    finally:
        _report(8, ok, f"monomial moments exact on {checked} cases, |m| <= 4")


def test_criterion_9_noise_robustness():
    """Float mode: 1e-9 relative noise keeps every coordinate within 1e-6;
    noise 0 within 1e-10. Runtime under 5 seconds."""
    ok = False
    start = time.time()
    worst = {1e-9: 0.0, 0.0: 0.0}
    try:
        for p, nmax in ((unit_square(), 4), (unit_triangle(), 3)):
            for noise, bound in ((1e-9, 1e-6), (0.0, 1e-10)):
                for seed in range(3):
                    oracle = PolytopeMomentOracle(
                        p, mode="float", noise=noise, rng=Random(42 + seed)
                    )
                    cfg = RunConfig(
                        mode="float", seed=seed, denominator=10007, noise=noise,
                    )
                    vs = reconstruct(oracle, nmax, cfg, rng=Random(100 + seed))
                    err = reconstruction_error(p, vs)
                    worst[noise] = max(worst[noise], err)
                    assert err <= bound, (noise, seed, err)
        elapsed = time.time() - start
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
        ok = True
    finally:
        _report(
            9, ok,
            f"max err {worst[1e-9]:.2e} @1e-9 noise, {worst[0.0]:.2e} @0 "
            f"in {time.time() - start:.1f}s",
        )


def test_criterion_10_non_simple_pyramid():
    """Square pyramid (non-simple apex): exact recovery from moments
    generated via its triangulation; D-tilde never materializes."""
    ok = False
    try:
        pyr = square_pyramid()
        oracle = PolytopeMomentOracle(pyr, route="direct")
        vs = reconstruct(oracle, 6, _cfg(), rng=Random(5))
        assert vs.vertices == tuple(sorted(pyr.vertices))
        ok = True
    finally:
        _report(10, ok, "square pyramid recovered exactly from triangulated moments")
