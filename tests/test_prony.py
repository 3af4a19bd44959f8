"""Hankel construction, rank/kernel extraction, and root recovery."""

from contextlib import contextmanager
from fractions import Fraction
from math import isqrt, perm
from random import Random

import numpy as np
import pytest

from conftest import (
    random_density,
    random_simple_polytope,
    unit_square,
    unit_triangle,
)
from polymom import linalg, prony
from polymom.errors import (
    FullRankHankel,
    InputError,
    InsufficientMoments,
    IrrationalRoot,
    MultiplicityMismatch,
    PolymomError,
    RankInstability,
    RankNotDivisible,
)
from polymom.geometry import (
    Polytope,
    check_distinct_projections,
    dot,
    sample_generic_direction,
)
from polymom.moments import (
    PolytopeMomentOracle,
    MomentSequence,
    moment_sequence,
    scaled_moment_vector,
)
from polymom.numeric import EXACT
from polymom.prony import (
    PronyPolynomial,
    build_hankel,
    hankel_size,
    minimal_kernel_vector,
    poly_nth_root,
    moments_needed,
    projections_from_moments,
    prony_polynomial_from_sequence,
    rank_and_kernel,
    roots_exact,
    roots_float,
)

F = Fraction


class TestBuildHankel:
    def test_definition(self):
        h = build_hankel((2, 1, 1, 1, 1), 3)
        assert h.rows == ((2, 1, 1), (1, 1, 1), (1, 1, 1))

    def test_triangle_c_vector(self):
        h = build_hankel((0, 0, 1, 3, 7, 15, 31), 4)
        assert h.rows == (
            (0, 0, 1, 3),
            (0, 1, 3, 7),
            (1, 3, 7, 15),
            (3, 7, 15, 31),
        )

    def test_zero_matrix(self):
        h = build_hankel((0,) * 5, 3)
        assert all(all(x == 0 for x in row) for row in h.rows)

    def test_hankel_structure(self):
        c = tuple(range(1, 10))
        h = build_hankel(c, 5)
        for i in range(5):
            for j in range(5):
                assert h.rows[i][j] == c[i + j]

    def test_insufficient_entries(self):
        with pytest.raises(InsufficientMoments):
            build_hankel((1, 2, 3), 3)


class TestRankAndKernel:
    def test_triangle_rank(self):
        h = build_hankel((0, 0, 1, 3, 7, 15, 31), 4)
        rank, kernel = rank_and_kernel(h)
        assert rank == 3
        assert len(kernel) == 1
        # kernel vector (0, 2, -3, 1): dot with every row is 0
        assert kernel[0] == [F(0), F(2), F(-3), F(1)]

    def test_example_with_kernel(self):
        h = build_hankel((2, 1, 1, 1, 1), 3)
        rank, kernel = rank_and_kernel(h)
        assert rank == 2
        assert kernel == [[F(0), F(-1), F(1)]]

    def test_zero_matrix_full_kernel(self):
        h = build_hankel((0,) * 5, 3)
        rank, kernel = rank_and_kernel(h)
        assert rank == 0
        assert len(kernel) == 3

    def test_float_matrix_rejected(self):
        # an exact elimination of float data would read noise as full rank;
        # float data goes through prony_polynomial_from_sequence
        for c in ((0.0, 0.0, 1.0, 3.0, 7.0), (0, 0, 1, 3, 7.0)):
            with pytest.raises(InputError, match="exact entries"):
                rank_and_kernel(build_hankel(c, 3))

    def test_float_rank_matches_exact(self, rng):
        # float rank detection goes through the node-rescaled pipeline path;
        # noise 0, threshold DEFAULT_RANK_TOL
        for _ in range(8):
            p = random_simple_polytope(rng)
            n = p.n_vertices
            oracle = PolytopeMomentOracle(p)
            while True:
                z = sample_generic_direction(p.dim, 1009, rng).coords
                if not check_distinct_projections(p, z):
                    continue
                try:
                    ms = oracle.sequence(z, moments_needed(p.dim, n + 1, 0))
                    break
                except Exception:
                    continue
            exact_poly = prony_polynomial_from_sequence(ms, n + 1)
            oracle_f = PolytopeMomentOracle(p, mode="float")
            zf = tuple(float(x) for x in z)
            ms_float = oracle_f.sequence(zf, moments_needed(p.dim, n, 0, "float"))
            float_poly = prony_polynomial_from_sequence(ms_float, n)
            assert float_poly.degree == exact_poly.degree == n

    def test_float_rank_never_exceeds_exact(self, rng):
        # a faint vertex can dip below the threshold (undercount, caught by
        # the pipeline's resampling); an overcount would be unrecoverable
        from polymom.errors import NonGenericDirection

        for _ in range(20):
            p = random_simple_polytope(rng)
            n = p.n_vertices
            oracle_f = PolytopeMomentOracle(p, mode="float")
            z = sample_generic_direction(p.dim, 1009, rng, "float").coords
            try:
                ms = oracle_f.sequence(z, moments_needed(p.dim, n, 0, "float"))
                poly = prony_polynomial_from_sequence(ms, n)
            except NonGenericDirection:
                continue
            assert poly.degree <= n


class TestMinimalKernelVector:
    def test_two_node_example(self):
        h = build_hankel((2, 1, 1, 1, 1), 3)
        p = minimal_kernel_vector(h)
        assert p.degree == 2
        assert p.coeffs == (F(0), F(-1))  # p(t) = t^2 - t

    def test_triangle_kernel(self):
        h = build_hankel((0, 0, 1, 3, 7, 15, 31), 4)
        p = minimal_kernel_vector(h)
        assert p.degree == 3
        assert p.coeffs == (F(0), F(2), F(-3))  # t^3 - 3t^2 + 2t
        for row in h.rows:
            assert sum(a * b for a, b in zip(row, list(p.coeffs) + [F(1)])) == 0

    def test_full_rank_raises(self):
        # nodes {1, 2, 3} with weights 1: rank 3 = m
        c = tuple(1 + 2**k + 3**k for k in range(5))
        h = build_hankel(c, 3)
        with pytest.raises(FullRankHankel):
            minimal_kernel_vector(h)

    def test_rank_zero(self):
        h = build_hankel((0,) * 5, 3)
        p = minimal_kernel_vector(h)
        assert p.degree == 0
        assert roots_exact(p) == {}


def _bareiss_reference(c, m, mult):
    """The exact Prony decision by elimination: ranks at m and m-1, then the
    kernel vector at the first free column of the Bareiss echelon."""
    rows = [list(r) for r in build_hankel(c, m).rows]
    rank = linalg.rank_exact(rows)
    if rank == m:
        raise FullRankHankel("full rank")
    if rank != linalg.rank_exact([r[: m - 1] for r in rows[: m - 1]]):
        raise RankInstability("rank changes between m-1 and m")
    if rank % mult:
        raise RankNotDivisible("rank not divisible")
    ech = linalg.bareiss_echelon(rows)
    free = next(col for col in range(m) if col not in ech.pivots)
    if free != rank:
        raise RankInstability("first free column is not the rank")
    return tuple(linalg.kernel_vector_for_column(ech, free)[:free])


def _outcome(fn, *args):
    """Coefficients on success, the exception class on a PolymomError."""
    try:
        result = fn(*args)
    except PolymomError as exc:
        return type(exc)
    return result if isinstance(result, tuple) else result.coeffs


def _random_sequence(rng, m, deg):
    """c_1..c_{2m-1} with ``deg`` leading zeros: a confluent exponential sum
    (every node of multiplicity deg + 1, some nodes repeated, some entries
    perturbed by +-1), small integers, or all zeros."""
    n = 2 * m - 1
    kind = rng.random()
    if kind < 0.5:
        nodes = [F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            nodes[-1] = nodes[0]
        char = [F(1)]  # prod (t - x)^(deg+1), lowest-first
        for x in nodes:
            for _ in range(deg + 1):
                char = [F(0)] + char
                for i in range(len(char) - 1):
                    char[i] -= x * char[i + 1]
        order = len(char) - 1
        seq = [F(0)] * deg + [F(rng.randint(-5, 5)) for _ in range(order - deg)]
        while len(seq) < n:
            k = len(seq)
            seq.append(-sum(char[i] * seq[k - order + i] for i in range(order)))
        seq = seq[:n]
        if rng.random() < 0.3:
            seq[rng.randrange(min(deg, n - 1), n)] += rng.choice((-1, 1))
    elif kind < 0.95:
        seq = [F(rng.randint(-2, 2)) for _ in range(n)]
    else:
        seq = [F(0)] * n
    return [F(0)] * min(deg, n) + seq[deg:]


class TestBerlekampMasseyMatchesBareiss:
    """The Berlekamp-Massey solve gives the same kernel polynomial, or
    raises the same exception class, as elimination on the Hankel."""

    def test_seeded_sequences(self, rng):
        seen = set()
        for _ in range(1500):
            deg, nmax = rng.randint(0, 2), rng.randint(1, 4)
            m = hankel_size(nmax, deg)
            c = _random_sequence(rng, m, deg)
            mult = deg + 1
            # dim 0 makes the scaled vector c_{j+deg+1} = (j+deg)!/j! mu_j,
            # with no sign
            ms = MomentSequence(
                dim=0, direction=(), density_degree=deg, mode=EXACT,
                moments=tuple(c[j + deg] / perm(j + deg, deg)
                              for j in range(len(c) - deg)),
            )
            assert list(scaled_moment_vector(ms, 2 * m - 2)) == c
            want = _outcome(_bareiss_reference, c, m, mult)
            got = _outcome(prony_polynomial_from_sequence, ms, nmax)
            assert got == want, (c, m, deg)
            seen.add(want if isinstance(want, type) else len(want))
            # the leading k x k blocks reach every size up to m
            for k in range(1, m + 1):
                want = _outcome(_bareiss_reference, c, k, 1)
                got = _outcome(minimal_kernel_vector, build_hankel(c, k))
                assert got == want, (c, k)
        # every outcome class occurs, and kernels of several degrees
        assert {FullRankHankel, RankInstability, RankNotDivisible} <= seen
        assert {0, 1, 2, 3} <= seen


def _fraction_bm(s, m):
    """The Berlekamp-Massey pass with one Fraction per operation, as the
    reference of the fraction-free pass."""
    conn, prev = [F(1)], [F(1)]
    length, shift, prev_disc = 0, 1, F(1)
    for n, sn in enumerate(s):
        disc = sn
        for i in range(1, length + 1):
            disc += conn[i] * s[n - i]
        if disc == 0:
            shift += 1
            continue
        coef = disc / prev_disc
        update = conn + [F(0)] * (len(prev) + shift - len(conn))
        for i, x in enumerate(prev):
            update[i + shift] -= coef * x
        if 2 * length <= n:
            prev, prev_disc = conn, disc
            length, shift = n + 1 - length, 1
            conn = update
            if length >= m:
                break
        else:
            conn = update
            shift += 1
    return length, conn


def _mixed_denominator_sequence(rng, n):
    """s_k = sum_i w_i x_i^k with nodes and weights over large, unrelated
    denominators (primes near 10^6, powers of 7 and 2), some entries
    perturbed."""
    dens = (1, 7**9, 2**40, 1000003, 999983 * 7, 10007**2)
    nodes = [F(rng.randint(-10**6, 10**6), rng.choice(dens))
             for _ in range(rng.randint(1, 6))]
    weights = [F(rng.randint(-10**4, 10**4) or 1, rng.choice(dens)) for _ in nodes]
    seq = [sum(w * x**k for w, x in zip(weights, nodes)) for k in range(n)]
    if rng.random() < 0.3:
        seq[rng.randrange(n)] += F(1, rng.choice(dens))
    return seq


class TestFractionFreeBerlekampMassey:
    """The integer pass returns the length and connection polynomial of the
    Fraction pass exactly, trailing zeros included."""

    def test_seeded_sequences(self, rng):
        for _ in range(1500):
            m, deg = rng.randint(1, 6), rng.randint(0, 2)
            c = _random_sequence(rng, m, deg)
            assert prony._berlekamp_massey(c, m) == _fraction_bm(c, m), (c, m)

    def test_large_mixed_denominators(self):
        rng = Random(5)
        for _ in range(200):
            n = rng.randint(1, 15)
            c = _mixed_denominator_sequence(rng, n)
            m = rng.randint(1, (n + 1) // 2 + 1)
            got = prony._berlekamp_massey(c, m)
            assert got == _fraction_bm(c, m), (c, m)
            assert all(type(x) is Fraction for x in got[1])

    def test_integer_sequences(self):
        rng = Random(6)
        for _ in range(300):
            n = rng.randint(1, 13)
            c = [rng.randint(-10**12, 10**12) * rng.randint(0, 1) for _ in range(n)]
            m = (n + 1) // 2
            assert prony._berlekamp_massey(c, m) == _fraction_bm([F(x) for x in c], m)

    def test_all_zero_sequences(self):
        for n in range(0, 12):
            c = [F(0)] * n
            assert prony._berlekamp_massey(c, 6) == _fraction_bm(c, 6) == (0, [F(1)])

    # from m = 10 on the certified modular pass answers first

    def test_modular_range_sequences(self, rng):
        answered = 0
        for _ in range(80):
            m = rng.randint(10, 16)
            c = _exponential_sum(rng, m)
            with _modular_outcomes() as outcomes:
                got = prony._berlekamp_massey(c, m)
            assert got == _fraction_bm(c, m), (c, m)
            answered += outcomes == [True]
        assert answered > 40

    def test_length_reaching_m_falls_back(self):
        # random integers: the length reaches m, which only the
        # fraction-free pass decides (FullRankHankel or RankInstability)
        rng = Random(8)
        for _ in range(40):
            m = rng.randint(10, 14)
            c = [F(rng.randint(-9, 9)) for _ in range(2 * m - 1)]
            with _modular_outcomes() as outcomes:
                got = prony._berlekamp_massey(c, m)
            assert got[0] >= m and outcomes == [False]
            assert got == _fraction_bm(c, m), (c, m)
        # longer sequences: the pass over Q stops where the length reaches m
        reached = 0
        for _ in range(30):
            m = rng.randint(10, 12)
            c = _exponential_sum(rng, m + 6)
            with _modular_outcomes() as outcomes:
                got = prony._berlekamp_massey(c, m)
            assert got == _fraction_bm(c, m), (c, m)
            if got[0] >= m:
                reached += 1
                assert outcomes == [False]
        assert reached > 5

    def test_unlucky_prime_falls_back(self, rng, monkeypatch):
        # mod 3 discrepancies vanish or reconstructions fail: same answers
        monkeypatch.setattr(prony, "_MERSENNE_PRIME", 3)
        fell_back = 0
        for _ in range(40):
            m = rng.randint(10, 13)
            c = _exponential_sum(rng, m)
            with _modular_outcomes() as outcomes:
                got = prony._berlekamp_massey(c, m)
            assert got == _fraction_bm(c, m), (c, m)
            fell_back += outcomes == [False]
        assert fell_back > 20

    def test_short_sequence_falls_back(self):
        # length 3 > 2 * 1 = len(s): not unique, the fraction-free pass decides
        for c in ([F(0), F(0), F(5)], [F(3)], [F(0), F(1)], [F(0)] * 5 + [F(1)]):
            with _modular_outcomes() as outcomes:
                got = prony._berlekamp_massey(c, 10)
            assert 2 * got[0] > len(c) and outcomes == [False]
            assert got == _fraction_bm(c, 10)

    def test_ngon_solve_is_modular(self):
        # a fast path that silently stops answering fails here
        p = Polytope(dim=2, vertices=tuple((F(k), F(k * k, 7)) for k in range(20)))
        z = sample_generic_direction(2, 1000003, Random(3), EXACT).coords
        ms = moment_sequence(p, z, moments_needed(2, 20, 0))
        with _modular_outcomes() as outcomes:
            got = projections_from_moments(ms, 20)
        assert outcomes == [True] and got.n == 20
        assert got.values == tuple(sorted(dot(v, z) for v in p.vertices))


@contextmanager
def _modular_outcomes():
    """Records, per call of ``prony._modular_bm``, whether it answered."""
    outcomes = []
    modular = prony._modular_bm

    def counted(s, m):
        found = modular(s, m)
        outcomes.append(found is not None)
        return found

    prony._modular_bm = counted
    try:
        yield outcomes
    finally:
        prony._modular_bm = modular


def _exponential_sum(rng, m):
    """2m - 1 entries of a polytope-like sum_i w_i x_i^k with at most m - 1
    nodes over mixed denominators; sometimes leading zeros, sometimes one
    entry perturbed."""
    dens = (1, 7, 7**3, 1000003, 999983 * 7, 10007)
    zeros = rng.choice((0, 0, 1, 2, 3))
    nodes = [F(rng.randint(-10**4, 10**4), rng.choice(dens))
             for _ in range(rng.randint(1, m - 1 - zeros))]
    weights = [F(rng.randint(-100, 100) or 1, rng.choice(dens)) for _ in nodes]
    seq = [F(0)] * zeros + [sum(w * x**k for w, x in zip(weights, nodes))
                            for k in range(2 * m - 1 - zeros)]
    if rng.random() < 0.3:
        seq[rng.randrange(len(seq))] += F(1, rng.choice(dens))
    return seq


class TestKernelShiftProperty:
    def test_shifts_lie_in_kernel(self, rng):
        # vectors a_l = shifted coefficients of p_z span the kernel
        for _ in range(6):
            p = random_simple_polytope(rng)
            n = p.n_vertices
            oracle = PolytopeMomentOracle(p)
            m = n + 3
            while True:
                z = sample_generic_direction(p.dim, 1009, rng).coords
                if not check_distinct_projections(p, z):
                    continue
                try:
                    ms = oracle.sequence(z, moments_needed(p.dim, n + 2, 0))
                    break
                except Exception:
                    continue
            c = scaled_moment_vector(ms, 2 * m - 2)
            h = build_hankel(c, m)
            projections = sorted(dot(v, z) for v in p.vertices)
            coeffs = [F(1)]
            for x in projections:
                coeffs = [F(0)] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] = coeffs[i] - x * coeffs[i + 1]
            # coeffs is p_z lowest-first, length n+1
            for shift in range(m - n):
                vec = [F(0)] * shift + coeffs + [F(0)] * (m - n - 1 - shift)
                for row in h.rows:
                    assert sum(a * b for a, b in zip(row, vec)) == 0


class TestRootsExact:
    def test_factored(self):
        assert roots_exact(PronyPolynomial((F(0), F(-1)))) == {F(0): 1, F(1): 1}

    def test_triangle_poly(self):
        got = roots_exact(PronyPolynomial((F(0), F(2), F(-3))))
        assert got == {F(0): 1, F(1): 1, F(2): 1}

    def test_double_root(self):
        # (t - 1/2)^2 = t^2 - t + 1/4
        got = roots_exact(PronyPolynomial((F(1, 4), F(-1))))
        assert got == {F(1, 2): 2}

    def test_multiplicity_hint_path(self):
        # (t^2 - t)^3 expanded, multiplicity hint 3
        coeffs = [F(0), F(0), F(0), F(-1), F(3), F(-3)]
        got = roots_exact(PronyPolynomial(tuple(coeffs), multiplicity=3))
        assert got == {F(0): 3, F(1): 3}

    def test_irrational_poly(self):
        # t^2 - 2 has no rational roots
        with pytest.raises(IrrationalRoot):
            roots_exact(PronyPolynomial((F(-2), F(0))))

    def test_close_roots(self):
        # clustered rationals must not shadow each other
        roots = [F(1, 3), F(1, 3) + F(1, 10**6), F(-5, 7)]
        coeffs = [F(1)]
        for r in roots:
            coeffs = [F(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] = coeffs[i] - r * coeffs[i + 1]
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == {r: 1 for r in roots}

    def test_large_denominators(self):
        # denominators around r * vertex-denominator scale
        roots = [F(123456, 1000003), F(-98765, 1000003), F(7, 2)]
        coeffs = [F(1)]
        for r in roots:
            coeffs = [F(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] = coeffs[i] - r * coeffs[i + 1]
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == {r: 1 for r in roots}


def _from_roots(roots):
    """Lowest-first coefficients of prod (t - r), leading 1 included."""
    coeffs = [F(1)]
    for r in roots:
        coeffs = [F(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] = coeffs[i] - r * coeffs[i + 1]
    return coeffs


def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _prime_times_square(rng):
    return rng.choice((2, 3, 5, 7)) * F(rng.randint(1, 9), rng.randint(1, 9)) ** 2


def _is_rational_square(x):
    return x >= 0 and all(isqrt(k) ** 2 == k for k in (x.numerator, x.denominator))


def _root_case(rng):
    """(coeffs, hint, expected multiset or None) over the families of the
    root search: 1-14 distinct roots over one common denominator or mixed
    ones up to 10007^2, sometimes a close pair (1e-3 to 1e-10 relative),
    multiplicities 1-3 with and without the hint, and an irreducible
    quadratic factor (expected None) in about a fifth of the cases."""
    dens = (1, 7, 10007, 10007**2, 7 * 1000003)
    q = rng.choice(dens)
    roots = set()
    for _ in range(rng.randint(1, 14)):
        den = q if rng.random() < 0.6 else rng.choice((rng.randint(1, 10007**2),) + dens)
        roots.add(F(rng.randint(-3 * den, 3 * den), den))
    roots = sorted(roots)
    if rng.random() < 0.3:
        rel = F(1, 10 ** rng.choice((3, 6, 8, 10)) * rng.randint(1, 9))
        pair = roots[0] + (abs(roots[0]) + 1) * rel
        if pair not in roots:
            roots.append(pair)
    k = rng.randint(1, 3)
    if rng.random() < 0.5:
        hint, mults = k, [k] * len(roots)
    else:
        hint, mults = 1, [rng.randint(1, 3) for _ in roots]
    coeffs = _from_roots([r for r, m in zip(roots, mults) for _ in range(m)])
    expected = dict(zip(roots, mults))
    if rng.random() < 0.2:
        # t^2 - a with a not a square, or t^2 + t + a with 1 - 4a not a
        # rational square (a is redrawn until it is not)
        a = _prime_times_square(rng)
        if rng.random() < 0.5:
            quad = [-a, F(0), F(1)]
        else:
            while _is_rational_square(1 - 4 * a):
                a = _prime_times_square(rng)
            quad = [a, F(1), F(1)]
        for _ in range(hint):
            coeffs = _times(coeffs, quad)
        expected = None
    return tuple(coeffs[:-1]), hint, expected


class TestRootSearch:
    def test_seeded_root_multisets(self):
        rng = Random(6)
        outcomes = set()
        for _ in range(60):
            coeffs, hint, expected = _root_case(rng)
            poly = PronyPolynomial(coeffs, multiplicity=hint)
            if expected is None:
                with pytest.raises(IrrationalRoot):
                    roots_exact(poly)
            else:
                assert roots_exact(poly) == expected
            outcomes.add((expected is None, hint > 1))
        assert len(outcomes) == 4

    def test_irreducible_quadratics_are_labelled_right(self):
        # t^2 + t + 2/9 = (t + 1/3)(t + 2/3): 1 - 4a = 1/9 is a square, so
        # _root_case redraws such an a instead of expecting IrrationalRoot
        assert _is_rational_square(1 - 4 * F(2, 9))
        assert roots_exact(PronyPolynomial((F(2, 9), F(1)))) == {F(-1, 3): 1, F(-2, 3): 1}
        for x in (F(-7), F(2, 9), F(8, 9)):
            assert not _is_rational_square(x)

    def test_close_pair_seeded_on_the_midpoint(self):
        # roots (m -+ 1)/7: with s = 7, g(u) = (u - m)^2 - 1 and both float
        # seeds round to the midpoint m, where g'(m) = 0
        m = 10**12
        roots = [F(m - 1, 7), F(m + 1, 7)]
        coeffs = _from_roots(roots)
        assert prony._integer_seeds([m * m - 1, -2 * m, 1]) == {m}
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == dict.fromkeys(roots, 1)

    def test_clusters_of_repeated_roots_without_the_hint(self):
        # a double and a 4-fold root 2 apart on the integer lattice of
        # g(u) = s^n p(u/s), where integer Newton stops between them and
        # u - 1 and u + 1 are tried; two 4-fold roots 1e-10 apart, where
        # Newton on g crawls and Newton on g/g' does not; two simple roots
        # 1e-8 apart, where Newton on g/g' stalls and Newton on g does not
        for roots, mults in (((F(1), F(4500001, 4500000)), (2, 4)),
                             ((F(-5, 7), F(-12499999997, 17500000000)), (4, 4)),
                             ((F(2, 3), F(400000007, 600000000)), (1, 1))):
            coeffs = _from_roots([r for r, m in zip(roots, mults) for _ in range(m)])
            got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
            assert got == dict(zip(roots, mults))

    def test_many_roots_over_one_denominator(self):
        rng = Random(32)
        q = 7 * 1000003
        roots = [F(x, q) for x in rng.sample(range(-5 * q, 5 * q), 32)]
        coeffs = _from_roots(roots)
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == dict.fromkeys(roots, 1)

    def test_large_roots_over_a_small_denominator(self):
        # g(u) = 7^48 p(u/7) has coefficients far past a double's range
        roots = [F(k * 10**20 + k * k, 7) for k in range(48)]
        coeffs = _from_roots(roots)
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == dict.fromkeys(roots, 1)


class TestSquarefreeCertificate:
    """How roots_exact certifies: an exact evaluation per root, and a
    search on the derivative chain only for what the integer search
    leaves."""

    @staticmethod
    def _count_searches(monkeypatch):
        calls = []
        search = prony._integer_seeds
        monkeypatch.setattr(prony, "_integer_seeds",
                            lambda g: calls.append(len(g) - 1) or search(g))
        return calls

    def test_derivative_chain_only_on_a_remainder(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        coeffs = _from_roots([F(1, 3), F(-5, 7), F(2)])
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == {F(1, 3): 1, F(-5, 7): 1, F(2): 1}
        assert calls == [3]
        # (t-1)^2 (t-2) without the multiplicity hint: 1 divides twice
        calls.clear()
        coeffs = _from_roots([F(1), F(1), F(2)])
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == {F(1): 2, F(2): 1}
        assert calls == [3]
        # a triple root without the hint
        coeffs = _from_roots([F(1, 3)] * 3 + [F(-2)])
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == {F(1, 3): 3, F(-2): 1}
        # (t-1)^2 (t^2-2): the search on the remainder t^2 - 2 and on its
        # derivative finds nothing more
        calls.clear()
        coeffs = _times(_from_roots([F(1), F(1)]), [F(-2), F(0), F(1)])
        with pytest.raises(IrrationalRoot):
            roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert calls == [4, 2, 1]

    def test_repeated_root_missed_by_the_search_is_found_on_a_derivative(
            self, monkeypatch):
        # (u-5)^3 (u+1) with the seed 5 withheld on the monic polynomials:
        # the search finds -1 only, and 5 is a root of the remainder's
        # first derivative 3 (u-5)^2
        seeds = prony._integer_seeds
        monkeypatch.setattr(prony, "_integer_seeds",
                            lambda g: seeds(g) - ({5} if g[-1] == 1 else set()))
        calls = self._count_searches(monkeypatch)
        coeffs = _from_roots([F(5)] * 3 + [F(-1)])
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == {F(5): 3, F(-1): 1}
        assert calls == [4, 3, 2]

    def test_certified_roots_are_not_deflated_again(self, monkeypatch):
        # integer lifting certifies each root by exact evaluation: a
        # squarefree polynomial takes one search and no derivative
        calls = self._count_searches(monkeypatch)
        roots = [F(1, 3), F(-5, 7), F(2), F(9, 4)]
        coeffs = _from_roots(roots + [F(0)])
        got = roots_exact(PronyPolynomial(tuple(coeffs[:-1])))
        assert got == {F(0): 1, **{r: 1 for r in roots}}
        assert calls == [5]

    def test_float_scaled_polynomial_is_bad_input(self):
        # float-mode output, not an irrational root: exit 2, not 5
        with pytest.raises(InputError):
            roots_exact(PronyPolynomial((F(0), F(-1)), scale=2.0))


def _fraction_nth_root(coeffs, n):
    """The n-th root by the reversed-series recursion over Fractions,
    verified by re-powering: the routine the integer one replaced."""
    c = [F(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c or c[-1] != 1 or (len(c) - 1) % n:
        return None
    half = (len(c) - 1) // n
    a = c[::-1]
    b = [F(1)] + [F(0)] * half
    for k in range(1, half + 1):
        s = k * a[k]
        for i in range(1, k):
            s += i * a[i] * b[k - i] - n * i * b[i] * a[k - i]
        b[k] = s / (n * k)
    root = b[::-1]
    check = [F(1)]
    for _ in range(n):
        check = _times(check, root)
    return root if check == c else None


class TestPolyNthRoot:
    def test_square(self):
        # (t^2 + t + 1)^2
        sq = [F(1), F(2), F(3), F(2), F(1)]
        assert poly_nth_root(sq, 2) == [F(1), F(1), F(1)]

    def test_not_a_power(self):
        assert poly_nth_root([F(1), F(1), F(0), F(1)], 3) is None

    def test_against_the_fraction_routine(self):
        rng = Random(31)
        for _ in range(60):
            k = rng.choice((2, 3))
            roots = [F(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(rng.randint(1, 6))]
            base = _from_roots(roots)
            power = [F(1)]
            for _ in range(k):
                power = _times(power, base)
            want = _fraction_nth_root(power, k)
            assert want == base and poly_nth_root(power, k) == want
            # a perturbed coefficient, a non-monic multiple, the wrong power
            bent = list(power)
            bent[rng.randrange(len(bent) - 1)] += F(1, rng.randint(1, 5))
            for other, n in ((bent, k), ([2 * x for x in power], k), (power, 5 - k)):
                want = _fraction_nth_root(other, n)
                assert poly_nth_root(other, n) == want
                if other is not power:
                    assert want is None


class TestRootsFloat:
    def test_simple(self):
        got = roots_float(PronyPolynomial((0.0, -1.0)))
        assert [(round(r, 12), m) for r, m in got] == [(0.0, 1), (1.0, 1)]

    def test_perturbed(self):
        eps = 1e-10
        p = PronyPolynomial((0.0 + eps, 2.0 - eps, -3.0 + eps))
        got = roots_float(p)
        assert len(got) == 3
        for root, expect in zip(sorted(r for r, _ in got), (0.0, 1.0, 2.0)):
            assert abs(root - expect) < 1e-8

    def test_double_root_clusters(self):
        p = PronyPolynomial((0.25, -1.0))
        got = roots_float(p)
        assert len(got) == 1
        root, mult = got[0]
        assert mult == 2 and abs(root - 0.5) < 1e-6


class TestProjections:
    def test_nmax_below_one_rejected(self):
        # the sequence solve returned a zero-vertex polynomial at nmax = 0
        ms = moment_sequence(unit_square(), (F(1), F(2)), 9)
        for nmax in (0, -1):
            with pytest.raises(InputError, match="nmax"):
                projections_from_moments(ms, nmax)
            with pytest.raises(InputError, match="nmax"):
                prony_polynomial_from_sequence(ms, nmax)

    def _sequence(self, p, z, nmax, rho=None):
        count = 2 * ((0 if rho is None else rho.degree) + 1) * nmax + 1
        count -= p.dim + (0 if rho is None else rho.degree) - 1
        return moment_sequence(p, z, count, rho)

    def test_triangle(self):
        ms = moment_sequence(unit_triangle(), (F(1), F(2)), 9)
        ps = projections_from_moments(ms, 4)
        assert ps.values == (F(0), F(1), F(2))
        assert ps.n == 3

    def test_square(self):
        ms = moment_sequence(unit_square(), (F(1), F(2)), 9)
        ps = projections_from_moments(ms, 4)
        assert ps.values == (F(0), F(1), F(2), F(3))
        assert ps.n == 4

    def test_pole_collision_detected_by_multiplicity(self):
        # triangle with z = (1, 0): two vertices collide AND the direction
        # is orthogonal to an edge. The scaled sequence is (0,0,1,1,...),
        # whose Hankel has rank 3 with kernel polynomial t^2(t-1): the double
        # root exposes the bad direction immediately.
        tri = unit_triangle()
        ms = moment_sequence(tri, (F(1), F(0)), 9, route="direct")
        c = scaled_moment_vector(ms, 8)
        assert c == (0, 0, 1, 1, 1, 1, 1, 1, 1)
        h = build_hankel(c, 5)
        rank, _ = rank_and_kernel(h)
        assert rank == 3
        poly = minimal_kernel_vector(h)
        assert poly.coeffs == (F(0), F(0), F(-1))  # t^3 - t^2
        with pytest.raises(MultiplicityMismatch):
            projections_from_moments(ms, 4)

    def test_diagonal_collision_is_silent(self):
        # square with z perpendicular to a diagonal: no cone pole, two
        # non-adjacent vertices collide; the solve quietly reports N-1
        # projections (cross-direction comparison catches it later)
        sq = unit_square()
        z = (F(1), F(-1))
        ms = moment_sequence(sq, z, 9)
        ps = projections_from_moments(ms, 4)
        assert ps.n == 3
        assert ps.values == (F(-1), F(0), F(1))

    def test_density_multiplicity(self, rng):
        rho = random_density(rng, 2, 1, unit_triangle())
        tri = unit_triangle()
        need = 2 * (2 * 4 + 1) - 1 - 3
        ms = moment_sequence(tri, (F(1), F(2)), need, rho)
        ps = projections_from_moments(ms, 4)
        assert ps.values == (F(0), F(1), F(2))
        assert ps.rank == 6

    def test_rank_stability_detects_undersized_nmax(self):
        # square has N=4; nmax=3 leaves the Hankel at full rank
        ms = moment_sequence(unit_square(), (F(1), F(2)), 9)
        with pytest.raises((FullRankHankel, RankInstability)):
            projections_from_moments(ms, 3)

    def test_insufficient_moments(self):
        ms = moment_sequence(unit_square(), (F(1), F(2)), 3)
        with pytest.raises(InsufficientMoments):
            projections_from_moments(ms, 4)


class TestRankTheorem:
    def test_rank_equals_n_on_random_polytopes(self, rng):
        # spot check here; the acceptance suite covers the full corpus
        for _ in range(10):
            p = random_simple_polytope(rng)
            n = p.n_vertices
            oracle = PolytopeMomentOracle(p)
            while True:
                z = sample_generic_direction(p.dim, 1009, rng).coords
                if not check_distinct_projections(p, z):
                    continue
                try:
                    ms = oracle.sequence(z, moments_needed(p.dim, n + 1, 0))
                    break
                except Exception:
                    continue
            c = scaled_moment_vector(ms, 2 * (n + 2) - 2)
            for m in (n + 1, n + 2):
                rank, _ = rank_and_kernel(build_hankel(c, m))
                assert rank == n

    def test_density_rank(self, rng):
        for _ in range(4):
            p = random_simple_polytope(rng)
            n = p.n_vertices
            deg = rng.randint(1, 2)
            rho = random_density(rng, p.dim, deg, p)
            oracle = PolytopeMomentOracle(p, rho)
            while True:
                z = sample_generic_direction(p.dim, 1009, rng).coords
                if not check_distinct_projections(p, z):
                    continue
                try:
                    ms = oracle.sequence(z, moments_needed(p.dim, n, oracle.density_degree))
                    break
                except Exception:
                    continue
            m = hankel_size(n, deg)
            c = scaled_moment_vector(ms, 2 * m - 2)
            rank, _ = rank_and_kernel(build_hankel(c, m))
            assert rank == (deg + 1) * n

    def test_root_set_equals_projections(self, rng):
        for _ in range(6):
            p = random_simple_polytope(rng)
            n = p.n_vertices
            oracle = PolytopeMomentOracle(p)
            while True:
                z = sample_generic_direction(p.dim, 1009, rng).coords
                if not check_distinct_projections(p, z):
                    continue
                try:
                    ms = oracle.sequence(z, moments_needed(p.dim, n, oracle.density_degree))
                    break
                except Exception:
                    continue
            ps = projections_from_moments(ms, n)
            assert list(ps.values) == sorted(dot(v, z) for v in p.vertices)


def _old_rank(rows, rank_tol):
    sigma = np.linalg.svd(np.array(rows, dtype=float), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > rank_tol * sigma[0]))


def _old_kernel(rows, rank_tol, mult, scale):
    """The float branch of ``minimal_kernel_vector`` before the one-array
    Hankel, kept as the reference: its own values-only SVD, then the full
    SVD and the least-squares combination of the kernel vectors."""
    m = len(rows)
    rank = _old_rank(rows, rank_tol)
    if rank == m:
        raise FullRankHankel("reference")
    _, _, vh = np.linalg.svd(np.array(rows, dtype=float))
    null_basis = vh[rank:].T
    pattern = np.zeros(m - rank)
    pattern[0] = 1.0
    sol, *_ = np.linalg.lstsq(null_basis[rank:, :], pattern, rcond=None)
    v = null_basis @ sol
    if abs(v[rank]) < 1e-10:
        raise RankInstability("reference")
    v = v / v[rank]
    return PronyPolynomial(tuple(float(x) for x in v[:rank]), mult, scale)


def _old_float_solve(ms, nmax, rank_tol=1e-8):
    """The float sequence solve before the one-array Hankel, kept as the
    reference: a tuple-of-tuples Hankel at the float size, its leading
    (m-1) block rebuilt as tuples, and four SVDs."""
    mult = ms.density_degree + 1
    m = hankel_size(nmax, ms.density_degree, "float")
    c = list(scaled_moment_vector(ms, 2 * m - 2))
    scale = prony._estimate_scale(c)
    prony._rescale(c, scale)
    rows = tuple(tuple(c[i + j] for j in range(m)) for i in range(m))
    rank_m = _old_rank(rows, rank_tol)
    rank_prev = _old_rank(tuple(row[:m - 1] for row in rows[:m - 1]), rank_tol)
    if rank_m == m:
        raise FullRankHankel("reference")
    if rank_m != rank_prev:
        raise RankInstability("reference")
    if rank_m % mult:
        raise RankNotDivisible("reference")
    poly = _old_kernel(rows, rank_tol, mult, scale)
    if poly.degree != rank_m:
        raise RankInstability("reference")
    return poly


def _float_outcome(fn, *args):
    """(coefficients, scale, multiplicity) on success, the exception class
    on a PolymomError."""
    try:
        p = fn(*args)
    except PolymomError as exc:
        return type(exc)
    assert all(type(a) is float for a in p.coeffs)
    return p.coeffs, p.scale, p.multiplicity


def _float_cases(seed, count):
    """Seeded float moment sequences as (ms, nmax): polytope moments,
    uniform and with densities of degree 1 and 2, noiseless and noisy, at
    nmax below, at and above the vertex count; and the scaled sequences of
    ``_random_sequence`` at the float Hankel size, read as floats."""
    rng = Random(seed)
    for k in range(count):
        if k % 3 == 2:
            nmax, deg = rng.randint(1, 3), rng.randint(0, 2)
            c = _random_sequence(rng, hankel_size(nmax, deg, "float"), deg)
            ms = MomentSequence(
                dim=0, direction=(), density_degree=deg, mode="float",
                moments=tuple(float(c[j + deg] / perm(j + deg, deg))
                              for j in range(len(c) - deg)),
            )
            yield ms, nmax
            continue
        p = random_simple_polytope(rng)
        deg = rng.choice((0, 0, 1, 2))
        rho = random_density(rng, p.dim, deg, p) if deg else None
        oracle = PolytopeMomentOracle(
            p, rho, mode="float", noise=rng.choice((0.0, 1e-9, 1e-6)),
            rng=Random(k),
        )
        z = tuple(rng.uniform(0.1, 1.0) for _ in range(p.dim))
        nmax = max(1, p.n_vertices + rng.choice((-1, 0, 0, 1)))
        yield oracle.sequence(z, moments_needed(p.dim, nmax, deg, "float")), nmax


class TestFloatSolveOnOneArray:
    """The float solve on one Hankel array with three SVDs computes
    bit for bit what the tuple Hankel with four SVDs computed."""

    def test_sequence_solve_is_the_old_path(self):
        seen = set()
        for ms, nmax in _float_cases(21, 150):
            want = _float_outcome(_old_float_solve, ms, nmax)
            got = _float_outcome(prony_polynomial_from_sequence, ms, nmax)
            assert got == want, (ms, nmax)
            seen.add(want if isinstance(want, type) else (ms.density_degree, want[1] != 1))
        assert {FullRankHankel, RankInstability, RankNotDivisible} <= seen
        assert {(0, True), (1, True), (2, True)} <= seen

    def test_three_svds_per_successful_solve(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        solved = 0
        for ms, nmax in _float_cases(23, 60):
            del calls[:]
            try:
                prony_polynomial_from_sequence(ms, nmax)
            except PolymomError:
                continue
            # rank at m and m - 1 from singular values, one full SVD
            assert calls == [False, False, True]
            solved += 1
        assert solved >= 10
