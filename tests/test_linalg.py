"""Exact linear algebra: fraction-free elimination, kernels, solves."""

from fractions import Fraction

import pytest

from polymom import linalg
from polymom.errors import InputError


def test_rank_full_and_deficient():
    assert linalg.rank_exact([[1, 2], [3, 4]]) == 2
    assert linalg.rank_exact([[1, 2], [2, 4]]) == 1
    assert linalg.rank_exact([[0, 0], [0, 0]]) == 0


def test_rank_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert linalg.rank_exact(m) == 2
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert linalg.rank_exact(singular) == 1


def test_kernel_basis_satisfies_system():
    m = [[2, 1, 1], [1, 1, 1], [1, 1, 1]]
    basis = linalg.kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] == [Fraction(0), Fraction(-1), Fraction(1)]
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_of_random_rank_deficient(rng):
    for _ in range(20):
        n = rng.randint(2, 6)
        r = rng.randint(1, n - 1)
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(r)
        ]
        # pad with random combinations of the first r rows
        m = list(rows)
        for _ in range(n - r):
            coefs = [Fraction(rng.randint(-3, 3)) for _ in range(r)]
            m.append(
                [sum(c * row[j] for c, row in zip(coefs, rows)) for j in range(n)]
            )
        basis = linalg.kernel_basis(m)
        assert len(basis) == n - linalg.rank_exact(m)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_exact():
    x = linalg.solve_exact([[1, 2], [2, 1]], [1, 2])
    assert x == [Fraction(1), Fraction(0)]
    with pytest.raises(InputError):
        linalg.solve_exact([[1, 2], [2, 4]], [1, 2])


def test_det_exact():
    assert linalg.det_exact([[1, 2], [3, 4]]) == -2
    assert linalg.det_exact([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)
    assert linalg.det_exact([[1, 2], [2, 4]]) == 0


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def test_det_matches_cofactor_expansion(rng):
    for _ in range(15):
        n = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        assert linalg.det_exact(m) == cofactor_det(m)


def test_solve_and_det_random_rational_systems(rng):
    swaps = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        if rng.random() < 0.3:
            # a zero leading entry forces a row swap
            m[0][0] = Fraction(0)
            swaps += 1
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        det = cofactor_det(m)
        assert linalg.det_exact(m) == det
        if det == 0:
            with pytest.raises(InputError):
                linalg.solve_exact(m, b)
            continue
        x = linalg.solve_exact(m, b)
        assert [sum(a * xi for a, xi in zip(row, x)) for row in m] == b
    assert swaps


def test_solve_and_det_singular_with_row_swaps():
    # rank 2: the third row is the sum of the first two
    m = [[0, 1, 2], [3, 0, 1], [3, 1, 3]]
    assert linalg.det_exact(m) == cofactor_det(m) == 0
    with pytest.raises(InputError):
        linalg.solve_exact(m, [1, 2, 3])
    swapped = [[0, 2, 1], [1, 0, 0], [0, 0, 3]]
    assert linalg.det_exact(swapped) == cofactor_det(swapped) == -6
    assert linalg.solve_exact(swapped, [2, 1, 3]) == [1, Fraction(1, 2), 1]


def test_bareiss_pivot_order_deterministic():
    # first nonzero pivot by row order: repeated runs give identical results
    m = [[0, 1, 2], [1, 0, 1], [1, 1, 3]]
    e1 = linalg.bareiss_echelon(m)
    e2 = linalg.bareiss_echelon(m)
    assert e1.rows == e2.rows and e1.pivots == e2.pivots


def test_det_and_solve_with_unrelated_row_denominators(rng):
    # each row is cleared by its own lcm; the first pivot column is zero in
    # the leading rows, so the elimination swaps rows
    dens = (1, 3, 2**61 - 1, 10007**3, 7**20, 999983)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = [[Fraction(rng.randint(-9, 9), dens[i % len(dens)] ** rng.randint(1, 2))
              for _ in range(n)] for i in range(n)]
        zeros = rng.randint(1, n - 1)
        for i in range(zeros):
            m[i][0] = Fraction(0)
        det = linalg.det_exact(m)
        assert det == cofactor_det(m)
        if det == 0:
            continue
        x = [Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in range(n)]
        b = [sum(a * xi for a, xi in zip(row, x)) for row in m]
        assert linalg.solve_exact(m, b) == x
