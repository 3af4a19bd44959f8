"""Exact dense linear algebra over rationals.

Rank and echelon forms use fraction-free (Bareiss) elimination on an
integer copy whose rows have their own denominators cleared, so
intermediate entries stay integral; kernel vectors and solves are then
recovered over Fraction. Pivoting is deterministic: the first row with a
nonzero entry wins.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError


def _to_integer_matrix(rows):
    """Scale each row of a rational matrix by the lcm of its own
    denominators; returns the integer rows and the product of those lcms.
    Row scaling leaves the rank and the kernel unchanged."""
    out, denom = [], 1
    for row in rows:
        # Fraction(float) is the exact binary value, so this stays lossless
        row = [Fraction(x) if isinstance(x, float) else x for x in row]
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
        denom *= scale
    return out, denom


class Echelon:
    """Result of fraction-free elimination: integer echelon rows plus the
    pivot column of each."""

    __slots__ = ("rows", "pivots", "ncols")

    def __init__(self, rows, pivots, ncols):
        self.rows = rows
        self.pivots = pivots
        self.ncols = ncols

    @property
    def rank(self):
        return len(self.pivots)


def _eliminate(matrix):
    """Fraction-free (Bareiss) elimination of the denominator-cleared copy
    of ``matrix``. Returns the echelon form, the sign of its row
    permutation, and the product of the row scales."""
    rows, denom = _to_integer_matrix(matrix)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots, sign, r, prev = [], 1, 0, 1
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        piv = rows[r][col]
        for i in range(r + 1, nrows):
            fac = rows[i][col]
            for j in range(col, ncols):
                rows[i][j] = (piv * rows[i][j] - fac * rows[r][j]) // prev
        prev = piv
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return Echelon(rows[:r], pivots, ncols), sign, denom


def bareiss_echelon(matrix) -> Echelon:
    """Fraction-free Gaussian elimination; exact over int/Fraction entries."""
    return _eliminate(matrix)[0]


def rank_exact(matrix) -> int:
    return bareiss_echelon(matrix).rank


def kernel_vector_for_column(ech: Echelon, free_col: int):
    """Kernel vector with entry 1 at ``free_col`` supported on columns
    <= free_col (plus earlier pivot columns)."""
    if free_col in ech.pivots:
        raise InputError(f"column {free_col} is a pivot column")
    v = [Fraction(0)] * ech.ncols
    v[free_col] = Fraction(1)
    for i in range(len(ech.pivots) - 1, -1, -1):
        pc = ech.pivots[i]
        if pc > free_col:
            continue
        row = ech.rows[i]
        s = sum((Fraction(row[j]) * v[j] for j in range(pc + 1, free_col + 1)), Fraction(0))
        v[pc] = -s / row[pc]
    return v


def kernel_basis(matrix):
    """Exact kernel basis, one vector per free column."""
    ech = bareiss_echelon(matrix)
    free = [col for col in range(ech.ncols) if col not in ech.pivots]
    return [kernel_vector_for_column(ech, col) for col in free]


def solve_exact(matrix, rhs):
    """Solve a square nonsingular rational system exactly: x is the kernel
    vector of [A | -b] with entry 1 in the last column."""
    n = len(matrix)
    ech = _eliminate([list(row) + [-b] for row, b in zip(matrix, rhs)])[0]
    if ech.pivots != list(range(n)):
        raise InputError("singular matrix")
    return kernel_vector_for_column(ech, n)[:n]


def det_exact(matrix):
    """Exact determinant of a square rational matrix."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    ech, sign, denom = _eliminate(matrix)
    if ech.rank < n:
        return Fraction(0)
    # the last Bareiss pivot is the determinant of the row-permuted matrix
    return Fraction(sign * ech.rows[-1][-1], denom)
