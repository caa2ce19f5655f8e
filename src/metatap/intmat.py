"""Small exact integer-matrix helpers.

Matrices are immutable tuples of tuples of Python ints, so every operation
is exact for arbitrarily large entries.  Nothing here knows about
polynomials; see exactalg for matrices over Z[t, 1/t].
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import mul

Mat = tuple[tuple[int, ...], ...]


def mat(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@cache
def zeros(n: int) -> Mat:
    """The n x n zero matrix (one shared value per n)."""
    return tuple((0,) * n for _ in range(n))


def mat_add(a: Mat, b: Mat) -> Mat:
    """The sum of two square matrices; the 3x3 case is unrolled."""
    if len(a) == 3:
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
        (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
        return ((a0 + b0, a1 + b1, a2 + b2), (a3 + b3, a4 + b4, a5 + b5),
                (a6 + b6, a7 + b7, a8 + b8))
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(c: int, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product of two square matrices; the 3x3 case is unrolled, as
    the A4 recursion and the 3-dimensional representation multiply many."""
    if len(a) == 3:
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
        (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
        return ((a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7,
                 a0 * b2 + a1 * b5 + a2 * b8),
                (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7,
                 a3 * b2 + a4 * b5 + a5 * b8),
                (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7,
                 a6 * b2 + a7 * b5 + a8 * b8))
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def int_det(a: Mat) -> int:
    """Exact determinant: the cofactor form for n <= 3, which takes no
    division, and fraction-free (Bareiss) elimination above.  Bareiss
    divides exactly at every step, and CPython divides big integers in
    quadratic time, so at small n the few extra products cost less."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        (a0, a1), (a2, a3) = a
        return a0 * a3 - a1 * a2
    if n == 3:
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
        return a0 * (a4 * a8 - a5 * a7) - a1 * (a3 * a8 - a5 * a6) + a2 * (a3 * a7 - a4 * a6)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_inverse(a: Mat) -> Mat:
    """Inverse of an integer matrix with determinant +-1, by exact
    Gauss-Jordan over Fraction, verified integral."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    inv = []
    for row in aug:
        ents = row[n:]
        if any(x.denominator != 1 for x in ents):
            raise ValueError("matrix is not invertible over the integers")
        inv.append(tuple(int(x) for x in ents))
    return tuple(inv)
