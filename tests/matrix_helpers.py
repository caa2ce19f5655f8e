"""Test helpers for integer and polynomial matrices."""

from metatap.exactalg import PolyMatrix
from metatap.intmat import Mat, identity, mat_inverse, mat_mul


def from_entries(rows) -> PolyMatrix:
    """The PolyMatrix with the given square grid of LaurentPoly entries:
    entry (i, j)'s coefficient at t^d goes to series[d][i][j]."""
    dim = len(rows)
    acc = {}
    for i, row in enumerate(rows):
        assert len(row) == dim
        for j, entry in enumerate(row):
            for d, c in entry.terms:
                m = acc.setdefault(d, [[0] * dim for _ in range(dim)])
                m[i][j] += c
    return PolyMatrix({d: tuple(map(tuple, m)) for d, m in acc.items()}, dim)


def mat_pow(a: Mat, e: int) -> Mat:
    """a^e by repeated squaring; a negative e inverts a first."""
    if e < 0:
        return mat_pow(mat_inverse(a), -e)
    result = identity(len(a))
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result
