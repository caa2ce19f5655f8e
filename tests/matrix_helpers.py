"""Test helpers for PolyMatrix."""

from metatap.exactalg import PolyMatrix


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
