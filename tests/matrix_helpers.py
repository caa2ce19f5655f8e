"""Test helpers for integer and polynomial matrices, for the matrix
representations the tests compare with the character blocks, and for
loading a knot and an assignment as `compute` reads them."""

from metatap.characters import Representation, representation_blocks
from metatap.cli import _parse_assignment
from metatap.golden import STANDARD
from metatap.groupcalc import Presentation
from metatap.intmat import Mat, identity, mat_inverse, mat_mul
from metatap.metabelian import MetaGroup
from metatap.oracles import MatrixRep, PolyMatrix
from metatap.selftest import golden_input
from metatap.twinring import X, Y


def assigned_blocks(source: str, group: MetaGroup,
                    assign: str = STANDARD) -> tuple[Presentation, Representation]:
    """The presentation of `source`, a 2-bridge fraction or a bundled knot
    (`selftest.golden_input`), and the character blocks of the assignment
    onto `group` given by the --assign text `assign`, read as `compute`
    reads it (an InputError when it is no homomorphism)."""
    p = golden_input(source)[0]
    return p, representation_blocks(_parse_assignment(assign, group, p).images, group)


def generator_images(rho: Representation) -> tuple[int, ...]:
    """The element indices of the generators' images under `rho`."""
    return tuple(rho.letters[g] for g in rho.block_images)


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


def block_row_matrix(block_rows, dim: int) -> PolyMatrix:
    """The matrix whose determinant exactalg.kronecker_det takes, as a
    PolyMatrix: block row i's term (column, counts, entries) adds
    count * value at each degree to row i * dim + w, column `column + u`,
    for each of its entries (w, u, value)."""
    size = len(block_rows) * dim
    acc = {}
    for i, terms in enumerate(block_rows):
        for col, counts, entries in terms:
            for d, c in counts.items():
                m = acc.setdefault(d, [[0] * size for _ in range(size)])
                for w, u, v in entries:
                    m[i * dim + w][col + u] += c * v
    return PolyMatrix({d: tuple(map(tuple, m)) for d, m in acc.items()}, size)


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


# The images of b1 = s^-1 (s b1) and b2 = s b1 s^-1 under s -> X, s b1 -> Y.
_B1 = mat_mul(mat_inverse(X), Y)
_B2 = mat_mul(mat_mul(X, _B1), mat_inverse(X))


def xi0(x: int) -> Mat:
    """The irreducible 3-dimensional image X^ell B1^v1 B2^v2 of the element
    s^ell b1^v1 b2^v2 of A4 = M(3|2,2), of index x = 4 ell + 2 v1 + v2,
    with s -> twinring.X and s b1 -> twinring.Y."""
    assert 0 <= x < 12
    ell, v = divmod(x, 4)
    out = mat_pow(X, ell)
    if v & 2:
        out = mat_mul(out, _B1)
    if v & 1:
        out = mat_mul(out, _B2)
    return out


def xi0_rep(images, group) -> MatrixRep:
    """The 3-dimensional representation of generator images onto A4 (their
    element indices) through xi0, as an oracle matrix representation."""
    assert (group.n, group.p) == (3, 2)
    return MatrixRep(3, {g: xi0(x) for g, x in enumerate(images, start=1)})


def block_reps(rho) -> list[MatrixRep]:
    """Each block of a `characters.Representation` as an oracle matrix
    representation: its generator images and the blocks of their inverse
    elements, with Fox tables from the interned-matrix walk."""
    inverses = {g: rho.matrices(rho.letters[-g]) for g in rho.block_images}
    return [MatrixRep(dim,
                      {g: images[b] for g, images in rho.block_images.items()},
                      {g: images[b] for g, images in inverses.items()})
            for b, dim in enumerate(rho.dims)]


def same_ratio(a, b) -> bool:
    """Two TwistedResults have the same numerator, denominator, deleted
    generator and invariant, whatever their block splits."""
    return ((a.numerator, a.denominator, a.deleted_generator, a.invariant)
            == (b.numerator, b.denominator, b.deleted_generator, b.invariant))
