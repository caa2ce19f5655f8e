"""Rational-character blocks of the coset permutation representations.

`MetaGroup.character_image` gives Q(g) = C^-1 P(g) C for one integer basis
C of the rational characters of (Z/p)^k, which depends only on the group.
The images of an assignment's generators split into diagonal blocks along
the connected components of their supports; the blocks' twisted
determinants multiply to exactly those of the full permutation
representation.  `Representation`, the direct sum of an assignment's
blocks, is the one representation type the commands use.
"""

from __future__ import annotations

from .exactalg import ExactnessError
from .groupcalc import Presentation, Word, fox_tally
from .intmat import Mat, identity, mat_mul
from .metabelian import MetaGroup, check_homomorphism


def support_blocks(size: int, images) -> list[list[int]]:
    """The connected components of the union of the supports of `images`
    (each a sequence of nonzero entries (row, column, value) of a size x
    size matrix): coordinate sets, each in increasing order, ordered by
    their first."""
    neighbours = [set() for _ in range(size)]
    for image in images:
        for w, u, _ in image:
            neighbours[w].add(u)
            neighbours[u].add(w)
    seen = [False] * size
    blocks = []
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        block, frontier = [start], [start]
        while frontier:
            for u in neighbours[frontier.pop()]:
                if not seen[u]:
                    seen[u] = True
                    block.append(u)
                    frontier.append(u)
        blocks.append(sorted(block))
    return blocks


class Representation:
    """The one production representation: the character blocks of one
    tuple of generator images, a direct sum of integer matrix
    representations.

    `letters` maps each signed generator letter to the element index of
    its image, `blocks` are the coordinate sets of the blocks and `dims`
    their sizes, and `block_images[g]` lists the diagonal blocks of Q(g)
    for each generator g.  Each block image times the block of its
    inverse element's image must be I; a failure is an ExactnessError.
    The Fox determinants of all blocks come from one relator walk on
    element indices (`fox_walk`) and the group's cached character images.
    Nothing in it depends on a presentation, so the group keeps one per
    tuple of generator images (`representation_blocks`).
    """

    def __init__(self, group: MetaGroup, letters: dict[int, int],
                 blocks: list[list[int]]):
        self.group = group
        self.letters = letters
        self.blocks = blocks
        self.dims = [len(coords) for coords in blocks]
        self._owner = [0] * group.p**group.k
        self._local = [0] * group.p**group.k
        for b, coords in enumerate(blocks):
            for i, c in enumerate(coords):
                self._owner[c], self._local[c] = b, i
        self._entries: dict[int, tuple[list[tuple[int, int, int]], ...]] = {}
        self.block_images: dict[int, list[Mat]] = {}
        for g in sorted(g for g in letters if g > 0):
            images = self.matrices(letters[g])
            for b, (m, inv) in enumerate(zip(images, self.matrices(letters[-g]))):
                if mat_mul(m, inv) != identity(len(m)):
                    raise ExactnessError(
                        f"block {b} of the image of generator {g} times the "
                        f"block of its inverse is not the identity")
            self.block_images[g] = images

    def entries(self, x: int) -> tuple[list[tuple[int, int, int]], ...]:
        """The nonzero entries (row, column, value) of each diagonal block
        of Q(g), g of index x, in block coordinates.  A nonzero entry
        outside the blocks is an ExactnessError."""
        out = self._entries.get(x)
        if out is None:
            owner, local = self._owner, self._local
            out = tuple([] for _ in self.dims)
            for w, u, v in self.group.character_image(x):
                if owner[w] != owner[u]:
                    raise ExactnessError(
                        f"character matrix of {self.group.elem_str(x)} has a nonzero "
                        f"entry at ({w}, {u}), outside the blocks")
                out[owner[w]].append((local[w], local[u], v))
            self._entries[x] = out
        return out

    def matrices(self, x: int) -> list[Mat]:
        """The diagonal blocks of Q(g), g of index x."""
        mats = [[[0] * n for _ in range(n)] for n in self.dims]
        for m, entries in zip(mats, self.entries(x)):
            for w, u, v in entries:
                m[w][u] = v
        return [tuple(map(tuple, m)) for m in mats]

    def fox_walk(self, rel: Word) -> list[tuple[int, dict[int, int], tuple]]:
        """One walk of the relator on element indices (`fox_tally`): for
        each key (generator, prefix) of its tally, the generator, the
        degree -> count and the prefix's entries in each block."""
        group, letters = self.group, self.letters
        tally = fox_tally(rel, lambda x, letter: group.index_mul(x, letters[letter]))
        return [(g, counts, self.entries(x)) for (g, x), counts in tally.items()]


def representation_blocks(images: tuple[int, ...], group: MetaGroup,
                          p: Presentation) -> Representation:
    """The representation whose twisted numerator and denominator
    determinants are exactly those of `oracles.perm_rep(images, group, p)`,
    the full permutation path, for the element indices of the generators'
    images.

    Its blocks are the diagonal blocks of the character images
    Q(g) = C^-1 P(g) C (`MetaGroup.character_image`) of the generators
    and of their inverse elements, cut along the connected components of
    the generators' supports: the trivial character first, and, for a
    surjection, one m(p-1)-dimensional block per orbit of m lines under T.
    C depends only on the group, so conjugating every image by it leaves
    the determinants unchanged.

    The images are checked against p's relators on every call.  The
    representation depends only on them, so the group keeps one per tuple
    of images, with its blocks, checked block images and per-element
    entries.
    """
    check_homomorphism(p, group, images)
    rho = group._representations.get(images)
    if rho is None:
        letters = {}
        for g, x in enumerate(images, start=1):
            letters[g], letters[-g] = x, group.index_inv(x)
        blocks = support_blocks(
            group.p**group.k, [group.character_image(x) for x in images])
        rho = group._representations[images] = Representation(group, letters, blocks)
    return rho
