"""Rational-character blocks of the coset permutation representations.

`MetaGroup.character_image` gives Q(g) = C^-1 P(g) C for one integer basis
C of the rational characters of (Z/p)^k, which depends only on the group.
The images of an assignment's generators split into diagonal blocks along
the connected components of their supports; the blocks' twisted
determinants multiply to exactly those of the full permutation
representation.
"""

from __future__ import annotations

from .exactalg import ExactnessError, PolyMatrix
from .groupcalc import Presentation, Word, fox_tally
from .intmat import Mat
from .metabelian import MetaElem, MetaGroup, Representation, check_homomorphism


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


class CharacterSplit:
    """The character blocks of one assignment.

    `letters` maps each signed generator letter to the element index of
    its image, and `blocks` are the coordinate sets of the summands.  The
    Fox tables of all blocks come from one relator walk on element indices
    (`fox_images`), summed from the group's cached character images.
    """

    def __init__(self, group: MetaGroup, letters: dict[int, int],
                 blocks: list[list[int]]):
        self.group = group
        self.letters = letters
        self.blocks = blocks
        self._owner = [0] * group.p**group.k
        self._local = [0] * group.p**group.k
        for b, coords in enumerate(blocks):
            for i, c in enumerate(coords):
                self._owner[c], self._local[c] = b, i
        self._entries: dict[int, list[tuple[int, int, int, int]]] = {}

    def entries(self, x: int) -> list[tuple[int, int, int, int]]:
        """The entries (block, row, column, value) of Q(g), g of index x, in
        block coordinates.  A nonzero entry outside the blocks is an
        ExactnessError."""
        out = self._entries.get(x)
        if out is None:
            owner, local = self._owner, self._local
            out = []
            for w, u, v in self.group.character_image(x):
                if owner[w] != owner[u]:
                    raise ExactnessError(
                        f"character matrix of {self.group.element(x)} has a nonzero "
                        f"entry at ({w}, {u}), outside the blocks")
                out.append((owner[w], local[w], local[u], v))
            self._entries[x] = out
        return out

    def matrices(self, x: int) -> list[Mat]:
        """The diagonal blocks of Q(g), g of index x."""
        mats = [[[0] * len(coords) for _ in coords] for coords in self.blocks]
        for b, w, u, v in self.entries(x):
            mats[b][w][u] = v
        return [tuple(map(tuple, m)) for m in mats]

    def fox_images(self, rel: Word) -> list[dict[int, PolyMatrix]]:
        """`groupcalc.fox_images` of each block, from one walk of the
        relator on element indices: each prefix is named by its index, and
        each (generator, degree) sums count * Q(prefix) restricted to the
        blocks."""
        group, letters = self.group, self.letters
        dims = [len(coords) for coords in self.blocks]
        sums: dict[tuple[int, int], list[list[list[int]]]] = {}
        tally = fox_tally(rel, lambda x, letter: group.index_mul(x, letters[letter]))
        for (gen, d, x), count in tally.items():
            accs = sums.get((gen, d))
            if accs is None:
                accs = sums[gen, d] = [[[0] * n for _ in range(n)] for n in dims]
            for b, w, u, v in self.entries(x):
                accs[b][w][u] += count * v
        series: list[dict[int, list]] = [{} for _ in dims]
        for (gen, d), accs in sums.items():
            for table, acc in zip(series, accs):
                table.setdefault(gen, []).append((d, tuple(map(tuple, acc))))
        return [{gen: PolyMatrix(pairs, n) for gen, pairs in table.items()}
                for table, n in zip(series, dims)]


def representation_blocks(assignment: dict[str, MetaElem], group: MetaGroup,
                          p: Presentation) -> list[Representation]:
    """Representations whose twisted numerator and denominator determinants
    multiply to exactly those of `oracles.perm_rep(assignment, group, p)`,
    the full permutation path.

    These are the diagonal blocks of the character images
    Q(g) = C^-1 P(g) C (`MetaGroup.character_image`) of the generators
    and of their inverse elements, cut along the connected components of
    the generators' supports: the trivial character first, and, for a
    surjection, one m(p-1)-dimensional block per orbit of m lines under T.
    C depends only on the group, so conjugating every image by it leaves
    the determinants unchanged.  All blocks share one `CharacterSplit`.
    """
    check_homomorphism(p, group, assignment)
    gens = [p.gen_index(name) for name in p.generators]
    letters = {}
    for g, name in zip(gens, p.generators):
        letters[g] = group.index(assignment[name])
        letters[-g] = group.index(group.inv(assignment[name]))
    blocks = support_blocks(group.p**group.k,
                            [group.character_image(letters[g]) for g in gens])
    split = CharacterSplit(group, letters, blocks)
    parts = {g: split.matrices(letters[g]) for g in gens}
    inv_parts = {g: split.matrices(letters[-g]) for g in gens}
    return [Representation(p, len(coords), {g: parts[g][b] for g in gens},
                           {g: inv_parts[g][b] for g in gens}, summand=(split, b))
            for b, coords in enumerate(blocks)]
