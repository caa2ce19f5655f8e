"""Metabelian target groups Z/n x| (Z/p)^k and representations of knot groups.

The group M(n|p,k) is the semidirect product of Z/n = <s> acting on the
elementary abelian group (Z/p)^k through the companion matrix T of the n-th
cyclotomic polynomial mod p: conjugation satisfies s a s^-1 = a' where the
coefficient vector of a' is vec(a) * T (row vector times matrix).  Every
element has the normal form s^ell * b1^v1 ... bk^vk.

Right multiplication on the right cosets of <s> gives a permutation
representation on p^k points and hence an integral matrix representation of
dimension p^k; in an integer basis of the rational characters of (Z/p)^k it
splits into small blocks (`characters.representation_blocks`).  For
M(3|2,2), which is the alternating group A4, there is additionally the
faithful irreducible 3-dimensional integral representation generated by

    xi0(s) = [[-1,1,0],[-1,0,0],[-1,0,1]]   (the image of the 3-cycle x)
    xi0(s b1) = [[0,0,-1],[0,1,-1],[1,0,-1]]  (the image of y)

which drives the whole t^3-support story for 2-bridge knots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd
from typing import Optional, Sequence

from .exactalg import (
    ExactnessError, LaurentPoly, canonical, poly_from_coeffs, exact_div, resultant)
from .groupcalc import Presentation, Word
from .intmat import (
    Mat, identity, mat, mat_add, mat_inverse, mat_mul, mat_scale, zeros)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first."""
    if n == 1:
        return (-1, 1)
    f = poly_from_coeffs([-1] + [0] * (n - 1) + [1])  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            q = exact_div(f, poly_from_coeffs(cyclotomic_coeffs(d)))
            assert q is not None
            f = q
    return tuple(f.coeff(i) for i in range(f.degree() + 1))


def multiplicative_order(a: int, n: int) -> int:
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    power, order = a, 1
    while power != 1:
        power = power * a % n
        order += 1
    return order


def _invertible_mod(m: Mat, p: int) -> bool:
    """Whether a square matrix is invertible over F_p (Gaussian elimination)."""
    rows = [list(row) for row in m]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] * inv % p
            rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[col])]
    return True


def _companion_mod(coeffs: tuple[int, ...], p: int) -> Mat:
    """Companion matrix with subdiagonal ones and last column -coefficients.

    This is the form for which row vectors transform correctly under the
    conjugation convention vec(s a s^-1) = vec(a) * T.
    """
    k = len(coeffs) - 1
    rows = []
    for i in range(k):
        row = [0] * k
        if i >= 1:
            row[i - 1] = 1
        row[k - 1] = (row[k - 1] - coeffs[i]) % p
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class MetaElem:
    """Normal form s^ell * b^vec inside a fixed MetaGroup."""

    group: "MetaGroup"
    ell: int
    vec: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.ell == 1:
            parts.append("s")
        elif self.ell:
            parts.append(f"s^{self.ell}")
        for i, v in enumerate(self.vec, start=1):
            if v == 1:
                parts.append(f"b{i}")
            elif v:
                parts.append(f"b{i}^{v}")
        return " ".join(parts) or "1"

    def __repr__(self) -> str:
        return f"<{self} in {self.group.name()}>"


class MixedGroupError(ValueError):
    pass


class MetaGroup:
    """The metabelian group M(n|p,k) with its companion-matrix action."""

    def __init__(self, n: int, p: int):
        if n < 2:
            raise ValueError("need n >= 2")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n % p == 0:
            raise ValueError(f"need gcd(n, p) = 1, got n={n}, p={p}")
        self.n = n
        self.p = p
        coeffs = cyclotomic_coeffs(n)
        self.k = len(coeffs) - 1
        self.T = _companion_mod(coeffs, p)
        self.irreducible = multiplicative_order(p, n) == self.k
        # T^n = I, so negative powers fold into 0..n-1.
        self._T_pow = [identity(self.k)]
        for _ in range(n - 1):
            self._T_pow.append(self._mat_mod(mat_mul(self._T_pow[-1], self.T)))
        # filled on first use: element index -> character image, unit ->
        # coset relabeling, generator indices -> whether they generate
        self._character_images: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._relabelings: dict[Mat, tuple[int, ...]] = {}
        self._generates: dict[tuple[int, ...], bool] = {}

    def _mat_mod(self, m: Mat) -> Mat:
        return tuple(tuple(x % self.p for x in row) for row in m)

    def T_power(self, e: int) -> Mat:
        return self._T_pow[e % self.n]

    @cached_property
    def units(self) -> list[Mat]:
        """The invertible elements U = f(T) mod p of F_p[T], identity first.

        T^0, ..., T^(k-1) is a basis of F_p[T] because T is a companion
        matrix of degree k.  Each U commutes with T, so s^ell b^vec ->
        s^ell b^(vec U) is an automorphism of the group that fixes s
        (`apply_unit`).
        """
        out = []
        for idx in range(1, self.p**self.k):
            coeffs = reversed(self.vec_of_index(idx))  # constant term first
            u = zeros(self.k)
            for c, power in zip(coeffs, self._T_pow):
                u = mat_add(u, mat_scale(c, power))
            u = self._mat_mod(u)
            if _invertible_mod(u, self.p):
                out.append(u)
        return out

    # -- construction of elements ------------------------------------------

    def name(self) -> str:
        return f"M({self.n}|{self.p},{self.k})"

    def __eq__(self, other) -> bool:
        return isinstance(other, MetaGroup) and (self.n, self.p) == (other.n, other.p)

    def __hash__(self):
        return hash((self.n, self.p))

    def __repr__(self):
        return f"MetaGroup({self.n}, {self.p})"

    def order(self) -> int:
        return self.n * self.p**self.k

    def elem(self, ell: int, vec) -> MetaElem:
        v = tuple(int(x) % self.p for x in vec)
        if len(v) != self.k:
            raise ValueError(f"vector must have length {self.k}")
        return MetaElem(self, ell % self.n, v)

    def identity_elem(self) -> MetaElem:
        return self.elem(0, (0,) * self.k)

    def s(self) -> MetaElem:
        return self.elem(1, (0,) * self.k)

    def b(self, i: int) -> MetaElem:
        if not 1 <= i <= self.k:
            raise ValueError(f"b index out of range: {i}")
        return self.elem(0, tuple(1 if j == i - 1 else 0 for j in range(self.k)))

    # -- group law ----------------------------------------------------------

    def _vec_times(self, vec: tuple[int, ...], m: Mat) -> tuple[int, ...]:
        return tuple(
            sum(vec[i] * m[i][j] for i in range(self.k)) % self.p
            for j in range(self.k)
        )

    def _vec_act(self, vec: tuple[int, ...], t_exp: int) -> tuple[int, ...]:
        return self._vec_times(vec, self.T_power(t_exp))

    def mul(self, g: MetaElem, h: MetaElem) -> MetaElem:
        if g.group != self or h.group != self:
            raise MixedGroupError("operands belong to different groups")
        # s^a u s^b v = s^(a+b) (s^-b u s^b) v, and s^-1 u s has vector
        # vec(u) * T^-1 by the defining conjugation rule.
        moved = self._vec_act(g.vec, -h.ell)
        vec = tuple((x + y) % self.p for x, y in zip(moved, h.vec))
        return self.elem(g.ell + h.ell, vec)

    def inv(self, g: MetaElem) -> MetaElem:
        if g.group != self:
            raise MixedGroupError("element belongs to a different group")
        moved = self._vec_act(g.vec, g.ell)
        return self.elem(-g.ell, tuple(-x % self.p for x in moved))

    def parse_elem(self, text: str) -> MetaElem:
        """Parse 's b1 b4', 's^2', 'b2^3', '1' into an element."""
        out = self.identity_elem()
        for tok in text.split():
            if tok == "1":
                continue
            base, _, exp_text = tok.partition("^")
            exp = int(exp_text) if exp_text else 1
            if base == "s":
                part = self.elem(exp, (0,) * self.k)
            elif base.startswith("b"):
                part = self.b(int(base[1:]))
                part = self.elem(0, tuple(v * exp % self.p for v in part.vec))
            else:
                raise ValueError(f"bad element token {tok!r}")
            out = self.mul(out, part)
        return out

    # -- coset permutation action -------------------------------------------

    def coset_index(self, vec: tuple[int, ...]) -> int:
        idx = 0
        for v in vec:
            idx = idx * self.p + v
        return idx

    def vec_of_index(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(reversed(out))

    def coset_permutation(self, g: MetaElem) -> tuple[int, ...]:
        """Right multiplication on right cosets <s> a, indexed by vectors
        in lexicographic order: <s> a  ->  <s> (a T^-ell(g) + vec(g))."""
        if g.group != self:
            raise MixedGroupError("element belongs to a different group")
        return tuple(self.coset_table(g.ell, self.coset_index(g.vec)))

    # -- group law on element indices ----------------------------------------

    @cached_property
    def index_law(self) -> tuple[list[list[int]], list[list[int]]]:
        """Tables (act, add) of the group law on element indices.

        The element s^ell b^vec has index ell * p^k + coset_index(vec).
        act[t][i] is the coset index of vec(i) * T^-t and add[i][j] that of
        vec(i) + vec(j), so (a, u)(b, v) = (a + b mod n, add[act[b][u]][v]).
        Built from `_vec_act` and vector addition on first use, once per
        group object.
        """
        vecs = [self.vec_of_index(i) for i in range(self.p**self.k)]
        act = [[self.coset_index(self._vec_act(v, -t)) for v in vecs]
               for t in range(self.n)]
        add = [[self.coset_index(tuple((x + y) % self.p for x, y in zip(v, w)))
                for w in vecs] for v in vecs]
        return act, add

    @cached_property
    def character_tables(self) -> tuple[list[tuple[int, ...]], list[list[int]],
                                        list[list[tuple[int, int]]]]:
        """Tables (columns, dots, moves) of the rational characters of (Z/p)^k.

        The lines of F_p^k are numbered l = 0, 1, ... in the order of the
        coset indices of their normalized vectors u_l (first nonzero entry
        1).  dots[l][x] is u_l . vec(x) mod p.  `columns` are the columns of
        the integer basis C: column 0 is all ones and column l(p-1) + j, for
        j = 1..p-1, is [u_l . x = j] - [u_l . x = 0].  moves[t][l] is the
        pair (m, r) with u_m . x = r (u_l . x T^-t) for every x: T^-t
        permutes the lines up to a scalar.  Built on first use, once per
        group object.
        """
        p = self.p
        vecs = [self.vec_of_index(i) for i in range(p**self.k)]
        lines = [u for u in vecs[1:] if next(x for x in u if x) == 1]
        line_of = {u: l for l, u in enumerate(lines)}
        dots = [[sum(a * b for a, b in zip(u, x)) % p for x in vecs] for u in lines]
        columns = [(1,) * len(vecs)] + [tuple(int(d == j) - int(d == 0) for d in row)
                                        for row in dots for j in range(1, p)]
        moves = []
        for t in range(self.n):
            # u . (x M) = x . w with w_i = (row i of M) . u
            rows = self.T_power(-t)
            moves.append([])
            for u in lines:
                w = [sum(a * b for a, b in zip(row, u)) % p for row in rows]
                r = pow(next(x for x in w if x), -1, p)
                moves[t].append((line_of[tuple(r * x % p for x in w)], r))
        return columns, dots, moves

    def index(self, g: MetaElem) -> int:
        if g.group != self:
            raise MixedGroupError("element belongs to a different group")
        return g.ell * self.p**self.k + self.coset_index(g.vec)

    def element(self, x: int) -> MetaElem:
        """The element of index x (the inverse of `index`)."""
        ell, v = divmod(x, self.p**self.k)
        return self.elem(ell, self.vec_of_index(v))

    def index_mul(self, x: int, y: int) -> int:
        act, add = self.index_law
        size = self.p**self.k
        a, u = divmod(x, size)
        b, v = divmod(y, size)
        return (a + b) % self.n * size + add[act[b][u]][v]

    def coset_table(self, ell: int, v: int) -> list[int]:
        """The coset permutation of s^ell b^vec(v): i -> add[act[ell][i]][v]."""
        act, add = self.index_law
        return [add[i][v] for i in act[ell % self.n]]

    def apply_unit(self, g: MetaElem, unit: Mat) -> MetaElem:
        """phi_U(s^ell b^vec) = s^ell b^(vec U) for a unit U of F_p[T]."""
        return self.elem(g.ell, self._vec_times(g.vec, unit))

    def coset_relabeling(self, unit: Mat) -> tuple[int, ...]:
        """sigma_U: <s> a -> <s> a U as an index table.

        phi_U fixes s and U commutes with T, so the coset tables satisfy
        pi_{phi_U(g)} = sigma_U pi_g sigma_U^-1.  Built once per unit.
        """
        sigma = self._relabelings.get(unit)
        if sigma is None:
            sigma = self._relabelings[unit] = tuple(
                self.coset_index(self._vec_times(self.vec_of_index(i), unit))
                for i in range(self.p**self.k))
        return sigma

    def character_matrix(self, g: MetaElem) -> Mat:
        """Q(g) = C^-1 P(g) C for the basis C of `character_tables`.

        Right multiplication by g = s^ell b^v sends x to x T^-ell + v, and
        u_l . (x T^-ell + v) = (u_m . x) / r + d with (m, r) = moves[ell][l]
        and d = u_l . v.  So P(g) takes column l(p-1) + j of C to
        [u_m . x = r(j - d)] - [u_m . x = -rd], the difference of columns
        m(p-1) + r(j - d) and m(p-1) - rd of C (reduced mod p, a column
        m(p-1) + 0 standing for zero): each column of Q(g) has at most two
        entries, +1 and -1, and no inverse of C is needed.  P(g) C = C Q(g)
        is checked exactly; a failure is an ExactnessError.
        """
        if g.group != self:
            raise MixedGroupError("element belongs to a different group")
        columns, dots, moves = self.character_tables
        p, size = self.p, len(columns)
        v = self.coset_index(g.vec)
        cols = [[0] * size for _ in range(size)]
        cols[0][0] = 1
        for l, (m, r) in enumerate(moves[g.ell]):
            d = dots[l][v]
            for j in range(1, p):
                col = cols[l * (p - 1) + j]
                a, b = r * (j - d) % p, -r * d % p
                if a:
                    col[m * (p - 1) + a] += 1
                if b:
                    col[m * (p - 1) + b] -= 1
        # column c of P(g) C is column c of C permuted by the coset table
        table = self.coset_table(g.ell, v)
        for c, col in enumerate(cols):
            combination = [0] * size
            for row, x in enumerate(col):
                if x:
                    combination = [y + x * z for y, z in zip(combination, columns[row])]
            if combination != [columns[c][i] for i in table]:
                raise ExactnessError(
                    f"P(g) C != C Q(g) for the character matrix of {g}")
        return tuple(zip(*cols))

    def character_image(self, x: int) -> tuple[tuple[int, int, int], ...]:
        """The nonzero entries (row, column, value) of Q(g) for the element
        g of index x.  `character_matrix` builds and checks Q(g) on the first
        request for x; the entries are kept for the life of the group."""
        image = self._character_images.get(x)
        if image is None:
            q = self.character_matrix(self.element(x))
            image = self._character_images[x] = tuple(
                (w, u, v) for w, row in enumerate(q) for u, v in enumerate(row) if v)
        return image


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted cycle lengths of a permutation given as an image table."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


@lru_cache(maxsize=None)
def build_group(n: int, p: int) -> MetaGroup:
    """The one MetaGroup of (n, p) in this process, so that its cached
    tables (`units`, `index_law`, `character_tables`) are built once."""
    return MetaGroup(n, p)


def a4_group() -> MetaGroup:
    return build_group(3, 2)


def group_from_name(text: str) -> MetaGroup:
    """Parse 'A4' or 'M(n|p,k)' (k is validated against deg Phi_n)."""
    s = text.strip()
    if s.upper() == "A4":
        return a4_group()
    import re

    m = re.fullmatch(r"M\((\d+)\|(\d+),(\d+)\)", s)
    if not m:
        raise ValueError(f"bad group name {text!r}; expected A4 or M(n|p,k)")
    n, p, k = int(m.group(1)), int(m.group(2)), int(m.group(3))
    group = build_group(n, p)
    if group.k != k:
        raise ValueError(
            f"k = {k} does not match deg Phi_{n} = {group.k} in {text!r}")
    return group


# ---------------------------------------------------------------------------
# Integral representations
# ---------------------------------------------------------------------------


class NotHomomorphismError(ValueError):
    """A generator assignment fails to kill some relator."""


@dataclass
class Representation:
    """Generator images in GL(dim, Z) for a presentation.

    Its constructors (`a4_irreducible_rep`,
    `characters.representation_blocks` and the oracle `oracles.perm_rep`)
    check the relators on the coset tables (`check_homomorphism`) before
    they build the images.  A character block carries its `summand`: the
    `CharacterSplit` of its assignment and its block number.
    """

    presentation: Presentation
    dim: int
    images: dict[int, Mat]
    inv_images: dict[int, Mat] = field(default_factory=dict)
    summand: Optional[tuple["CharacterSplit", int]] = None

    def __post_init__(self):
        """Check each image against its inverse, supplied or computed:
        `fox_images` multiplies by `inv_images` for inverse letters."""
        for g, m in self.images.items():
            try:
                inv = self.inv_images.get(g) or mat_inverse(m)
            except ValueError:
                inv = None
            if inv is None or mat_mul(m, inv) != identity(self.dim):
                raise ValueError(f"image of generator {g} is not in GL(dim, Z)")
            self.inv_images[g] = inv


def _coset_walk(word: Word, tables) -> int:
    """The coset that coset 0 reaches through the coset tables of the
    word's letters (tables[-g] is the inverse of tables[g])."""
    u = 0
    for letter in word:
        u = tables[letter][u]
    return u


def check_homomorphism(p: Presentation, group: MetaGroup,
                       assignment: dict[str, MetaElem]) -> None:
    """Raise NotHomomorphismError naming the first relator of p that the
    assignment does not send to the identity.

    The image of a word is s^a b^v with a the sum of the s-exponents of
    its letters, and right multiplication by it takes the coset 0 to the
    coset of v; so a relator holds when a = 0 mod n and the coset walk
    from 0 returns to 0.  The coset action is faithful, so this is the
    same test as the permutation matrices' product being the identity.
    """
    tables = {}
    ells = {}
    for name in p.generators:
        if name not in assignment:
            raise ValueError(f"assignment missing generator {name!r}")
        e = assignment[name]
        if e.group != group:
            raise MixedGroupError("element belongs to a different group")
        g = p.gen_index(name)
        tables[g] = group.coset_table(e.ell, group.coset_index(e.vec))
        tables[-g] = _inverse_table(tables[g])
        ells[g], ells[-g] = e.ell, -e.ell
    for i, rel in enumerate(p.relators):
        if sum(ells[letter] for letter in rel) % group.n or _coset_walk(rel, tables):
            raise NotHomomorphismError(
                f"relator {i + 1} ({rel.spell(p.generators)}) "
                f"does not map to the identity")


# The two generating matrices of the 3-dimensional irreducible integral
# representation of A4 = M(3|2,2); X is the image of s, Y the image of s*b1.
XI0_X: Mat = mat([[-1, 1, 0], [-1, 0, 0], [-1, 0, 1]])
XI0_Y: Mat = mat([[0, 0, -1], [0, 1, -1], [1, 0, -1]])

_XI0_B1 = mat_mul(mat_inverse(XI0_X), XI0_Y)            # image of b1
_XI0_B2 = mat_mul(mat_mul(XI0_X, _XI0_B1), mat_inverse(XI0_X))  # image of b2 = s b1 s^-1


def xi0(e: MetaElem) -> Mat:
    """The 3-dimensional irreducible image of an element of M(3|2,2)."""
    if (e.group.n, e.group.p) != (3, 2):
        raise ValueError("xi0 is defined on M(3|2,2) only")
    out = identity(3)
    for _ in range(e.ell):
        out = mat_mul(out, XI0_X)
    if e.vec[0]:
        out = mat_mul(out, _XI0_B1)
    if e.vec[1]:
        out = mat_mul(out, _XI0_B2)
    return out


def a4_irreducible_rep(assignment: dict[str, MetaElem],
                       p: Presentation) -> Representation:
    """3-dimensional representation through xi0; requires a generating image."""
    group = a4_group()
    elems = []
    images = {}
    for name in p.generators:
        if name not in assignment:
            raise ValueError(f"assignment missing generator {name!r}")
        e = assignment[name]
        if e.group != group:
            raise MixedGroupError("assignment must land in M(3|2,2)")
        elems.append(e)
        images[p.gen_index(name)] = xi0(e)
    if not generates(group, elems):
        raise ValueError("assigned elements do not generate the full group")
    check_homomorphism(p, group, assignment)
    return Representation(p, 3, images)


# ---------------------------------------------------------------------------
# Homomorphism search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomAssignment:
    """A homomorphism onto (or into) a MetaGroup, as generator images."""

    images: dict[str, MetaElem]
    surjective: bool

    def describe(self) -> str:
        body = ", ".join(f"f({g}) = {e}" for g, e in self.images.items())
        flag = "onto" if self.surjective else "not onto"
        return f"{body}  [{flag}]"


def generates(group: MetaGroup, elems) -> bool:
    """Whether the elements generate the whole group.

    Closes the element indices under right multiplication by the elements,
    with the group law of `index_law` inlined; in a finite group that
    closure is the generated subgroup.  The answer is kept per group for
    the tuple of element indices.
    """
    gens = tuple(group.index(e) for e in elems)
    known = group._generates.get(gens)
    if known is None:
        act, add = group.index_law
        n, size = group.n, group.p**group.k
        parts = [divmod(x, size) for x in gens]
        seen = set(gens)
        frontier = list(gens)
        while frontier:
            a, u = divmod(frontier.pop(), size)
            for b, v in parts:
                prod = (a + b) % n * size + add[act[b][u]][v]
                if prod not in seen:
                    seen.add(prod)
                    frontier.append(prod)
        known = group._generates[gens] = len(seen) == group.order()
    return known


def _inverse_table(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return inv


def find_homs(p: Presentation, group: MetaGroup,
              fix: Optional[str] = None) -> list[HomAssignment]:
    """All assignments sending `fix` (default: the first generator) to s and
    every other generator into the coset s * (Z/p)^k, that kill all relators.

    Meridian generators of a knot group are all conjugate, so they must land
    in a single conjugacy class; fixing one of them to s is the standard
    normalization.  Results are tagged with a surjectivity flag.

    Relators are evaluated on element indices.  Every image lies in
    s * (Z/p)^k, so a relator's image has s-exponent equal to its exponent
    sum for every candidate, and its coset index is found by following the
    coset 0 through the coset tables of its letters.
    """
    fixed_name = fix if fix is not None else p.generators[0]
    if fixed_name not in p.generators:
        raise ValueError(f"no generator named {fixed_name!r}")
    if any(rel.exponent_sum() % group.n for rel in p.relators):
        return []
    others = [g for g in p.generators if g != fixed_name]
    size = group.p**group.k
    forward = [group.coset_table(1, v) for v in range(size)]
    backward = [_inverse_table(table) for table in forward]
    fixed_index = p.gen_index(fixed_name)
    other_index = [p.gen_index(name) for name in others]
    results = []
    counters = [0] * len(others)
    while True:
        tables = {fixed_index: forward[0], -fixed_index: backward[0]}
        for g, idx in zip(other_index, counters):
            tables[g] = forward[idx]
            tables[-g] = backward[idx]
        if not any(_coset_walk(rel, tables) for rel in p.relators):
            images = {fixed_name: group.s()}
            for name, idx in zip(others, counters):
                images[name] = group.elem(1, group.vec_of_index(idx))
            surjective = generates(group, list(images.values()))
            results.append(HomAssignment(images, surjective))
        # odometer over the vector indices of the non-fixed generators
        pos = len(counters) - 1
        while pos >= 0:
            counters[pos] += 1
            if counters[pos] < size:
                break
            counters[pos] = 0
            pos -= 1
        if pos < 0:
            break
    return results


# ---------------------------------------------------------------------------
# Representation classes under the units of F_p[T]
# ---------------------------------------------------------------------------


def unit_classes(group: MetaGroup,
                 assignments: list[dict[str, MetaElem]]) -> list[tuple[int, Mat]]:
    """Group assignments into classes under the automorphisms phi_U.

    Returns, for each assignment, a pair (i, U): i indexes its class
    representative, the first assignment of the class in the given order,
    and U is a unit with assignment = phi_U(representative).  The
    permutation representations of one class are conjugate by a permutation
    matrix, which `conjugate_by_relabeling` checks for each member.
    """
    def key(images):
        return tuple((g, e.ell, e.vec) for g, e in images.items())

    owner: dict[tuple, tuple[int, Mat]] = {}
    out = []
    for i, images in enumerate(assignments):
        if key(images) not in owner:
            for unit in group.units:
                image = {g: group.apply_unit(e, unit) for g, e in images.items()}
                owner.setdefault(key(image), (i, unit))
        out.append(owner[key(images)])
    return out


def conjugate_by_relabeling(group: MetaGroup, rep: dict[str, MetaElem],
                            member: dict[str, MetaElem], unit: Mat) -> bool:
    """Check on the coset tables that `member` relabels `rep` through U.

    With sigma = sigma_U^-1, which takes the member's cosets to the
    representative's, this tests pi_rep(g)(sigma(i)) == sigma(pi_member(g)(i))
    for every generator g and every coset i.  When it holds,
    P(member(g)) = Q P(rep(g)) Q^-1 for the permutation matrix Q of sigma,
    so both representations give the same twisted numerator and
    denominator determinants exactly.
    """
    forward = group.coset_relabeling(unit)
    size = len(forward)
    if rep.keys() != member.keys() or len(set(forward)) != size:
        return False
    sigma = _inverse_table(forward)
    for g in rep:
        pi_rep = group.coset_permutation(rep[g])
        pi_member = group.coset_permutation(member[g])
        if any(pi_rep[sigma[i]] != sigma[pi_member[i]] for i in range(size)):
            return False
    return True


def obstruction_passes(delta: LaurentPoly, n: int, p: int) -> bool:
    """Necessary condition for a surjection onto M(n|p,k): p divides the
    resultant of the Alexander polynomial with the n-th cyclotomic polynomial
    (equivalently the product of Delta at the primitive n-th roots of unity).
    """
    if delta.is_zero():
        raise ValueError("delta must be nonzero")
    phi_n = poly_from_coeffs(cyclotomic_coeffs(n))
    return resultant(canonical(delta), phi_n) % p == 0
