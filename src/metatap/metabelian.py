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
M(3|2,2), which is the alternating group A4, that is the trivial block and
the faithful irreducible 3-dimensional one, which drives the whole
t^3-support story for 2-bridge knots.

An element is its index: s^ell b^vec has the index ell * p^k +
coset_index(vec), from `parse_elem`, which reads the text of one, to
`elem_str`, which prints it.  The group law on indices is `index_mul` and
`index_inv`.  An assignment of a presentation's generators is the tuple of
their images' indices, in generator order (`HomAssignment`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .exactalg import ExactnessError, LaurentPoly, poly_from_coeffs, exact_div
from .groupcalc import InputError, Presentation, Word
from .intmat import Mat, identity, mat_mul


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_parameters(n: int, p: int, error=ValueError) -> None:
    """Raise `error` unless n >= 2, p is prime and gcd(n, p) = 1."""
    if n < 2:
        raise error("need n >= 2")
    if not is_prime(p):
        raise error(f"{p} is not prime")
    if n % p == 0:
        raise error(f"need gcd(n, p) = 1, got n={n}, p={p}")


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


class MetaGroup:
    """The metabelian group M(n|p,k) with its companion-matrix action."""

    def __init__(self, n: int, p: int):
        check_parameters(n, p)
        self.n = n
        self.p = p
        coeffs = cyclotomic_coeffs(n)
        self.k = len(coeffs) - 1
        self.T = _companion_mod(coeffs, p)
        # T^n = I, so negative powers fold into 0..n-1.
        self._T_pow = [identity(self.k)]
        for _ in range(n - 1):
            self._T_pow.append(self._mat_mod(mat_mul(self._T_pow[-1], self.T)))
        # filled on first use: element index -> character image, unit ->
        # coset relabeling, assignment (its generators' element indices) ->
        # whether they generate, -> its `characters.Representation` and ->
        # its orbit under the units, (representative, member, relabeling)
        # -> the class step's verdict (`unit_classes`)
        self._character_images: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._relabelings: dict[Mat, tuple[int, ...]] = {}
        self._generates: dict[tuple[int, ...], bool] = {}
        self._representations: dict[tuple[int, ...], object] = {}
        self._unit_orbits: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], Mat], ...]] = {}
        self._conjugates: dict[tuple, bool] = {}

    def _mat_mod(self, m: Mat) -> Mat:
        return tuple(tuple(x % self.p for x in row) for row in m)

    def T_power(self, e: int) -> Mat:
        return self._T_pow[e % self.n]

    def T_poly(self, coeffs: Sequence[int]) -> Mat:
        """sum_i coeffs[i] T^i mod p, for at most n coefficients, constant
        term first."""
        acc = [[0] * self.k for _ in range(self.k)]
        for i, c in enumerate(coeffs):
            if c % self.p:
                for row, power_row in zip(acc, self._T_pow[i]):
                    for j, x in enumerate(power_row):
                        row[j] += c * x
        return self._mat_mod(acc)

    @cached_property
    def units(self) -> list[Mat]:
        """The invertible elements U = f(T) mod p of F_p[T], identity first.

        T^0, ..., T^(k-1) is a basis of F_p[T] because T is a companion
        matrix of degree k.  Each U commutes with T, so s^ell b^vec ->
        s^ell b^(vec U) is an automorphism of the group that fixes s
        (`unit_image`).
        """
        out = []
        for idx in range(1, self.p**self.k):
            u = self.T_poly(self.vec_of_index(idx)[::-1])
            if _invertible_mod(u, self.p):
                out.append(u)
        return out

    # -- the group ----------------------------------------------------------

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

    # -- elements as indices ------------------------------------------------

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

    def _vec_times(self, vec: tuple[int, ...], m: Mat) -> tuple[int, ...]:
        return tuple(
            sum(vec[i] * m[i][j] for i in range(self.k)) % self.p
            for j in range(self.k)
        )

    def parse_elem(self, text: str) -> int:
        """The index of the element written 's b1 b4', 's^2', 'b2^3' or '1',
        its tokens composed by `index_mul`; InputError if the text is not
        one."""
        size = self.p**self.k
        out = 0
        for tok in text.split():
            if tok == "1":
                continue
            base, caret, exp_text = tok.partition("^")
            try:
                exp = int(exp_text) if caret else 1
            except ValueError:
                raise InputError(f"bad exponent in element token {tok!r}") from None
            if base == "s":
                part = exp % self.n * size
            elif base.startswith("b") and base[1:].isdecimal():
                i = int(base[1:])
                if not 1 <= i <= self.k:
                    raise InputError(f"b index out of range: {i}")
                part = exp % self.p * self.p**(self.k - i)  # coset_index of b_i^exp
            else:
                raise InputError(f"bad element token {tok!r}")
            out = self.index_mul(out, part)
        return out

    def elem_str(self, x: int) -> str:
        """The text of the element of index x, as `parse_elem` reads it:
        's^2 b1 b2^2', or '1' for the identity."""
        ell, v = divmod(x, self.p**self.k)
        parts = ["s" if ell == 1 else f"s^{ell}"] if ell else []
        parts += [f"b{i}" if e == 1 else f"b{i}^{e}"
                  for i, e in enumerate(self.vec_of_index(v), start=1) if e]
        return " ".join(parts) or "1"

    # -- group law on element indices ----------------------------------------

    @cached_property
    def index_law(self) -> tuple[list[list[int]], list[list[int]]]:
        """Tables (act, add) of the group law on element indices.

        The element s^ell b^vec has index ell * p^k + coset_index(vec).
        act[t][i] is the coset index of vec(i) * T^-t and add[i][j] that of
        vec(i) + vec(j), so (a, u)(b, v) = (a + b mod n, add[act[b][u]][v]).
        Built from `T_power` and vector addition on first use, once per
        group object.
        """
        vecs = [self.vec_of_index(i) for i in range(self.p**self.k)]
        act = [[self.coset_index(self._vec_times(v, self.T_power(-t))) for v in vecs]
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

    def index_inv(self, x: int) -> int:
        """The index of the inverse of the element of index x.  Its coset
        table undoes x's, and every table of s^ell b^vec sends the coset 0
        to that of vec."""
        size = self.p**self.k
        return -(x // size) % self.n * size + self.coset_table(x).index(0)

    def index_mul(self, x: int, y: int) -> int:
        act, add = self.index_law
        size = self.p**self.k
        a, u = divmod(x, size)
        b, v = divmod(y, size)
        return (a + b) % self.n * size + add[act[b][u]][v]

    def coset_table(self, x: int) -> list[int]:
        """Right multiplication by the element s^ell b^vec(v) of index x on
        the right cosets <s> a, numbered by coset index:
        i -> add[act[ell][i]][v], that is <s> a -> <s> (a T^-ell + vec(v))."""
        act, add = self.index_law
        ell, v = divmod(x, self.p**self.k)
        return [add[i][v] for i in act[ell]]

    @cached_property
    def s_coset_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """(forward, backward): the coset permutation of s b^vec(v) and its
        inverse for each coset index v, the candidates of `find_homs`.
        Built on first use, once per group object."""
        size = self.p**self.k
        forward = [self.coset_table(size + v) for v in range(size)]
        return forward, [_inverse_table(table) for table in forward]

    def unit_image(self, x: int, unit: Mat) -> int:
        """phi_U(s^ell b^vec) = s^ell b^(vec U) for a unit U of F_p[T], on
        element indices.  Built apart from `coset_relabeling`, so that the
        class step's check of one against the other means something."""
        ell, v = divmod(x, self.p**self.k)
        return (ell * self.p**self.k
                + self.coset_index(self._vec_times(self.vec_of_index(v), unit)))

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

    def character_matrix(self, g: int) -> Mat:
        """Q(g) = C^-1 P(g) C for the element of index g and the basis C of
        `character_tables`.

        Right multiplication by g = s^ell b^v sends x to x T^-ell + v, and
        u_l . (x T^-ell + v) = (u_m . x) / r + d with (m, r) = moves[ell][l]
        and d = u_l . v.  So P(g) takes column l(p-1) + j of C to
        [u_m . x = r(j - d)] - [u_m . x = -rd], the difference of columns
        m(p-1) + r(j - d) and m(p-1) - rd of C (reduced mod p, a column
        m(p-1) + 0 standing for zero): each column of Q(g) has at most two
        entries, +1 and -1, and no inverse of C is needed.  P(g) C = C Q(g)
        is checked exactly; a failure is an ExactnessError.
        """
        columns, dots, moves = self.character_tables
        p, size = self.p, len(columns)
        ell, v = divmod(g, p**self.k)
        cols = [[0] * size for _ in range(size)]
        cols[0][0] = 1
        for l, (m, r) in enumerate(moves[ell]):
            d = dots[l][v]
            for j in range(1, p):
                col = cols[l * (p - 1) + j]
                a, b = r * (j - d) % p, -r * d % p
                if a:
                    col[m * (p - 1) + a] += 1
                if b:
                    col[m * (p - 1) + b] -= 1
        # column c of P(g) C is column c of C permuted by the coset table
        table = self.coset_table(g)
        for c, col in enumerate(cols):
            combination = [0] * size
            for row, x in enumerate(col):
                if x:
                    combination = [y + x * z for y, z in zip(combination, columns[row])]
            if combination != [columns[c][i] for i in table]:
                raise ExactnessError(
                    f"P(g) C != C Q(g) for the character matrix of {self.elem_str(g)}")
        return tuple(zip(*cols))

    def character_image(self, x: int) -> tuple[tuple[int, int, int], ...]:
        """The nonzero entries (row, column, value) of Q(g) for the element
        g of index x.  `character_matrix` builds and checks Q(g) on the first
        request for x; the entries are kept for the life of the group."""
        image = self._character_images.get(x)
        if image is None:
            q = self.character_matrix(x)
            image = self._character_images[x] = tuple(
                (w, u, v) for w, row in enumerate(q) for u, v in enumerate(row) if v)
        return image


def cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
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


def euler_phi(n: int) -> int:
    """Euler's totient of n, by trial division: deg Phi_n for n >= 1."""
    out, rest, d = n, n, 2
    while d * d <= rest:
        if rest % d == 0:
            while rest % d == 0:
                rest //= d
            out -= out // d
        d += 1
    if rest > 1:
        out -= out // rest
    return out


# The largest p^k of a group name.  A group's tables grow as (p^k)^2
# (`MetaGroup.index_law`), a million entries at the cap; the largest group
# of the golden values, M(7|2,6), has p^k = 64.
MAX_COSETS = 1024


def group_from_name(text: str) -> MetaGroup:
    """Parse 'A4' or 'M(n|p,k)', raising InputError for any other text.

    The name is bounded before any trial division (`euler_phi`,
    `is_prime`): p^k may not exceed MAX_COSETS, with k and p checked
    first, and n may not exceed 2 k^2, since deg Phi_n = phi(n) >=
    sqrt(n/2).  k is checked against deg Phi_n before the group is built,
    since building it (Phi_n and the n powers of T) costs time and memory
    that grow with n."""
    s = text.strip()
    if s.upper() == "A4":
        return a4_group()
    import re

    m = re.fullmatch(r"M\((\d+)\|(\d+),(\d+)\)", s)
    if not m:
        raise InputError(f"bad group name {text!r}; expected A4 or M(n|p,k)")
    too_large = InputError(f"{text!r} is too large: p^k may be at most {MAX_COSETS}")
    try:
        n, p, k = map(int, m.groups())
    except ValueError:  # more digits than int() converts
        raise too_large from None
    if p > MAX_COSETS or k > MAX_COSETS or p**k > MAX_COSETS:
        raise too_large
    if n > 2 * k * k:
        raise InputError(f"k = {k} does not match deg Phi_{n} >= sqrt({n}/2) "
                         f"in {text!r}")
    degree = euler_phi(n)
    if degree != k:
        raise InputError(
            f"k = {k} does not match deg Phi_{n} = {degree} in {text!r}")
    check_parameters(n, p, InputError)
    return build_group(n, p)


# ---------------------------------------------------------------------------
# Relators on the coset tables
# ---------------------------------------------------------------------------


class NotHomomorphismError(ValueError):
    """A generator assignment fails to kill some relator."""


def _coset_walk(word: Word, tables) -> int:
    """The coset that coset 0 reaches through the coset tables of the
    word's letters (tables[-g] is the inverse of tables[g])."""
    u = 0
    for letter in word:
        u = tables[letter][u]
    return u


def check_homomorphism(p: Presentation, group: MetaGroup,
                       images: tuple[int, ...]) -> None:
    """Raise NotHomomorphismError naming the first relator of p that the
    assignment does not send to the identity.  `images` are the element
    indices of the generators' images, in generator order.

    The image of a word is s^a b^v with a the sum of the s-exponents of
    its letters, and right multiplication by it takes the coset 0 to the
    coset of v; so a relator holds when a = 0 mod n and the coset walk
    from 0 returns to 0.  The coset action is faithful, so this is the
    same test as the permutation matrices' product being the identity.
    """
    if len(images) != p.num_generators or not all(0 <= x < group.order() for x in images):
        raise ValueError(f"{images} are not {p.num_generators} element indices "
                         f"of {group.name()}")
    tables = {}
    ells = {}
    for g, x in enumerate(images, start=1):
        ell = x // group.p**group.k
        tables[g] = group.coset_table(x)
        tables[-g] = _inverse_table(tables[g])
        ells[g], ells[-g] = ell, -ell
    for i, rel in enumerate(p.relators):
        if sum(ells[letter] for letter in rel) % group.n or _coset_walk(rel, tables):
            raise NotHomomorphismError(
                f"relator {i + 1} ({rel.spell(p.generators)}) "
                f"does not map to the identity")


# ---------------------------------------------------------------------------
# Homomorphism search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomAssignment:
    """A homomorphism onto (or into) a MetaGroup: the element indices of
    the generators' images, in generator order."""

    images: tuple[int, ...]
    surjective: bool


def generates(group: MetaGroup, gens: tuple[int, ...]) -> bool:
    """Whether the elements of indices `gens` generate the whole group.

    Closes the indices under right multiplication by the elements, with
    the group law of `index_law` inlined; in a finite group that closure
    is the generated subgroup.  The answer is kept per group for the tuple
    of indices.
    """
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
    `fix` is the user's --fix: a name that is no generator is an InputError.

    Meridian generators of a knot group are all conjugate, so they must land
    in a single conjugacy class; fixing one of them to s is the standard
    normalization.  Each result holds its generators' element indices,
    tagged with a surjectivity flag.

    Relators are evaluated on element indices.  Every image lies in
    s * (Z/p)^k, so a relator's image has s-exponent equal to its exponent
    sum for every candidate, and its coset index is found by following the
    coset 0 through the coset tables of its letters.
    """
    fixed_name = fix if fix is not None else p.generators[0]
    if fixed_name not in p.generators:
        raise InputError(f"no generator named {fixed_name!r}")
    if any(rel.exponent_sum() % group.n for rel in p.relators):
        return []
    others = [g for g in p.generators if g != fixed_name]
    size = group.p**group.k
    forward, backward = group.s_coset_tables
    fixed_index = p.gen_index(fixed_name)
    other_index = [p.gen_index(name) for name in others]
    results = []
    counters = [0] * len(others)
    images = [size] * p.num_generators  # s has index p^k, s b^v p^k + v
    while True:
        tables = {fixed_index: forward[0], -fixed_index: backward[0]}
        for g, idx in zip(other_index, counters):
            tables[g] = forward[idx]
            tables[-g] = backward[idx]
        if not any(_coset_walk(rel, tables) for rel in p.relators):
            for g, idx in zip(other_index, counters):
                images[g - 1] = size + idx
            found = tuple(images)
            results.append(HomAssignment(found, generates(group, found)))
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


def unit_classes(group: MetaGroup, homs: list[HomAssignment]) -> list[int]:
    """For each assignment, the index of its class representative under the
    automorphisms phi_U: the first assignment of its orbit in the given
    order.

    Each member is checked against its representative: both must be
    surjective or neither, and the coset tables must show the member to be
    phi_U of the representative (`_conjugate_by_relabeling`).  Then the
    permutation representations of the class are conjugate by a
    permutation matrix, so one determinant serves the class.  A failed
    check is an ExactnessError.  The orbit of each representative under
    the units is kept per group.
    """
    owner: dict[tuple[int, ...], tuple[int, Mat]] = {}
    out = []
    for i, h in enumerate(homs):
        rep, unit = owner.get(h.images, (i, None))
        if rep == i:
            orbit = group._unit_orbits.get(h.images)
            if orbit is None:
                orbit = group._unit_orbits[h.images] = tuple(
                    (tuple(group.unit_image(x, u) for x in h.images), u)
                    for u in group.units)
            for images, u in orbit:
                owner.setdefault(images, (i, u))
        elif (h.surjective != homs[rep].surjective
              or not _conjugate_by_relabeling(group, homs[rep].images, h.images, unit)):
            member, first = ("; ".join(map(group.elem_str, images))
                             for images in (h.images, homs[rep].images))
            raise ExactnessError(
                f"assignment {member} is not conjugate to its class "
                f"representative {first} in {group.name()}")
        out.append(rep)
    return out


def _conjugate_by_relabeling(group: MetaGroup, rep: tuple[int, ...],
                             member: tuple[int, ...], unit: Mat) -> bool:
    """Check on the coset tables that `member` relabels `rep` through U.

    With sigma = sigma_U^-1, which takes the member's cosets to the
    representative's, this tests pi_rep(g)(sigma(i)) == sigma(pi_member(g)(i))
    for every generator g and every coset i.  When it holds,
    P(member(g)) = Q P(rep(g)) Q^-1 for the permutation matrix Q of sigma,
    so both representations give the same twisted numerator and
    denominator determinants exactly.  The verdict depends only on the two
    assignments and sigma_U, and is kept per group.
    """
    forward = group.coset_relabeling(unit)
    key = (rep, member, forward)
    known = group._conjugates.get(key)
    if known is None:
        known = group._conjugates[key] = _relabels(group, rep, member, forward)
    return known


def _relabels(group: MetaGroup, rep: tuple[int, ...], member: tuple[int, ...],
              forward: tuple[int, ...]) -> bool:
    size = len(forward)
    if len(rep) != len(member) or len(set(forward)) != size:
        return False
    sigma = _inverse_table(forward)
    for x, y in zip(rep, member):
        pi_rep = group.coset_table(x)
        pi_member = group.coset_table(y)
        if any(pi_rep[sigma[i]] != sigma[pi_member[i]] for i in range(size)):
            return False
    return True


def obstruction_passes(delta: LaurentPoly, group: MetaGroup) -> bool:
    """Necessary condition for a surjection onto M(n|p,k): p divides the
    resultant of the Alexander polynomial with the n-th cyclotomic polynomial
    (equivalently the product of Delta at the primitive n-th roots of unity).

    That resultant is +-det Delta(C) for the companion matrix C of Phi_n,
    and T is C mod p, so p divides it exactly when Delta(T) is singular
    over F_p.  T^n = I folds every degree of Delta, negative ones too, to
    its residue mod n; a factor +-t^m of Delta multiplies the determinant by
    a unit, +-det(T)^m, so Delta need not be normalized.
    """
    if delta.is_zero():
        raise ValueError("delta must be nonzero")
    folded = [0] * group.n
    for d, c in delta.terms:
        folded[d % group.n] += c
    return not _invertible_mod(group.T_poly(folded), group.p)
