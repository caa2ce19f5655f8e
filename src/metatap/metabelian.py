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
from itertools import product
from typing import Optional, Sequence

from .exactalg import ExactnessError, LaurentPoly, poly_from_coeffs, exact_div
from .groupcalc import InputError, Presentation
from .intmat import Mat


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
            if q is None:
                raise ExactnessError(f"Phi_{d} does not divide z^{n} - 1 exactly")
            f = q
    return tuple(f.coeff(i) for i in range(f.degree() + 1))


class MetaGroup:
    """The metabelian group M(n|p,k).  T, the companion matrix of Phi_n
    mod p, exists only as its index tables (`index_law`): no F_p matrix
    is kept."""

    def __init__(self, n: int, p: int):
        check_parameters(n, p)
        self.n = n
        self.p = p
        self.k = len(cyclotomic_coeffs(n)) - 1
        # filled on first use: element index -> character image and -> text,
        # assignment (its generators' element indices) -> whether they
        # generate, -> its `characters.Representation` and -> its orbit under
        # the units, (representative, member, unit) -> the class step's
        # verdict (`unit_classes`)
        self._character_images: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._elem_texts: dict[int, str] = {}
        self._generates: dict[tuple[int, ...], bool] = {}
        self._representations: dict[tuple[int, ...], object] = {}
        self._unit_orbits: dict[tuple[int, ...],
                                tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]] = {}
        self._conjugates: dict[tuple, bool] = {}

    @cached_property
    def units(self) -> list[tuple[int, ...]]:
        """The invertible elements U = f(T) mod p of F_p[T], each as its
        table sigma_U (`poly_table`): coset index v -> that of vec(v) U.
        The identity comes first, then the units in the order of f's
        coefficient index.

        T^0, ..., T^(k-1) is a basis of F_p[T] because T is a companion
        matrix of degree k.  v -> vec(v) f(T) is linear, so f(T) is a unit
        exactly when its table is one-to-one, that is when only the coset
        0 maps to 0.  Each U commutes with T, so s^ell b^vec ->
        s^ell b^(vec U) is an automorphism of the group that fixes s
        (`unit_image`), and sigma_U relabels the cosets <s> a -> <s> a U.
        """
        tables = (self.poly_table(self.vec_of_index(idx)[::-1])
                  for idx in range(1, self.p**self.k))
        return [table for table in tables if 0 not in table[1:]]

    def poly_table(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        """The table v -> coset index of vec(v) sum_j coeffs[j] T^j mod p,
        for at most n coefficients, constant term first.

        Built from `index_law`: vec(v) T^j is act[-j mod n][v], a sum is
        `add`, and c x is taken by doubling, so a coefficient costs
        O(log p) passes over the p^k cosets.
        """
        act, add = self.index_law
        table = [0] * self.p**self.k
        for j, c in enumerate(coeffs):
            power, c = act[-j % self.n], c % self.p
            while c:
                if c & 1:
                    table = [add[x][y] for x, y in zip(table, power)]
                c >>= 1
                if c:
                    power = [add[x][x] for x in power]
        return tuple(table)

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
        's^2 b1 b2^2', or '1' for the identity; kept per group."""
        text = self._elem_texts.get(x)
        if text is None:
            ell, v = divmod(x, self.p**self.k)
            parts = ["s" if ell == 1 else f"s^{ell}"] if ell else []
            parts += [f"b{i}" if e == 1 else f"b{i}^{e}"
                      for i, e in enumerate(self.vec_of_index(v), start=1) if e]
            text = self._elem_texts[x] = " ".join(parts) or "1"
        return text

    # -- group law on element indices ----------------------------------------

    @cached_property
    def index_law(self) -> tuple[list[list[int]], list[list[int]]]:
        """Tables (act, add) of the group law on element indices.

        The element s^ell b^vec has index ell * p^k + coset_index(vec).
        act[t][i] is the coset index of vec(i) * T^-t and add[i][j] that of
        vec(i) + vec(j), so (a, u)(b, v) = (a + b mod n, add[act[b][u]][v]).
        T is the companion matrix of Phi_n = sum_i c_i z^i mod p, so
        vec(x) T = (x_2, ..., x_k, -sum_i c_i x_i) mod p; that table,
        composed to its n powers, gives act[t] = T^(n - t).  Built on first
        use, once per group object.
        """
        p, size = self.p, self.p**self.k
        coeffs = cyclotomic_coeffs(self.n)
        vecs = [self.vec_of_index(i) for i in range(size)]
        step = [self.coset_index(v[1:] + (-sum(c * x for c, x in zip(coeffs, v)) % p,))
                for v in vecs]
        powers = [list(range(size))]  # powers[j][i]: coset index of vec(i) T^j
        for _ in range(self.n - 1):
            powers.append([step[i] for i in powers[-1]])
        act = [powers[-t % self.n] for t in range(self.n)]
        add = [[self.coset_index(tuple((x + y) % p for x, y in zip(v, w)))
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
        p, k = self.p, self.k
        vecs = [self.vec_of_index(i) for i in range(p**k)]
        lines = [u for u in vecs[1:] if next(x for x in u if x) == 1]
        line_of = {u: l for l, u in enumerate(lines)}
        dots = [[sum(a * b for a, b in zip(u, x)) % p for x in vecs] for u in lines]
        columns = [(1,) * len(vecs)] + [tuple(int(d == j) - int(d == 0) for d in row)
                                        for row in dots for j in range(1, p)]

        def move(w):  # (m, r) with u_m = r w
            r = pow(next(x for x in w if x), -1, p)
            return line_of[tuple(r * x % p for x in w)], r

        # u_l . (x T^-t) = x . w with w_i = u_l . (e_i T^-t), and e_i T^-t
        # is act[t] at the coset index p^(k-i) of e_i
        act, _ = self.index_law
        basis = [p**(k - i) for i in range(1, k + 1)]
        moves = [[move([row[act[t][e]] for e in basis]) for row in dots]
                 for t in range(self.n)]
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

    def unit_image(self, x: int, unit: Sequence[int]) -> int:
        """phi_U(s^ell b^vec) = s^ell b^(vec U) on element indices, for a
        unit U of F_p[T] given as its table (`units`)."""
        ell, v = divmod(x, self.p**self.k)
        return ell * self.p**self.k + unit[v]

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
    since building it (Phi_n, then the n tables act of `index_law`) costs
    time and memory that grow with n."""
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
    if n < 2:  # Phi_0 is not defined
        raise InputError("need n >= 2")
    degree = euler_phi(n)
    if degree != k:
        raise InputError(
            f"k = {k} does not match deg Phi_{n} = {degree} in {text!r}")
    check_parameters(n, p, InputError)
    return build_group(n, p)


# ---------------------------------------------------------------------------
# Relators and the homomorphism search
# ---------------------------------------------------------------------------


class NotHomomorphismError(ValueError):
    """A generator assignment fails to kill some relator."""

    @classmethod
    def naming(cls, p: Presentation, i: int) -> "NotHomomorphismError":
        """The error for relator i (from 0) of p.  The relator check on the
        Fox walk (`twisted.twisted_alexander`) raises it, and so does its
        oracle on the coset tables (`oracles.check_homomorphism`)."""
        return cls(f"relator {i + 1} ({p.relators[i].spell(p.generators)}) "
                   f"does not map to the identity")


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


def find_homs(p: Presentation, group: MetaGroup,
              fix: Optional[str] = None) -> list[HomAssignment]:
    """All assignments sending `fix` (default: the first generator) to s and
    every other generator into the coset s * (Z/p)^k, that kill all relators.
    `fix` is the user's --fix: a name that is no generator is an InputError.

    Meridian generators of a knot group are all conjugate, so they must land
    in a single conjugacy class; fixing one of them to s is the standard
    normalization.  The results hold the generators' element indices and a
    surjectivity flag, in the odometer order of the other generators.

    Relators are linear over F_p (Fox calculus; R. Hartley, Pacific J.
    Math. 82 (1979)).  Let g -> s b^(v_g), v = 0 for the fixed generator.
    As (a, u)(b, v) = (a + b, u T^-b + v) (`index_mul`), a word of exponent
    sum e maps to s^e b^u, where a letter g or g^-1 after a prefix of
    degree d adds v_g T^(d + 1 - e) or -v_g T^(d - e): v_g T^(1 - e) times
    the term t^d or -t^(d - 1) of the abelianized Fox derivative dw/dg.
    So u = (sum_g v_g A_g(T)) T^(1 - e), A_g(T) = dw/dg at t = T, and
    given e = 0 mod n a relator holds iff that sum is 0.  One pass per
    relator folds each A_g mod n (T^n = I), ending at e mod n, which must
    be 0 (else there is no assignment); then each A_g becomes the table
    v -> coset index of vec(v) A_g(T) (`MetaGroup.poly_table`).  A
    candidate passes when its tables add up to the coset 0 for every
    relator.
    """
    fixed_name = fix if fix is not None else p.generators[0]
    if fixed_name not in p.generators:
        raise InputError(f"no generator named {fixed_name!r}")
    _, add = group.index_law
    n, size = group.n, group.p**group.k
    fixed = p.gen_index(fixed_name)
    tables = []  # per relator and generator: v -> coset index of vec(v) A_g(T)
    for rel in p.relators:
        folded, d = [[0] * n for _ in range(p.num_generators + 1)], 0
        for letter in rel:
            if letter > 0:
                folded[letter][d] += 1
                d = (d + 1) % n
            else:
                d = (d - 1) % n
                folded[-letter][d] -= 1
        if d:  # the walk ends at the exponent sum mod n
            return []
        folded[fixed] = []  # the fixed generator has v = 0: its table stays 0
        tables.append([group.poly_table(coeffs) for coeffs in folded[1:]])
    results = []
    ranges = [[0] if g == fixed else range(size) for g in range(1, p.num_generators + 1)]
    for vs in product(*ranges):
        for row in tables:
            u = 0
            for table, v in zip(row, vs):
                u = add[u][table[v]]
            if u:
                break
        else:
            found = tuple(size + v for v in vs)  # s b^v has index p^k + v
            results.append(HomAssignment(found, generates(group, found)))
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
    phi_U of the representative, relabeled by the table of the unit whose
    image it is (`_conjugate_by_relabeling`).  Then the permutation
    representations of the class are conjugate by a permutation matrix, so
    one determinant serves the class.  A failed check is an
    ExactnessError.  The orbit of each representative under the units,
    each image with its unit's table, is kept per group.
    """
    owner: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
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
                             member: tuple[int, ...], unit: tuple[int, ...]) -> bool:
    """Check on the coset tables that `member` relabels `rep` through the
    unit table sigma = sigma_U (`MetaGroup.units`).

    sigma must be a bijection of the p^k cosets, and
    sigma(pi_rep(g)(i)) == pi_member(g)(sigma(i)) must hold for every
    generator g and every coset i, the tables pi coming from `coset_table`.
    When it holds, P(member(g)) = Q^-1 P(rep(g)) Q for the permutation
    matrix Q of sigma, so both representations give the same twisted
    numerator and denominator determinants exactly.  On a surjective
    assignment a bijection that is not F_p[T]-linear fails it.  The
    verdict depends only on the two assignments and sigma, and is kept per
    group.
    """
    key = (rep, member, unit)
    known = group._conjugates.get(key)
    if known is None:
        size = group.p**group.k
        known = len(rep) == len(member) and len(unit) == len(set(unit)) == size
        for x, y in zip(rep, member) if known else ():
            pi_rep, pi_member = group.coset_table(x), group.coset_table(y)
            if any(unit[pi_rep[i]] != pi_member[unit[i]] for i in range(size)):
                known = False
                break
        group._conjugates[key] = known
    return known


def obstruction_passes(delta: LaurentPoly, group: MetaGroup) -> bool:
    """Necessary condition for a surjection onto M(n|p,k): p divides the
    resultant of the Alexander polynomial with the n-th cyclotomic polynomial.

    Phi_n is monic, so Res(Phi_n, Delta) is the product of Delta(alpha)
    over the roots alpha of Phi_n (von zur Gathen-Gerhard, Modern Computer
    Algebra, ch. 6): p divides it exactly when Delta and Phi_n have a
    common factor over F_p.  The roots satisfy z^n = 1 and are not 0, so
    each degree of Delta, negative ones too, folds to its residue mod n,
    and Delta need not be normalized.  No group table is built.
    """
    if delta.is_zero():
        raise ValueError("delta must be nonzero")
    p = group.p
    folded = [0] * group.n
    for d, c in delta.terms:
        folded[d % group.n] += c
    # Euclid on coefficient lists mod p, constant first: g <- g mod f, swap
    f, g = [c % p for c in folded], [c % p for c in cyclotomic_coeffs(group.n)]
    while any(f):
        while not f[-1]:
            f.pop()
        inv = pow(f[-1], -1, p)
        while len(g) >= len(f):
            q = g.pop() * inv % p
            for i, c in enumerate(f[:-1], len(g) + 1 - len(f)):
                g[i] = (g[i] - q * c) % p
        f, g = g, f
    return len(g) > 1  # g is gcd(Delta, Phi_n) mod p, Phi_n when Delta folds to 0
