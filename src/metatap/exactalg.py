"""Exact Laurent-polynomial arithmetic over Z[t, 1/t] and the Kronecker codec.

Coefficients are Python ints, so nothing ever overflows; all operations are
exact ring arithmetic.  A LaurentPoly is stored densely: its lowest degree
and the tuple of coefficients from that degree up, with a nonzero first and
last entry (the zero polynomial is (0, ())).  Values are immutable and
hashable, hence safe to share across threads and to use as dict keys.

The text form used everywhere in the package lists terms in increasing
degree, e.g. ``1 - 3*t^3 + t^6`` or ``t^-2 + t``, and round-trips bit-exactly
through parse_poly / str.

Every large computation on polynomials is one integer computation at
t = 2^B, read back against a proven bound on the coefficients (Kronecker
substitution; von zur Gathen-Gerhard, Modern Computer Algebra, 8.4).
`kronecker_shift` picks B from the bound, and `kronecker_readback` reads
the balanced base-2^B digits, raising ExactnessError past the bound.  Three
computations use them: the product of two large polynomials
(`LaurentPoly.__mul__`), the determinant of a matrix over Z[t, 1/t]
(`kronecker_det`), and the determinant of a matrix that its caller
evaluated itself (`evaluated_det`, for the recursion path in `twinring`).
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .intmat import int_det


class ExactnessError(RuntimeError):
    """An internal exact-arithmetic guarantee failed; indicates a bug."""


class LaurentPoly:
    """An integer Laurent polynomial in one variable t.

    >>> f = parse_poly("1 - t")
    >>> g = parse_poly("1 + t + t^2")
    >>> str(f * g)
    '1 - t^3'
    >>> str(parse_poly("t^-1 + 1") * parse_poly("-1 + t"))
    '-t^-1 + t'
    """

    __slots__ = ("_low", "_coeffs")

    def __new__(cls, terms: Iterable[tuple[int, int]] = ()):
        terms = tuple(terms)
        if not terms:
            return LaurentPoly._from_dense(0, ())
        low = min(d for d, _ in terms)
        dense = [0] * (max(d for d, _ in terms) - low + 1)
        for deg, coef in terms:
            dense[deg - low] += coef
        return LaurentPoly._from_dense(low, dense)

    @staticmethod
    def _from_dense(low: int, coeffs) -> "LaurentPoly":
        """The polynomial sum of coeffs[i] * t^(low + i).  Every value is
        built here: zeros at either end are trimmed, so equal polynomials
        have equal fields."""
        hi = len(coeffs)
        while hi and not coeffs[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not coeffs[lo]:
            lo += 1
        f = object.__new__(LaurentPoly)
        f._low = low + lo if hi else 0
        f._coeffs = tuple(coeffs[lo:hi])
        return f

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The (degree, coefficient) pairs of the nonzero terms, by degree."""
        low = self._low
        # From a list, not a generator: CPython builds tuple(generator) in a
        # 10-slot tuple and resizes it, so every freed result lands on the
        # free list of its length without one having been taken from it.
        # Over the texts of an A4 scan those free lists fill up by about
        # 0.3 MB.
        return tuple([(low + i, c) for i, c in enumerate(self._coeffs) if c])

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return self._low + len(self._coeffs) - 1

    def low_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return self._low

    def coeff(self, deg: int) -> int:
        i = deg - self._low
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, -1)

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other."""
        a, b = self._coeffs, other._coeffs
        if not b:
            return self
        if not a:
            return other if sign == 1 else -other
        low = min(self._low, other._low)
        out = [0] * (max(self._low + len(a), other._low + len(b)) - low)
        start = self._low - low
        out[start:start + len(a)] = a
        for i, c in enumerate(b, other._low - low):
            out[i] += sign * c
        return LaurentPoly._from_dense(low, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_dense(self._low, [-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._from_dense(
                self._low, [c * other for c in self._coeffs])
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        # The loop costs one step per pair of nonzero coefficients, the
        # evaluation about _KRONECKER_STEPS steps per coefficient read back.
        if ((len(a) - a.count(0)) * (len(b) - b.count(0))
                >= _KRONECKER_STEPS * (len(a) + len(b))):
            return _kronecker_product(self, other)
        return _schoolbook_product(self, other)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "LaurentPoly":
        if e < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, x: int) -> int:
        """Evaluate at an integer point (Horner); requires no negative degrees."""
        if self._low < 0:
            raise ValueError("cannot evaluate a proper Laurent polynomial at an int")
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc * x**self._low

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self._low == other._low
                and self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self._low, self._coeffs))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i, (d, c) in enumerate(self.terms):
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "t" if d == 1 else f"t^{d}"
                body = var if mag == 1 else f"{mag}*{var}"
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


ZERO = LaurentPoly()
ONE = LaurentPoly([(0, 1)])

# Measured on CPython 3.11 (2-vCPU Xeon): a pair of nonzero coefficients
# in the loop costs about 0.13 us, a coefficient of a product by
# evaluation about 1 us.  The evaluation wins from about 16 x 16 dense
# coefficients, or 32 x 96 when one factor is supported on multiples of 3.
# Over the 248 products of an A4 scan to alpha = 163, 8 came within 1% of
# the faster method for each product.
_KRONECKER_STEPS = 8


def _schoolbook_product(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f * g coefficient by coefficient; the oracle of `_kronecker_product`."""
    a, b = f._coeffs, g._coeffs
    # Skip zero coefficients: values supported on multiples of n (every
    # phi and twisted value for n = 3) are mostly zeros when dense.
    nonzero = [(j, c) for j, c in enumerate(b) if c]
    out = [0] * (len(a) + len(b) - 1)
    for i, c1 in enumerate(a):
        if c1:
            for j, c2 in nonzero:
                out[i + j] += c1 * c2
    return LaurentPoly._from_dense(f._low + g._low, out)


def _kronecker_product(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f * g of two nonzero polynomials as one int product at t = 2^B.

    Every coefficient sum_i a_i b_(k-i) of the product is at most
    |a|_1 max|b| and |b|_1 max|a| in absolute value, which bounds the
    digits `kronecker_readback` reads."""
    a, b = f._coeffs, g._coeffs
    bound = min(sum(map(abs, a)) * max(map(abs, b)),
                sum(map(abs, b)) * max(map(abs, a)))
    shift = kronecker_shift(bound)
    value = _pack(a, shift) * _pack(b, shift)
    return kronecker_readback(value, shift, bound, len(a) + len(b) - 1, f._low + g._low)


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(t(?:\^(-?\d+))?)?$")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical text form; inverse of str().

    >>> parse_poly("1 - 3*t^3 + t^6").terms
    ((0, 1), (3, -3), (6, 1))
    >>> str(parse_poly(str(parse_poly("-t^-2 + 4"))))
    '-t^-2 + 4'
    """
    s = text.strip()
    if s == "0":
        return ZERO
    if not s:
        raise ValueError("empty polynomial string")
    # Normalize into signed chunks: split on +/- that separate terms.
    compact = s.replace(" ", "").replace("t^-", "t^~")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise ValueError(f"dangling sign in {text!r}")
    terms = []
    for chunk in chunks:
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        chunk = chunk.replace("t^~", "t^-")
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"bad polynomial term: {chunk!r}")
        coef = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            deg = 0
        elif m.group(3) is None:
            deg = 1
        else:
            deg = int(m.group(3))
        terms.append((deg, sign * coef))
    return LaurentPoly(terms)


def normalize(f: LaurentPoly) -> tuple[LaurentPoly, int, int]:
    """Unit-normalize: return (canonical, sign, shift) with f = sign * t^shift * canonical.

    The canonical representative has lowest degree 0 and a positive lowest
    coefficient; it is the single equality convention for values defined only
    up to +-t^k.

    >>> normalize(parse_poly("-t^2 + t^5"))
    (LaurentPoly('1 - t^3'), -1, 2)
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no canonical form")
    shift = f.low_degree()
    sign = 1 if f._coeffs[0] > 0 else -1
    canonical = LaurentPoly._from_dense(
        0, f._coeffs if sign > 0 else [-c for c in f._coeffs])
    return canonical, sign, shift


def canonical(f: LaurentPoly) -> LaurentPoly:
    """The unit-normalized representative of f (f must be nonzero)."""
    return normalize(f)[0]


def exact_div(num: LaurentPoly, den: LaurentPoly) -> Optional[LaurentPoly]:
    """Exact quotient num/den in Z[t, 1/t], or None if den does not divide num.

    >>> exact_div(parse_poly("1 - t^3"), parse_poly("1 - t"))
    LaurentPoly('1 + t + t^2')
    >>> exact_div(parse_poly("1 - t^3"), parse_poly("1 - t^2")) is None
    True
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return ZERO
    # num = t^nlow * f and den = t^dlow * g with f(0), g(0) nonzero, so den
    # divides num in Z[t, 1/t] exactly when g divides f in Z[t]: long
    # division on the coefficient lists, descending degree.
    rem = list(num._coeffs)
    dterms = [(d, c) for d, c in enumerate(den._coeffs) if c]
    dlead_deg, dlead_coef = dterms[-1]
    if len(rem) <= dlead_deg:
        return None
    quot = [0] * (len(rem) - dlead_deg)
    for qdeg in range(len(quot) - 1, -1, -1):
        lead = rem[qdeg + dlead_deg]
        if not lead:
            continue
        q, r = divmod(lead, dlead_coef)
        if r:
            return None
        quot[qdeg] = q
        for d, c in dterms:
            rem[qdeg + d] -= q * c
    if any(rem[:dlead_deg]):
        return None
    return LaurentPoly._from_dense(num._low - den._low, quot)


def supported_on_multiples(f: LaurentPoly, n: int) -> bool:
    """True iff every nonzero term of f has degree divisible by n.

    Callers interested in "equal to a polynomial in t^n up to +-t^k" should
    pass the canonical form of f.
    """
    if n <= 0:
        raise ValueError("modulus must be positive")
    return all(d % n == 0 for d, _ in f.terms)


def poly_from_coeffs(coeffs: Iterable[int], low: int = 0) -> LaurentPoly:
    """Build a polynomial from dense coefficients starting at degree `low`."""
    return LaurentPoly._from_dense(low, tuple(coeffs))


def kronecker_det(block_rows, dim: int) -> LaurentPoly:
    """The determinant of a square matrix over Z[t, 1/t], taken as one
    int_det at t = 2^B with a proven bound on its coefficients.

    The matrix is given by block rows of `dim` rows each.  A block row is
    a sequence of terms (column, counts, entries): counts maps degree to
    int, entries are the nonzero (row, column, value) of an integer matrix
    E, and the term adds sum_d counts[d] t^d E to the block row, with E's
    column u at column `column + u`.  Terms may share a column and a
    degree, and their counts may cancel.

    Block row i is multiplied by t^-lo_i, where lo_i is the lowest degree
    of its nonzero counts, so every entry is an ordinary polynomial.
    det = sum over sigma of +-prod a[w][sigma(w)] and |fg|_1 <= |f|_1
    |g|_1, so no coefficient of the determinant exceeds bound = prod_w
    sum_j |a_wj|_1 in absolute value (von zur Gathen-Gerhard, Modern
    Computer Algebra, 8.4).  Row w's factor is taken as the sum over terms
    of (sum of |counts|) * (sum of |value| over E's row w), which is at
    least sum_j |a_wj|_1.  With 2^B > 4 * bound, one int_det of the matrix
    at t = 2^B holds every coefficient as a balanced base-2^B digit
    (`kronecker_readback`); a value that does not read back within the
    bound raises ExactnessError.  A 1x1 matrix is its entry, and a zero
    row gives 0.
    """
    rows, bound = [], 1
    for terms in block_rows:
        degrees = [d for _, counts, _ in terms for d, c in counts.items() if c]
        if not degrees:
            return ZERO
        sums = [0] * dim
        for _, counts, entries in terms:
            weight = sum(map(abs, counts.values()))
            for w, _, v in entries:
                sums[w] += weight * abs(v)
        for s in sums:
            bound *= s
        if not bound:
            return ZERO
        rows.append((min(degrees), max(degrees), terms))
    if len(rows) * dim == 1:
        ((lo, hi, terms),) = rows
        coeffs = [0] * (hi - lo + 1)
        for _, counts, entries in terms:
            for _, _, v in entries:
                for d, c in counts.items():
                    if c:
                        coeffs[d - lo] += c * v
        return LaurentPoly._from_dense(lo, coeffs)
    shift = kronecker_shift(bound)
    size = len(rows) * dim
    matrix = []
    for lo, _, terms in rows:
        block = [[0] * size for _ in range(dim)]
        for col, counts, entries in terms:
            c = (sum(count << shift * (d - lo) for d, count in counts.items() if count)
                 if len(counts) <= _DIRECT_DIGITS else _counts_value(counts, lo, shift))
            for w, u, v in entries:
                block[w][col + u] += c * v
        matrix.extend(block)
    return evaluated_det(
        matrix, shift, bound, dim * sum(hi - lo for lo, hi, _ in rows) + 1,
        dim * sum(lo for lo, _, _ in rows))


def _counts_value(counts: dict[int, int], lo: int, shift: int) -> int:
    """sum count 2^(shift (d - lo)) over the degree -> count map: term by
    term for at most _DIRECT_DIGITS nonzero counts, else packed by halves
    from the dense list (`_pack`), which is not quadratic in the span."""
    nonzero = [d for d, count in counts.items() if count]
    if len(nonzero) <= _DIRECT_DIGITS:
        return sum(counts[d] << shift * (d - lo) for d in nonzero)
    dense = [0] * (max(nonzero) - lo + 1)
    for d in nonzero:
        dense[d - lo] = counts[d]
    return _pack(dense, shift)


# ---------------------------------------------------------------------------
# The Kronecker codec: every evaluation at t = 2^B picks B and reads the
# value back here
# ---------------------------------------------------------------------------


def kronecker_shift(bound: int) -> int:
    """The B of an evaluation at t = 2^B whose coefficients are at most
    `bound` in absolute value: the least B with 2^B > 4 * bound."""
    return (4 * bound).bit_length()


def evaluated_det(matrix, shift: int, bound: int, digits: int,
                  low: int) -> LaurentPoly:
    """The determinant of a square polynomial matrix from the matrix's
    value at t = 2^shift: one int_det, read back (`kronecker_readback`)
    as a polynomial of `digits` coefficients from degree `low`, none above
    `bound` in absolute value."""
    return kronecker_readback(int_det(matrix), shift, bound, digits, low)


# Values of at most this many digits are read or packed one digit at a time.
_DIRECT_DIGITS = 32


def kronecker_readback(value: int, shift: int, bound: int, digits: int,
                       low: int) -> LaurentPoly:
    """The polynomial sum c_i t^(low + i), i < digits, whose value at
    t = 2^shift is `value`, given that no |c_i| exceeds `bound` and
    2^shift > 4 * bound: each c_i is a balanced base-2^shift digit.  A
    digit above the bound, or anything left after the last digit, raises
    ExactnessError.

    A long value is halved at a digit boundary and each half read in
    turn, so no step shifts more than the half it reads.  The low half is
    the balanced residue of the value mod 2^(h shift), which equals the
    sum of its h digits whenever they are within the bound: that sum is
    below 2^(h shift) / 2 in absolute value because 2^shift > 4 * bound.
    A digit beyond the bound is found in its half, so the errors are
    those of reading every digit in turn."""
    coeffs = []
    if _read_digits(value, shift, bound, digits, coeffs):
        raise ExactnessError("value exceeds its proven degree bound")
    return LaurentPoly._from_dense(low, coeffs)


def _read_digits(value: int, shift: int, bound: int, digits: int, out: list) -> int:
    """Append the `digits` lowest balanced base-2^shift digits of value to
    `out` and return what is left above them (`kronecker_readback`)."""
    if digits > _DIRECT_DIGITS:
        width = digits // 2 * shift
        half = value & ((1 << width) - 1)
        if half >> (width - 1):
            half -= 1 << width
        _read_digits(half, shift, bound, digits // 2, out)
        return _read_digits((value - half) >> width, shift, bound,
                            digits - digits // 2, out)
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    for _ in range(digits):
        c = value & mask
        if c >= half:
            c -= 1 << shift
        if abs(c) > bound:
            raise ExactnessError("coefficient exceeds its proven bound")
        out.append(c)
        value = (value - c) >> shift
    return value


def _pack(coeffs, shift: int) -> int:
    """sum c_i 2^(shift i), the value at t = 2^shift of the polynomial
    with coefficients `coeffs` from degree 0.  The mirror of
    `_read_digits`: a long sequence is halved, and the high half's value
    shifted past the low half's, so no partial sum is copied once per
    coefficient and packing n coefficients is not quadratic in n."""
    if len(coeffs) > _DIRECT_DIGITS:
        h = len(coeffs) // 2
        return _pack(coeffs[:h], shift) + (_pack(coeffs[h:], shift) << h * shift)
    return sum(c << shift * i for i, c in enumerate(coeffs) if c)
