"""Free-group words, the Fox calculus on relators, and finite presentations.

A word is a tuple of nonzero signed ints: letter +k is the k-th generator
(1-based), -k its inverse, following the usual convention that an uppercase
letter denotes the inverse of the lowercase generator.  Words are stored
freely reduced, so equality of words is equality in the free group.

The Fox calculus is one relator walk (`fox_tally`), whose counts and the
prefixes' images under a representation give each block's Fox
determinant (`fox_determinant`, through `exactalg.kronecker_det`).  The
group-ring elements, Fox derivatives, prefix-matrix walk and Fox matrices
it is checked against are in `metatap.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Callable, Iterable, Iterator

from .exactalg import LaurentPoly, kronecker_det


WordTuple = tuple[int, ...]


def reduce_letters(letters: Iterable[int]) -> WordTuple:
    """Freely reduce: cancel adjacent inverse pairs until none remain.

    A word with no 0 letter and no adjacent inverse pair is already
    reduced, which two C-level scans tell; any other goes through the
    loop, which raises on a 0 letter."""
    letters = tuple(letters)
    if 0 not in letters and 0 not in map(add, letters, letters[1:]):
        return letters
    stack: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a valid letter")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word:
    """A freely reduced word in a free group on numbered generators."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        self.letters = reduce_letters(letters)

    @staticmethod
    def gen(index: int, power: int = 1) -> "Word":
        if index < 1:
            raise ValueError("generator indices are 1-based")
        sign = 1 if power > 0 else -1
        return Word([sign * index] * abs(power))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __pow__(self, e: int) -> "Word":
        if e == 0:
            return Word()
        base = self if e > 0 else self.inverse()
        return Word(base.letters * abs(e))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def exponent_sum(self) -> int:
        """Total signed exponent over all generators (the t-grading)."""
        return sum(1 if x > 0 else -1 for x in self.letters)

    def max_generator(self) -> int:
        return max(map(abs, self.letters), default=0)

    def spell(self, names: list[str] | tuple[str, ...]) -> str:
        return " ".join(
            names[abs(x) - 1] if x > 0 else names[abs(x) - 1].upper()
            for x in self.letters
        ) or "1"

    def __repr__(self) -> str:
        return f"Word({self.letters})"


def fox_tally(rel: Word, step: Callable[[int, int], int],
              steps: dict[int, dict[int, int]]
              ) -> tuple[dict[tuple[int, int], dict[int, int]], int]:
    """The one relator walk of the Fox calculus, on named prefixes.

    A prefix of the relator is named by an int, the empty prefix by 0, and
    step(x, letter) names prefix x followed by the letter.  `steps` is the
    caller's memo of them, letter -> x -> step(x, letter): step is called
    only for an (x, letter) it lacks, and the result is stored there, so a
    caller whose names keep their meaning across walks passes the same
    memo to each.  Returns the tally and the name of the whole relator,
    its last prefix: for a representation rho that the names stand for,
    that is the relator's image, and the tally gives, for each
    (generator, prefix), the signed count of each degree, so that
    Phi(dR/dg) is the sum of count * rho(prefix) * t^degree over the keys
    of generator g.  Every generator the relator uses has a key, also when
    its counts cancel.
    """
    tally: dict[tuple[int, int], dict[int, int]] = {}
    cur = deg = 0
    for letter in rel:
        if letter > 0:
            counts = tally.get((letter, cur))
            if counts is None:
                tally[letter, cur] = {deg: 1}
            else:
                counts[deg] = counts.get(deg, 0) + 1
            deg += 1
        else:
            deg -= 1
        row = steps.get(letter)
        if row is None:
            row = steps[letter] = {}
        nxt = row.get(cur)
        if nxt is None:
            nxt = row[cur] = step(cur, letter)
        cur = nxt
        if letter < 0:
            counts = tally.get((-letter, cur))
            if counts is None:
                tally[-letter, cur] = {deg: -1}
            else:
                counts[deg] = counts.get(deg, 0) - 1
    return tally, cur


def fox_determinant(relators, delete: int, dim: int) -> LaurentPoly:
    """det of the Fox matrix of one block of dimension `dim`, with
    generator `delete`'s column removed, evaluated straight from the
    relator walks: no matrix polynomial is built.

    `relators` has one entry per relator: the (generator, counts, entries)
    of each key of its tally (`fox_tally`), with counts its degree -> count
    and entries the nonzero (row, column, value) of the block's image of
    the prefix.  Relator i fills block row i and each kept generator its
    block column; `exactalg.kronecker_det` takes the determinant.
    """
    return kronecker_det(
        [[((g - 1 - (g > delete)) * dim, counts, entries)
          for g, counts, entries in terms if g != delete] for terms in relators], dim)


# ---------------------------------------------------------------------------
# Finitely presented groups
# ---------------------------------------------------------------------------


class InputError(ValueError):
    """A user input the program cannot take, raised only where input is
    read; the command line's exit 1.  Any other exception is a fault."""


class PresentationError(InputError):
    """Malformed presentation text; carries 1-based line/column info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Presentation:
    """A finite presentation with named generators and relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.generators:
            raise ValueError("presentation needs at least one generator")
        seen = set()
        for g in self.generators:
            if not (len(g) == 1 and g.isalpha() and g.islower()):
                raise ValueError(f"generator names must be single lowercase letters: {g!r}")
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        ngen = len(self.generators)
        for rel in self.relators:
            if rel.max_generator() > ngen:
                raise ValueError("relator uses an undeclared generator")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def deficiency_one(self) -> bool:
        return len(self.relators) == self.num_generators - 1

    def gen_index(self, name: str) -> int:
        """1-based index of a generator name."""
        try:
            return self.generators.index(name) + 1
        except ValueError:
            raise KeyError(f"no generator named {name!r}") from None


def parse_presentation(text: str, name: str = "") -> Presentation:
    """Parse the presentation file format.

    One ``gens:`` line followed by one ``rel:`` line per relator.  Letters
    are whitespace separated; an uppercase letter is the inverse of the
    lowercase generator, and ``x^-1`` / ``x^3`` token forms are accepted.
    ``#`` starts a comment.
    """
    generators: list[str] = []
    relators: list[Word] = []
    saw_gens = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("gens:"):
            if saw_gens:
                raise PresentationError("duplicate gens: line", lineno, 1)
            saw_gens = True
            for tok in stripped[len("gens:"):].split():
                col = raw.index(tok) + 1
                if not (len(tok) == 1 and tok.isalpha() and tok.islower()):
                    raise PresentationError(
                        f"generator must be a single lowercase letter, got {tok!r}",
                        lineno, col)
                if tok in generators:
                    raise PresentationError(f"duplicate generator {tok!r}", lineno, col)
                generators.append(tok)
        elif stripped.startswith("rel:"):
            if not saw_gens:
                raise PresentationError("rel: before gens:", lineno, 1)
            letters: list[int] = []
            for tok in stripped[len("rel:"):].split():
                col = raw.index(tok) + 1
                letters.extend(_parse_letter_token(tok, generators, lineno, col))
            if not letters:
                raise PresentationError("empty relator", lineno, 1)
            relators.append(Word(letters))
        else:
            raise PresentationError(f"unrecognized line {stripped!r}", lineno, 1)
    if not saw_gens:
        raise PresentationError("missing gens: line", 1, 1)
    if not relators:
        raise PresentationError("no relators", 1, 1)
    return Presentation(tuple(generators), tuple(relators), name=name)


def _parse_letter_token(tok: str, generators: list[str],
                        lineno: int, col: int) -> list[int]:
    base, caret, exp_text = tok.partition("^")
    if len(base) != 1 or not base.isalpha():
        raise PresentationError(f"bad letter {tok!r}", lineno, col)
    lower = base.lower()
    if lower not in generators:
        raise PresentationError(f"unknown generator {base!r}", lineno, col)
    index = generators.index(lower) + 1
    sign = 1 if base.islower() else -1
    if not caret:
        return [sign * index]
    try:
        exp = int(exp_text)
    except ValueError:
        raise PresentationError(f"malformed exponent in {tok!r}", lineno, col) from None
    if exp == 0:
        raise PresentationError(f"zero exponent in {tok!r}", lineno, col)
    total = sign * exp
    letter = index if total > 0 else -index
    return [letter] * abs(total)
