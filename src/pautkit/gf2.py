"""Bit-packed linear algebra over GF(2).

Coordinate i of a length-n word is bit i of a Python int, so vector
addition is XOR and ``int.bit_count`` is the Hamming weight.  Codes are
stored as reduced row echelon generator matrices, which makes subspace
equality plain value equality (and hashing cheap).  Everything is
0-based internally; the text file format and printed cycle notation at
the API boundary are 1-based, with character i of a row string being
coordinate i+1.

Echelon convention: the pivot of a nonzero row is its lowest set bit,
and a basis is kept reduced, so every row is zero at the pivot of every
other row.  ``_reduce`` (the residue of a vector modulo such a basis)
and ``_insert`` (grow the basis by one vector) are the only
implementation of it; every elimination in the package goes through
them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidInput, TooLarge

# Refuse full codeword enumeration beyond this dimension.
ENUMERATION_DIM_GUARD = 30


@dataclass(frozen=True, slots=True)
class Word:
    """A length-n vector over GF(2); coordinate i is bit i of ``bits``."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidInput(f"negative length {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise InvalidInput("bits do not fit the stated length")

    @classmethod
    def from_string(cls, text: str) -> "Word":
        """Parse a 0/1 string; character i is coordinate i."""
        text = text.strip()
        # int() alone would also take signs, underscores and inner spaces
        rest = text.lstrip("01")
        if rest:
            raise InvalidInput(f"invalid character {rest[0]!r} in word {text!r}")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    def to_string(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""

    def __str__(self) -> str:
        return self.to_string()

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise InvalidInput(f"coordinate {i} out of range for length {self.n}")
        return self.bits >> i & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    def __xor__(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise InvalidInput("length mismatch")
        return Word(self.n, self.bits ^ other.bits)

    __add__ = __xor__


def weight(w: Word) -> int:
    """Hamming weight: the number of nonzero coordinates."""
    return w.bits.bit_count()


def _reduce(basis: Iterable[int], v: int) -> int:
    """Residue of v modulo a reduced basis: zero at every pivot, and zero
    exactly when v lies in the span."""
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v


def _insert(basis: list[int], v: int, low_mask: int = -1) -> list[int] | None:
    """Reduced basis of span(basis + [v]) as a new list; the residue of v
    is its last row.

    Returns ``basis`` itself when v is already in the span, and None when
    the residue is nonzero but vanishes on ``low_mask`` (never for the
    default mask).
    """
    v = _reduce(basis, v)
    if not v:
        return basis
    if not v & low_mask:
        return None
    piv = v & -v
    grown = [b ^ v if b & piv else b for b in basis]
    grown.append(v)
    return grown


def _rref_ints(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon basis of the span of int rows, sorted by
    pivot column; zero and dependent rows are dropped."""
    basis: list[int] = []
    for row in rows:
        basis = _insert(basis, row)
    basis.sort(key=lambda r: r & -r)
    return tuple(basis)


@dataclass(frozen=True, slots=True)
class LinearCode:
    """A subspace of GF(2)^n held as a reduced row echelon generator matrix.

    Two values are equal iff they are the same subspace.  Construct via
    :func:`rref` or the classmethods; ``rows`` passed directly must
    already be reduced with strictly increasing pivot columns.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidInput(f"negative length {self.n}")
        prev = 0
        for row in self.rows:
            if row <= 0 or row >> self.n:
                raise InvalidInput("generator row out of range")
            piv = row & -row
            if piv <= prev:
                raise InvalidInput("generator rows not in echelon order")
            prev = piv

    @classmethod
    def zero(cls, n: int) -> "LinearCode":
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> "LinearCode":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "LinearCode":
        return rref([Word.from_string(r) for r in rows])

    @property
    def k(self) -> int:
        return len(self.rows)

    dim = k

    @property
    def gens(self) -> tuple[Word, ...]:
        return tuple(Word(self.n, r) for r in self.rows)

    def contains(self, w: Word) -> bool:
        """Membership by reduction against the generator rows."""
        if w.n != self.n:
            raise InvalidInput("length mismatch")
        return not _reduce(self.rows, w.bits)

    def _codeword_bits(self) -> Iterator[int]:
        if self.k > ENUMERATION_DIM_GUARD:
            raise TooLarge(f"2^{self.k} codewords exceed the enumeration guard")
        cur = 0
        yield cur
        rows = self.rows
        for m in range(1, 1 << self.k):
            cur ^= rows[(m & -m).bit_length() - 1]
            yield cur

    def codewords(self) -> Iterator[Word]:
        """All 2^k codewords exactly once, in Gray-code order over the
        generator combinations (consecutive words differ by one row)."""
        n = self.n
        for bits in self._codeword_bits():
            yield Word(n, bits)

    def weight_distribution(self) -> tuple[int, ...]:
        """Exact counts (A_0, ..., A_n) by full codeword enumeration."""
        counts = [0] * (self.n + 1)
        for bits in self._codeword_bits():
            counts[bits.bit_count()] += 1
        return tuple(counts)

    def minimum_weight(self) -> int | None:
        """Least weight of a nonzero codeword; None for the zero code."""
        best: int | None = None
        for bits in self._codeword_bits():
            if bits:
                w = bits.bit_count()
                if best is None or w < best:
                    best = w
        return best

    def dual(self) -> "LinearCode":
        """The orthogonal code under the standard bit-overlap parity form."""
        n = self.n
        pivots = [(row & -row).bit_length() - 1 for row in self.rows]
        pivot_set = set(pivots)
        out = []
        for j in range(n):
            if j in pivot_set:
                continue
            v = 1 << j
            for i, row in enumerate(self.rows):
                if row >> j & 1:
                    v |= 1 << pivots[i]
            out.append(v)
        return LinearCode(n, _rref_ints(out))


def rref(rows: Iterable[Word]) -> LinearCode:
    """Canonical code spanned by the given words.

    Dependent and zero rows are discarded; the result is the unique
    reduced row echelon basis of the span.
    """
    rows = list(rows)
    if not rows:
        raise InvalidInput("cannot infer the length from an empty generating set")
    n = rows[0].n
    if any(w.n != n for w in rows):
        raise InvalidInput("mixed word lengths")
    return LinearCode(n, _rref_ints(w.bits for w in rows))


def parse_code(text: str) -> LinearCode:
    """Parse the code file format: one 0/1 generator row per line,
    ``#`` starts a comment, all rows of equal length.

    A zero code is written as a single all-zero row; a file with no
    generator rows has no determinable length and is rejected.
    """
    words = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            words.append(Word.from_string(line))
    if not words:
        raise InvalidInput("no generator rows: length cannot be inferred")
    return rref(words)


def format_code(code: LinearCode) -> str:
    """Inverse of :func:`parse_code`."""
    if not code.rows:
        return "0" * code.n + "\n"
    return "".join(Word(code.n, r).to_string() + "\n" for r in code.rows)


def read_code(path: str | os.PathLike) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_code(text)


def write_code(path: str | os.PathLike, code: LinearCode) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_code(code))
