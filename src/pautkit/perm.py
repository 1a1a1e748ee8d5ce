"""Coordinate permutations and their right action on words and codes.

Coordinate i of ``apply(p, w)`` is coordinate p^{-1}(i) of w, so
``apply(q, apply(p, w)) == apply(compose(p, q), w)`` where
``compose(p, q)`` applies p first.  Image tables are 0-based; cycle
notation at the string boundary is 1-based and whitespace-insensitive,
with the identity printed as ``()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidInput, TooLarge
from .gf2 import LinearCode, Word, _rref_ints


def _apply_bits(images: tuple[int, ...], bits: int) -> int:
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << images[low.bit_length() - 1]
        bits ^= low
    return out


def _mult(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply p, then q
    return tuple(map(q.__getitem__, p))


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Perm:
    """A permutation of {0, ..., n-1} stored as an image table."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = 0
        n = len(self.images)
        for x in self.images:
            if not isinstance(x, int) or not 0 <= x < n or seen >> x & 1:
                raise InvalidInput("image table is not a bijection")
            seen |= 1 << x
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, text: str, n: int) -> "Perm":
        """Parse 1-based cycle notation such as ``(1,2)(3,4)``.

        Cycles are applied left to right (they commute when disjoint).
        """
        s = "".join(text.split())
        images = list(range(n))
        if s in ("", "()"):
            return cls(tuple(images))
        i = 0
        while i < len(s):
            if s[i] != "(":
                raise InvalidInput(f"unexpected {s[i]!r} in cycle notation")
            close = s.find(")", i)
            if close < 0:
                raise InvalidInput("unbalanced cycle notation")
            inner = s[i + 1 : close]
            i = close + 1
            if not inner:
                continue
            try:
                pts = [int(tok) - 1 for tok in inner.split(",")]
            except ValueError as exc:
                raise InvalidInput(f"bad cycle entry in {inner!r}") from exc
            if len(set(pts)) != len(pts):
                raise InvalidInput(f"repeated point in cycle ({inner})")
            if any(not 0 <= x < n for x in pts):
                raise InvalidInput(f"cycle entry out of range 1..{n}")
            cyc = list(range(n))
            for a, b in zip(pts, pts[1:] + pts[:1]):
                cyc[a] = b
            images = [cyc[x] for x in images]
        return cls(tuple(images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, 0-based, each starting at its least point."""
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i] or self.images[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join(
            "(" + ",".join(str(x + 1) for x in cyc) + ")" for cyc in cycs
        )

    def __call__(self, i: int) -> int:
        return self.images[i]


def apply(p: Perm, w: Word) -> Word:
    """Act on a word: coordinate p(i) of the result is coordinate i of w."""
    if len(p.images) != w.n:
        raise InvalidInput("length mismatch")
    return Word(w.n, _apply_bits(p.images, w.bits))


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation applying p first, then q: i -> q(p(i))."""
    if p.n != q.n:
        raise InvalidInput("length mismatch")
    return Perm(_mult(p.images, q.images))


def inverse(p: Perm) -> Perm:
    return Perm(_inv(p.images))


def conjugate(p: Perm, b: Perm) -> Perm:
    """b^{-1} p b, i.e. i -> b(p(b^{-1}(i))); the cycle type is preserved."""
    if p.n != b.n:
        raise InvalidInput("length mismatch")
    bi = b.images
    out = [0] * p.n
    for i, x in enumerate(p.images):
        out[bi[i]] = bi[x]
    return Perm(tuple(out))


def image_code(code: LinearCode, p: Perm) -> LinearCode:
    """The code made of the images of all codewords under p."""
    if len(p.images) != code.n:
        raise InvalidInput("length mismatch")
    return LinearCode(code.n, _rref_ints(_apply_bits(p.images, r) for r in code.rows))


def canonical_sigma(n: int) -> Perm:
    """The fixed point free involution (1,2)(3,4)...(n-1,n)."""
    if n <= 0 or n % 2:
        raise InvalidInput(f"length {n} is not a positive even number")
    imgs = []
    for p in range(n // 2):
        imgs += [2 * p + 1, 2 * p]
    return Perm(tuple(imgs))


def pair_product(n: int, pairs: Iterable[int]) -> Perm:
    """Product of the adjacent transpositions (2p, 2p+1) for p in pairs."""
    imgs = list(range(n))
    for p in pairs:
        if not 0 <= 2 * p + 1 < n:
            raise InvalidInput(f"pair index {p} out of range")
        imgs[2 * p], imgs[2 * p + 1] = 2 * p + 1, 2 * p
    return Perm(tuple(imgs))


def from_transpositions(n: int, swaps: Iterable[tuple[int, int]]) -> Perm:
    """Product of disjoint transpositions given as 0-based point pairs."""
    imgs = list(range(n))
    for a, b in swaps:
        if imgs[a] != a or imgs[b] != b or a == b:
            raise InvalidInput("transpositions are not disjoint")
        imgs[a], imgs[b] = b, a
    return Perm(tuple(imgs))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted multiset of cycle lengths, fixed points included as 1s."""
    lengths = [len(c) for c in p.cycles()]
    lengths += [1] * (p.n - sum(lengths))
    return tuple(sorted(lengths))


def is_involution(p: Perm) -> bool:
    """Order exactly 2: all cycles of length <= 2 and at least one 2-cycle."""
    imgs = p.images
    moved = False
    for i, x in enumerate(imgs):
        if imgs[x] != i:
            return False
        if x != i:
            moved = True
    return moved


def is_fixed_point_free(p: Perm) -> bool:
    return all(x != i for i, x in enumerate(p.images))


def fixed_points(p: Perm) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(p.images) if x == i)


def generate(perms: Iterable[Perm], limit: int = 100000) -> set[Perm]:
    """Closure of the given permutations under composition (a subgroup)."""
    perms = list(perms)
    if not perms:
        raise InvalidInput("need at least one permutation to fix the degree")
    n = perms[0].n
    if any(p.n != n for p in perms):
        raise InvalidInput("mixed degrees")
    elems = {Perm.identity(n)} | set(perms)
    frontier = list(elems)
    while frontier:
        fresh = []
        for a in frontier:
            for b in perms:
                c = compose(a, b)
                if c not in elems:
                    if len(elems) >= limit:
                        raise TooLarge(f"closure exceeded {limit} elements")
                    elems.add(c)
                    fresh.append(c)
        frontier = fresh
    return elems


def involutions(n: int) -> Iterator[Perm]:
    """All permutations of order exactly 2, in lexicographic image order;
    ``autgroup._cycle_automorphisms`` prunes this tree (p = 2, fixed
    points allowed)."""
    imgs = list(range(n))

    def rec(i: int, moved: bool) -> Iterator[Perm]:
        while i < n and imgs[i] != i:
            i += 1
        if i == n:
            if moved:
                yield Perm(tuple(imgs))
            return
        # leaving i fixed keeps imgs[i] == i, the lexicographically least choice
        yield from rec(i + 1, moved)
        for j in range(i + 1, n):
            if imgs[j] == j:
                imgs[i], imgs[j] = j, i
                yield from rec(i + 1, True)
                imgs[i], imgs[j] = i, j

    yield from rec(0, False)


def fixed_point_free_prime_order(n: int, p: int) -> Iterator[Perm]:
    """All fixed point free permutations of prime order p in S_n.

    Each cycle starts at the least point not yet used; its other members
    run lexicographically over the remaining points, so the stream is the
    tree that ``autgroup._cycle_automorphisms`` searches with prunes.
    """
    if n % p:
        return
    from itertools import permutations as _orderings

    imgs = [-1] * n

    def rec(todo: list[int]) -> Iterator[Perm]:
        if not todo:
            yield Perm(tuple(imgs))
            return
        lead = todo[0]
        rest = todo[1:]
        for chosen in _orderings(rest, p - 1):
            cyc = (lead,) + chosen
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                imgs[a] = b
            remaining = [x for x in rest if x not in chosen]
            yield from rec(remaining)
        for x in (lead,) + tuple(rest):
            imgs[x] = -1

    yield from rec(list(range(n)))
