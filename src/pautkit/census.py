"""Deterministic, shardable streams of subspaces of GF(2)^n.

Plain enumeration walks reduced row echelon forms directly: pivot
column sets in lexicographic order, then the free entries as a binary
counter.  Invariant-only enumeration never filters; an invariant
subspace C of an involution b with u = id + b is parameterized exactly
once by the triple

    (U, F_C, L)

where U = u(C) is a subspace of the image of u, F_C is the intersection
of C with the fixed space of b (so U <= F_C), and L maps a canonical
basis of U into a canonical complement of F_C inside the fixed space.
Each triple is rebuilt into C by lifting every basis vector x of U to
the unique preimage supported on the first coordinates of the 2-cycles,
shifted by L(x).  The codes that share (U, F_C) form a block; in the
band dim U = a, a block holds 2^(a t) codes, t = codim F_C.

Everything the census scan decides is decided per block, so the walker,
``_invariant_blocks``, yields each block a shard meets once, with the
shard's twist values L in it as a range and a function that builds the
block's rows, and ``_invariant_range`` expands the blocks into codes.
A walk may end at an exclusive stop position.  The census scan's
journal units are contiguous runs of a slice's positions
(``verify._unit_positions``), so two units share at most the block
where one run ends and the next begins: the 16 units of slice 0/100 of
n = 12, k = 5..7 make 18371 block visits to 18362 blocks for 24110
codes, and the units of the whole stream 65364 visits to 65320 blocks.
A block's rows are built only when asked for.  Within one walk U is
built once per U rank and, for an involution without fixed points,
each F_C's complement once; nothing outlives the walk but
``_echelon_layout``'s cache.  The scan keeps what it needs of a block
in its own memo (``verify._records``), so a block it has met before
costs no rows.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, islice
from typing import Callable, Iterator, Sequence

from .errors import InvalidInput, TooLarge
from .gf2 import LinearCode, _insert, _rref_ints
from .perm import Perm, canonical_sigma, is_involution

LENGTH_GUARD = 12
COUNT_GUARD = 10**9

def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def invariant_subspace_count(n: int, k: int, involution: Perm) -> int:
    """Number of k-dimensional subspaces invariant under the involution."""
    cycles, fixed = _cycles_and_fixed(n, involution)
    d_fix = len(cycles) + len(fixed)
    return sum(
        n_u * n_s << a * (d_fix - f) for a, f, n_u, n_s in _bands(len(cycles), d_fix, k)
    )


def _block_count(n: int, k: int, involution: Perm) -> int:
    """Number of blocks (U, F_C) of the k-dimensional invariant census;
    the block ordinals of ``_invariant_blocks`` run below it."""
    cycles, fixed = _cycles_and_fixed(n, involution)
    return sum(n_u * n_s for _a, _f, n_u, n_s in _bands(len(cycles), len(cycles) + len(fixed), k))


def _bands(r: int, d_fix: int, k: int) -> Iterator[tuple[int, int, int, int]]:
    """(a, f, n_u, n_s) per band dim U = a of the k-dimensional census of
    an involution with r 2-cycles and a d_fix-dimensional fixed space:
    f = dim F_C, n_u choices of U and n_s of F_C per U."""
    for a in range(0, min(r, k // 2) + 1):
        f = k - a
        if f <= d_fix:
            yield a, f, gaussian_binomial(r, a), gaussian_binomial(d_fix - a, f - a)


def sigma_invariant_count(n: int, k: int) -> int:
    return invariant_subspace_count(n, k, canonical_sigma(n))


@lru_cache(maxsize=None)
def _echelon_layout(d: int, k: int) -> tuple[tuple[int, ...], tuple[tuple[tuple, tuple], ...]]:
    """Rank layout of the k-dimensional echelon forms over d coordinates.

    Per pivot column set, in lexicographic order: the rank of its first
    form and its (pivot rows, free positions); it holds 2^(#free) forms.
    """
    offsets: list[int] = []
    shapes = []
    total = 0
    for pivots in combinations(range(d), k):
        pivset = frozenset(pivots)
        free = tuple((i, j) for i in range(k) for j in range(pivots[i] + 1, d) if j not in pivset)
        offsets.append(total)
        shapes.append((tuple(1 << p for p in pivots), free))
        total += 1 << len(free)
    return tuple(offsets), tuple(shapes)


def _fill(base: Sequence[int], free: Sequence[tuple[int, int]], val: int) -> list[int]:
    rows = list(base)
    for i, j in free:
        if val & 1:
            rows[i] |= 1 << j
        val >>= 1
    return rows


def _echelon_forms(d: int, k: int) -> Iterator[list[int]]:
    """Row masks of every k-dimensional reduced row echelon form over d
    coordinates, in the order documented at enumerate_subspaces."""
    for base, free in _echelon_layout(d, k)[1]:
        for val in range(1 << len(free)):
            yield _fill(base, free, val)


def _echelon_at(d: int, k: int, rank: int) -> list[int]:
    """The rank-th form of _echelon_forms(d, k), skipping whole pivot sets."""
    offsets, shapes = _echelon_layout(d, k)
    i = bisect_right(offsets, rank) - 1
    return _fill(*shapes[i], rank - offsets[i])


def enumerate_subspaces(n: int, k: int) -> Iterator[LinearCode]:
    """All k-dimensional subspaces, each exactly once as its echelon form.

    Order: pivot column sets lexicographically, free entries counting up
    (bit b of the counter is the b-th free position in row-major order).
    """
    if not 0 <= k <= n:
        raise InvalidInput(f"dimension {k} out of range for length {n}")
    if n > LENGTH_GUARD:
        raise TooLarge(f"subspace enumeration limited to length {LENGTH_GUARD}")
    if gaussian_binomial(n, k) > COUNT_GUARD:
        raise TooLarge("subspace count exceeds the enumeration guard")
    for rows in _echelon_forms(n, k):
        yield LinearCode(n, tuple(rows))


def _cycles_and_fixed(n: int, p: Perm) -> tuple[list[tuple[int, int]], list[int]]:
    if p.n != n:
        raise InvalidInput("length mismatch")
    if not is_involution(p):
        raise InvalidInput("invariant enumeration needs an involution")
    cycles = []
    fixed = []
    for i, x in enumerate(p.images):
        if x == i:
            fixed.append(i)
        elif i < x:
            cycles.append((i, x))
    return cycles, fixed


def _span_rows(basis: Sequence[int], abstract: Sequence[int]) -> list[int]:
    """Abstract rows (bit i stands for basis[i]) mapped into the span."""
    rows = []
    for b in abstract:
        vec = 0
        while b:
            low = b & -b
            vec ^= basis[low.bit_length() - 1]
            b ^= low
        rows.append(vec)
    return rows


def _complement_in(space_basis: Sequence[int], sub_rows: Sequence[int]) -> tuple[int, ...]:
    """A deterministic basis of a complement of the subspace inside the space.

    ``sub_rows`` must already be a reduced basis in the convention of
    ``gf2._insert``; the walker passes one for both of its subspaces (F_C
    rows from ``_insert``, and U rows spanned by an echelon form over
    the 2-cycle vectors, whose lowest bits increase with the cycle), so
    it is taken as given.
    """
    basis = list(sub_rows)
    comp = []
    for b in space_basis:
        grown = _insert(basis, b)
        if grown is not basis:
            comp.append(grown[-1])
            basis = grown
    return tuple(comp)


def enumerate_invariant(n: int, k: int, involution: Perm) -> Iterator[LinearCode]:
    """All k-dimensional subspaces invariant under the involution,
    each exactly once, via the (U, F_C, L) parameterization."""
    return _invariant_range(n, k, involution, 0, 1)


def enumerate_sigma_invariant(n: int, k: int) -> Iterator[LinearCode]:
    """Invariant enumeration for the canonical pairing involution."""
    return enumerate_invariant(n, k, canonical_sigma(n))


def _invariant_range(
    n: int, k: int, involution: Perm, start: int, step: int
) -> Iterator[LinearCode]:
    """Stream positions start, start+step, ... of the invariant census,
    each block of ``_invariant_blocks`` expanded into the codes spanned
    by its F_C rows and the twist rows of each of its twist values."""
    for _ordinal, lvals, rows in _invariant_blocks(n, k, involution, start, step):
        _u_rows, fc_rows, lifts, twist_basis = rows()
        for lval in lvals:
            yield LinearCode(n, _rref_ints(fc_rows + _twist_rows(lifts, twist_basis, lval)))


def _twist_rows(lifts: Sequence[int], twist_basis: Sequence[int], lval: int) -> tuple[int, ...]:
    """The twist rows of twist value ``lval`` in a block: lift i plus the
    twist-basis rows picked by bits i*t .. i*t + t - 1 of ``lval``, t =
    len(twist_basis)."""
    wrows = []
    for lift in lifts:
        for b in twist_basis:
            if lval & 1:
                lift ^= b
            lval >>= 1
        wrows.append(lift)
    return tuple(wrows)


def _invariant_blocks(
    n: int, k: int, involution: Perm, start: int, step: int, stop: int | None = None
) -> Iterator[tuple[int, range, Callable[[], tuple]]]:
    """The blocks (U, F_C) that positions start, start+step, ... below
    ``stop`` (the whole stream when None) of the invariant census meet,
    each once and in stream order, as (block ordinal, twist values,
    rows), where ``rows()`` builds the block's (U rows, F_C rows, lifts,
    twist basis).

    The stream walks U, then F_C, then the twist matrix L as a binary
    counter.  In the band dim U = a, position (iU*n_S + iS)*2^(a*t) + L of
    the band holds the iU-th U, its iS-th F_C (of n_S) and twist L; the
    block ordinal numbers the blocks (U, F_C) in stream order, from 0
    below ``_block_count``.  The twist values are the L of the selected
    positions in the block, ``range(l0, 2^(a*t), step)``, clipped in the
    block that holds ``stop``, and the code at twist L is spanned by the
    F_C rows and ``_twist_rows(lifts, twist basis, L)``.  The walk ends
    with the band that holds ``stop``.  Each met block is addressed by
    rank, so a shard costs only the blocks it meets, and ``rows()``
    builds a block only when called: U spanned by an echelon form over
    the 2-cycle vectors, and F_C by the reduced U rows and an echelon
    form over U's quotient.  A walk builds U once per U rank and, for
    an involution without fixed points, each F_C's complement once, and
    keeps them until it ends.

    The U rows are a reduced basis of U = (id + involution)C, the F_C
    rows the reduced basis of C intersected with the fixed space, the
    lifts the preimages of the U rows on the first point of each
    2-cycle, and the twist basis F_C's complement in the fixed space.
    """
    if not 0 <= k <= n:
        raise InvalidInput(f"dimension {k} out of range for length {n}")
    if n > LENGTH_GUARD:
        raise TooLarge(f"invariant enumeration limited to length {LENGTH_GUARD}")
    if start < 0 or step < 1:
        raise InvalidInput("need start >= 0 and step >= 1")
    if stop is None:
        stop = invariant_subspace_count(n, k, involution)
    cycles, fixed_pts = _cycles_and_fixed(n, involution)
    pairvecs = [(1 << a) | (1 << b) for a, b in cycles]
    f_basis = tuple(pairvecs + [1 << c for c in fixed_pts])
    # x & half is the preimage of x in U under id+involution on the first cycle points
    half = sum(1 << a for a, _b in cycles)
    r = len(pairvecs)
    d_fix = len(f_basis)
    # (U rows, lifts, U's quotient) by (dim U, U rank), and the complement
    # of F_C by its rows.  F_C recurs under every U of its band inside
    # F_C and the 2-cycle span; without fixed points that span is the
    # fixed space, so each F_C above dim U recurs and the complements
    # kept are at most its subspaces (2825 at n = 12).  With fixed points
    # most F_C never recur, so none is kept and a long walk stays small
    u_built: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    complements: dict[tuple[int, ...], tuple[int, ...]] = {}

    def build(a: int, f: int, i_u: int, i_s: int) -> tuple:
        u = u_built.get((a, i_u))
        if u is None:
            u_rows = tuple(_span_rows(pairvecs, _echelon_at(r, a, i_u)))
            lifts = tuple([x & half for x in u_rows])
            u = u_built[a, i_u] = (u_rows, lifts, _complement_in(f_basis, u_rows))
        u_rows, lifts, quotient = u
        # the U rows are reduced already, so only the s rows go in
        fc_basis = list(u_rows)
        for row in _span_rows(quotient, _echelon_at(d_fix - a, f - a, i_s)):
            fc_basis = _insert(fc_basis, row)
        fc_rows = tuple(sorted(fc_basis, key=lambda r: r & -r))
        twist_basis = complements.get(fc_rows)
        if twist_basis is None:
            twist_basis = _complement_in(f_basis, fc_rows)
            if not fixed_pts:
                complements[fc_rows] = twist_basis
        return u_rows, fc_rows, lifts, twist_basis

    pos = ordinal = 0
    for a, f, n_u, n_s in _bands(r, d_fix, k):
        block = 1 << (a * (d_fix - f))
        band_end = pos + n_u * n_s * block
        end = min(band_end, stop)
        idx = max(start, start - (start - pos) // step * step)
        while idx < end:
            at, l0 = divmod(idx - pos, block)
            lvals = range(l0, min(block, end - idx + l0), step)
            idx += len(lvals) * step
            yield ordinal + at, lvals, partial(build, a, f, *divmod(at, n_s))
        if band_end >= stop:
            return
        pos = band_end
        ordinal += n_u * n_s


@dataclass(frozen=True, slots=True)
class CensusSlice:
    """A shard of one (n, k) stream: element i belongs to the shard when
    i mod total == index."""

    n: int
    k: int
    sigma_invariant_only: bool = False
    partition: tuple[int, int] = (0, 1)


def shard(slice_: CensusSlice) -> Iterator[LinearCode]:
    """The deterministic sub-stream selected by the slice.

    Shards with the same (n, k, flavor) and total are pairwise disjoint
    and their union is the full stream.  Invariant shards address each
    of their positions by rank, so they cost only the codes they yield.
    """
    index, total = slice_.partition
    if total < 1 or not 0 <= index < total:
        raise InvalidInput(f"invalid partition {slice_.partition}")
    n, k = slice_.n, slice_.k
    if not 0 <= k <= n:
        raise InvalidInput("dimension out of range")
    if slice_.sigma_invariant_only:
        yield from _invariant_range(n, k, canonical_sigma(n), index, total)
    else:
        yield from islice(enumerate_subspaces(n, k), index, None, total)
