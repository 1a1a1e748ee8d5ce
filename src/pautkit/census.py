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
shard's twist values L in it as a range, and ``_invariant_range``
expands the blocks into codes.  A walk may end at an exclusive stop
position.  The census scan's journal units are contiguous runs of a
slice's positions (``verify._unit_positions``), so two units share at
most the block where one run ends and the next begins: the 16 units of
slice 0/100 of n = 12, k = 5..7 make 18371 block visits to 18362
blocks for 24110 codes, and the units of the whole stream 65364 visits
to 65320 blocks.  A sparse shard still meets a new block at most of its
positions, so the walker builds each block once per process and keeps
it in two tables:

* the subspace table, one entry per subspace of the fixed space met so
  far: its reduced rows and the complement the walker counts in (for
  U, the quotient the F_C are counted in; for F_C, the twist basis),
  with the words and the equal complements stored once;
* the columns, one ``array('H')`` per band (dim U, dim F_C) of the
  fixed space: the subspace id of F_C per block rank.  The band
  (a, a) holds U = F_C, so its column doubles as U's id per U rank.

Both are keyed by tuples of the rows themselves (the fixed space's
basis, the subspace's reduced rows), so no key depends on the length.
A revisited block then costs two array reads.  At n = 12 under the
pairing the table holds the 2825 subspaces of the 6-dimensional fixed
space, and the columns of k = 5..7 the ids of 65320 blocks (13412 of
them with a U that meets every pair, 1280 of those with a nonempty
test (a) entry, ``autgroup._block_entry``); filled, both take 0.62 MB
(tracemalloc, Python 3.11), and the columns 0.13 MB of it.  A table or band
larger than ``TABLE_CAP`` entries is walked without storing: past the
cap a subspace and its complement are computed at each visit.  The
columns of one fixed space are kept at a time, so their memory is
bounded too.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator, Sequence

from .errors import InvalidInput, TooLarge
from .gf2 import LinearCode, _insert, _rref_ints
from .perm import Perm, canonical_sigma, is_involution

LENGTH_GUARD = 12
COUNT_GUARD = 10**9
# Most entries the subspace table holds, and the longest column stored:
# above the 2825 subspaces of the pairing's fixed space at n = 12 and
# its largest band (22785 blocks at k = 6), and below NO_ID.
TABLE_CAP = 24576
# A column entry whose subspace id is not known yet.
NO_ID = 0xFFFF

# The subspace table: ids by space basis and reduced rows, and the rows
# and the complement by id.  Words and equal complements are stored
# once, in _words and _complement_values.
_subspace_ids: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
_rows_by_id: list[tuple[int, ...]] = []
_complement_by_id: list[tuple[int, ...]] = []
_words: dict[int, int] = {}
_complement_values: dict[tuple[int, ...], tuple[int, ...]] = {}
# Columns of subspace ids by (space basis, dim U, dim F_C), all of one space.
_columns: dict[tuple[tuple[int, ...], int, int], array] = {}


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
    it is taken as given.  The walker asks through the subspace table,
    ``_subspace``, which calls this once per subspace.
    """
    basis = list(sub_rows)
    comp = []
    for b in space_basis:
        grown = _insert(basis, b)
        if grown is not basis:
            comp.append(grown[-1])
            basis = grown
    return tuple(comp)


def _subspace(
    space: tuple[int, ...], sub_rows: Sequence[int]
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The id, the rows and the complement ``_complement_in(space,
    sub_rows)`` of a subspace in the subspace table; ``space`` is the
    basis of the space and ``sub_rows`` the subspace's reduced basis.

    A new subspace is stored only while the table holds fewer than
    TABLE_CAP entries; past the cap its rows and complement are computed
    and its id is NO_ID.
    """
    rows = tuple(sub_rows)
    ids = _subspace_ids.get(space)
    sid = ids.get(rows) if ids else None
    if sid is not None:
        return sid, _rows_by_id[sid], _complement_by_id[sid]
    rows = tuple([_words.setdefault(w, w) for w in rows])
    comp = tuple([_words.setdefault(w, w) for w in _complement_in(space, rows)])
    comp = _complement_values.setdefault(comp, comp)
    if len(_rows_by_id) >= TABLE_CAP:
        return NO_ID, rows, comp
    sid = len(_rows_by_id)
    _subspace_ids.setdefault(space, {})[rows] = sid
    _rows_by_id.append(rows)
    _complement_by_id.append(comp)
    return sid, rows, comp


class _Unstored:
    """The column of a band longer than TABLE_CAP: nothing is stored."""

    def __getitem__(self, rank: int) -> int:
        return NO_ID

    def __setitem__(self, rank: int, sid: int) -> None:
        pass


def _column(space: tuple[int, ...], a: int, f: int, size: int) -> array | _Unstored:
    """The column of subspace ids of the band (dim U = a, dim F_C = f) of
    a fixed space, one entry per block rank, NO_ID until the block is
    first met.  Columns of an earlier space are dropped when a new space
    gets one, and a band of more than TABLE_CAP blocks gets none."""
    if size > TABLE_CAP:
        return _Unstored()
    key = (space, a, f)
    col = _columns.get(key)
    if col is None:
        if _columns and next(iter(_columns))[0] != space:
            _columns.clear()
        col = _columns[key] = array("H", [NO_ID]) * size
    return col


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
    for *_, fc_rows, lifts, twist_basis, lvals in _invariant_blocks(n, k, involution, start, step):
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
) -> Iterator[tuple[int, tuple, tuple, tuple, tuple, range]]:
    """The blocks (U, F_C) that positions start, start+step, ... below
    ``stop`` (the whole stream when None) of the invariant census meet,
    each once and in stream order, as (block ordinal, U rows, F_C rows,
    lifts, twist basis, twist values).

    The stream walks U, then F_C, then the twist matrix L as a binary
    counter.  In the band dim U = a, position (iU*n_S + iS)*2^(a*t) + L of
    the band holds the iU-th U, its iS-th F_C (of n_S) and twist L; the
    block ordinal numbers the blocks (U, F_C) in stream order, from 0
    below ``_block_count``.  The twist values are the L of the selected
    positions in the block, ``range(l0, 2^(a*t), step)``, clipped in the
    block that holds ``stop``, and the code at twist L is spanned by the
    F_C rows and ``_twist_rows(lifts, twist basis, L)``.  The walk ends
    with the band that holds ``stop``.  Each met block is addressed by
    rank, so a shard costs only the blocks it meets.  A block met before in this process is
    read from the columns and the subspace table (see the module
    docstring): the id of U by U's rank, the id of F_C by the block's
    rank, each a reduced basis plus its complement.  A block met for the
    first time is built and stored: U spanned by an echelon form over
    the 2-cycle vectors, and F_C by the reduced U rows and an echelon
    form over U's quotient.
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
    pos = ordinal = 0
    for a, f, n_u, n_s in _bands(r, d_fix, k):
        block = 1 << (a * (d_fix - f))
        band_end = pos + n_u * n_s * block
        end = min(band_end, stop)
        idx = max(start, start - (start - pos) // step * step)
        u_col = _column(f_basis, a, a, n_u)
        fc_col = _column(f_basis, a, f, n_u * n_s)
        u_at = None
        while idx < end:
            at, l0 = divmod(idx - pos, block)
            lvals = range(l0, min(block, end - idx + l0), step)
            idx += len(lvals) * step
            i_u, i_s = divmod(at, n_s)
            if i_u != u_at:
                sid = u_col[i_u]
                if sid == NO_ID:
                    u_basis = _span_rows(pairvecs, _echelon_at(r, a, i_u))
                    sid, u_rows, quotient = _subspace(f_basis, u_basis)
                    u_col[i_u] = sid
                else:
                    u_rows, quotient = _rows_by_id[sid], _complement_by_id[sid]
                lifts = tuple([x & half for x in u_rows])
                u_at = i_u
            sid = fc_col[at]
            if sid == NO_ID:
                # the U rows are reduced already, so only the s rows go in
                fc_basis = list(u_rows)
                for row in _span_rows(quotient, _echelon_at(d_fix - a, f - a, i_s)):
                    fc_basis = _insert(fc_basis, row)
                fc_basis = sorted(fc_basis, key=lambda r: r & -r)
                sid, fc_rows, twist_basis = _subspace(f_basis, fc_basis)
                fc_col[at] = sid
            else:
                fc_rows, twist_basis = _rows_by_id[sid], _complement_by_id[sid]
            yield ordinal + at, u_rows, fc_rows, lifts, twist_basis, lvals
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
