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
shifted by L(x).

The walk needs two complements per position: one of U, which the F_C
are counted in, and one of F_C, which the twists map into.  Both are
subspaces of the fixed space, which has few (2825 at n = 12 under the
pairing), so each complement is computed once per process and kept in a
module-level table keyed by the fixed-space basis and the subspace rows.
The table stops growing at ``COMPLEMENT_CAP`` entries; past the cap a
complement is computed and not stored.
"""

from __future__ import annotations

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
# Most entries the complement table holds: above the 2825 subspaces of
# the pairing's fixed space at n = 12, and a bound on its memory for an
# involution with a larger fixed space.
COMPLEMENT_CAP = 4096

# Complement of a subspace of a fixed space, by the key of _complement_of.
# Equal complements are stored as one tuple, the one kept in
# _complement_values, which grows only with the table.
_complements: dict[int, tuple[int, ...]] = {}
_complement_values: dict[tuple[int, ...], tuple[int, ...]] = {}


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
    r = len(cycles)
    d_fix = r + len(fixed)
    total = 0
    for a in range(0, min(r, k // 2) + 1):
        f = k - a
        if f > d_fix:
            continue
        total += (
            gaussian_binomial(r, a)
            * gaussian_binomial(d_fix - a, f - a)
            * (1 << (a * (d_fix - f)))
        )
    return total


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
    rows from ``_rref_ints``, and U rows spanned by an echelon form over
    the 2-cycle vectors, whose lowest bits increase with the cycle), so
    it is taken as given.  The walker asks through the complement table,
    ``_complement_of``, which calls this once per subspace.
    """
    basis = list(sub_rows)
    comp = []
    for b in space_basis:
        grown = _insert(basis, b)
        if grown is not basis:
            comp.append(grown[-1])
            basis = grown
    return tuple(comp)


def _space_key(space_basis: Sequence[int]) -> int:
    """Key prefix of a space: a leading 1, then each basis vector in a
    LENGTH_GUARD-bit field, then one empty field.  Basis vectors are
    nonzero, so the empty field marks where the space ends."""
    key = 1
    for b in space_basis:
        key = key << LENGTH_GUARD | b
    return key << LENGTH_GUARD


def _complement_of(
    space_key: int, space_basis: Sequence[int], sub_rows: Sequence[int]
) -> tuple[int, ...]:
    """``_complement_in(space_basis, sub_rows)`` through the complement
    table; ``space_key`` is ``_space_key(space_basis)``.

    The key appends the subspace rows, also in LENGTH_GUARD-bit fields,
    so one int names the pair; every vector fits its field because the
    walker refuses lengths above LENGTH_GUARD.  A complement is stored
    only while the table holds fewer than COMPLEMENT_CAP entries, so an
    involution with a larger fixed space gets the same answers without
    growing the table.
    """
    key = space_key
    for row in sub_rows:
        key = key << LENGTH_GUARD | row
    comp = _complements.get(key)
    if comp is None:
        comp = _complement_in(space_basis, sub_rows)
        if len(_complements) < COMPLEMENT_CAP:
            _complements[key] = comp = _complement_values.setdefault(comp, comp)
    return comp


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
    as the codes spanned by the F_C rows and the twist rows of
    ``_invariant_positions``."""
    for _u_rows, fc_rows, wrows in _invariant_positions(n, k, involution, start, step):
        yield LinearCode(n, _rref_ints(fc_rows + wrows))


def _invariant_positions(
    n: int, k: int, involution: Perm, start: int, step: int
) -> Iterator[tuple[list[int], tuple[int, ...], tuple[int, ...]]]:
    """The (U rows, F_C rows, twist rows) of positions start, start+step,
    ... of the invariant census; the code at a position is spanned by its
    F_C rows and its twist rows.

    The stream walks U, then F_C, then the twist matrix L as a binary
    counter.  In the band dim U = a, position (iU*n_S + iS)*2^(a*t) + L of
    the band holds the iU-th U, its iS-th F_C (of n_S) and twist L.
    Each selected position is addressed by rank, with U and F_C rebuilt
    only when they change, so a shard costs only the codes it yields.
    A sparse shard changes block at almost every position, so U's
    quotient (the complement the F_C are counted in) and F_C's twist
    basis are not recomputed per block: both come from the complement
    table (``_complement_of``), which computes each subspace's
    complement once per process.  When F_C = U the two lookups share
    one entry.
    The U rows are a basis of U = (id + involution)C and the F_C rows are
    the reduced basis of C intersected with the fixed space; both are
    the same objects for as long as the block (U, F_C) does not change.
    """
    if not 0 <= k <= n:
        raise InvalidInput(f"dimension {k} out of range for length {n}")
    if n > LENGTH_GUARD:
        raise TooLarge(f"invariant enumeration limited to length {LENGTH_GUARD}")
    if start < 0 or step < 1:
        raise InvalidInput("need start >= 0 and step >= 1")
    cycles, fixed_pts = _cycles_and_fixed(n, involution)
    pairvecs = [(1 << a) | (1 << b) for a, b in cycles]
    f_basis = pairvecs + [1 << c for c in fixed_pts]
    # x & half is the preimage of x in U under id+involution on the first cycle points
    half = sum(1 << a for a, _b in cycles)
    f_key = _space_key(f_basis)
    r = len(pairvecs)
    d_fix = len(f_basis)
    pos = 0
    for a in range(0, min(r, k // 2) + 1):
        f = k - a
        if f > d_fix:
            continue
        t = d_fix - f
        block = 1 << (a * t)
        n_s = gaussian_binomial(d_fix - a, f - a)
        end = pos + gaussian_binomial(r, a) * n_s * block
        first = max(start, start - (start - pos) // step * step)
        u_at = fc_at = None
        for idx in range(first, end, step):
            at, lval = divmod(idx - pos, block)
            if at != fc_at:
                i_u, i_s = divmod(at, n_s)
                if i_u != u_at:
                    u_rows = _span_rows(pairvecs, _echelon_at(r, a, i_u))
                    quotient = _complement_of(f_key, f_basis, u_rows)
                    lifts = [x & half for x in u_rows]
                    u_at = i_u
                s_rows = _span_rows(quotient, _echelon_at(d_fix - a, f - a, i_s))
                # the U rows are reduced already, so only the s rows go in
                fc_basis = list(u_rows)
                for row in s_rows:
                    fc_basis = _insert(fc_basis, row)
                fc_basis.sort(key=lambda r: r & -r)
                fc_rows = tuple(fc_basis)
                rbasis = _complement_of(f_key, f_basis, fc_rows)
                fc_at = at
            wrows = []
            for lift in lifts:
                add = 0
                for j in range(t):
                    if lval & 1:
                        add ^= rbasis[j]
                    lval >>= 1
                wrows.append(lift ^ add)
            yield u_rows, fc_rows, tuple(wrows)
        pos = end


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
