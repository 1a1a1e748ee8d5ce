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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator, Sequence

from .errors import InvalidInput, TooLarge
from .gf2 import EchelonBasis, LinearCode, _rref_ints
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


def _echelon_forms(d: int, k: int) -> Iterator[list[int]]:
    """Row masks of every k-dimensional reduced row echelon form over d
    coordinates, in the order documented at enumerate_subspaces."""
    for pivots in combinations(range(d), k):
        pivset = frozenset(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, d)
            if j not in pivset
        ]
        base = [1 << p for p in pivots]
        for val in range(1 << len(free)):
            rows = base.copy()
            v = val
            for i, j in free:
                if v & 1:
                    rows[i] |= 1 << j
                v >>= 1
            yield rows


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


def _subspaces_of(basis: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    """Representative bases of the k-dimensional subspaces of the span.

    The basis rows must be independent; representatives are the echelon
    forms over the abstract coordinates mapped through the basis, so
    each subspace appears exactly once with a deterministic basis.
    """
    for abstract in _echelon_forms(len(basis), k):
        rows = []
        for a in abstract:
            vec = 0
            b = a
            while b:
                low = b & -b
                vec ^= basis[low.bit_length() - 1]
                b ^= low
            rows.append(vec)
        yield tuple(rows)


def _complement_in(space_basis: Sequence[int], sub_rows: Sequence[int]) -> tuple[int, ...]:
    """A deterministic basis of a complement of the subspace inside the space."""
    ech = EchelonBasis(sub_rows)
    comp = []
    for b in space_basis:
        reduced = ech.add(b)
        if reduced is not None:
            comp.append(reduced)
    return tuple(comp)


def _half_cycle_lift(bits: int, cycles: Sequence[tuple[int, int]]) -> int:
    # preimage under id+involution supported on the first point of each cycle
    out = 0
    for a, _b in cycles:
        if bits >> a & 1:
            out |= 1 << a
    return out


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
    """Stream positions start, start+step, ... of the invariant census.

    The walk visits U, then F_C, then the twist matrix L as a binary
    counter.  Whole twist-matrix blocks that contain no selected
    position are skipped without building codes, so sparse arithmetic
    shards of a large census cost little more than the codes they
    actually yield.
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
    r = len(pairvecs)
    d_fix = len(f_basis)
    pos = 0
    for a in range(0, min(r, k // 2) + 1):
        f = k - a
        if f > d_fix:
            continue
        t = d_fix - f
        block = 1 << (a * t)
        for u_rows in _subspaces_of(pairvecs, a):
            quotient = _complement_in(f_basis, u_rows)
            lifts = [_half_cycle_lift(x, cycles) for x in u_rows]
            for s_rows in _subspaces_of(quotient, f - a):
                if pos > start:
                    first = start - (-(pos - start) // step) * step
                else:
                    first = start
                if first >= pos + block:
                    pos += block
                    continue
                fc_rows = _rref_ints(list(u_rows) + list(s_rows))
                rbasis = _complement_in(f_basis, fc_rows)
                for idx in range(first, pos + block, step):
                    lval = idx - pos
                    wrows = []
                    v = lval
                    for lift in lifts:
                        add = 0
                        for j in range(t):
                            if v & 1:
                                add ^= rbasis[j]
                            v >>= 1
                        wrows.append(lift ^ add)
                    yield LinearCode(n, _rref_ints(list(fc_rows) + wrows))
                pos += block


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
    and their union is the full stream.  Invariant shards skip the
    twist-matrix blocks that hold none of their positions.
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
