"""Exact permutation automorphism groups of binary codes at small length.

The search assigns coordinate images one coordinate at a time, in
lexicographic order.  Two prunes keep the tree small:

* per-coordinate weight signatures: coordinate i can only map to a
  coordinate whose vector of (weight t, bit set) codeword counts is
  identical, a cheap necessary condition;
* linear consistency: the partial pairing of generator-matrix columns
  chosen so far must extend to an invertible change of basis, which is
  tracked incrementally with two small echelon bases over the stacked
  (target column, source column) vectors.

With the consistency prune, every leaf of the tree is an automorphism
and every automorphism is a leaf, so the stream is exact.  Orders of
potentially huge groups are tracked with an incremental Schreier-Sims
stabilizer chain instead of materializing the element set.

Both searches run on the smaller of C and its dual: PAut(C) =
PAut(C-perp), and the prunes are exact, so the two trees have the same
leaves in the same lexicographic order, while the tree of a k = 5 dual
at n = 12 is about ten times cheaper to walk than that of its k = 7
code.

The quasi group test searches a narrower tree with the same two prunes:
fixed point free elements of prime order p, built one p-cycle at a time.
Each cycle starts at the least unassigned point and its members follow
in increasing order, which is the order of
``perm.fixed_point_free_prime_order``.  The prunes cut only subtrees
without automorphisms, so the first leaf is the first automorphism of
that unpruned stream.  For p = 2 this is an involution search in which
choosing i -> j forces j -> i.  The same search, with each cycle's lead
free to stay fixed before it is paired, walks every involution of S_n in
the lexicographic order of ``perm.involutions``; the witness ladder of
``fixed.extra_automorphism_with_path`` takes its first leaf other than
the identity and sigma as its last rung.

Whether PAut(C) is exactly <sigma>, for a code invariant under the
pairing sigma = (0,1)(2,3)..., is decided by two searches far smaller
than the full tree (``_group_is_pairing``):

(a) the centraliser C(sigma) = Z_2 wr S_{n/2} holds no automorphism
    other than the identity and sigma.  Its search maps one pair at a
    time onto a free pair, straight or crossed, so its tree has at most
    2^(n/2) (n/2)! leaves (46080 at n = 12, against 12!);
(b) no fixed point free involution other than sigma is an automorphism,
    the p = 2 cycle search.

Why this is exact: let G = PAut(C), with sigma in G.  If (a) holds, the
centraliser of sigma in G is <sigma>, so <sigma> is a Sylow 2-subgroup
of G, and by Burnside's normal p-complement theorem G = N x| <sigma>
with N of odd order.  sigma acts on N without fixed points, so it
inverts N, and for n in N with n = m^2 (m in N, as |N| is odd) sigma n =
m^-1 sigma m.  Every n != 1 thus gives a conjugate of sigma other than
sigma, which is a fixed point free involution in G.  Hence G = <sigma>
exactly when (a) and (b) both hold; (b) runs only when (a) does.  The
search is Leon's backtrack (J. S. Leon, "Computing automorphism groups
of error-correcting codes", IEEE Trans. IT 28, 1982) restricted to the
centraliser.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _sym_images
from math import factorial
from struct import Struct
from typing import Iterable, Iterator

from .errors import InvalidInput, TooLarge
from .gf2 import LinearCode, _insert, _reduce
from .perm import Perm, _apply_bits, _inv, _mult

LENGTH_GUARD = 12
GROUP_CODE_GUARD = 8


def is_automorphism(code: LinearCode, p: Perm) -> bool:
    """True iff the coordinate permutation maps the code onto itself."""
    if len(p.images) != code.n:
        raise InvalidInput("length mismatch")
    return all(not _reduce(code.rows, _apply_bits(p.images, row)) for row in code.rows)


@lru_cache(maxsize=None)
def _lane_tables(n: int):
    """(h, lo, hi, unpack) for n coordinates, with h = ceil(n/2).

    An accumulator holds one 16-bit lane per coordinate.  lo[x] has a 1
    in lane i for each bit i of x < 2^h, hi[x] has a 1 in lane h + i for
    each bit i of x < 2^(n-h), and ``unpack`` reads the n lanes of an
    accumulator's little-endian bytes.
    """
    h = (n + 1) // 2
    lo = [0] * (1 << h)
    for x in range(1, 1 << h):
        low = x & -x
        lo[x] = lo[x ^ low] | 1 << (16 * (low.bit_length() - 1))
    shift = 16 * h
    hi = tuple(v << shift for v in lo[: 1 << (n - h)])
    return h, tuple(lo), hi, Struct(f"<{n}H").unpack


def _weight_signatures(code: LinearCode) -> list[tuple[int, ...]]:
    """For each coordinate, the per-weight counts of codewords with a 1 there.

    Each codeword adds its two half-word table values to the accumulator
    of its weight, so one addition counts all its coordinates.  A count
    is at most 2^(k-1), so the 16-bit lanes hold for k <= 16.
    """
    n = code.n
    h, lo, hi, unpack = _lane_tables(n)
    mask = (1 << h) - 1
    acc = [0] * (n + 1)
    for bits in code._codeword_bits():
        acc[bits.bit_count()] += lo[bits & mask] + hi[bits >> h]
    return list(zip(*(unpack(a.to_bytes(2 * n, "little")) for a in acc)))


def _columns(code: LinearCode) -> list[int]:
    """Generator matrix columns as k-bit ints (bit r = row r's entry)."""
    cols = [0] * code.n
    for r, row in enumerate(code.rows):
        b = row
        while b:
            low = b & -b
            cols[low.bit_length() - 1] |= 1 << r
            b ^= low
    return cols


def _smaller_side(code: LinearCode) -> LinearCode:
    """The code or its dual, whichever has the smaller dimension.

    PAut(C) = PAut(C-perp), and both searches walk the same tree of
    image tables with exact prunes, so they yield the same stream; the
    tree of the smaller dimension is the cheaper one to walk.
    """
    return code.dual() if 2 * code.k > code.n else code


def _automorphism_images(code: LinearCode) -> Iterator[tuple[int, ...]]:
    """All automorphism image tables in lexicographic order."""
    if code.n > LENGTH_GUARD:
        raise TooLarge(f"automorphism search limited to length {LENGTH_GUARD}")
    code = _smaller_side(code)
    n, k = code.n, code.k
    if k == 0:
        yield from _sym_images(range(n))
        return

    cols = _columns(code)
    sigs = _weight_signatures(code)
    cands = [
        tuple(t for t in range(n) if sigs[t] == sigs[i]) for i in range(n)
    ]
    low_mask = (1 << k) - 1
    images = [0] * n
    used = [False] * n

    def rec(i: int, fwd: list[int], bwd: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(images)
            return
        ci = cols[i]
        for t in cands[i]:
            if used[t]:
                continue
            f2 = _insert(fwd, cols[t] | (ci << k), low_mask)
            if f2 is None:
                continue
            b2 = _insert(bwd, ci | (cols[t] << k), low_mask)
            if b2 is None:
                continue
            images[i] = t
            used[t] = True
            yield from rec(i + 1, f2, b2)
            used[t] = False

    yield from rec(0, [], [])


def automorphisms(code: LinearCode) -> Iterator[Perm]:
    """Stream the full automorphism group, lexicographically by image table."""
    for imgs in _automorphism_images(code):
        yield Perm(imgs)


def find_automorphism_outside(
    code: LinearCode, allowed: Iterable[Perm]
) -> Perm | None:
    """First automorphism (in lexicographic order) not in ``allowed``."""
    skip = {p.images for p in allowed}
    for imgs in _automorphism_images(code):
        if imgs not in skip:
            return Perm(imgs)
    return None


class StabilizerChain:
    """Incremental Schreier-Sims structure over the fixed base 0..n-1.

    Exact membership tests and order computation for subgroups of S_n
    fed one element at a time; fine for the tiny degrees used here.
    Level i uses every strong generator fixing the points below i, and
    a rebuild runs until every Schreier generator sifts to the
    identity; each appended residue strictly grows some orbit, so the
    loop terminates.
    """

    def __init__(self, n: int):
        self.n = n
        self.identity = tuple(range(n))
        self.strong: list[tuple[int, ...]] = []
        self.trans: list[dict[int, tuple[int, ...]]] = [
            {i: self.identity} for i in range(n)
        ]

    def order(self) -> int:
        out = 1
        for t in self.trans:
            out *= len(t)
        return out

    def _strip(self, g: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        for i in range(self.n):
            x = g[i]
            if x == i:
                continue
            t = self.trans[i].get(x)
            if t is None:
                return g, i
            g = _mult(g, _inv(t))
        return g, self.n

    def contains(self, g: tuple[int, ...]) -> bool:
        return self._strip(g)[1] == self.n

    def add(self, g: tuple[int, ...]) -> bool:
        """Sift in a permutation; True if the group grew."""
        h, lvl = self._strip(g)
        if lvl == self.n:
            return False
        self.strong.append(h)
        self._rebuild()
        return True

    def _level_gens(self, lvl: int) -> list[tuple[int, ...]]:
        return [
            g for g in self.strong if all(g[i] == i for i in range(lvl))
        ]

    def _rebuild(self) -> None:
        n = self.n
        while True:
            level_gens = [self._level_gens(lvl) for lvl in range(n)]
            for lvl in range(n):
                T = {lvl: self.identity}
                queue = [lvl]
                qi = 0
                while qi < len(queue):
                    x = queue[qi]
                    qi += 1
                    tx = T[x]
                    for s in level_gens[lvl]:
                        y = s[x]
                        if y not in T:
                            T[y] = _mult(tx, s)
                            queue.append(y)
                self.trans[lvl] = T
            fresh = None
            for lvl in range(n):
                T = self.trans[lvl]
                for x in sorted(T):
                    tx = T[x]
                    for s in level_gens[lvl]:
                        r = _mult(_mult(tx, s), _inv(T[s[x]]))
                        h, m = self._strip(r)
                        if m != n:
                            fresh = h
                            break
                    if fresh:
                        break
                if fresh:
                    break
            if fresh is None:
                return
            self.strong.append(fresh)


@dataclass(frozen=True)
class PAutReport:
    """Summary of a full automorphism group computation."""

    order: int
    generators: tuple[Perm, ...]
    is_cyclic_of_order_2: bool
    has_fpf_involution: bool
    has_fixed_point_involution: bool


def _symmetric_report(n: int) -> PAutReport:
    gens: list[Perm] = []
    if n >= 2:
        gens.append(Perm(tuple([1, 0] + list(range(2, n)))))
    if n >= 3:
        gens.append(Perm(tuple(list(range(1, n)) + [0])))
    return PAutReport(
        order=factorial(n),
        generators=tuple(gens),
        is_cyclic_of_order_2=(n == 2),
        has_fpf_involution=(n >= 2 and n % 2 == 0),
        has_fixed_point_involution=(n >= 3),
    )


def _stabilizer_report(n: int, row: int) -> PAutReport:
    """Group fixing a single nonzero word: independent shuffles of its
    support and of its complement."""
    support = [i for i in range(n) if row >> i & 1]
    rest = [i for i in range(n) if not row >> i & 1]
    gens: list[Perm] = []
    for part in (support, rest):
        if len(part) >= 2:
            imgs = list(range(n))
            imgs[part[0]], imgs[part[1]] = part[1], part[0]
            gens.append(Perm(tuple(imgs)))
        if len(part) >= 3:
            imgs = list(range(n))
            for a, b in zip(part, part[1:] + part[:1]):
                imgs[a] = b
            gens.append(Perm(tuple(imgs)))
    d = len(support)
    order = factorial(d) * factorial(n - d)
    return PAutReport(
        order=order,
        generators=tuple(gens),
        is_cyclic_of_order_2=(order == 2),
        has_fpf_involution=(d % 2 == 0 and (n - d) % 2 == 0),
        has_fixed_point_involution=(n >= 3 and max(d, n - d) >= 2),
    )


def paut(code: LinearCode) -> PAutReport:
    """Exact order, generators and involution flags of the automorphism group.

    Runs the full search for 2 <= k <= n-2 (and for every k at n <= 8,
    so the search itself is exercised against closed forms there).  The
    degenerate dimensions at larger n use closed forms because those
    groups can have order near n!.
    """
    n, k = code.n, code.k
    if n > LENGTH_GUARD:
        raise TooLarge(f"exact PAut limited to length {LENGTH_GUARD}")
    if n > 8 and k in (0, n):
        return _symmetric_report(n)
    if n > 8 and k in (1, n - 1):
        # PAut(C) = PAut(dual(C)), so the co-dimension-1 case reduces to
        # the stabilizer of the dual's single generator
        row = (code if k == 1 else code.dual()).rows[0]
        return _stabilizer_report(n, row)

    chain = StabilizerChain(n)
    gens: list[Perm] = []
    count = 0
    has_fpf = False
    has_fix = False
    ident = tuple(range(n))
    for imgs in _automorphism_images(code):
        count += 1
        if imgs != ident and all(imgs[x] == i for i, x in enumerate(imgs)):
            if all(x != i for i, x in enumerate(imgs)):
                has_fpf = True
            else:
                has_fix = True
        if not chain.contains(imgs):
            chain.add(imgs)
            gens.append(Perm(imgs))
    if chain.order() != count:
        raise RuntimeError("stabilizer chain disagrees with the element stream")
    return PAutReport(
        order=count,
        generators=tuple(gens),
        is_cyclic_of_order_2=(count == 2),
        has_fpf_involution=has_fpf,
        has_fixed_point_involution=has_fix,
    )


def _free_closure(
    base: frozenset, gen: tuple[int, ...], n: int, cap: int
) -> frozenset | None:
    """Closure of base + {gen} under composition, rejected (None) as soon
    as it exceeds ``cap`` elements or contains a non-identity element
    with a fixed point."""
    ident = tuple(range(n))
    elems = set(base)
    elems.add(gen)
    if len(elems) > cap:
        return None
    changed = True
    while changed:
        changed = False
        cur = list(elems)
        for a in cur:
            for b in cur:
                c = _mult(a, b)
                if c not in elems:
                    if c != ident and any(c[i] == i for i in range(n)):
                        return None
                    elems.add(c)
                    if len(elems) > cap:
                        return None
                    changed = True
    return frozenset(elems)


def _has_regular_subgroup(elements: list[tuple[int, ...]], n: int) -> bool:
    """Does the listed group contain an order-n subgroup all of whose
    non-identity elements are fixed point free (transitive + free)?"""
    if n == 1:
        return True
    ident = tuple(range(n))
    by_first: dict[int, list[tuple[int, ...]]] = {}
    for g in elements:
        if all(g[i] != i for i in range(n)):
            by_first.setdefault(g[0], []).append(g)
    if any(j not in by_first for j in range(1, n)):
        return False
    seen: set[frozenset] = set()

    def grow(sub: frozenset) -> bool:
        if len(sub) == n:
            return True
        covered = {g[0] for g in sub}
        j = min(x for x in range(n) if x not in covered)
        for g in by_first[j]:
            nxt = _free_closure(sub, g, n, n)
            if nxt is None or nxt in seen:
                continue
            seen.add(nxt)
            if n % len(nxt) == 0 and grow(nxt):
                return True
        return False

    return grow(frozenset({ident}))


def is_group_code(code: LinearCode) -> bool:
    """True iff some subgroup of PAut acts regularly on the coordinates."""
    n = code.n
    if n > GROUP_CODE_GUARD:
        raise TooLarge(f"regular subgroup search limited to length {GROUP_CODE_GUARD}")
    return _has_regular_subgroup(list(_automorphism_images(code)), n)


def _primes_dividing(n: int) -> list[int]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _search_side(code: LinearCode):
    """Set-up shared by the pruned searches, made once per code: the
    length, the per-coordinate weight signatures of the smaller side,
    and its arc test.  ``arc(a, b, fwd, bwd)`` returns the two echelon
    bases of ``_automorphism_images`` grown by a -> b, or None when that
    arc is inconsistent with the arcs chosen so far."""
    code = _smaller_side(code)
    n, k = code.n, code.k
    cols = _columns(code)
    # every coordinate has the same signature when k is 0
    sigs = [()] * n if k == 0 else _weight_signatures(code)
    low_mask = (1 << k) - 1

    def arc(a: int, b: int, fwd: list[int], bwd: list[int]):
        f2 = _insert(fwd, cols[b] | (cols[a] << k), low_mask)
        if f2 is None:
            return None
        b2 = _insert(bwd, cols[a] | (cols[b] << k), low_mask)
        if b2 is None:
            return None
        return f2, b2

    return n, sigs, arc


def _cycle_automorphisms(
    code: LinearCode, primes: Iterable[int], fixed_ok: bool = False
) -> Iterator[tuple[int, ...]]:
    """Image tables of the automorphisms built from p-cycles, p in primes.

    For each p in the given order the search walks the tree of
    ``perm.fixed_point_free_prime_order``: a cycle starts at the least
    unassigned point and its members are chosen in increasing order from
    the remaining points.  With ``fixed_ok`` a cycle's lead may first
    close on itself, a fixed point, before it is extended; for p = 2 this
    is the tree of ``perm.involutions``, whose leaves are every involution
    in lexicographic order, preceded by the identity.  Each arc a -> b is
    pruned when chosen, by the weight signatures and by the two echelon
    inserts of ``_automorphism_images``.  A prune cuts only subtrees
    without automorphisms and every surviving leaf is one, so this yields
    exactly the automorphisms of the unpruned stream, in its order.
    """
    return _cycle_search(_search_side(code), primes, fixed_ok)


def _cycle_search(
    side, primes: Iterable[int], fixed_ok: bool = False
) -> Iterator[tuple[int, ...]]:
    # the search of _cycle_automorphisms on a prepared _search_side
    n, sigs, arc = side
    images = [0] * n
    used = [False] * n

    def rec(
        p: int, lead: int, last: int, length: int, fwd: list[int], bwd: list[int]
    ) -> Iterator[tuple[int, ...]]:
        # the open cycle runs from lead to last and holds `length` points
        if length == p or fixed_ok and length == 1:
            # close the cycle on its lead; a lone lead becomes a fixed point
            bases = arc(last, lead, fwd, bwd)
            if bases is not None:
                images[last] = lead
                nxt = next((x for x in range(lead + 1, n) if not used[x]), None)
                if nxt is None:
                    yield tuple(images)
                else:
                    used[nxt] = True
                    yield from rec(p, nxt, nxt, 1, *bases)
                    used[nxt] = False
            if length == p:
                return
        for b in range(lead + 1, n):
            if used[b] or sigs[b] != sigs[lead]:
                continue
            bases = arc(last, b, fwd, bwd)
            if bases is None:
                continue
            images[last] = b
            used[b] = True
            yield from rec(p, lead, b, length + 1, *bases)
            used[b] = False

    for p in primes:
        used[0] = True
        yield from rec(p, 0, 0, 1, [], [])
        used[0] = False


def _centraliser_automorphisms(code: LinearCode) -> Iterator[tuple[int, ...]]:
    """Image tables of the automorphisms that commute with the pairing
    sigma = (0,1)(2,3)..., in lexicographic order.

    These are the elements of C(sigma) = Z_2 wr S_{n/2} that fix the
    code.  The search takes one step per pair: pair p goes to a free
    pair q, straight (2p -> 2q, 2p+1 -> 2q+1) or crossed (2p -> 2q+1,
    2p+1 -> 2q), with q increasing and straight first.  Both arcs of a
    step are pruned like those of ``_cycle_automorphisms``.
    """
    return _centraliser_search(_search_side(code))


def _centraliser_search(side) -> Iterator[tuple[int, ...]]:
    # the search of _centraliser_automorphisms on a prepared _search_side
    n, sigs, arc = side
    if n % 2:
        raise InvalidInput("the pairing involution needs even length")
    m = n // 2
    images = [0] * n
    used = [False] * m

    def rec(p: int, fwd: list[int], bwd: list[int]) -> Iterator[tuple[int, ...]]:
        if p == m:
            yield tuple(images)
            return
        a0, a1 = 2 * p, 2 * p + 1
        s0, s1 = sigs[a0], sigs[a1]
        for q in range(m):
            if used[q]:
                continue
            for b0, b1 in ((2 * q, 2 * q + 1), (2 * q + 1, 2 * q)):
                if sigs[b0] != s0 or sigs[b1] != s1:
                    continue
                bases = arc(a0, b0, fwd, bwd)
                if bases is None:
                    continue
                bases = arc(a1, b1, *bases)
                if bases is None:
                    continue
                images[a0], images[a1] = b0, b1
                used[q] = True
                yield from rec(p + 1, *bases)
                used[q] = False

    return rec(0, [], [])


def _group_is_pairing(code: LinearCode) -> bool:
    """Whether PAut(C) is exactly {identity, sigma}, for a code invariant
    under the pairing sigma = (0,1)(2,3)...

    Runs test (a) of the module docstring, the centraliser search, and
    only when it finds nothing but the identity and sigma, test (b), the
    fixed point free involution search.  Both share one set-up.  The
    answer equals ``find_automorphism_outside(code, (id, sigma)) is
    None``; it is not meaningful for a code that sigma does not fix.
    """
    n = code.n
    if n > LENGTH_GUARD:
        raise TooLarge(f"automorphism search limited to length {LENGTH_GUARD}")
    side = _search_side(code)
    ident = tuple(range(n))
    sigma = tuple(i ^ 1 for i in range(n))
    if any(imgs != ident and imgs != sigma for imgs in _centraliser_search(side)):
        return False
    return all(imgs == sigma for imgs in _cycle_search(side, (2,)))


def quasi_group_witness(code: LinearCode) -> Perm | None:
    """A fixed point free prime-order automorphism, if one exists.

    Such an element generates a nontrivial free subgroup, and every
    nontrivial free subgroup contains one, so this decides the quasi
    group property exactly.  The witness is the first automorphism of
    ``perm.fixed_point_free_prime_order(n, p)`` over the primes p | n in
    increasing order; the pruned cycle search of ``_cycle_automorphisms``
    finds that same element without testing the candidates one by one.
    """
    n = code.n
    if n > LENGTH_GUARD:
        raise TooLarge(f"quasi group test limited to length {LENGTH_GUARD}")
    for imgs in _cycle_automorphisms(code, _primes_dividing(n)):
        return Perm(imgs)
    return None


def is_quasi_group_code(code: LinearCode) -> bool:
    """True iff PAut contains a nontrivial free (semiregular) subgroup."""
    return quasi_group_witness(code) is not None
