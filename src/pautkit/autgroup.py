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
and every automorphism is a leaf, so the stream is exact.

``paut`` does not walk every leaf.  It runs the base-image search with
known-subgroup pruning of Leon (J. S. Leon, "Computing automorphism
groups of error-correcting codes", IEEE Trans. IT 28, 1982) bottom up.
Let G_i be the subgroup of G = PAut(C) fixing 0..i-1.  Level i, for i
= n-1 down to 0, keeps Delta_i, the orbit of i under the generators
found so far, all of which fix 0..i-1.  For each candidate t > i with
the weight signature of i and t not in Delta_i, the first leaf of the
subtree that fixes 0..i-1 and sends i to t, if there is one, is an
automorphism in G_i; it becomes a generator and Delta_i is closed
again.  When the level ends, Delta_i is the orbit of i under G_i, and
as the generators of the levels below generate G_(i+1), the stabiliser
of i in G_i, they and the new ones generate G_i.  So |G| is the product
of the |Delta_i|, and the searched subtrees are disjoint subtrees of the
full tree, one per new orbit point rather than one leaf per element.
Two more cuts use the known subgroup H.  The orbit of i under G_i is a
union of H-orbits, so a t that no automorphism reaches rules out its
whole H-orbit.  And for j > i, the first leaf g of a subtree is the
first of its coset g G_j, so g(j) < g(x) for every other x in Delta_j:
a node that sends such an x below the image of j is cut
(``_image_tree``).  Neither cut changes the generators found.

All searches run on the smaller of C and its dual: PAut(C) =
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
pairing sigma = (0,1)(2,3)..., is decided by two tests far smaller
than the full tree, which ``_pairing_only`` runs from the code's census
block entry for the scan and for ``verify.pairing_group_is_everything``
alike:

(a) the centraliser C(sigma) = Z_2 wr S_{n/2} holds no automorphism
    other than the identity and sigma;
(b) no fixed point free involution other than sigma is an automorphism,
    the p = 2 cycle search.

Test (a) is decided per census block, without a search per code.  Every
g in C(sigma) factors uniquely as g = f_x pi: pi is a straight pair
permutation (2p -> 2pi(p), 2p+1 -> 2pi(p)+1), and f_x flips the pairs
in the pair set x, f_x(v) = v + (X & (v + sigma v)), where X reads 11
on the pairs of x.  Write the code as the census does
(``census._invariant_blocks``): U = (id + sigma)C with reduced basis
u_1..u_a, F_C the fixed subcode, and twist rows w_i with w_i + sigma w_i
= u_i, so that C = F_C + <w_1..w_a>.  The flips fix Fix(sigma) >= F_C >=
U pointwise and g commutes with sigma, so g maps U to pi(U) and F_C to
pi(F_C), and g can fix C only if pi lies in K = Stab(U) & Stab(F_C) in
S_{n/2}.  For such pi write pi(u_i) = sum_j c_ij u_j.  Then g(w_i) +
sum_j c_ij w_j is fixed by sigma, and g fixes C exactly when it lies in
F_C for every i.  Apply pi^-1, which keeps F_C; as sum_j c_ij
pi^-1(u_j) = u_i, the condition reads

    d_i = w_i + pi^-1(sum_j c_ij w_j) = X' & u_i  modulo F_C, for every i,

with X' = pi^-1(X).  X' runs over all pair sets as x does, so a flip
completes pi exactly when d mod F_C lies in W, the span of the images
of the flip map x -> (X & u_i mod F_C)_i; ``_residues`` packs both, one
n-bit field per row.  The pi^-1 step leaves one W per block, whatever
pi.  For pi = id, d = 0, and the flips that fix C form the kernel of
the flip map, which always holds the empty set (the identity) and all
pairs (sigma).  So (a) holds exactly when that kernel
has no other element and no pi in K other than the identity has d mod
F_C in W.  The kernel holds both cheap witnesses of
``fixed._cheap_witness``: the flip of a pair that U misses (the
complement witness), and for x in F_C the pair product alpha-x, which
is f_x and fixes the block's codes exactly when x is in the kernel.  So
one entry is the block's whole verdict for (a).  ``_block_entry``
computes the kernel, W and K of a block (U, F_C) (from
``_automorphism_images`` of U as a code of length n/2, filtered by F_C)
and keeps nothing; the census scan keeps it in its memo
(``verify._records``), so it runs once per block per process, and
``_centraliser_fixes`` then costs a few reductions per element of K.

Both tests answer alike on each pair flip class of a block.  A flip f_x
lies in C(sigma) and fixes Fix(sigma) >= F_C >= U pointwise, so f_x C
lies in the same block, with twist rows f_x(w_i) = w_i + (X & u_i) and
twist residues d + phi(x), where d = (w_i mod F_C)_i and phi is the flip
map, whose image is W.  The residues of the codes f_x C thus fill the
coset d + W, and the one word of that coset that is zero at the pivots
of W's reduced basis, the residue of d modulo it, names the class
(``_flip_class``).  And PAut(f_x C) = f_x PAut(C) f_x^-1 with f_x sigma
f_x^-1 = sigma: conjugation by f_x is a bijection of C(sigma) and of the
fixed point free involutions that fixes sigma and the identity, so (a)
and (b) hold for f_x C exactly when they hold for C.  The census scan calls
``_pairing_only`` once per class and keeps the verdict in the same memo
as the entries (``verify._scan_unit``); at n = 12, k = 5..7 the 1280
nonempty entries have 7040 classes, and 1440 of them pass (a).

Why (a) and (b) are exact: let G = PAut(C), with sigma in G.  If (a)
holds, the centraliser of sigma in G is <sigma>, so <sigma> is a Sylow
2-subgroup of G, and by Burnside's normal p-complement theorem G = N x|
<sigma> with N of odd order.  sigma acts on N without fixed points, so
it inverts N, and for n in N with n = m^2 (m in N, as |N| is odd) sigma
n = m^-1 sigma m.  Every n != 1 thus gives a conjugate of sigma other
than sigma, which is a fixed point free involution in G.  Hence G =
<sigma> exactly when (a) and (b) both hold; (b) runs only when (a) does.
The search of (b) is Leon's backtrack (cited above) restricted to
fixed point free involutions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _sym_images
from math import prod
from operator import ne
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidInput, TooLarge
from .gf2 import LinearCode, _insert, _reduce, _rref_ints
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


def _search_side(code: LinearCode):
    """Set-up of the pruned searches, made once per code: (n, k, cols,
    sigs, arc) of the smaller side, with its generator matrix columns,
    its per-coordinate weight signatures and its arc test.  ``arc(a, b,
    fwd, bwd)`` returns the two echelon bases grown by a -> b, or None
    when that arc is inconsistent with the arcs chosen so far."""
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

    return n, k, cols, sigs, arc


def _image_tree(code: LinearCode):
    """The automorphism search tree of the code: (cands, above, below, rec).

    ``cands[i]`` lists, in increasing order, the coordinates with the
    weight signature of i.  ``rec(0, [], [])`` yields every leaf in
    lexicographic order, and ``below(i, t)`` the leaves of the subtree
    whose nodes fix 0..i-1 and send i to t, for t in ``cands[i]``.

    ``above[x]`` starts as () for every x.  A caller that has the orbit
    Delta_j of j under the subgroup fixing 0..j-1 may add j to
    ``above[x]`` for each other point x of Delta_j; the search then
    keeps only the nodes that send x above the image of j.  An
    automorphism g that is the first leaf of its coset g G_j (G_j the
    subgroup fixing 0..j-1) has g(j) < g(x) for every other x in
    Delta_j, so this cuts no first leaf of a subtree below(i, t) with
    i < j.
    """
    n, k, cols, sigs, arc = _search_side(code)
    low_mask = (1 << k) - 1
    cands = [tuple(t for t in range(n) if sigs[t] == sigs[i]) for i in range(n)]
    above: list[tuple[int, ...]] = [()] * n
    images = list(range(n))
    used = [False] * n
    # fixed[i]: the two echelon bases of the identity on 0..i-1
    fixed = [([], [])]

    def rec(i: int, fwd: list[int], bwd: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(images)
            return
        ci = cols[i]
        floor = -1
        for j in above[i]:
            if images[j] > floor:
                floor = images[j]
        for t in cands[i]:
            if used[t] or t < floor:
                continue
            # arc(i, t, fwd, bwd), inlined on the hot path
            f2 = _insert(fwd, cols[t] | ci << k, low_mask)
            if f2 is None:
                continue
            b2 = _insert(bwd, ci | cols[t] << k, low_mask)
            if b2 is None:
                continue
            images[i] = t
            used[t] = True
            yield from rec(i + 1, f2, b2)
            used[t] = False

    def below(i: int, t: int) -> Iterator[tuple[int, ...]]:
        while len(fixed) <= i:
            j = len(fixed) - 1
            fixed.append(arc(j, j, *fixed[j]))
        bases = arc(i, t, *fixed[i])
        if bases is None:
            return
        used[:] = [j < i or j == t for j in range(n)]
        images[:i] = range(i)
        images[i] = t
        yield from rec(i + 1, *bases)

    return cands, above, below, rec


def _automorphism_images(code: LinearCode) -> Iterator[tuple[int, ...]]:
    """All automorphism image tables in lexicographic order."""
    if code.n > LENGTH_GUARD:
        raise TooLarge(f"automorphism search limited to length {LENGTH_GUARD}")
    if code.k in (0, code.n):
        # every permutation
        yield from _sym_images(range(code.n))
        return
    *_, rec = _image_tree(code)
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
    loop terminates.  ``paut`` does not use it; fed ``paut``'s
    generators, it gives an independent check of the order.
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


def _orbit(x: int, gens: Sequence[tuple[int, ...]]) -> set[int]:
    """The orbit of the point x under the group the image tables generate."""
    orbit = [x]
    seen = {x}
    for y in orbit:
        for g in gens:
            z = g[y]
            if z not in seen:
                seen.add(z)
                orbit.append(z)
    return seen


def _base_images(code: LinearCode) -> tuple[list[tuple[int, ...]], list[set[int]]]:
    """(generators, orbits) of PAut(C) by the base-image search of the
    module docstring: ``orbits[i]`` is the orbit of i under the subgroup
    fixing 0..i-1, and the generators found at levels i and above, a
    prefix of the list, generate that subgroup."""
    n = code.n
    cands, above, below, _ = _image_tree(code)
    gens: list[tuple[int, ...]] = []
    orbits: list[set[int]] = [set()] * n
    for i in reversed(range(n)):
        orbit = {i}
        # points no element fixing 0..i-1 sends i to
        refuted: set[int] = set()
        for t in cands[i]:
            if t > i and t not in orbit and t not in refuted:
                g = next(below(i, t), None)
                if g is not None:
                    gens.append(g)
                    orbit = _orbit(i, gens)
                else:
                    # the orbit of i is a union of orbits of the known subgroup
                    refuted |= _orbit(t, gens)
        orbits[i] = orbit
        for x in orbit - {i}:
            above[x] += (i,)
    return gens, orbits


def paut(code: LinearCode) -> PAutReport:
    """Exact order, generators and involution flags of the automorphism group.

    The order is the product of the basic orbit lengths of the
    base-image search (module docstring), and the generators are the
    ones it found, from level n-1 down.  By Cauchy's theorem an
    involution with a fixed point exists iff some point's stabiliser
    has even order |G| / |orbit|; a fixed point free involution is the
    first leaf of the p = 2 cycle search.
    """
    n = code.n
    if n > LENGTH_GUARD:
        raise TooLarge(f"exact PAut limited to length {LENGTH_GUARD}")
    gens, orbits = _base_images(code)
    order = prod(len(orbit) for orbit in orbits)
    has_fix = False
    seen: set[int] = set()
    for x in range(n):
        if x not in seen:
            orbit = _orbit(x, gens)
            seen |= orbit
            has_fix = has_fix or order // len(orbit) % 2 == 0
    has_fpf = n > 0 and n % 2 == 0 and next(_cycle_automorphisms(code, (2,)), None) is not None
    return PAutReport(
        order=order,
        generators=tuple(Perm(g) for g in gens),
        is_cyclic_of_order_2=(order == 2),
        has_fpf_involution=has_fpf,
        has_fixed_point_involution=has_fix,
    )


def _free_closure(gens: list[tuple[int, ...]], n: int) -> frozenset | None:
    """The group the image tables ``gens`` generate, or None as soon as
    it exceeds n elements or holds a non-identity element with a fixed
    point."""
    ident = tuple(range(n))
    elems = {ident}
    queue = [ident]
    for a in queue:
        for s in gens:
            c = _mult(a, s)
            if c not in elems:
                if not all(map(ne, c, ident)):
                    return None
                elems.add(c)
                if len(elems) > n:
                    return None
                queue.append(c)
    return frozenset(elems)


def _has_regular_subgroup(firsts: Callable[[int], list[tuple[int, ...]]], n: int) -> bool:
    """Does the group contain an order-n subgroup all of whose
    non-identity elements are fixed point free (transitive + free)?
    ``firsts(j)`` lists the group's fixed point free elements that send
    0 to j.  The subgroup grows one such element at a time."""
    if n == 1:
        return True
    seen: set[frozenset] = set()

    def grow(sub: frozenset, gens: list[tuple[int, ...]]) -> bool:
        if len(sub) == n:
            return True
        covered = {g[0] for g in sub}
        j = min(x for x in range(n) if x not in covered)
        for g in firsts(j):
            nxt = _free_closure(gens + [g], n)
            if nxt is None or nxt in seen:
                continue
            seen.add(nxt)
            if n % len(nxt) == 0 and grow(nxt, gens + [g]):
                return True
        return False

    return grow(frozenset({tuple(range(n))}), [])


def _transversal(x: int, gens: Sequence[tuple[int, ...]], ident: tuple[int, ...]) -> dict:
    """For each point y of the orbit of x, an element of the group the
    image tables generate that sends x to y."""
    reps = {x: ident}
    queue = [x]
    for y in queue:
        for g in gens:
            z = g[y]
            if z not in reps:
                reps[z] = _mult(reps[y], g)
                queue.append(z)
    return reps


def _fixed_point_free_cosets(
    gens: list[tuple[int, ...]], n: int
) -> Callable[[int], list[tuple[int, ...]]]:
    """firsts(j): the fixed point free elements that send 0 to j of the
    group G generated by ``gens``, for j in the orbit of 0.  ``gens``
    are the generators of ``_base_images``, so those fixing 0..i-1
    generate G_i.  The stabiliser G_0 of 0 is listed once from the
    transversals of levels 1..n-1, and the coset of G_0 that sends 0 to
    j is built when it is first asked for."""
    ident = tuple(range(n))
    # G_i = {h then u : h in G_(i+1), u a transversal element of level i}
    stab = [ident]
    for i in reversed(range(1, n)):
        level = [g for g in gens if g[:i] == ident[:i]]
        reps = _transversal(i, level, ident)
        if len(reps) > 1:
            stab = [_mult(h, u) for u in reps.values() for h in stab]
    top = _transversal(0, gens, ident)
    cosets: dict[int, list[tuple[int, ...]]] = {}

    def firsts(j: int) -> list[tuple[int, ...]]:
        if j not in cosets:
            # h then u moves every point x exactly when h(x) != u^-1(x)
            u = top[j]
            v = _inv(u)
            cosets[j] = [_mult(h, u) for h in stab if all(map(ne, h, v))]
        return cosets[j]

    return firsts


def is_group_code(code: LinearCode) -> bool:
    """True iff some subgroup of PAut acts regularly on the coordinates.

    A regular subgroup is transitive, so the group must be; the
    subgroup search then draws its elements coset by coset
    (``_fixed_point_free_cosets``).
    """
    n = code.n
    if n > GROUP_CODE_GUARD:
        raise TooLarge(f"regular subgroup search limited to length {GROUP_CODE_GUARD}")
    gens, orbits = _base_images(code)
    if n > 1 and len(orbits[0]) < n:
        return False
    return _has_regular_subgroup(_fixed_point_free_cosets(gens, n), n)


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
    Without ``fixed_ok`` a prime p is skipped at once unless it divides
    the size of every signature class: such an element maps each class
    onto itself in p-cycles.
    """
    n, _, _, sigs, arc = _search_side(code)
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

    # without fixed points, the p-cycles split every signature class
    class_sizes = Counter(sigs).values()
    for p in primes:
        if not fixed_ok and any(size % p for size in class_sizes):
            continue
        used[0] = True
        yield from rec(p, 0, 0, 1, [], [])
        used[0] = False


def _residues(n: int, fc_rows: Sequence[int], words: Iterable[int]) -> int:
    """The words reduced modulo F_C, with reduced rows ``fc_rows``, packed
    into one int, one n-bit field per word and the first word highest:
    the layout of the flip map's images, of the twist residues d of test
    (a) and of the flip class key."""
    d = 0
    for w in words:
        d = d << n | _reduce(fc_rows, w)
    return d


def _pair_flip_map(
    n: int, u_rows: Sequence[int], fc_rows: Sequence[int], xs: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Reduced bases of the kernel and of the image of the linear map
    x -> (x & u mod F_C)_u on the span of the pairing-fixed words ``xs``.

    F_C has the reduced rows ``fc_rows``, and an image is the
    ``_residues`` of the words x & u, u in ``u_rows``.  Both bases come
    from one echelon basis of the graph rows image(x) | x << (n a), a =
    len(u_rows), like ``fixed.fixed_subcode``.
    """
    shift = n * len(u_rows)
    graph = [_residues(n, fc_rows, [x & u for u in u_rows]) | x << shift for x in xs]
    low = (1 << shift) - 1
    graph = _rref_ints(graph)
    return [r >> shift for r in graph if not r & low], [r & low for r in graph if r & low]


def _permute_pairs(fields: int, w: int, m: int) -> int:
    """The word w with each of its pairs q < m moved straight to pair
    (fields >> 3q) & 7."""
    out = 0
    for q in range(m):
        out |= (w >> 2 * q & 3) << 2 * (fields >> 3 * q & 7)
    return out


def _block_entry(n: int, u_rows: Sequence[int], fc_rows: Sequence[int]) -> tuple:
    """Test (a) for the census block (U, F_C) of the pairing: U = (id +
    sigma)C with reduced rows ``u_rows``, F_C the fixed subcode with
    reduced rows ``fc_rows``, n even.

    Returns () when a pair flip other than the identity and sigma fixes
    every code of the block; a pair that U misses gives one without the
    flip map, when n >= 4.  Otherwise returns (W, moves) for
    ``_centraliser_fixes``: W is the image basis of ``_pair_flip_map``
    over all pairs, and each move packs one pi in K minus the identity:
    pi^-1 sends pair q to pair (move >> 3q) & 7 for q < n/2, and above
    those 3n/2 bits, bit a*i + j is c_ij, where pi(u_i) = sum_j c_ij u_j
    and a = dim U.  Each call computes the entry afresh; the census scan
    keeps it in the block's record.
    """
    m, a = n // 2, len(u_rows)
    support = 0
    for u in u_rows:
        support |= u
    # (2^n - 1) / 3 sets bit 2p of every pair p
    if m > 1 and ((1 << n) - 1) // 3 & ~support:
        return ()
    kernel, wbasis = _pair_flip_map(n, u_rows, fc_rows, [3 << 2 * p for p in range(m)])
    # the all-ones flip, sigma, is always in the kernel
    if len(kernel) > 1:
        return ()
    # U and F_C as codes of length m, bit p standing for pair p
    pair_u, pair_fc = (
        tuple(sum((r >> 2 * p & 1) << p for p in range(m)) for r in rows)
        for rows in (u_rows, fc_rows)
    )
    pivots = [u & -u for u in u_rows]
    ident = tuple(range(m))
    moves = []
    for imgs in _automorphism_images(LinearCode(m, pair_u)):
        if imgs == ident or any(_reduce(pair_fc, _apply_bits(imgs, r)) for r in pair_fc):
            continue
        forward = sum(q << 3 * p for p, q in enumerate(imgs))
        move = sum(p << 3 * q for p, q in enumerate(imgs))
        for i, u in enumerate(u_rows):
            image = _permute_pairs(forward, u, m)
            for j, pivot in enumerate(pivots):
                if image & pivot:
                    move |= 1 << (3 * m + a * i + j)
        moves.append(move)
    return tuple(wbasis), tuple(moves)


def _centraliser_fixes(
    entry: tuple, n: int, fc_rows: Sequence[int], wrows: Sequence[int]
) -> bool:
    """Whether an element of C(sigma) other than the identity and sigma
    fixes the code spanned by the F_C rows ``fc_rows`` and the twist
    rows ``wrows``, w_i + sigma w_i = u_i, of the census block whose
    ``_block_entry`` is ``entry``.

    f_x pi fixes the code exactly when, for every i, d_i = w_i +
    pi^-1(sum_j c_ij w_j) equals X' & u_i modulo F_C, with X' =
    pi^-1(X); that is when d mod F_C lies in W.  The entry must not be
    empty: ``_pairing_only`` settles the empty entry first.
    """
    wbasis, moves = entry
    m = n // 2
    a = len(wrows)
    for move in moves:
        c = move >> 3 * m
        mixed = []
        for i, w in enumerate(wrows):
            s = 0
            for j, v in enumerate(wrows):
                if c >> a * i + j & 1:
                    s ^= v
            mixed.append(w ^ _permute_pairs(move, s, m))
        if not _reduce(wbasis, _residues(n, fc_rows, mixed)):
            return True
    return False


def _flip_class(wbasis: tuple[int, ...], n: int, fc_rows, wrows) -> int:
    """The residue modulo W, with reduced basis ``wbasis``, of the twist
    residues d = ``_residues`` of ``wrows``: the one word of the coset
    d + W that is zero at the pivots of ``wbasis``.  The coset holds the
    twist residues of every code in the pair flip class of the code (the
    module docstring)."""
    return _reduce(wbasis, _residues(n, fc_rows, wrows))


def _pairing_split(code: LinearCode) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(U rows, F_C rows, twist rows) of a code under the pairing, as the
    census block walk gives them (``census._invariant_blocks`` and
    ``census._twist_rows``): reduced bases of U = (id + sigma)C and of
    the fixed subcode, and for each U row u a codeword w with w + sigma
    w = u.  One echelon basis of the rows (c + sigma c) | c << n holds
    all three, as in ``fixed.fixed_subcode``."""
    n = code.n
    low = (1 << n) - 1
    evens = low // 3
    graph = _rref_ints(
        (c ^ ((c & evens) << 1 | (c >> 1) & evens)) | c << n for c in code.rows
    )
    moving = [r for r in graph if r & low]
    return (
        tuple(r & low for r in moving),
        tuple(r >> n for r in graph if not r & low),
        tuple(r >> n for r in moving),
    )


def _pairing_only(entry: tuple, n: int, fc_rows: Sequence[int], wrows: Sequence[int]) -> bool:
    """Whether PAut is exactly <sigma> for the code spanned by the F_C
    rows ``fc_rows`` and the twist rows ``wrows`` of the census block
    whose ``_block_entry`` is ``entry``: False for the empty entry, else
    test (a), ``_centraliser_fixes``, and only if it passes, test (b),
    ``_other_pairing_involution`` (the module docstring).  A nonempty
    entry past ``LENGTH_GUARD`` raises ``TooLarge``."""
    if not entry:
        return False
    # a move packs each pair into 3 bits, enough for n / 2 <= 8 pairs
    if n > LENGTH_GUARD:
        raise TooLarge(f"automorphism search limited to length {LENGTH_GUARD}")
    if _centraliser_fixes(entry, n, fc_rows, wrows):
        return False
    return not _other_pairing_involution(LinearCode(n, _rref_ints(fc_rows + wrows)))


def _other_pairing_involution(code: LinearCode) -> bool:
    """Test (b) of the module docstring: whether a fixed point free
    involution other than the pairing sigma = (0,1)(2,3)... fixes the
    code, by the p = 2 search of ``_cycle_automorphisms``."""
    sigma = tuple(i ^ 1 for i in range(code.n))
    return any(imgs != sigma for imgs in _cycle_automorphisms(code, (2,)))


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
