"""Fixed subcodes under involutions and constructive witness permutations.

Throughout, ``sigma`` is the canonical pairing involution
(1,2)(3,4)...(n-1,n): a word is fixed by it exactly when it reads equal
bits on every coordinate pair (2p, 2p+1).  Pair indices p are 0-based
internally and print as the 1-based odd coordinate 2p+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .autgroup import LENGTH_GUARD, _cycle_automorphisms, is_automorphism
from .errors import InvalidInput, NotFixed, NotInvariant, TooLarge
from .gf2 import LinearCode, Word, _insert, _rref_ints
from .perm import Perm, _apply_bits, from_transpositions, pair_product


@dataclass(frozen=True, slots=True)
class TSet:
    """Set of pair indices where a pairing-fixed word reads 11."""

    pairs: frozenset[int]

    def __str__(self) -> str:
        return "{" + ", ".join(str(2 * p + 1) for p in sorted(self.pairs)) + "}"

    def __or__(self, other: "TSet") -> "TSet":
        return TSet(self.pairs | other.pairs)

    def __le__(self, other: "TSet") -> bool:
        return self.pairs <= other.pairs

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True, slots=True)
class FixedDecomposition:
    """Splitting of an invariant code into its fixed subcode and a
    complement, together with the pair-sum images of the complement."""

    fixed: LinearCode
    complement_basis: tuple[Word, ...]
    x_list: tuple[Word, ...]


def _require_canonical_sigma(sigma: Perm) -> int:
    n = sigma.n
    if n == 0 or n % 2:
        raise InvalidInput("canonical pairing involution needs positive even length")
    imgs = sigma.images
    for p in range(n // 2):
        if imgs[2 * p] != 2 * p + 1 or imgs[2 * p + 1] != 2 * p:
            raise InvalidInput("permutation is not the canonical pairing involution")
    return n


def _pair_support(bits: int, m: int) -> frozenset[int]:
    return frozenset(p for p in range(m) if bits >> (2 * p) & 1)


def fixed_subcode(code: LinearCode, p: Perm) -> LinearCode:
    """Subcode of words fixed coordinatewise by p.

    Computed as the kernel of (id + p) restricted to the code; p need
    not be an automorphism of the code.  The rows (c + c^p) | c << n
    over the generators c span the graph of id + p on the code; the rows
    of its reduced basis that are zero below bit n are, shifted down,
    the reduced basis of the kernel.
    """
    n = code.n
    if len(p.images) != n:
        raise InvalidInput("length mismatch")
    imgs = p.images
    graph = _rref_ints((c ^ _apply_bits(imgs, c)) | c << n for c in code.rows)
    low = (1 << n) - 1
    return LinearCode(n, tuple(r >> n for r in graph if not r & low))


def t_set(x: Word, sigma: Perm) -> TSet:
    """Pairs where x reads 11; x must be fixed by the canonical sigma."""
    n = _require_canonical_sigma(sigma)
    if x.n != n:
        raise InvalidInput("length mismatch")
    if _apply_bits(sigma.images, x.bits) != x.bits:
        raise NotFixed(f"word {x} is not fixed by the pairing involution")
    return TSet(_pair_support(x.bits, n // 2))


def alpha_x(x: Word, sigma: Perm) -> Perm:
    """Product of pair transpositions over the 11-pairs of x.

    For any w whose pair flips cover the pairs of x (the pair support of
    w + w^sigma contains that of x), applying the result to w adds x.
    """
    ts = t_set(x, sigma)
    if x.bits == 0:
        raise InvalidInput("zero word would give the identity, not an involution")
    return pair_product(x.n, ts.pairs)


def decompose(code: LinearCode, sigma: Perm) -> FixedDecomposition:
    """Deterministic fixed/complement splitting of an invariant code.

    The complement is chosen greedily: generator rows are scanned in
    echelon order and kept while independent of the fixed subcode plus
    the rows already kept.
    """
    n = _require_canonical_sigma(sigma)
    if code.n != n:
        raise InvalidInput("length mismatch")
    if not is_automorphism(code, sigma):
        raise NotInvariant("code is not invariant under the pairing involution")
    fixed = fixed_subcode(code, sigma)
    basis = list(fixed.rows)
    kept: list[int] = []
    for row in code.rows:
        grown = _insert(basis, row)
        if grown is not basis:
            kept.append(row)
            basis = grown
    x_list = [row ^ _apply_bits(sigma.images, row) for row in kept]
    return FixedDecomposition(
        fixed,
        tuple(Word(n, r) for r in kept),
        tuple(Word(n, x) for x in x_list),
    )


def t_sigma(code: LinearCode, sigma: Perm) -> TSet:
    """Pair support of the image of the code under id + sigma.

    Equals the union of ``t_set`` over the x-vectors of any
    fixed/complement decomposition, so it does not depend on the
    complement choice.
    """
    n = _require_canonical_sigma(sigma)
    if code.n != n:
        raise InvalidInput("length mismatch")
    if not is_automorphism(code, sigma):
        raise NotInvariant("code is not invariant under the pairing involution")
    acc = 0
    for row in code.rows:
        acc |= row ^ _apply_bits(sigma.images, row)
    return TSet(_pair_support(acc, n // 2))


def fixed_point_witness(code: LinearCode, sigma: Perm) -> Perm | None:
    """A non-sigma automorphism with fixed points, when the pair support
    of (id + sigma)C is not all pairs; None when it is.

    The witness is the pair-transposition product over the unsupported
    pairs.  It fixes the code pointwise, differs from sigma, has at
    least two fixed points, and generates a Klein four group with sigma.
    A wholly fixed code would make that product sigma itself, so the
    single transposition on the first pair is returned instead (it also
    fixes the code pointwise).
    """
    n = _require_canonical_sigma(sigma)
    if n < 4:
        raise InvalidInput("witness construction needs length at least 4")
    return _support_complement(n, t_sigma(code, sigma))


def _support_complement(n: int, ts: TSet) -> Perm | None:
    # the fixed_point_witness construction from a known T(sigma)
    m = n // 2
    if len(ts.pairs) == m:
        return None
    if not ts.pairs:
        return pair_product(n, (0,))
    return pair_product(n, set(range(m)) - ts.pairs)


def _cheap_witness(code: LinearCode, sigma: Perm) -> tuple[Perm, str] | None:
    """The cheap rungs of the witness ladder, with the name of the rung
    that produced the witness; None when both fail.

    First the validated complement witness when the pair support is not
    full (length at least 4), then the pair products alpha-x over the
    nonzero fixed words in increasing order.  Raises like ``t_sigma``
    when the code is not invariant under the canonical sigma.  Both
    witnesses are pair flips in the kernel of the code's block entry,
    ``autgroup._block_entry``, so a code this settles has group larger
    than <sigma> by ``verify.pairing_group_is_everything`` too.
    """
    n = code.n
    ts = t_sigma(code, sigma)
    w = _support_complement(n, ts) if n >= 4 else None
    if w is not None:
        if not is_automorphism(code, w):
            raise RuntimeError("fixed point witness failed validation")
        return w, "T(sigma)-complement" if ts.pairs else "pointwise-fixing pair"
    fs = fixed_subcode(code, sigma)
    for xb in sorted(bits for bits in fs._codeword_bits() if bits):
        a = alpha_x(Word(n, xb), sigma)
        if a != sigma and is_automorphism(code, a):
            return a, "alpha-x"
    return None


def _pair_bit(bits: int, p: int) -> int:
    # value of the first coordinate of pair p
    return bits >> (2 * p) & 1


def _dim4_case_candidates(
    code: LinearCode, sigma: Perm
) -> list[tuple[Perm, str]]:
    """Involution candidates from the case analysis for 4-dimensional
    codes whose fixed subcode has dimension 2 and whose x-vectors cover
    every pair.  Candidates are generated deterministically and must be
    verified by the caller."""
    dec = decompose(code, sigma)
    if len(dec.x_list) != 2:
        return []
    n = code.n
    m = n // 2
    x0, y0 = dec.x_list[0].bits, dec.x_list[1].bits
    w0, u0 = dec.complement_basis[0].bits, dec.complement_basis[1].bits
    out: list[tuple[Perm, str]] = []

    union = _pair_support(x0 | y0, m)
    if union != frozenset(range(m)):
        out.append((pair_product(n, union), "pair product over the union support"))

    for x, w, y, u in ((x0, w0, y0, u0), (y0, u0, x0, w0)):
        tx = _pair_support(x, m)
        ty = _pair_support(y, m)
        inter = sorted(tx & ty)
        dx = sorted(tx - ty)
        for i, j in combinations(inter, 2):
            ui, uj = _pair_bit(u, i), _pair_bit(u, j)
            wi, wj = _pair_bit(w, i), _pair_bit(w, j)
            if ui == uj and wi != wj and len(dx) == 1:
                k0 = dx[0]
                out.append(
                    (
                        from_transpositions(
                            n,
                            [(2 * k0, 2 * k0 + 1), (2 * i, 2 * j), (2 * i + 1, 2 * j + 1)],
                        ),
                        "swapped pair with a matched double transposition",
                    )
                )
            if ui == uj and wi == wj:
                out.append(
                    (
                        from_transpositions(n, [(2 * i, 2 * j), (2 * i + 1, 2 * j + 1)]),
                        "straight double transposition",
                    )
                )
            if ui != uj and wi != wj:
                out.append(
                    (
                        from_transpositions(n, [(2 * i, 2 * j + 1), (2 * i + 1, 2 * j)]),
                        "crossed double transposition",
                    )
                )
        for k0, l0 in combinations(dx, 2):
            k1 = 2 * k0
            l1 = 2 * l0 if _pair_bit(w, k0) == _pair_bit(w, l0) else 2 * l0 + 1
            if _pair_bit(u, k0) == _pair_bit(u, l0):
                # u reads the same constant pair at k0 and l0: one
                # transposition matching w across the two pairs
                out.append(
                    (
                        from_transpositions(n, [(k1, l1)]),
                        "single cross transposition",
                    )
                )
            elif len(dx) == 2:
                # unequal u patterns: swap the other difference set and
                # cross-match a coordinate together with its partner
                swaps = [(2 * p, 2 * p + 1) for p in sorted(ty - tx)]
                swaps += [(k1, l1), (sigma.images[k1], sigma.images[l1])]
                out.append(
                    (
                        from_transpositions(n, swaps),
                        "complement flips with a cross match",
                    )
                )
    return out


def extra_automorphism_with_path(
    code: LinearCode, sigma: Perm
) -> tuple[Perm, str] | None:
    """Some involution automorphism other than sigma, with the name of
    the construction that produced it; None only when no such involution
    exists.

    Tries the cheap constructive witnesses first (complement of the pair
    support, then the pair products attached to fixed words), then the
    4-dimensional case constructions, and finally the lexicographically
    first involution automorphism other than sigma, found by the pruned
    cycle search of ``autgroup._cycle_automorphisms`` (labelled "brute
    force", the exhaustive search it replaces).
    """
    found = _cheap_witness(code, sigma)
    if found is not None:
        return found

    if code.k == 4 and fixed_subcode(code, sigma).k == 2:
        for a, label in _dim4_case_candidates(code, sigma):
            if a != sigma and is_automorphism(code, a):
                return a, label

    n = code.n
    if n > LENGTH_GUARD:
        raise TooLarge(f"brute force fallback limited to length {LENGTH_GUARD}")
    skip = (tuple(range(n)), sigma.images)
    for imgs in _cycle_automorphisms(code, (2,), fixed_ok=True):
        if imgs not in skip:
            return Perm(imgs), "brute force"
    return None


def extra_automorphism(code: LinearCode, sigma: Perm) -> Perm | None:
    """Some involution automorphism other than sigma; None only if the
    automorphism group contains no involution besides sigma."""
    found = extra_automorphism_with_path(code, sigma)
    return None if found is None else found[0]
