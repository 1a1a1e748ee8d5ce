"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from pautkit import (
    LinearCode,
    Perm,
    Word,
    alpha_x,
    conjecture_search,
    enumerate_sigma_invariant,
    enumerate_subspaces,
    find_automorphism_outside,
    fixed_point_witness,
    fixed_subcode,
    gaussian_binomial,
    is_automorphism,
    paut,
    rref,
    sigma_invariant_count,
    t_set,
    t_sigma,
)
from pautkit.gf2 import _insert
from pautkit.perm import (
    apply,
    canonical_sigma,
    image_code,
    is_involution,
)
from pautkit.verify import (
    _random_invariant_code,
    check_dim4_codes,
    check_fixed_point_witness,
    check_half_dim_bound,
    check_length4_codes,
)

from bruteforce import brute_automorphism_images


def _passed(name: str, details: str) -> None:
    print(f"PASS {name}: {details}")


def test_criterion_length4_characterization():
    t0 = time.monotonic()
    report = check_length4_codes()
    elapsed = time.monotonic() - t0
    assert report.ok
    assert report.scanned == 35
    assert report.witnesses_checked == 210
    assert elapsed < 1.0
    # the two satisfying codes for the transposition (1,2), explicitly
    beta = Perm.from_cycles("(1,2)", 4)
    hits = set()
    for code in enumerate_subspaces(4, 2):
        if paut(code).order == 2 and is_automorphism(code, beta):
            hits.add(frozenset(w.bits for w in code.codewords()))
    expected = {
        frozenset(Word.from_string(s).bits for s in group)
        for group in (
            ("0000", "0010", "1100", "1110"),
            ("0000", "0001", "1100", "1101"),
        )
    }
    assert hits == expected
    _passed(
        "length-4 characterization",
        f"35 codes x 6 transpositions, 2 matches per transposition, {elapsed:.3f}s",
    )


def test_criterion_full_scan_small_lengths():
    t0 = time.monotonic()
    totals = {}
    for n in (6, 8):
        sigma = canonical_sigma(n)
        ident = Perm.identity(n)
        scanned = 0
        pairing_only = 0
        for k in range(n + 1):
            for code in enumerate_sigma_invariant(n, k):
                scanned += 1
                if find_automorphism_outside(code, (ident, sigma)) is None:
                    pairing_only += 1
        assert scanned == sum(sigma_invariant_count(n, k) for k in range(n + 1))
        assert pairing_only == 0
        totals[n] = scanned
    elapsed = time.monotonic() - t0
    assert totals == {6: 129, 8: 1983}
    assert elapsed < 600
    _passed(
        "exhaustive pairing-only scan at lengths 6 and 8",
        f"{totals[6]} + {totals[8]} invariant codes, zero with group exactly "
        f"the pairing, {elapsed:.2f}s",
    )


def test_criterion_dim4_at_length10():
    report = check_dim4_codes(10)
    assert report.ok
    assert report.scanned == 14291
    assert report.witnesses_checked == report.scanned
    _passed(
        "dimension-4 scan at length 10",
        f"{report.scanned} invariant codes, a validated non-pairing involution "
        f"for every one, {report.elapsed_ms} ms",
    )


def test_criterion_half_dim_property_suite():
    report = check_half_dim_bound(trials=10000, n_max=12, seed=2024)
    assert report.ok
    assert report.scanned == 10000
    _passed(
        "half-dimension bound suite",
        "10000 planted-involution codes at n <= 12, zero violations",
    )


def test_criterion_pair_flip_property_suite():
    rng = random.Random(2025)
    checked = 0
    while checked < 10000:
        n = 2 * rng.randrange(2, 9)
        sigma = canonical_sigma(n)
        w = Word(n, rng.getrandbits(n))
        y = w + apply(sigma, w)
        ty = sorted(t_set(y, sigma).pairs)
        if not ty:
            continue  # w is pairing-fixed; the hypothesis needs flips
        sub = [p for p in ty if rng.random() < 0.6] or [ty[0]]
        x = Word(n, sum(0b11 << (2 * p) for p in sub))
        code = rref([w, apply(sigma, w), x])
        assert is_automorphism(code, sigma)
        a = alpha_x(x, sigma)
        assert apply(a, w) == w + x
        checked += 1
    _passed(
        "pair-flip witness suite",
        "10000 random (code, pairing, w, x) with nested pair support, "
        "exact equality every time",
    )


def test_criterion_fixed_point_witness_suite():
    report = check_fixed_point_witness(trials=10000, n_max=16, seed=2026)
    assert report.ok
    assert report.scanned == 10000
    assert report.witnesses_checked == 10000
    _passed(
        "fixed-point witness suite",
        "10000 random invariant codes with non-full pair support, "
        "all five witness guarantees held",
    )


def test_criterion_paut_matches_bruteforce():
    checked = 0
    for n in range(1, 7):
        for k in range(n + 1):
            for code in enumerate_subspaces(n, k):
                brute = sum(1 for _ in brute_automorphism_images(code))
                assert paut(code).order == brute
                checked += 1
    rng = random.Random(2027)
    for n in (7, 8):
        for _ in range(100):
            code = rref(
                [Word(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, n + 1))]
            )
            brute = sum(1 for _ in brute_automorphism_images(code))
            assert paut(code).order == brute
            checked += 1
    _passed(
        "group order oracle equivalence",
        f"{checked} codes: search order equals the n! filter count exactly",
    )


def test_criterion_census_counts():
    for n in range(0, 9):
        for k in range(n + 1):
            assert sum(1 for _ in enumerate_subspaces(n, k)) == gaussian_binomial(n, k)
    for n in (2, 4, 6, 8):
        sigma = canonical_sigma(n)
        for k in range(n + 1):
            native = set(enumerate_sigma_invariant(n, k))
            filtered = {
                c for c in enumerate_subspaces(n, k) if image_code(c, sigma) == c
            }
            assert native == filtered
            assert len(native) == sigma_invariant_count(n, k)
    _passed(
        "census counts",
        "stream counts equal the subspace-counting formulas for n <= 8 and "
        "the invariant streams equal the filter oracle",
    )


def test_criterion_pair_support_well_defined():
    rng = random.Random(2028)
    for _ in range(1000):
        n = 2 * rng.randrange(2, 8)
        sigma = canonical_sigma(n)
        code = _random_invariant_code(rng, n, sigma)
        reference = t_sigma(code, sigma).pairs
        fixed = fixed_subcode(code, sigma)
        for _ in range(100):
            basis = list(fixed.rows)
            union = frozenset()
            while len(basis) < code.k:
                mask = rng.getrandbits(code.k)
                w = 0
                for i in range(code.k):
                    if mask >> i & 1:
                        w ^= code.rows[i]
                grown = _insert(basis, w)
                if grown is basis:
                    continue
                basis = grown
                x = w ^ apply(sigma, Word(code.n, w)).bits
                union |= t_set(Word(code.n, x), sigma).pairs
            assert union == reference
    _passed(
        "pair support well-definedness",
        "1000 invariant codes x 100 random complements, the basis union "
        "always equals the image support",
    )


def test_criterion_conjecture_harness(tmp_path):
    journal = tmp_path / "scan.ndjson"
    fresh = conjecture_search(10, k_lo=5, k_hi=5, journal_path=str(journal))
    assert fresh.scanned == 18291

    halves = [conjecture_search(10, slice_=(i, 2)) for i in range(2)]
    assert sum(h.scanned for h in halves) == fresh.scanned

    import json

    lines = journal.read_text().splitlines()
    partial = tmp_path / "partial.ndjson"
    partial.write_text("\n".join([lines[0]] + lines[1:7]) + "\n")
    prior = sum(json.loads(line)["scanned"] for line in lines[1:7])
    resumed = conjecture_search(10, k_lo=5, k_hi=5, journal_path=str(partial))
    assert prior + resumed.scanned == fresh.scanned

    outcome = "clean" if fresh.ok else f"{len(fresh.counterexamples)} counterexamples"
    # the outcome is an experimental record, not an a-priori assertion
    _passed(
        "conjecture harness at length 10",
        f"scanned {fresh.scanned} codes, shard sums and journal resume agree, "
        f"experimental outcome: {outcome}",
    )


def test_supplement_self_dual_pair_support_predicate():
    """The desk-scale stand-in for the self-dual applications: the
    [8,4,4] extended Hamming code, under each of its fixed point free
    involutions (relabelled to the canonical pairing), has full pair
    support, so no fixed-point witness arises."""
    h8 = LinearCode.from_strings(["11111111", "00001111", "00110011", "01010101"])
    assert h8.dual() == h8
    sigma = canonical_sigma(8)
    from pautkit import automorphisms
    from pautkit.perm import is_fixed_point_free

    full_support = 0
    fpf = [
        p
        for p in automorphisms(h8)
        if is_involution(p) and is_fixed_point_free(p)
    ]
    for tau in fpf:
        cycs = sorted(tau.cycles())
        imgs = [0] * 8
        for i, (a, b) in enumerate(cycs):
            imgs[a] = 2 * i
            imgs[b] = 2 * i + 1
        relabel = Perm(tuple(imgs))
        moved = image_code(h8, relabel)
        assert is_automorphism(moved, sigma)
        if t_sigma(moved, sigma).pairs == frozenset(range(4)):
            full_support += 1
            assert fixed_point_witness(moved, sigma) is None
    assert len(fpf) == 49
    assert full_support == 49
    _passed(
        "self-dual pair support predicate",
        "extended Hamming [8,4,4]: all 49 fixed point free involutions have "
        "full pair support",
    )
