import random
from functools import lru_cache
from math import factorial

import pytest

from pautkit import (
    LinearCode,
    Perm,
    TooLarge,
    Word,
    automorphisms,
    find_automorphism_outside,
    is_automorphism,
    is_group_code,
    is_quasi_group_code,
    pairing_group_is_everything,
    paut,
    quasi_group_witness,
    rref,
)
from pautkit import autgroup, verify
from pautkit.autgroup import (
    StabilizerChain,
    _automorphism_images,
    _base_images,
    _block_entry,
    _centraliser_fixes,
    _cycle_automorphisms,
    _fixed_point_free_cosets,
    _pairing_split,
    _primes_dividing,
)
from pautkit.perm import (
    compose,
    conjugate,
    fixed_point_free_prime_order,
    generate,
    image_code,
    involutions,
    is_fixed_point_free,
    is_involution,
)
from pautkit.census import (
    CensusSlice,
    _invariant_blocks,
    _twist_rows,
    enumerate_sigma_invariant,
    enumerate_subspaces,
    shard,
    sigma_invariant_count,
)
from pautkit.fixed import _cheap_witness
from pautkit.gf2 import _rref_ints
from pautkit.perm import canonical_sigma

from bruteforce import (
    brute_automorphism_images,
    brute_centraliser_images,
    brute_pair_flips,
    brute_pair_stabiliser,
    brute_weight_signatures,
    element_list_is_group_code,
)
from test_verify import ORDER_TWO_LENGTH12_REPS


def P(text, n):
    return Perm.from_cycles(text, n)


def rand_code(rng, n, rows=None):
    count = rows or rng.randrange(1, n + 1)
    return rref([Word(n, rng.getrandbits(n)) for _ in range(count)])


PROP34_CODE = LinearCode.from_strings(["0010", "1100"])


def test_is_automorphism_examples():
    assert is_automorphism(PROP34_CODE, Perm.identity(4))
    assert is_automorphism(PROP34_CODE, P("(1,2)", 4))
    # 0010 maps to 0001 under (3,4), which is outside the code
    assert not is_automorphism(PROP34_CODE, P("(3,4)", 4))


def test_paut_examples():
    assert paut(LinearCode.full(4)).order == 24

    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(2, 8)
        v = rng.getrandbits(n) or 1
        d = v.bit_count()
        assert paut(LinearCode(n, (v,))).order == factorial(d) * factorial(n - d)

    r = paut(PROP34_CODE)
    assert r.order == 2
    assert [str(g) for g in r.generators] == ["(1,2)"]
    assert r.is_cyclic_of_order_2
    assert not r.has_fpf_involution
    assert r.has_fixed_point_involution


def test_paut_matches_bruteforce_randomized():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(1, 7)
        c = rand_code(rng, n)
        brute = sum(1 for _ in brute_automorphism_images(c))
        assert paut(c).order == brute


def test_paut_matches_bruteforce_on_invariant_codes():
    # structured pairing-invariant inputs, not just random ones
    from pautkit.census import enumerate_sigma_invariant

    rng = random.Random(99)
    codes = [c for k in range(2, 7) for c in enumerate_sigma_invariant(8, k)]
    for c in rng.sample(codes, 15):
        brute = sum(1 for _ in brute_automorphism_images(c))
        assert paut(c).order == brute


def test_automorphism_stream_is_exact_and_sorted():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randrange(1, 7)
        c = rand_code(rng, n)
        mine = [p.images for p in automorphisms(c)]
        assert mine == sorted(mine)
        assert mine == list(brute_automorphism_images(c))


def test_paut_generators_generate_the_group():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randrange(2, 7)
        c = rand_code(rng, n)
        r = paut(c)
        if r.order > 2000:
            continue
        closure = generate(list(r.generators) or [Perm.identity(n)])
        assert len(closure) == r.order
        for g in closure:
            assert is_automorphism(c, g)


def _involution_flags(elements):
    # (a fixed point free involution, an involution with a fixed point)
    # among the image tables, by scanning them
    fpf = fix = False
    for g in elements:
        ident = tuple(range(len(g)))
        if g != ident and all(g[x] == i for i, x in enumerate(g)):
            if all(x != i for i, x in enumerate(g)):
                fpf = True
            else:
                fix = True
    return fpf, fix


def test_paut_order_equals_stream_count():
    # the base-image search against the full tree: on every code at
    # n <= 6 and on samples at n = 7..10 the order is the number of
    # leaves, a stabiliser chain fed the generators has that order, and
    # the involution flags are those of the leaves
    codes = [c for n in range(1, 7) for k in range(n + 1) for c in enumerate_subspaces(n, k)]
    rng = random.Random(67)
    codes += [rand_code(rng, n, rows=rng.randrange(2, n - 1)) for n in range(7, 11) for _ in range(15)]
    for c in codes:
        r = paut(c)
        elems = list(_automorphism_images(c))
        assert r.order == len(elems)
        chain = StabilizerChain(c.n)
        for g in r.generators:
            assert is_automorphism(c, g)
            chain.add(g.images)
        assert chain.order() == r.order
        if c.n <= 6:
            assert (r.has_fpf_involution, r.has_fixed_point_involution) == _involution_flags(elems)
    assert len(codes) == 3289 + 60


def test_paut_flags_match_element_scan():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(2, 9)
        c = rand_code(rng, n)
        r = paut(c)
        elems = list(automorphisms(c))
        invols = [p for p in elems if is_involution(p)]
        assert r.has_fpf_involution == any(is_fixed_point_free(p) for p in invols)
        assert r.has_fixed_point_involution == any(
            not is_fixed_point_free(p) for p in invols
        )
        assert r.is_cyclic_of_order_2 == (r.order == 2)


def test_paut_degenerate_dimensions_match_search():
    # dimensions 0, 1, n-1 and n, searched like every other code: the
    # zero and full codes have S_n, and one word of weight d and its dual
    # have S_d x S_(n-d)
    rng = random.Random(71)
    for n in (4, 6, 8, 10, 12):
        for c in (LinearCode.zero(n), LinearCode.full(n)):
            r = paut(c)
            assert r.order == factorial(n)
            assert r.has_fpf_involution == (n % 2 == 0)
            assert r.has_fixed_point_involution
            assert not r.is_cyclic_of_order_2
        for d in range(1, n + 1):
            v = Word(n, sum(1 << i for i in rng.sample(range(n), d)))
            for c in (rref([v]), rref([v]).dual()):
                r = paut(c)
                assert r.order == factorial(d) * factorial(n - d)
                # both parts must split into transpositions
                assert r.has_fpf_involution == (d % 2 == 0 and (n - d) % 2 == 0)
                assert r.has_fixed_point_involution
                assert r.is_cyclic_of_order_2 == (r.order == 2)
    assert paut(LinearCode.zero(2)).order == 2
    assert not paut(LinearCode.zero(2)).has_fixed_point_involution


def _block_code(sizes, n, images):
    # disjoint all-ones blocks of the given sizes, laid out from
    # coordinate 0 and then moved by the image table
    rows, start = [], 0
    for s in sizes:
        rows.append(sum(1 << images[i] for i in range(start, start + s)))
        start += s
    return rref([Word(n, r) for r in rows])


def _partitions(m, largest):
    # partitions of m into parts of at most ``largest``, largest first
    if m == 0:
        yield ()
        return
    for p in range(min(m, largest), 0, -1):
        for rest in _partitions(m - p, p):
            yield (p,) + rest


def test_block_codes_match_product_formula():
    # PAut of disjoint all-ones blocks permutes the points of each block,
    # the blocks of equal size and the uncovered points, each freely
    rng = random.Random(73)
    for n in range(1, 13):
        for m in range(1, n + 1):
            for sizes in _partitions(m, m):
                images = list(range(n))
                rng.shuffle(images)
                c = _block_code(sizes, n, images)
                want = factorial(n - m)
                for s in set(sizes):
                    want *= factorial(s) ** sizes.count(s) * factorial(sizes.count(s))
                assert paut(c).order == want, (n, sizes)
    ident = list(range(12))
    assert paut(_block_code((4, 4, 4), 12, ident)).order == 82944
    assert paut(_block_code((6, 6), 12, ident)).order == 1036800


def test_paut_guard():
    with pytest.raises(TooLarge):
        paut(LinearCode.zero(13))


def test_paut_equals_dual_paut():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randrange(1, 7)
        c = rand_code(rng, n)
        assert paut(c).order == paut(c.dual()).order
    for _ in range(5):
        n = rng.randrange(7, 11)
        c = rand_code(rng, n, rows=rng.randrange(2, n - 1))
        if 2 <= c.k <= n - 2:
            assert paut(c).order == paut(c.dual()).order



def test_dual_side_search_keeps_every_stream():
    # codes with 2k > n are searched through their duals; the element
    # stream, the cycle-shaped streams and the generators must stay those
    # of the code itself
    rng = random.Random(43)
    checked = 0
    for n in range(2, 8):
        for k in range(n // 2 + 1, n + 1):
            for _ in range(3):
                c = rand_code(rng, n, rows=k)
                if 2 * c.k <= n:
                    continue
                checked += 1
                mine = [p.images for p in automorphisms(c)]
                assert mine == list(brute_automorphism_images(c))
                primes = _primes_dividing(n)
                for fixed_ok in (False, True):
                    assert list(_cycle_automorphisms(c, primes, fixed_ok)) == list(
                        _cycle_automorphisms(c.dual(), primes, fixed_ok)
                    )
                assert paut(c).generators == paut(c.dual()).generators
    assert checked >= 30


def test_paut_transport_under_equivalence():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(2, 7)
        c = rand_code(rng, n)
        imgs = list(range(n))
        rng.shuffle(imgs)
        b = Perm(tuple(imgs))
        moved = image_code(c, b)
        assert paut(moved).order == paut(c).order
        for g in paut(c).generators:
            assert is_automorphism(moved, conjugate(g, b))


def test_find_automorphism_outside():
    sigma = P("(1,2)(3,4)", 4)
    ident = Perm.identity(4)
    c = rref([Word.from_string("1100"), Word.from_string("0011")])
    extra = find_automorphism_outside(c, (ident, sigma))
    assert extra is not None and is_automorphism(c, extra)
    assert find_automorphism_outside(PROP34_CODE, (ident, P("(1,2)", 4))) is None


def _pairing_only(code):
    # the oracle: the full automorphism tree holds nothing but id and sigma
    n = code.n
    return find_automorphism_outside(code, (Perm.identity(n), canonical_sigma(n))) is None


def test_group_is_pairing_matches_full_search_small():
    # pairing_group_is_everything on every sigma-invariant code of every
    # dimension at n <= 8
    checked = hits = 0
    for n in (2, 4, 6, 8):
        sigma = canonical_sigma(n)
        for k in range(n + 1):
            for code in enumerate_sigma_invariant(n, k):
                want = _pairing_only(code)
                assert pairing_group_is_everything(code, sigma) == want
                checked += 1
                hits += want
    # only the three codes of length 2 have group exactly {id, sigma}
    assert (checked, hits) == (3 + 15 + 129 + 1983, 3)


@pytest.mark.slow
def test_group_is_pairing_matches_full_search_length10():
    """All 55989 sigma-invariant codes at n = 10, every dimension, by
    ``pairing_group_is_everything``; 8-10 s on a 2-core VM with Python
    3.11.7, about 3 s of it in ``pairing_group_is_everything`` and the
    rest in the full search of the oracle."""
    sigma = canonical_sigma(10)
    checked = 0
    for k in range(11):
        for code in enumerate_sigma_invariant(10, k):
            assert pairing_group_is_everything(code, sigma) == _pairing_only(code)
            checked += 1
    assert checked == 55989


# an n = 14 code whose block entry is not empty: U meets every pair and
# the flip kernel holds only the identity and sigma
OPEN_LENGTH14_ROWS = ("10001011011100", "01000111101100", "00100010101010", "00010001010101")


def test_group_is_pairing_on_length12_representatives():
    sigma = canonical_sigma(12)
    for rows in ORDER_TWO_LENGTH12_REPS:
        code = LinearCode.from_strings(list(rows))
        assert pairing_group_is_everything(code, sigma)
        assert pairing_group_is_everything(code.dual(), sigma)
    # an empty entry settles a code at any even length; past the length
    # guard, any other code is refused before its entry's moves are read
    sigma14 = canonical_sigma(14)
    assert not pairing_group_is_everything(LinearCode.zero(14), sigma14)
    code = LinearCode.from_strings(list(OPEN_LENGTH14_ROWS))
    u_rows, fc_rows, _wrows = _pairing_split(code)
    assert _block_entry(14, u_rows, fc_rows)
    with pytest.raises(TooLarge):
        pairing_group_is_everything(code, sigma14)


def test_group_is_pairing_runs_the_involution_search(monkeypatch):
    # no invariant code at n <= 12 needs part (b), so blind part (a) and
    # check that (b) alone still finds the other fixed point free
    # involutions; (1,2)(3,4) and (1,3)(2,4) both fix this code
    code = rref([Word.from_string("1100"), Word.from_string("0011")])
    assert not _pairing_only(code)
    monkeypatch.setattr(verify, "_block_entry", lambda *args: ((), ()))
    assert not pairing_group_is_everything(code, canonical_sigma(4))


def _cheap_verdicts(n, ks, index, total):
    # (k, block ordinal, U rows, F_C rows, codes) of each block that the
    # positions index, index + total, ... of the census of dimensions ks
    # meet; codes holds, per position in the block, its twist rows and
    # whether the cheap witness ladder settles its code
    sigma = canonical_sigma(n)
    for k in ks:
        for ordinal, u_rows, fc_rows, lifts, twist_basis, lvals in _invariant_blocks(
            n, k, sigma, index, total
        ):
            codes = []
            for lval in lvals:
                wrows = _twist_rows(lifts, twist_basis, lval)
                code = LinearCode(n, _rref_ints(fc_rows + wrows))
                codes.append((wrows, _cheap_witness(code, sigma) is not None))
            yield k, ordinal, u_rows, fc_rows, codes


def _blocks_by_cheap_witness(walks):
    # (U rows, F_C rows, whether the ladder settles a code of the block)
    # per (k, block ordinal) of the blocks of _cheap_verdicts; a block
    # that two walks meet is settled when either walk settles a code of it
    blocks = {}
    for k, ordinal, u_rows, fc_rows, codes in walks:
        seen = blocks.get((k, ordinal), (u_rows, fc_rows, False))[2]
        blocks[k, ordinal] = (u_rows, fc_rows, seen or any(s for _w, s in codes))
    return blocks


@lru_cache(maxsize=None)
def _length12_slices():
    # the blocks met by slices 0 and 37 of 100 at n = 12, k = 5..7, by
    # _blocks_by_cheap_witness, and by slice the (U rows, F_C rows, twist
    # rows) of each position the cheap witness ladder leaves open; one
    # walk for the tests that read them
    walks = {index: list(_cheap_verdicts(12, (5, 6, 7), index, 100)) for index in (0, 37)}
    blocks = _blocks_by_cheap_witness(walks[0] + walks[37])
    opened = {
        index: [
            (u_rows, fc_rows, wrows)
            for _k, _o, u_rows, fc_rows, codes in found
            for wrows, settled in codes
            if not settled
        ]
        for index, found in walks.items()
    }
    return blocks, opened


def _open_length12_positions():
    return _length12_slices()[1]


def test_cheap_witness_blocks_get_the_empty_entry():
    # the flip kernel holds both cheap witnesses, so a block in which
    # fixed._cheap_witness settles a code gets the empty entry.  Every
    # position at n <= 10, every k, and the blocks met by slices 0 and 37
    # of 100 at n = 12, k = 5..7.  Tally: (settled by the ladder,
    # flip-only, with an entry) blocks
    tallies = {}
    for n in (2, 4, 6, 8, 10, 12):
        if n == 12:
            blocks = _length12_slices()[0]
        else:
            blocks = _blocks_by_cheap_witness(_cheap_verdicts(n, range(n + 1), 0, 1))
        tally = [0, 0, 0]
        for u_rows, fc_rows, settled in blocks.values():
            entry = _block_entry(n, u_rows, fc_rows)
            assert entry == () or not settled
            tally[0 if settled else 1 if entry == () else 2] += 1
        tallies[n] = tuple(tally)
    assert tallies == {
        2: (0, 0, 3),
        4: (11, 0, 1),
        6: (64, 0, 2),
        8: (505, 0, 8),
        10: (5687, 0, 82),
        12: (28469, 112, 1280),
    }


def test_missed_pair_gives_the_empty_entry_without_the_flip_map(monkeypatch):
    # every block at n = 4..8: a block whose U misses a pair is decided by
    # that pair's flip alone, any other calls the flip map once
    calls = []
    flip_map = autgroup._pair_flip_map
    monkeypatch.setattr(
        autgroup, "_pair_flip_map", lambda *args: calls.append(args) or flip_map(*args)
    )
    missed = full = 0
    for n in (4, 6, 8):
        evens = ((1 << n) - 1) // 3
        for k in range(n + 1):
            for _o, u_rows, fc_rows, *_twists in _invariant_blocks(n, k, canonical_sigma(n), 0, 1):
                support = 0
                for u in u_rows:
                    support |= u
                before = len(calls)
                entry = _block_entry(n, u_rows, fc_rows)
                if evens & ~support:
                    assert entry == () and len(calls) == before
                    missed += 1
                else:
                    assert len(calls) == before + 1
                    full += 1
    assert missed > 0 and full > 0


def _centraliser_verdict(code):
    # test (a) from the code's census block: True when an element of
    # C(sigma) other than the identity and sigma fixes the code, which an
    # empty entry means by itself
    n = code.n
    u_rows, fc_rows, wrows = _pairing_split(code)
    assert LinearCode(n, _rref_ints(fc_rows + wrows)) == code
    entry = _block_entry(n, u_rows, fc_rows)
    return not entry or _centraliser_fixes(entry, n, fc_rows, wrows)


def test_block_centraliser_test_equals_bruteforce():
    # test (a) against a filter of Z_2 wr S_{n/2}: every sigma-invariant
    # code at n <= 6 and every 23rd at n = 8.  Each move of a block entry
    # is one pair permutation pi of K other than the identity, and on its
    # own it must pass exactly when some pair flip f_x completes pi to an
    # automorphism
    codes = [c for n in (2, 4, 6) for k in range(n + 1) for c in enumerate_sigma_invariant(n, k)]
    codes += [c for k in range(9) for c in enumerate_sigma_invariant(8, k)][::23]
    passed = moves_checked = 0
    for code in codes:
        n, m = code.n, code.n // 2
        brute = brute_centraliser_images(code)
        fixes = _centraliser_verdict(code)
        assert fixes == (not set(brute) <= {tuple(range(n)), canonical_sigma(n).images})
        passed += not fixes
        u_rows, fc_rows, wrows = _pairing_split(code)
        entry = _block_entry(n, u_rows, fc_rows)
        if not entry:
            continue
        wbasis, moves = entry
        completed = {tuple(g[2 * p] // 2 for p in range(m)) for g in brute}
        perms = set()
        for move in moves:
            inverse = [move >> 3 * q & 7 for q in range(m)]
            pi = tuple(inverse.index(p) for p in range(m))
            perms.add(pi)
            alone = _centraliser_fixes((wbasis, (move,)), n, fc_rows, wrows)
            assert alone == (pi in completed)
            moves_checked += 1
        assert perms == brute_pair_stabiliser(n, u_rows, fc_rows)
    # only the three codes of length 2 pass
    assert (len(codes), passed) == (147 + 87, 3)
    assert moves_checked > 0


def test_block_centraliser_test_on_length12_open_codes():
    # on the open codes of two n = 12 slices test (a) alone decides the
    # group, as no code there needs (b): it must agree with the full
    # automorphism tree, and the census block must be the code's own
    allowed = (Perm.identity(12), canonical_sigma(12))
    hits = []
    opened = 0
    for positions in _open_length12_positions().values():
        found = 0
        for u_rows, fc_rows, wrows in positions:
            code = LinearCode(12, _rref_ints(fc_rows + wrows))
            assert _pairing_split(code)[:2] == (u_rows, fc_rows)
            # a flip-only block has the empty entry, which fails (a)
            entry = _block_entry(12, u_rows, fc_rows)
            passes = bool(entry) and not _centraliser_fixes(entry, 12, fc_rows, wrows)
            assert passes == (find_automorphism_outside(code, allowed) is None)
            found += passes
        opened += len(positions)
        hits.append(found)
    assert (opened, hits) == (4634, [433, 493])


def test_flip_only_blocks_have_pair_flip_automorphisms():
    # an open block whose flip kernel holds more than the identity and
    # sigma: the alpha-x rung tries only the flips of words in F_C, so it
    # leaves the block open, and every code of it has another pair flip
    blocks = set()
    codes = 0
    for positions in _open_length12_positions().values():
        for u_rows, fc_rows, wrows in positions:
            if _block_entry(12, u_rows, fc_rows) != ():
                continue
            blocks.add((u_rows, fc_rows))
            codes += 1
            code = LinearCode(12, _rref_ints(fc_rows + wrows))
            assert set(brute_pair_flips(code)) - {0, 63}
    assert (len(blocks), codes) == (112, 132)


def test_stabilizer_chain_against_closure():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randrange(2, 8)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Perm(tuple(imgs)))
        chain = StabilizerChain(n)
        for g in gens:
            chain.add(g.images)
        closure = generate(gens)
        assert chain.order() == len(closure)
        for g in closure:
            assert chain.contains(g.images)
        outside = Perm(tuple(rng.sample(range(n), n)))
        assert chain.contains(outside.images) == (outside in closure)


def test_group_code_equals_element_list_oracle():
    # the coset-built subgroup search against the search over the full
    # element list: every code at n <= 6 and 300 seeded codes at n = 7, 8;
    # each coset holds exactly the listed fixed point free elements that
    # send 0 to its point
    codes = [c for n in range(1, 7) for k in range(n + 1) for c in enumerate_subspaces(n, k)]
    rng = random.Random(79)
    codes += [rand_code(rng, rng.choice((7, 8))) for _ in range(300)]
    found = 0
    for c in codes:
        elems = list(_automorphism_images(c))
        want = element_list_is_group_code(elems, c.n)
        assert is_group_code(c) == want
        found += want
        gens, orbits = _base_images(c)
        firsts = _fixed_point_free_cosets(gens, c.n)
        for j in orbits[0] - {0}:
            free = [g for g in elems if g[0] == j and all(x != i for i, x in enumerate(g))]
            assert sorted(firsts(j)) == free
    assert found > 100


def test_group_code_examples():
    # repetition codes: the full symmetric group contains a regular cycle
    for n in (2, 4, 6, 8):
        rep = rref([Word(n, (1 << n) - 1)])
        assert is_group_code(rep)
    assert is_group_code(LinearCode.zero(4))
    # single word of weight strictly between 0 and n: never a group code
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randrange(2, 8)
        v = rng.getrandbits(n)
        if v == 0 or v == (1 << n) - 1:
            continue
        assert not is_group_code(rref([Word(n, v)]))
    with pytest.raises(TooLarge):
        is_group_code(LinearCode.zero(9))


def test_quasi_group_code_examples():
    # even weight below n gives a quasi group code
    c = rref([Word.from_string("110000")])
    assert is_quasi_group_code(c)
    # power-of-two length with odd weight: not quasi
    c = rref([Word.from_string("11100000")])
    assert not is_quasi_group_code(c)
    # the length-4 characterization code has only (1,2) available
    assert not is_quasi_group_code(PROP34_CODE)


def test_quasi_group_witness_is_validated():
    rng = random.Random(53)
    seen = 0
    for _ in range(40):
        n = rng.randrange(2, 9)
        c = rand_code(rng, n)
        w = quasi_group_witness(c)
        if w is None:
            continue
        seen += 1
        assert is_fixed_point_free(w)
        assert is_automorphism(c, w)
        # prime order: repeated composition hits the identity at a prime
        order = 1
        cur = w
        while cur != Perm.identity(n):
            cur = compose(cur, w)
            order += 1
        assert order in (2, 3, 5, 7)
    assert seen > 0


def test_quasi_group_matches_subgroup_definition_small():
    # brute force the definition: some nontrivial subgroup acting freely
    rng = random.Random(59)
    for _ in range(12):
        n = rng.randrange(2, 6)
        c = rand_code(rng, n)
        elems = [Perm(im) for im in brute_automorphism_images(c)]
        free_subgroup_exists = False
        for g in elems:
            if g == Perm.identity(n):
                continue
            sub = generate([g])
            if all(
                is_fixed_point_free(h) for h in sub if h != Perm.identity(n)
            ):
                free_subgroup_exists = True
                break
        assert is_quasi_group_code(c) == free_subgroup_exists


def first_fpf_prime_order_automorphism(code):
    """The brute-force witness: the first automorphism among the fixed point
    free prime-order permutations, primes in increasing order."""
    n = code.n
    for p in range(2, n + 1):
        if n % p or any(p % d == 0 for d in range(2, p)):
            continue
        for g in fixed_point_free_prime_order(n, p):
            if is_automorphism(code, g):
                return g
    return None


def code_of_dim(n, k, draw):
    """Grow a code by drawn rows, skipping any that would overshoot k."""
    code = LinearCode.zero(n)
    while code.k < k:
        code = rref([Word(n, r) for r in code.rows] + [Word(n, draw())])
    return code


def witness_test_codes():
    """Random, sparse (rows of weight <= 2) and relabelled pairing-invariant
    codes for every n = 2..10 and every k = 0..n.  At n = 10 each k gets one
    of the three kinds in turn, since the brute force spends about 0.6 s
    on an n = 10 code without a witness."""
    rng = random.Random(61)

    def invariant(n, k):
        # relabelled so that the pairing is not the stream's first element
        count = sigma_invariant_count(n, k)
        (code,) = shard(CensusSlice(n, k, True, (rng.randrange(count), count)))
        return image_code(code, Perm(tuple(rng.sample(range(n), n))))

    for n in range(2, 11):
        for k in range(n + 1):
            kinds = [
                lambda: code_of_dim(n, k, lambda: rng.getrandbits(n)),
                lambda: code_of_dim(n, k, lambda: 1 << rng.randrange(n) | 1 << rng.randrange(n)),
            ]
            if n % 2 == 0:
                kinds.append(lambda: invariant(n, k))
            if n == 10:
                kinds = [kinds[k % 3]]
            for make in kinds:
                yield make()


def test_quasi_group_witness_equals_bruteforce_first_hit():
    checked = found = 0
    for code in witness_test_codes():
        expected = first_fpf_prime_order_automorphism(code)
        assert quasi_group_witness(code) == expected
        if code.n <= 8:
            # the whole pruned stream, not only its first element
            brute = [
                g.images
                for p in (2, 3, 5, 7)
                for g in fixed_point_free_prime_order(code.n, p)
                if is_automorphism(code, g)
            ]
            assert list(_cycle_automorphisms(code, _primes_dividing(code.n))) == brute
            # with fixed points allowed, p = 2 walks every involution
            ident = tuple(range(code.n))
            pruned = _cycle_automorphisms(code, (2,), fixed_ok=True)
            assert [imgs for imgs in pruned if imgs != ident] == [
                g.images for g in involutions(code.n) if is_automorphism(code, g)
            ]
        checked += 1
        found += expected is not None
    assert checked == 139 and 0 < found < checked


# the [12,3] and [12,2] block codes and the two order-two representatives
STRUCTURED_LENGTH12 = (
    ("111100000000", "000011110000", "000000001111"),
    ("111111000000", "000000111111"),
    ORDER_TWO_LENGTH12_REPS[0],
    ORDER_TWO_LENGTH12_REPS[1],
)


def test_quasi_group_witness_equals_bruteforce_at_length12():
    for rows in STRUCTURED_LENGTH12:
        code = LinearCode.from_strings(list(rows))
        assert quasi_group_witness(code) == first_fpf_prime_order_automorphism(code)
    rng = random.Random(67)
    code = code_of_dim(12, 6, lambda: rng.getrandbits(12))
    # no fixed point free automorphism of order 2 or 3: all 256795 candidates fail
    assert first_fpf_prime_order_automorphism(code) is None
    assert quasi_group_witness(code) is None


def test_weight_signatures_equal_per_bit_oracle():
    codes = [
        code
        for n in (2, 4, 6, 8)
        for k in range(n + 1)
        for code in enumerate_sigma_invariant(n, k)
    ]
    # the structured codes of the analyze benchmark
    codes += [LinearCode.from_strings(list(rows)) for rows in STRUCTURED_LENGTH12]
    codes.append(LinearCode.from_strings(["11110000", "00111100", "00001111", "01010101"]))
    rng = random.Random(71)
    codes += [rand_code(rng, 12) for _ in range(30)]
    for code in codes:
        assert autgroup._weight_signatures(code) == brute_weight_signatures(code)
