import random
from math import ceil

import pytest
from bruteforce import codeword_set, naive_rref, word_list

from pautkit import (
    InvalidInput,
    LinearCode,
    NotFixed,
    NotInvariant,
    Perm,
    Word,
    alpha_x,
    decompose,
    extra_automorphism,
    extra_automorphism_with_path,
    fixed_point_witness,
    fixed_subcode,
    is_automorphism,
    rref,
    t_set,
    t_sigma,
)
from pautkit.fixed import TSet
from pautkit.perm import (
    apply,
    canonical_sigma,
    fixed_points,
    generate,
    image_code,
    is_fixed_point_free,
    is_involution,
)
from pautkit.verify import _random_invariant_code, _random_involution


def P(text, n):
    return Perm.from_cycles(text, n)


def W(text):
    return Word.from_string(text)


DEMO6 = LinearCode.from_strings(["110000", "100011"])
PROP34_CODE = LinearCode.from_strings(["0010", "1100"])


def test_fixed_subcode_examples():
    f = fixed_subcode(LinearCode.full(2), canonical_sigma(2))
    assert f == rref([W("11")])

    beta = P("(1,2)", 4)
    assert fixed_subcode(PROP34_CODE, beta) == PROP34_CODE

    sigma = canonical_sigma(6)
    assert fixed_subcode(DEMO6, sigma) == rref([W("110000")])
    with pytest.raises(InvalidInput):
        fixed_subcode(DEMO6, P("(1,2)", 4))


def test_fixed_subcode_is_invariant_subcode():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randrange(2, 13)
        beta = _random_involution(rng, n)
        code = _random_invariant_code(rng, n, beta)
        f = fixed_subcode(code, beta)
        for w in f.codewords():
            assert code.contains(w)
            assert apply(beta, w) == w
        # every fixed codeword of the code lands in the subcode
        if code.k <= 10:
            for w in code.codewords():
                if apply(beta, w) == w:
                    assert f.contains(w)


def _random_permutation(rng, n):
    """A 3-cycle, a product of disjoint cycles or a uniform permutation."""
    images = list(range(n))
    kind = rng.randrange(3)
    if kind == 0 and n >= 3:
        a, b, c = rng.sample(range(n), 3)
        images[a], images[b], images[c] = b, c, a
    elif kind == 1:
        points = rng.sample(range(n), n)
        while points:
            size = rng.randint(1, 4)
            cycle, points = points[:size], points[size:]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
    else:
        rng.shuffle(images)
    return Perm(tuple(images))


def test_fixed_subcode_matches_filter_oracle_for_any_permutation():
    # p need not be an involution or an automorphism of the code
    rng = random.Random(89)
    outside = 0
    for _ in range(400):
        n = rng.randrange(1, 11)
        code = rref([Word(n, rng.getrandbits(n)) for _ in range(rng.randint(1, n))])
        p = _random_permutation(rng, n)
        outside += not is_automorphism(code, p)
        fixed = sorted(c for c in codeword_set(code) if apply(p, Word(n, c)).bits == c)
        expected = naive_rref([word_list(Word(n, c)) for c in fixed])
        assert [word_list(g) for g in fixed_subcode(code, p).gens] == expected
    assert outside > 200


def test_half_dim_bound_holds():
    rng = random.Random(67)
    for _ in range(300):
        n = rng.randrange(2, 13)
        beta = _random_involution(rng, n)
        code = _random_invariant_code(rng, n, beta)
        f = fixed_subcode(code, beta).k
        assert f >= ceil(code.k / 2)


def test_t_set_examples():
    sigma = canonical_sigma(4)
    assert t_set(W("1100"), sigma).pairs == frozenset({0})
    assert str(t_set(W("1100"), sigma)) == "{1}"
    assert t_set(W("1111"), sigma).pairs == frozenset({0, 1})
    assert t_set(W("0000"), sigma).pairs == frozenset()
    with pytest.raises(NotFixed):
        t_set(W("1000"), sigma)
    with pytest.raises(InvalidInput):
        t_set(W("1100"), P("(1,3)(2,4)", 4))


def test_tset_formatting_is_one_based_odd():
    assert str(TSet(frozenset({0, 2}))) == "{1, 5}"
    assert str(TSet(frozenset())) == "{}"


def test_alpha_x_examples():
    sigma = canonical_sigma(6)
    assert alpha_x(W("111111"), sigma) == sigma
    s4 = canonical_sigma(4)
    assert str(alpha_x(W("1100"), s4)) == "(1,2)"
    # postcondition on the worked instance
    w = W("1011")
    assert apply(alpha_x(W("1100"), s4), w) == w + W("1100")
    with pytest.raises(InvalidInput):
        alpha_x(W("0000"), s4)
    with pytest.raises(NotFixed):
        alpha_x(W("1000"), s4)


def test_alpha_x_postcondition_randomized():
    rng = random.Random(71)
    checked = 0
    while checked < 500:
        n = 2 * rng.randrange(1, 9)
        sigma = canonical_sigma(n)
        w = Word(n, rng.getrandbits(n))
        y = w + apply(sigma, w)
        ty = t_set(y, sigma).pairs
        if not ty:
            continue
        sub = [p for p in ty if rng.random() < 0.6]
        if not sub:
            sub = [min(ty)]
        x = Word(n, sum(0b11 << (2 * p) for p in sub))
        a = alpha_x(x, sigma)
        assert apply(a, w) == w + x
        checked += 1


def test_decompose_examples():
    sigma = canonical_sigma(6)
    dec = decompose(DEMO6, sigma)
    assert dec.fixed == rref([W("110000")])
    assert [str(w) for w in dec.complement_basis] == ["100011"]
    assert [str(x) for x in dec.x_list] == ["110000"]

    wholly = rref([W("110000"), W("001100")])
    dec = decompose(wholly, sigma)
    assert dec.complement_basis == () and dec.x_list == ()
    assert dec.fixed == wholly

    dec = decompose(LinearCode.full(2), canonical_sigma(2))
    assert dec.fixed == rref([W("11")])
    assert len(dec.complement_basis) == 1
    assert [str(x) for x in dec.x_list] == ["11"]

    with pytest.raises(NotInvariant):
        decompose(rref([W("100000")]), sigma)


def test_decompose_invariants_randomized():
    rng = random.Random(73)
    for _ in range(200):
        n = 2 * rng.randrange(1, 8)
        sigma = canonical_sigma(n)
        code = _random_invariant_code(rng, n, sigma)
        dec = decompose(code, sigma)
        assert dec.fixed.k + len(dec.complement_basis) == code.k
        span = rref(list(dec.fixed.gens) + list(dec.complement_basis)) if dec.fixed.k or dec.complement_basis else code
        assert span == code
        ech_rows = list(dec.fixed.rows)
        for x in dec.x_list:
            assert dec.fixed.contains(x)
        if dec.x_list:
            assert rref(list(dec.x_list)).k == len(dec.x_list)
        # the fixed subcode is itself invariant
        assert image_code(dec.fixed, sigma) == dec.fixed


def test_t_sigma_examples():
    sigma = canonical_sigma(6)
    assert t_sigma(rref([W("110000"), W("001100")]), sigma).pairs == frozenset()
    assert t_sigma(DEMO6, sigma).pairs == frozenset({0})
    assert t_sigma(LinearCode.full(6), sigma).pairs == frozenset({0, 1, 2})
    with pytest.raises(NotInvariant):
        t_sigma(rref([W("100000")]), sigma)


def test_t_sigma_is_complement_independent():
    rng = random.Random(79)
    for _ in range(60):
        n = 2 * rng.randrange(2, 8)
        sigma = canonical_sigma(n)
        code = _random_invariant_code(rng, n, sigma)
        reference = t_sigma(code, sigma).pairs
        fixed = fixed_subcode(code, sigma)
        for _ in range(25):
            got = _random_complement_union(rng, code, fixed, sigma)
            assert got == reference


def _random_complement_union(rng, code, fixed, sigma):
    """T-union over a randomly chosen complement basis."""
    from pautkit.gf2 import _insert

    basis = list(fixed.rows)
    acc = frozenset()
    guard = 0
    while len(basis) < code.k:
        guard += 1
        assert guard < 10000
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
        acc |= t_set(Word(code.n, x), sigma).pairs
    return acc


def test_fixed_point_witness_examples():
    sigma = canonical_sigma(6)
    beta = fixed_point_witness(DEMO6, sigma)
    assert str(beta) == "(3,4)(5,6)"
    assert is_automorphism(DEMO6, beta)
    assert fixed_points(beta) == (0, 1)

    wholly = rref([W("1100")])
    assert str(fixed_point_witness(wholly, canonical_sigma(4))) == "(1,2)"

    assert fixed_point_witness(LinearCode.full(6), sigma) is None
    with pytest.raises(InvalidInput):
        fixed_point_witness(rref([W("11")]), canonical_sigma(2))


def test_fixed_point_witness_guarantees_randomized():
    rng = random.Random(83)
    checked = 0
    while checked < 400:
        n = 2 * rng.randrange(2, 9)
        sigma = canonical_sigma(n)
        code = _random_invariant_code(rng, n, sigma)
        beta = fixed_point_witness(code, sigma)
        if beta is None:
            assert t_sigma(code, sigma).pairs == frozenset(range(n // 2))
            continue
        checked += 1
        assert beta != Perm.identity(n)
        assert beta != sigma
        assert is_automorphism(code, beta)
        assert len(fixed_points(beta)) >= 2
        group = generate([sigma, beta])
        assert len(group) == 4
        assert all(is_involution(g) for g in group if g != Perm.identity(n))


def test_extra_automorphism_examples():
    sigma = canonical_sigma(6)
    perm, path = extra_automorphism_with_path(DEMO6, sigma)
    assert str(perm) == "(3,4)(5,6)"
    assert path == "T(sigma)-complement"

    wholly = rref([W("110000"), W("001100")])
    perm, path = extra_automorphism_with_path(wholly, sigma)
    assert str(perm) == "(1,2)"
    assert path == "pointwise-fixing pair"

    with pytest.raises(NotInvariant):
        extra_automorphism(rref([W("100000")]), sigma)


def test_extra_automorphism_full_space():
    # the full space has plenty of involutions besides the pairing
    sigma = canonical_sigma(6)
    a = extra_automorphism(LinearCode.full(6), sigma)
    assert a is not None and a != sigma and is_involution(a)


def test_extra_automorphism_exhaustive_dim4_small():
    # the paper's constructions answer every 4-dimensional invariant code
    # at n = 8 and 10; only four codes at n = 6 fall through to the search
    from pautkit.census import enumerate_sigma_invariant

    for n, codes, searched in ((6, 35, 4), (8, 771, 0), (10, 14291, 0)):
        sigma = canonical_sigma(n)
        seen = fallback = 0
        for code in enumerate_sigma_invariant(n, 4):
            a, label = extra_automorphism_with_path(code, sigma)
            assert a != sigma
            assert is_involution(a)
            assert is_automorphism(code, a)
            seen += 1
            if label == "brute force":
                fallback += 1
                assert fixed_subcode(code, sigma).k == 2
        assert (seen, fallback) == (codes, searched)


def test_extra_automorphism_none_only_when_no_other_involution():
    # at n=2 the only involution is the pairing itself
    c = rref([W("11")])
    assert extra_automorphism(c, canonical_sigma(2)) is None


def test_extended_hamming_pair_support_is_always_full():
    """Frozen observation: the [8,4,4] self-dual extended Hamming code
    has group order 1344 with 49 fixed point free involutions, and the
    pair support is full for every one of them (so no fixed-point
    witness arises, matching its role as a self-dual obstruction)."""
    from pautkit import automorphisms, paut
    from pautkit.perm import conjugate

    h8 = LinearCode.from_strings(
        ["11111111", "00001111", "00110011", "01010101"]
    )
    assert h8.dual() == h8
    assert h8.minimum_weight() == 4
    assert paut(h8).order == 1344
    sigma = canonical_sigma(8)
    fpf = [
        p
        for p in automorphisms(h8)
        if is_involution(p) and is_fixed_point_free(p)
    ]
    assert len(fpf) == 49
    for tau in fpf:
        cycs = sorted(tau.cycles())
        imgs = [0] * 8
        for i, (a, b) in enumerate(cycs):
            imgs[a] = 2 * i
            imgs[b] = 2 * i + 1
        relabel = Perm(tuple(imgs))
        assert conjugate(tau, relabel) == sigma
        moved = image_code(h8, relabel)
        assert is_automorphism(moved, sigma)
        assert t_sigma(moved, sigma).pairs == frozenset(range(4))
        assert fixed_point_witness(moved, sigma) is None
