import random

import pytest

from pautkit import InvalidInput, LinearCode, TooLarge, Word
from pautkit.gf2 import format_code, parse_code, rref, weight

from bruteforce import naive_rref, word_list


def words(*rows):
    return [Word.from_string(r) for r in rows]


def test_word_string_round_trip():
    w = Word.from_string("1011")
    assert w.n == 4 and w.bits == 0b1101
    assert str(w) == "1011"
    assert w.support() == (0, 2, 3)
    assert w.bit(1) == 0


def test_word_rejects_bad_input():
    with pytest.raises(InvalidInput):
        Word(3, 0b1000)
    with pytest.raises(InvalidInput):
        Word.from_string("10") + Word.from_string("100")


@pytest.mark.parametrize(
    "text, bad", [("10x1", "x"), ("0_1", "_"), ("1 0", " "), ("+01", "+"), ("01-", "-")]
)
def test_word_rejects_characters_outside_01(text, bad):
    # int(text, 2) alone would accept the underscore, the sign and the
    # inner space; the message names the first bad character
    with pytest.raises(InvalidInput) as info:
        Word.from_string(text)
    assert str(info.value) == f"invalid character {bad!r} in word {text!r}"


def test_word_strings_at_the_edges():
    # the empty string is the word of length 0, and both directions keep
    # every leading and trailing zero of the length
    assert Word.from_string("") == Word(0, 0) and Word(0, 0).to_string() == ""
    assert Word.from_string(" 0100 \n") == Word(4, 0b0010)
    rng = random.Random(3)
    for n in range(1, 40):
        bits = rng.getrandbits(n)
        text = "".join("1" if bits >> i & 1 else "0" for i in range(n))
        assert Word(n, bits).to_string() == text
        assert Word.from_string(text) == Word(n, bits)


def test_weight_examples():
    assert weight(Word.from_string("0000")) == 0
    assert weight(Word.from_string("1111")) == 4
    assert weight(Word.from_string("1101")) == 3


def test_rref_examples():
    c = rref(words("1000", "0100"))
    assert [str(g) for g in c.gens] == ["1000", "0100"]
    assert c.k == 2

    # independently hand-reduced via the list-based oracle
    oracle = naive_rref([[1, 1, 0, 0], [0, 1, 1, 0]])
    c = rref(words("1100", "0110"))
    assert [word_list(g) for g in c.gens] == oracle
    assert [str(g) for g in c.gens] == ["1010", "0110"]

    c = rref(words("1111", "1111"))
    assert [str(g) for g in c.gens] == ["1111"] and c.k == 1


def test_rref_rejects_mixed_lengths_and_empty():
    with pytest.raises(InvalidInput):
        rref(words("10", "100"))
    with pytest.raises(InvalidInput):
        rref([])


def test_rref_idempotent_and_row_op_invariant():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 12)
        rows = [Word(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, n + 2))]
        c = rref(rows)
        assert rref(list(c.gens)) == c if c.k else True
        # shuffling and adding rows to each other leaves the span alone
        raw = [w.bits for w in rows]
        rng.shuffle(raw)
        if len(raw) >= 2:
            raw[0] ^= raw[1]
        again = rref([Word(n, b) for b in raw])
        assert again == c


def test_rref_matches_naive_oracle_randomized():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 10)
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(rng.randrange(1, n + 2))]
        mine = rref([Word.from_string("".join(map(str, r))) for r in rows])
        assert [word_list(g) for g in mine.gens] == naive_rref(rows)


def test_weight_distribution_examples():
    c = rref(words("1111"))
    assert c.weight_distribution() == (1, 0, 0, 0, 1)

    c = LinearCode.from_strings(["0010", "1100"])
    assert c.weight_distribution() == (1, 1, 1, 1, 0)

    c = LinearCode.full(3)
    assert c.weight_distribution() == (1, 3, 3, 1)


def test_weight_distribution_invariants():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 10)
        c = rref([Word(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, n + 1))])
        wd = c.weight_distribution()
        assert sum(wd) == 1 << c.k
        assert wd[0] == 1
        recount = [0] * (n + 1)
        for w in c.codewords():
            recount[w.weight] += 1
        assert tuple(recount) == wd


def test_weight_distribution_guard():
    big = LinearCode(31, tuple(1 << i for i in range(31)))
    with pytest.raises(TooLarge):
        big.weight_distribution()


def test_dual_examples():
    assert LinearCode.full(4).dual() == LinearCode.zero(4)
    c = rref(words("11"))
    assert c.dual() == c
    c = rref(words("1100", "0011"))
    assert c.dual() == c  # solves the even-overlap system by hand


def test_dual_dimension_and_orthogonality():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 16)
        c = rref([Word(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, n + 1))])
        d = c.dual()
        assert c.k + d.k == n
        for g in c.rows:
            for h in d.rows:
                assert (g & h).bit_count() % 2 == 0
        assert d.dual() == c


def test_dual_involutive_exhaustive_small():
    from pautkit import enumerate_subspaces

    for n in range(1, 7):
        for k in range(n + 1):
            for c in enumerate_subspaces(n, k):
                assert c.dual().dual() == c


def test_contains():
    c = rref(words("1100", "0011"))
    assert c.contains(Word.from_string("1111"))
    assert not c.contains(Word.from_string("1000"))
    assert LinearCode.zero(4).contains(Word.from_string("0000"))
    with pytest.raises(InvalidInput):
        c.contains(Word.from_string("11"))


def test_contains_closed_under_addition():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(2, 12)
        c = rref([Word(n, rng.getrandbits(n)) for _ in range(rng.randrange(1, n))])
        ws = list(c.codewords())
        a = rng.choice(ws)
        b = rng.choice(ws)
        assert c.contains(a + b)


def test_codewords_examples():
    assert [str(w) for w in LinearCode.zero(3).codewords()] == ["000"]
    assert sorted(str(w) for w in rref(words("11")).codewords()) == ["00", "11"]
    got = {w.bits for w in rref(words("1100", "0011")).codewords()}
    assert len(got) == 4
    for a in got:
        for b in got:
            assert a ^ b in got


def test_code_equality_is_subspace_equality():
    a = rref(words("1100", "0110"))
    b = rref(words("0110", "1010"))
    assert a == b
    assert hash(a) == hash(b)


def test_file_format_round_trip(tmp_path):
    c = rref(words("110000", "100011"))
    text = format_code(c)
    assert parse_code(text) == c
    assert parse_code("# note\n 1100 \n0011\n") == rref(words("1100", "0011"))
    # zero code round-trips through an all-zero row
    z = LinearCode.zero(5)
    assert parse_code(format_code(z)) == z
    with pytest.raises(InvalidInput):
        parse_code("# only comments\n")
    with pytest.raises(InvalidInput):
        parse_code("110\n1100\n")
    path = tmp_path / "c.code"
    from pautkit.gf2 import read_code, write_code

    write_code(path, c)
    assert read_code(path) == c
