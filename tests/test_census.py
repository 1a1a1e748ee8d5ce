import hashlib
import tracemalloc
from itertools import accumulate, islice

import pytest

from pautkit import (
    CensusSlice,
    InvalidInput,
    LinearCode,
    Perm,
    TooLarge,
    enumerate_invariant,
    enumerate_sigma_invariant,
    enumerate_subspaces,
    gaussian_binomial,
    invariant_subspace_count,
    shard,
    sigma_invariant_count,
)
from pautkit.census import (
    _block_count,
    _complement_in,
    _echelon_forms,
    _invariant_blocks,
    _span_rows,
    _twist_rows,
)
from pautkit.gf2 import _rref_ints
from pautkit.perm import canonical_sigma, image_code

from blocks import block_tuples


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 0) == 1
    assert gaussian_binomial(4, 1) == 15
    assert gaussian_binomial(4, 2) == 35  # (2^4-1)(2^4-2)/((2^2-1)(2^2-2))
    assert gaussian_binomial(6, 2) == 651
    assert gaussian_binomial(6, 3) == 1395
    assert gaussian_binomial(8, 2) == 10795
    assert gaussian_binomial(3, 5) == 0


def test_enumerate_subspaces_counts_and_uniqueness():
    for n in range(0, 7):
        for k in range(0, n + 1):
            codes = list(enumerate_subspaces(n, k))
            assert len(codes) == gaussian_binomial(n, k)
            assert len(set(codes)) == len(codes)
            for c in codes:
                assert c.k == k and c.n == n


def test_enumerate_subspaces_examples():
    assert list(enumerate_subspaces(5, 0)) == [LinearCode.zero(5)]
    assert sum(1 for _ in enumerate_subspaces(4, 2)) == 35
    assert sum(1 for _ in enumerate_subspaces(4, 1)) == 15


def test_enumerate_subspaces_guards():
    with pytest.raises(InvalidInput):
        list(enumerate_subspaces(4, 5))
    with pytest.raises(TooLarge):
        list(enumerate_subspaces(13, 2))


def test_enumeration_order_is_stable():
    first = [c.rows for c in enumerate_subspaces(5, 2)]
    second = [c.rows for c in enumerate_subspaces(5, 2)]
    assert first == second


def test_sigma_invariant_examples():
    assert [c.rows for c in enumerate_sigma_invariant(2, 1)] == [(0b11,)]
    got = {tuple(str(g) for g in c.gens) for c in enumerate_sigma_invariant(4, 1)}
    assert got == {("1100",), ("0011",), ("1111",)}


def test_sigma_invariant_matches_filter_oracle():
    for n in (2, 4, 6):
        sigma = canonical_sigma(n)
        for k in range(0, n + 1):
            native = set(enumerate_sigma_invariant(n, k))
            filtered = {
                c
                for c in enumerate_subspaces(n, k)
                if image_code(c, sigma) == c
            }
            assert native == filtered
            assert sigma_invariant_count(n, k) == len(native)


def test_sigma_invariant_stream_is_duplicate_free():
    for k in range(0, 9):
        codes = list(enumerate_sigma_invariant(8, k))
        assert len(codes) == len(set(codes)) == sigma_invariant_count(8, k)


def test_general_invariant_enumeration_matches_filter():
    # a partial pairing with fixed points
    n = 6
    beta = Perm.from_cycles("(1,2)(3,4)", n)
    for k in range(0, n + 1):
        native = set(enumerate_invariant(n, k, beta))
        filtered = {
            c for c in enumerate_subspaces(n, k) if image_code(c, beta) == c
        }
        assert native == filtered
        assert invariant_subspace_count(n, k, beta) == len(filtered)
    # a non-adjacent involution
    gamma = Perm.from_cycles("(1,4)(2,6)", n)
    for k in (1, 2, 3):
        native = set(enumerate_invariant(n, k, gamma))
        filtered = {
            c for c in enumerate_subspaces(n, k) if image_code(c, gamma) == c
        }
        assert native == filtered


def test_invariant_enumeration_rejects_non_involutions():
    with pytest.raises(InvalidInput):
        list(enumerate_invariant(4, 1, Perm.from_cycles("(1,2,3)", 4)))
    with pytest.raises(InvalidInput):
        list(enumerate_sigma_invariant(5, 1))


def test_shard_partition():
    full = list(shard(CensusSlice(4, 2)))
    assert len(full) == 35
    parts = [list(shard(CensusSlice(4, 2, partition=(i, 5)))) for i in range(5)]
    assert sum(len(p) for p in parts) == 35
    merged = [c for p in parts for c in p]
    assert set(merged) == set(full)
    seen = set()
    for p in parts:
        for c in p:
            assert c not in seen
            seen.add(c)


def test_shard_sigma_invariant():
    full = list(shard(CensusSlice(6, 2, sigma_invariant_only=True)))
    assert len(full) == 35
    halves = [
        list(shard(CensusSlice(6, 2, sigma_invariant_only=True, partition=(i, 2))))
        for i in range(2)
    ]
    assert set(halves[0]) | set(halves[1]) == set(full)
    assert not set(halves[0]) & set(halves[1])


def test_shard_validation():
    with pytest.raises(InvalidInput):
        list(shard(CensusSlice(4, 2, partition=(5, 5))))
    with pytest.raises(InvalidInput):
        list(shard(CensusSlice(4, 2, partition=(-1, 2))))
    with pytest.raises(InvalidInput):
        list(shard(CensusSlice(4, 6)))


def test_counts_at_n10_for_the_big_scans():
    assert sigma_invariant_count(10, 4) == 14291
    assert sigma_invariant_count(10, 5) == 18291


def test_invariant_range_matches_index_filter():
    from pautkit.census import _invariant_range

    for n, k, start, step in ((6, 3, 0, 1), (6, 3, 2, 5), (8, 4, 3, 7), (8, 5, 1, 16)):
        sigma = canonical_sigma(n)
        full = list(enumerate_sigma_invariant(n, k))
        want = [c for i, c in enumerate(full) if i >= start and (i - start) % step == 0]
        assert list(_invariant_range(n, k, sigma, start, step)) == want
    with pytest.raises(InvalidInput):
        list(_invariant_range(6, 3, canonical_sigma(6), -1, 2))
    with pytest.raises(InvalidInput):
        list(_invariant_range(6, 3, canonical_sigma(6), 0, 0))


def test_census_order_is_frozen():
    # sha256 over repr(code.rows) in stream order, recorded before the
    # walkers were merged; any change to the stream order shows here
    def digest(codes):
        h = hashlib.sha256()
        for c in codes:
            h.update(repr(c.rows).encode())
        return h.hexdigest()[:16]

    beta = Perm.from_cycles("(1,2)(3,4)", 6)
    assert digest(c for k in range(9) for c in enumerate_sigma_invariant(8, k)) == "aea71e7e19784fec"
    assert digest(c for k in range(7) for c in enumerate_subspaces(6, k)) == "17f7bcad7c49cb3c"
    assert digest(c for k in range(7) for c in enumerate_invariant(6, k, beta)) == "86c5fe7cfff8281c"
    assert digest(shard(CensusSlice(10, 5, True, (3, 7)))) == "61fb48fc15b21725"


def _index_filter(codes, start, step):
    return [c for i, c in enumerate(codes) if i >= start and (i - start) % step == 0]


def test_invariant_range_rank_addressing_edges():
    from pautkit.census import _invariant_range

    n, k = 8, 4
    sigma = canonical_sigma(n)
    full = list(enumerate_sigma_invariant(n, k))
    # band a = dim U holds C(r, a) * C(d_fix - a, f - a) * 2^(a*t) positions
    bands = [
        gaussian_binomial(4, a) * gaussian_binomial(4 - a, k - 2 * a) * (1 << (a * (4 - k + a)))
        for a in range(3)
    ]
    assert bands == [1, 210, 560] and sum(bands) == len(full)
    inside_last_band = bands[0] + bands[1] + 37
    cases = (
        (3, len(full) + 1),  # step larger than the whole stream
        (0, 10**9),
        (len(full), 1),  # start at and past the end: nothing
        (len(full) + 5, 3),
        (inside_last_band, 1),
        (inside_last_band, 13),
        (bands[0] + 5, 100),  # crosses from the a = 1 band into the a = 2 band
    )
    for start, step in cases:
        want = _index_filter(full, start, step)
        assert list(_invariant_range(n, k, sigma, start, step)) == want
    assert list(_invariant_range(n, k, sigma, len(full) + 5, 3)) == []
    assert list(_invariant_range(n, k, sigma, 3, len(full) + 1)) == [full[3]]


def test_invariant_range_with_fixed_points_matches_index_filter():
    from pautkit.census import _invariant_range

    beta = Perm.from_cycles("(1,2)(3,4)", 6)
    for k in range(7):
        full = list(enumerate_invariant(6, k, beta))
        for start, step in ((0, 1), (1, 2), (4, 7), (len(full) // 2, 5), (2, len(full) + 3)):
            want = _index_filter(full, start, step)
            assert list(_invariant_range(6, k, beta, start, step)) == want


def test_slice_units_sum_to_closed_form_coverage():
    # walk only, no witness ladder: the journal units of one n = 12 slice
    # partition the slice's positions of each census stream into
    # contiguous runs, in unit order, and the walk yields each run
    from pautkit.verify import _JOURNAL_UNITS, _unit_positions

    sigma = canonical_sigma(12)
    idx, total = 37, 100
    walked = coverage = 0
    for k in (5, 6, 7):
        stream = sigma_invariant_count(12, k)
        slice_positions = range(idx, stream, total)
        coverage += len(slice_positions)
        runs = [
            _unit_positions(12, k, u, _JOURNAL_UNITS, idx, total) for u in range(_JOURNAL_UNITS)
        ]
        assert all(step == total for _start, step, _stop in runs)
        positions = [range(start, min(stop, stream), step) for start, step, stop in runs]
        assert [p for run in positions for p in run] == list(slice_positions)
        for (start, step, stop), run in zip(runs, positions):
            blocks = _invariant_blocks(12, k, sigma, start, step, stop)
            got = sum(len(lvals) for _o, lvals, _rows in blocks)
            assert got == len(run)
            walked += got
    assert walked == coverage


def test_unit_walks_visit_each_block_once():
    # the block visits of the n = 12 journal units, walker only: no unit
    # yields a block twice, and units that are contiguous runs share only
    # the blocks at their ends, so per k the visits exceed the blocks met
    # by at most units - 1
    from pautkit.verify import _JOURNAL_UNITS, _unit_positions

    sigma = canonical_sigma(12)
    totals = {}
    for idx, total in ((0, 100), (0, 1)):
        visits = blocks = 0
        for k in (5, 6, 7):
            met = set()
            k_visits = 0
            for u in range(_JOURNAL_UNITS):
                run = _unit_positions(12, k, u, _JOURNAL_UNITS, idx, total)
                ordinals = [b[0] for b in _invariant_blocks(12, k, sigma, *run)]
                assert len(set(ordinals)) == len(ordinals)
                k_visits += len(ordinals)
                met.update(ordinals)
            assert k_visits <= len(met) + _JOURNAL_UNITS - 1
            visits += k_visits
            blocks += len(met)
        totals[idx, total] = (visits, blocks)
    # (visits, blocks met) of slice 0/100 and of the full walk, k = 5..7
    assert totals == {(0, 100): (18371, 18362), (0, 1): (65364, 65320)}


def _fixed_space_basis(n, involution):
    """The walker's fixed-space basis: the 2-cycle vectors, then the fixed
    points, the space whose complements the walk takes."""
    cycles = [(i, x) for i, x in enumerate(involution.images) if i < x]
    fixed = [i for i, x in enumerate(involution.images) if i == x]
    return tuple([(1 << a) | (1 << b) for a, b in cycles] + [1 << c for c in fixed])


def _all_subspace_rows(basis):
    return [
        _rref_ints(_span_rows(basis, form))
        for d in range(len(basis) + 1)
        for form in _echelon_forms(len(basis), d)
    ]


def test_block_rows_equal_direct_computation():
    spaces = [(n, canonical_sigma(n)) for n in (2, 4, 6, 8)]
    spaces.append((6, Perm.from_cycles("(1,2)(3,4)", 6)))
    for n, involution in spaces:
        basis = _fixed_space_basis(n, involution)
        met = set()
        for k in range(n + 1):
            for _o, lvals, rows in _invariant_blocks(n, k, involution, 0, 1):
                u_rows, fc_rows, lifts, twist_basis = built = rows()
                # reduced bases, the twist basis a direct complement, and
                # a second call builds the same rows
                assert u_rows == _rref_ints(u_rows) and fc_rows == _rref_ints(fc_rows)
                assert twist_basis == _complement_in(basis, fc_rows)
                assert len(lifts) == len(u_rows) and rows() == built
                met.add(fc_rows)
        # the F_C rows run over every subspace of the fixed space
        assert sorted(met) == sorted(_all_subspace_rows(basis))


def test_block_ordinals_number_the_blocks():
    beta = Perm.from_cycles("(1,2)(3,4)", 6)
    for n, k, involution in ((8, 4, canonical_sigma(8)), (8, 5, canonical_sigma(8)), (6, 3, beta)):
        walk = list(block_tuples(n, k, involution, 0, 1))
        # the full walk yields every block once, in ordinal order, with
        # all of its twist values
        assert [block[0] for block in walk] == list(range(_block_count(n, k, involution)))
        assert len({block[1:3] for block in walk}) == len(walk)
        for _o, u_rows, _fc, lifts, twist_basis, lvals in walk:
            assert lvals == range(1 << len(u_rows) * len(twist_basis))
            assert len(lifts) == len(u_rows)
        assert sum(len(block[5]) for block in walk) == invariant_subspace_count(n, k, involution)
        # a sparse walk builds the same blocks, and its twist values are
        # the positions 3, 10, 17, ... in each block
        starts = list(accumulate((len(block[5]) for block in walk), initial=0))
        sparse = list(block_tuples(n, k, involution, 3, 7))
        for ordinal, u_rows, fc_rows, lifts, twist_basis, lvals in sparse:
            assert walk[ordinal][1:5] == (u_rows, fc_rows, lifts, twist_basis)
            assert list(lvals) == [l for l in walk[ordinal][5] if (starts[ordinal] + l) % 7 == 3]
        assert sum(len(block[5]) for block in sparse) == len(range(3, starts[-1], 7))


def test_n12_positions_are_frozen():
    # sha256 over repr((u_rows, fc_rows, wrows)) of every position of
    # slice 0/100, recorded before U's quotient and F_C's twist basis
    # were taken from a table
    sigma = canonical_sigma(12)
    for _pass in range(2):
        # two walks, each of which builds its own blocks
        h = hashlib.sha256()
        for k in (5, 6, 7):
            for _b, u_rows, fc_rows, lifts, twist_basis, lvals in block_tuples(
                12, k, sigma, 0, 100
            ):
                for lval in lvals:
                    wrows = _twist_rows(lifts, twist_basis, lval)
                    h.update(repr((list(u_rows), fc_rows, wrows)).encode())
        assert h.hexdigest() == "cd8ba44eea4213066d34715d431f74a9339cc5c8e5a319df60ad942eb88079fa"


def test_large_fixed_space_census_is_exact():
    # (1,2) at n = 8 has a 7-dimensional fixed space with 29212 subspaces
    beta = Perm.from_cycles("(1,2)", 8)
    for k in range(9):
        codes = {
            LinearCode(8, _rref_ints(fc_rows + _twist_rows(lifts, twist_basis, lval)))
            for _b, _u, fc_rows, lifts, twist_basis, lvals in block_tuples(8, k, beta, 0, 1)
            for lval in lvals
        }
        assert len(codes) == invariant_subspace_count(8, k, beta)
        assert all(image_code(c, beta) == c for c in codes)


def test_long_band_allocates_no_column():
    # (1,2) at n = 12: the k = 6 band a = 0 has 3548836819 blocks, one
    # per F_C.  The walk keeps nothing per band, and no F_C complement of
    # an involution with fixed points, so its first 50 blocks, built,
    # and 2000 more peak under 100 kB once the echelon layouts are cached
    beta = Perm.from_cycles("(1,2)", 12)
    assert _block_count(12, 6, beta) > 3548836819
    list(islice(block_tuples(12, 6, beta, 0, 1), 50))
    walk = block_tuples(12, 6, beta, 0, 1)
    tracemalloc.start()
    try:
        blocks = list(islice(walk, 50))
        for _block in islice(walk, 2000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert [b[0] for b in blocks] == list(range(50))
    for _b, _u, fc_rows, lifts, twist_basis, lvals in blocks:
        assert lvals == range(1)
        code = LinearCode(12, _rref_ints(fc_rows + _twist_rows(lifts, twist_basis, 0)))
        assert image_code(code, beta) == code
