import json
from collections import Counter
from itertools import islice, permutations

import pytest

from pautkit import (
    InvalidInput,
    LinearCode,
    NotInvariant,
    Perm,
    TooLarge,
    conjecture_search,
    find_automorphism_outside,
    pairing_group_is_everything,
)
from pautkit import autgroup, census, verify
from pautkit.autgroup import (
    _automorphism_images,
    _block_entry,
    _pairing_split,
)
from pautkit.census import (
    _invariant_blocks,
    _twist_rows,
    enumerate_sigma_invariant,
    enumerate_subspaces,
    sigma_invariant_count,
)
from pautkit.fixed import _cheap_witness, fixed_subcode
from pautkit.gf2 import _reduce, _rref_ints
from pautkit.perm import _apply_bits, canonical_sigma
from pautkit.verify import (
    Counterexample,
    check_dim1_codes,
    check_dim2_codes,
    check_dim4_codes,
    check_fixed_dim_interval,
    check_fixed_point_witness,
    check_fixed_upper_bound,
    check_half_dim_bound,
    check_length4_codes,
    _journal_config,
    _scan_unit,
)


def test_half_dim_bound_suite():
    r = check_half_dim_bound(trials=2000, n_max=12, seed=1)
    assert r.ok and r.scanned == 2000 and r.witnesses_checked == 2000
    assert r.theorem_id == "lemma-2.1"


def test_fixed_upper_bound_scan():
    r = check_fixed_upper_bound(6)
    assert r.ok
    assert r.scanned == 378  # invariant codes over both partial pairings
    with pytest.raises(TooLarge):
        check_fixed_upper_bound(10)
    with pytest.raises(InvalidInput):
        check_fixed_upper_bound(7)


def test_dim1_scan():
    r = check_dim1_codes(6)
    assert r.ok and r.scanned == 63
    with pytest.raises(TooLarge):
        check_dim1_codes(10)


def test_dim2_scan():
    r = check_dim2_codes(6)
    assert r.ok and r.scanned == 651
    with pytest.raises(TooLarge):
        check_dim2_codes(4)


def test_dim2_dual_transfer_spot_check():
    # scanning co-dimension 2 directly at n=6 gives the same outcome
    hits = 0
    for code in enumerate_subspaces(6, 4):
        count = 0
        for _ in _automorphism_images(code):
            count += 1
            if count == 3:
                break
        if count == 2:
            hits += 1
    assert hits == 0


def test_length4_scan():
    r = check_length4_codes()
    assert r.ok and r.scanned == 35 and r.witnesses_checked == 210


def test_fixed_dim_interval_scan():
    # (scanned, witnesses_checked, counterexamples): no code of either
    # length has group exactly the pairing
    for n, scanned in ((6, 86), (8, 1812)):
        r = check_fixed_dim_interval(n).to_dict()
        assert (r["scanned"], r["witnesses_checked"], r["counterexamples"]) == (scanned, 0, [])
    with pytest.raises(TooLarge):
        check_fixed_dim_interval(10)


def test_fixed_dim_interval_reports_both_reasons(monkeypatch):
    # no block at n = 8, k >= 3 with a nonempty entry holds a code of
    # k = 3 or of fixed dimension k - 1 or k, so every block is opened
    # (an entry with no moves) and every open entry passed as pairing
    # only.  Each code must then come back with the reason its own fixed
    # subcode gives
    monkeypatch.setattr(verify, "_records", {})
    monkeypatch.setattr(verify, "_block_entry", lambda *args: ((), ()))
    monkeypatch.setattr(verify, "_pairing_only", lambda entry, *args: bool(entry))
    n = 8
    sigma = canonical_sigma(n)
    want = []
    for k in range(3, n + 1):
        for code in enumerate_sigma_invariant(n, k):
            f = fixed_subcode(code, sigma).k
            if k == 3:
                want.append((code.rows, "3-dimensional code with pairing-only group"))
            elif f >= k - 1:
                want.append((code.rows, f"fixed dim {f} in the forbidden band for k={k}"))
    r = check_fixed_dim_interval(n)
    got = [(ce.code.rows, ce.reason) for ce in r.counterexamples]
    assert sorted(got) == sorted(want)
    by_reason = Counter(reason.split(" ")[0] for _rows, reason in got)
    assert (r.scanned, r.witnesses_checked, by_reason) == (
        1812,
        1812,
        {"3-dimensional": 435, "fixed": 226},
    )


def test_dim4_scan():
    r = check_dim4_codes(6)
    assert r.ok and r.scanned == 35 and r.witnesses_checked == 35
    with pytest.raises(TooLarge):
        check_dim4_codes(14)
    with pytest.raises(InvalidInput):
        check_dim4_codes(7)


def test_fixed_point_witness_suite():
    r = check_fixed_point_witness(trials=2000, n_max=16, seed=2)
    assert r.ok and r.scanned == 2000 and r.witnesses_checked == 2000


def test_report_json_shape_and_determinism():
    a = check_length4_codes().to_dict()
    b = check_length4_codes().to_dict()
    assert list(a) == [
        "theorem_id",
        "n",
        "k_range",
        "scanned",
        "counterexamples",
        "witnesses_checked",
        "elapsed_ms",
        "slice",
    ]
    # byte-identical up to wall time
    a["elapsed_ms"] = b["elapsed_ms"] = 0
    assert json.dumps(a) == json.dumps(b)


def test_counterexample_serialization():
    ce = Counterexample(LinearCode.from_strings(["1100", "0011"]), "demo")
    assert ce.to_dict() == {"generators": ["1100", "0011"], "reason": "demo"}


def test_conjecture_guards():
    with pytest.raises(InvalidInput):
        conjecture_search(8)
    with pytest.raises(InvalidInput):
        conjecture_search(10, k_lo=4, k_hi=5)
    with pytest.raises(InvalidInput):
        conjecture_search(11)
    with pytest.raises(TooLarge):
        conjecture_search(14)
    with pytest.raises(InvalidInput):
        conjecture_search(10, slice_=(2, 2))


def test_conjecture_slices_sum_to_full(tmp_path):
    full = conjecture_search(10)
    assert full.scanned == 18291
    parts = [conjecture_search(10, slice_=(i, 2)) for i in range(2)]
    assert sum(p.scanned for p in parts) == full.scanned
    assert all(p.ok for p in parts) == full.ok


def test_conjecture_journal_resume(tmp_path):
    journal = tmp_path / "scan.ndjson"
    fresh = conjecture_search(10, journal_path=str(journal))
    assert fresh.scanned == 18291
    lines = journal.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "config"
    unit_lines = lines[1:]
    assert len(unit_lines) == 16

    # simulate a crash after the first 5 units
    partial = tmp_path / "partial.ndjson"
    partial.write_text("\n".join([lines[0]] + unit_lines[:5]) + "\n")
    before = sum(json.loads(line)["scanned"] for line in unit_lines[:5])
    resumed = conjecture_search(10, journal_path=str(partial))
    assert before + resumed.scanned == fresh.scanned
    # and the journal is now complete: a further resume scans nothing
    again = conjecture_search(10, journal_path=str(partial))
    assert again.scanned == 0


def test_conjecture_journal_empty_file_gets_config(tmp_path):
    journal = tmp_path / "empty.ndjson"
    journal.write_text("")
    fresh = conjecture_search(10, journal_path=str(journal))
    assert fresh.scanned == 18291
    lines = journal.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "config"
    assert len(lines) == 17
    assert conjecture_search(10, journal_path=str(journal)).scanned == 0


def test_conjecture_journal_drops_cut_off_last_line(tmp_path):
    journal = tmp_path / "scan.ndjson"
    conjecture_search(10, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    # a kill in the middle of writing the sixth unit record
    partial = tmp_path / "partial.ndjson"
    kept = "".join(line + "\n" for line in lines[:6])
    partial.write_text(kept + lines[6][: len(lines[6]) // 2])
    before = sum(json.loads(line)["scanned"] for line in lines[1:6])
    resumed = conjecture_search(10, journal_path=str(partial))
    assert before + resumed.scanned == 18291
    assert partial.read_text().startswith(kept)
    assert all(json.loads(line) for line in partial.read_text().splitlines())
    assert conjecture_search(10, journal_path=str(partial)).scanned == 0


def test_conjecture_journal_rejects_unparsable_line(tmp_path):
    broken = tmp_path / "broken.ndjson"
    broken.write_text("{not json\n")
    with pytest.raises(InvalidInput):
        conjecture_search(10, journal_path=str(broken))
    assert broken.read_text() == "{not json\n"


def _journal_text(*records):
    return "".join(json.dumps(rec) + "\n" for rec in records)


def test_conjecture_journal_counts_duplicate_unit_once(tmp_path):
    # a finished k = 6 slice journal written by hand, whose unit 3 holds
    # the two order-two representatives and is recorded twice
    reason = "automorphism group is exactly the pairing"
    hits = [
        Counterexample(LinearCode.from_strings(list(rows)), reason).to_dict()
        for rows in ORDER_TWO_LENGTH12_REPS
    ]
    records = [{"type": "config", "config": _journal_config(12, 6, 6, (0, 1024))}]
    for u in range(16):
        ces = hits if u == 3 else []
        records.append({"type": "unit", "k": 6, "unit": u, "scanned": 66, "counterexamples": ces})
    journal = tmp_path / "dup.ndjson"
    journal.write_text(_journal_text(*records, records[4]))
    report = conjecture_search(12, k_lo=6, k_hi=6, slice_=(0, 1024), journal_path=str(journal))
    assert report.scanned == 0
    assert [ce.to_dict() for ce in report.counterexamples] == hits


N10_CONFIG = {"type": "config", "config": _journal_config(10, 5, 5, (0, 1))}
N10_UNIT = {"type": "unit", "k": 5, "unit": 0, "scanned": 1, "counterexamples": []}
# parsable journals whose records are not JSON objects or lack a field
MALFORMED_JOURNALS = {
    "list-file": _journal_text([1]),
    "list-config": _journal_text([1, 2]),
    "list-unit": _journal_text(N10_CONFIG, [1, 2]),
    "string-unit": _journal_text(N10_CONFIG, "unit"),
    **{
        f"unit-without-{missing}": _journal_text(
            N10_CONFIG, {key: v for key, v in N10_UNIT.items() if key != missing}
        )
        for missing in ("k", "unit", "counterexamples")
    },
    # counterexamples that are not length-10 generator lists with a reason
    **{
        name: _journal_text(N10_CONFIG, {**N10_UNIT, "counterexamples": [ce]})
        for name, ce in (
            ("generator-of-length-3", {"generators": ["101"], "reason": "x"}),
            ("generators-as-a-string", {"generators": "1100000000", "reason": "x"}),
            ("reason-not-a-string", {"generators": ["1100000000"], "reason": 1}),
        )
    },
}


@pytest.mark.parametrize("name", MALFORMED_JOURNALS)
def test_conjecture_journal_rejects_malformed_record(tmp_path, name):
    text = MALFORMED_JOURNALS[name]
    journal = tmp_path / "bad.ndjson"
    journal.write_text(text)
    with pytest.raises(InvalidInput):
        conjecture_search(10, journal_path=str(journal))
    assert journal.read_text() == text


# a finished n = 10 journal, written by hand: the config line and the 16
# units of k = 5, none of which holds a counterexample
N10_FINISHED = [N10_CONFIG] + [{**N10_UNIT, "unit": u} for u in range(16)]
OUT_OF_BAND = {
    "k-above": {"k": 6},
    "k-below": {"k": 4},
    "unit-16": {"unit": 16},
    "unit-minus-1": {"unit": -1},
}


def out_of_band_journal(name: str) -> str:
    """The finished n = 10 journal plus one unit record outside its band
    that reports a counterexample."""
    ce = Counterexample(LinearCode.from_strings(["1100000000"]), "demo").to_dict()
    stray = {**N10_UNIT, "unit": 0, "counterexamples": [ce], **OUT_OF_BAND[name]}
    return _journal_text(*N10_FINISHED, stray)


def test_conjecture_finished_journal_resumes_clean(tmp_path):
    # the control for the out-of-band tests: without the stray record the
    # hand-written journal is accepted as finished and clean
    journal = tmp_path / "done.ndjson"
    journal.write_text(_journal_text(*N10_FINISHED))
    report = conjecture_search(10, journal_path=str(journal))
    assert report.scanned == 0 and report.ok


@pytest.mark.parametrize("name", OUT_OF_BAND)
def test_conjecture_journal_rejects_out_of_band_unit(tmp_path, name):
    text = out_of_band_journal(name)
    journal = tmp_path / "stray.ndjson"
    journal.write_text(text)
    with pytest.raises(InvalidInput, match="outside the configured band"):
        conjecture_search(10, journal_path=str(journal))
    assert journal.read_text() == text


def test_conjecture_journal_rejects_other_config(tmp_path):
    journal = tmp_path / "scan.ndjson"
    conjecture_search(10, slice_=(0, 2), journal_path=str(journal))
    with pytest.raises(InvalidInput):
        conjecture_search(10, slice_=(1, 2), journal_path=str(journal))


def test_conjecture_journal_of_interleaved_units_is_refused(tmp_path, capsys):
    # a journal written before units were contiguous runs: its config has
    # no version, and its unit records cover other positions, so it must
    # be refused with exit 2 and left as it was
    from pautkit.cli import main

    config = {key: v for key, v in _journal_config(10, 5, 5, (0, 1)).items() if key != "version"}
    journal = tmp_path / "old.ndjson"
    journal.write_text(_journal_text({"type": "config", "config": config}, N10_UNIT))
    before = journal.read_bytes()
    with pytest.raises(InvalidInput, match="different configuration"):
        conjecture_search(10, journal_path=str(journal))
    assert main(["conjecture", "--n", "10", "--journal", str(journal)]) == 2
    assert "different configuration" in capsys.readouterr().err
    assert journal.read_bytes() == before


def test_conjecture_pool_holds_at_most_the_pending_units(tmp_path, monkeypatch):
    # a stand-in pool that records its size and maps in this process: a
    # huge --jobs asks for one worker per pending unit, never more
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    serial = conjecture_search(10).to_dict()
    parallel = conjecture_search(10, jobs=100000).to_dict()
    assert sizes == [16]
    serial.pop("elapsed_ms")
    parallel.pop("elapsed_ms")
    assert parallel == serial
    # a journal with 14 of its 16 units done leaves two to scan
    journal = tmp_path / "part.ndjson"
    journal.write_text(_journal_text(*N10_FINISHED[:15]))
    assert conjecture_search(10, jobs=100000, journal_path=str(journal)).ok
    assert sizes == [16, 2]


def test_conjecture_parallel_matches_serial(tmp_path):
    serial = conjecture_search(10, journal_path=str(tmp_path / "serial.ndjson"))
    parallel = conjecture_search(10, jobs=2, journal_path=str(tmp_path / "par.ndjson"))
    assert parallel.scanned == serial.scanned
    assert parallel.ok == serial.ok
    # unit records agree (order included, since imap preserves it)
    serial_units = (tmp_path / "serial.ndjson").read_text().splitlines()[1:]
    par_units = (tmp_path / "par.ndjson").read_text().splitlines()[1:]
    assert serial_units == par_units


def test_conjecture_second_writer_is_refused(tmp_path):
    # this process holds the journal lock the way a running scan does; a
    # second scan on the journal, in its own process, must exit 2 and
    # leave the file as it was
    import fcntl
    import os
    import subprocess
    import sys

    import pautkit

    journal = tmp_path / "scan.ndjson"
    journal.write_text(_journal_text({"type": "config", "config": _journal_config(10, 5, 5, (0, 64))}))
    before = journal.read_bytes()
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pautkit.__file__))}
    cmd = [sys.executable, "-m", "pautkit", "conjecture", "--n", "10", "--slice", "0/64"]
    cmd += ["--journal", str(journal)]
    with open(journal, "rb") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "in use by another scan" in proc.stderr
    assert proc.stdout == ""
    assert journal.read_bytes() == before
    # once the lock is released the same scan runs on the journal
    assert conjecture_search(10, slice_=(0, 64), journal_path=str(journal)).scanned == 286
    assert len(journal.read_text().splitlines()) == 17


def test_scan_unit_matches_per_code_ladder():
    # the block-level scan of one journal unit per k of the n = 12 slice
    # 0/100 against the full automorphism search over the same stream
    # positions, so that the scan's centraliser-first test is checked
    # against an oracle that does not share it.  Unit 7 holds a run of
    # k = 6 positions with hits (unit 0 holds none)
    from pautkit import Perm, find_automorphism_outside
    from pautkit.census import _invariant_range
    from pautkit.verify import _JOURNAL_UNITS, _scan_unit, _unit_positions

    sigma = canonical_sigma(12)
    allowed = (Perm.identity(12), sigma)
    unit, idx, total = 7, 0, 100
    hits = 0
    for k in (5, 6, 7):
        start, step, stop = _unit_positions(12, k, unit, _JOURNAL_UNITS, idx, total)
        run = len(range(start, stop, step))
        codes = list(islice(_invariant_range(12, k, sigma, start, step), run))
        want = [c.rows for c in codes if find_automorphism_outside(c, allowed) is None]
        assert _scan_unit((12, k, unit, _JOURNAL_UNITS, idx, total)) == (len(codes), want)
        hits += len(want)
    assert hits == 83


# Representatives of the two permutation-equivalence classes of [12,6]
# codes whose automorphism group is exactly the pairing involution,
# found by the full n=12 scan (46080 codes, 23040 per class).  Their
# groups are confirmed independently below: a brute force over all 140152
# involutions of S_12 finds no other involution automorphism
# (test_length12_order_two_group_representatives), and a VF2
# graph-automorphism recount on the weight-colored incidence graph
# returns exactly {identity, pairing} (test_length12_representatives_vf2_recount).
ORDER_TWO_LENGTH12_REPS = (
    (
        "100100100000",
        "010100100110",
        "001100110110",
        "000010100100",
        "000001010111",
        "000000001111",
    ),
    (
        "100001010000",
        "010001001010",
        "001001001100",
        "000101011001",
        "000011010101",
        "000000111111",
    ),
)


def test_length12_order_two_group_representatives():
    from pautkit import (
        Perm,
        extra_automorphism,
        find_automorphism_outside,
        is_automorphism,
        paut,
    )
    from pautkit.perm import involutions

    sigma = canonical_sigma(12)
    ident = Perm.identity(12)
    for rows in ORDER_TWO_LENGTH12_REPS:
        code = LinearCode.from_strings(list(rows))
        assert code.k == 6
        assert is_automorphism(code, sigma)
        assert find_automorphism_outside(code, (ident, sigma)) is None
        report = paut(code)
        assert report.order == 2
        assert report.is_cyclic_of_order_2
        assert report.has_fpf_involution and not report.has_fixed_point_involution
        assert pairing_group_is_everything(code, sigma)
        assert extra_automorphism(code, sigma) is None
        # the dual has the same group
        dual = code.dual()
        assert dual.k == 6 and is_automorphism(dual, sigma)
        assert pairing_group_is_everything(dual, sigma)
        assert extra_automorphism(dual, sigma) is None

    # consistency with the structural results: a pairing-only group
    # forces the fixed dimension into [ceil(k/2), k-2] and a full pair
    # support (otherwise the complement witness would exist)
    from pautkit import fixed_subcode, t_sigma

    for rows in ORDER_TWO_LENGTH12_REPS:
        code = LinearCode.from_strings(list(rows))
        assert fixed_subcode(code, sigma).k == 3
        assert t_sigma(code, sigma).pairs == frozenset(range(6))

    # independent recount for the first representative: no involution in
    # S_12 besides the pairing maps the code onto itself
    code = LinearCode.from_strings(list(ORDER_TWO_LENGTH12_REPS[0]))
    for g in involutions(12):
        if g != sigma:
            assert not is_automorphism(code, g)


def test_length12_representatives_vf2_recount():
    # independent of the automorphism search: a coordinate permutation
    # fixes the code exactly when it extends to an automorphism of the
    # bipartite codeword/coordinate incidence graph, and that extension is
    # unique, so the colour-preserving graph automorphisms count PAut
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for rows in ORDER_TWO_LENGTH12_REPS:
        code = LinearCode.from_strings(list(rows))
        graph = nx.Graph()
        graph.add_nodes_from((("coord", i), {"colour": -1}) for i in range(12))
        for word in code.codewords():
            if word.weight:
                graph.add_node(("word", word.bits), colour=word.weight)
                graph.add_edges_from((("word", word.bits), ("coord", i)) for i in word.support())
        same_colour = lambda a, b: a["colour"] == b["colour"]
        matcher = GraphMatcher(graph, graph, node_match=same_colour)
        assert sum(1 for _ in matcher.isomorphisms_iter()) == 2


def test_length12_shard_detects_order_two_groups():
    # frozen deterministic sub-shard of the full length-12 scan
    report = conjecture_search(12, k_lo=6, k_hi=6, slice_=(0, 1024))
    assert report.scanned == 1058
    assert len(report.counterexamples) == 40
    assert not report.ok
    sigma = canonical_sigma(12)
    for ce in report.counterexamples[:3]:
        code = LinearCode.from_strings(ce.to_dict()["generators"])
        assert pairing_group_is_everything(code, sigma)


def test_scan_hits_are_parsed_only_from_the_journal(tmp_path, monkeypatch):
    # a hit of this call is built from the rows the scan returns; only the
    # counterexamples read back from a journal are parsed from strings
    parse = LinearCode.from_strings.__func__
    calls = []
    monkeypatch.setattr(
        LinearCode,
        "from_strings",
        classmethod(lambda cls, rows: calls.append(rows) or parse(cls, rows)),
    )
    band = dict(k_lo=6, k_hi=6, slice_=(0, 1024))
    plain = conjecture_search(12, **band).to_dict()
    assert len(plain["counterexamples"]) == 40 and calls == []
    journal = str(tmp_path / "scan.ndjson")
    assert conjecture_search(12, journal_path=journal, **band).scanned == 1058
    assert calls == []
    resumed = conjecture_search(12, journal_path=journal, **band).to_dict()
    assert resumed["scanned"] == 0 and len(calls) == 40
    assert resumed["counterexamples"] == plain["counterexamples"]


def test_length12_slice_outcome():
    # the slice the benchmark's first request scans: every k = 5..7
    # position i with i mod 100 == 0, so 24110 codes by the closed form
    report = conjecture_search(12, slice_=(0, 100))
    assert report.scanned == sum(
        len(range(0, sigma_invariant_count(12, k), 100)) for k in (5, 6, 7)
    ) == 24110
    assert len(report.counterexamples) == 433
    assert {c.code.k for c in report.counterexamples} == {6}


def test_block_records_are_the_block_entries(cold_census_tables, monkeypatch):
    # n = 10 and two n = 12 slices in one process, from cold tables: each
    # met block's record must be its test (a) entry, computed afresh, and
    # the empty entries one shared tuple; a block no scan met must have
    # no record
    monkeypatch.setattr(verify, "_records", {})
    assert conjecture_search(10).scanned == 18291
    assert conjecture_search(12, slice_=(0, 100)).scanned == 24110
    cold = conjecture_search(12, slice_=(37, 100)).to_dict()
    assert (cold["scanned"], len(cold["counterexamples"])) == (24109, 493)
    assert sorted(verify._records) == [(10, 5), (12, 5), (12, 6), (12, 7)]
    empty = set()
    nonempty = 0
    for (n, k), (records, _verdicts) in verify._records.items():
        met = {
            ordinal: (u_rows, fc_rows)
            for index, total in (((0, 1),) if n == 10 else ((0, 100), (37, 100)))
            for ordinal, u_rows, fc_rows, *_twists in _invariant_blocks(
                n, k, canonical_sigma(n), index, total
            )
        }
        for ordinal, (u_rows, fc_rows) in met.items():
            assert records[ordinal] == _block_entry(n, u_rows, fc_rows)
            if records[ordinal]:
                nonempty += 1
            else:
                empty.add(id(records[ordinal]))
        assert len(records) - records.count(None) == len(met)
    assert len(empty) == 1
    # 30 at n = 10, k = 5, and every one of the 1280 at n = 12, k = 5..7
    assert nonempty == 30 + 1280
    # a warm scan reads the records and the columns, with the same report
    calls = []
    monkeypatch.setattr(
        verify, "_block_entry", lambda *args: calls.append(args) or _block_entry(*args)
    )
    warm = conjecture_search(12, slice_=(37, 100)).to_dict()
    assert calls == []
    cold.pop("elapsed_ms")
    warm.pop("elapsed_ms")
    assert warm == cold


def _direct_verdict(entry, n, fc_rows, wrows):
    # test (a), then test (b) on the code if (a) passes: None when (a)
    # settles the code, else whether (b) finds no other involution; the
    # entry is not empty
    if autgroup._centraliser_fixes(entry, n, fc_rows, wrows):
        return None
    code = LinearCode(n, _rref_ints(fc_rows + wrows))
    return not autgroup._other_pairing_involution(code)


def test_flip_classes_share_their_verdicts():
    # every code of every block with a nonempty entry, at every even
    # n <= 10 and every k: both tests answer alike on a pair flip class,
    # so each code's direct verdict is the first one met for its key
    tallies = {}
    for n in (2, 4, 6, 8, 10):
        sigma = canonical_sigma(n)
        codes = 0
        first = {}
        for k in range(n + 1):
            for ordinal, u_rows, fc_rows, lifts, twist_basis, lvals in _invariant_blocks(
                n, k, sigma, 0, 1
            ):
                entry = _block_entry(n, u_rows, fc_rows)
                if not entry:
                    continue
                for lval in lvals:
                    wrows = _twist_rows(lifts, twist_basis, lval)
                    codes += 1
                    key = (k, ordinal, autgroup._flip_class(entry[0], n, fc_rows, wrows))
                    verdict = _direct_verdict(entry, n, fc_rows, wrows)
                    assert first.setdefault(key, verdict) == verdict, (n, key)
        tallies[n] = (codes, len(first), sum(v is True for v in first.values()))
    # (codes, classes, hit classes)
    assert tallies == {
        2: (3, 3, 3),
        4: (2, 1, 0),
        6: (8, 2, 0),
        8: (112, 14, 0),
        10: (3712, 232, 0),
    }


def test_scan_decides_once_per_flip_class(monkeypatch):
    # n = 12 slices 0 and 37 of 100 from a cold memo: the scan's hits,
    # in order, equal a per-code run of both tests over the slice's
    # positions of each k, in stream order
    monkeypatch.setattr(verify, "_records", {})
    sigma = canonical_sigma(12)
    reports = {}
    for index, hits in ((0, 433), (37, 493)):
        report = conjecture_search(12, slice_=(index, 100)).to_dict()
        want = []
        for k in (5, 6, 7):
            for ordinal, u_rows, fc_rows, lifts, twist_basis, lvals in _invariant_blocks(
                12, k, sigma, index, 100
            ):
                entry = _block_entry(12, u_rows, fc_rows)
                if not entry:
                    continue
                for lval in lvals:
                    wrows = _twist_rows(lifts, twist_basis, lval)
                    if _direct_verdict(entry, 12, fc_rows, wrows):
                        code = LinearCode(12, _rref_ints(fc_rows + wrows))
                        want.append([str(g) for g in code.gens])
        assert [ce["generators"] for ce in report["counterexamples"]] == want
        assert len(want) == hits
        reports[index] = report
    # (classes, hit classes) by (n, k)
    assert {key: (len(v), sum(v.values())) for key, (_, v) in verify._records.items()} == {
        (12, 5): (558, 0),
        (12, 6): (2702, 757),
        (12, 7): (558, 0),
    }
    # a warm rescan reads every verdict from the memo
    calls = []
    for name in ("_centraliser_fixes", "_other_pairing_involution"):
        test = getattr(autgroup, name)
        monkeypatch.setattr(
            autgroup, name, lambda *args, test=test, name=name: calls.append(name) or test(*args)
        )
    warm = conjecture_search(12, slice_=(37, 100)).to_dict()
    assert calls == []
    warm.pop("elapsed_ms")
    reports[37].pop("elapsed_ms")
    assert warm == reports[37]


def _altered_walk(monkeypatch, alter):
    # the census block walk of verify, with each yielded block altered
    walk = verify._invariant_blocks
    monkeypatch.setattr(verify, "_records", {})
    monkeypatch.setattr(
        verify, "_invariant_blocks", lambda *args: (alter(*block) for block in walk(*args))
    )


def test_scan_rejects_a_twist_row_off_its_u_row(monkeypatch):
    # bit 0 of the first lift flipped: l + l^sigma is no longer its U row
    _altered_walk(
        monkeypatch,
        lambda ordinal, u_rows, fc_rows, lifts, twist_basis, lvals: (
            ordinal, u_rows, fc_rows, tuple(w ^ (i == 0) for i, w in enumerate(lifts)),
            twist_basis, lvals,
        ),
    )
    with pytest.raises(RuntimeError, match="twist row"):
        _scan_unit((10, 5, 0, 1, 0, 1))


def test_scan_rejects_a_twist_basis_row_outside_the_fixed_space(monkeypatch):
    # bit 0 of every twist-basis row flipped: a basis row off Fix(sigma)
    # gives twist rows w with w + w^sigma off their U rows
    _altered_walk(
        monkeypatch,
        lambda ordinal, u_rows, fc_rows, lifts, twist_basis, lvals: (
            ordinal, u_rows, fc_rows, lifts, tuple(x ^ 1 for x in twist_basis), lvals,
        ),
    )
    with pytest.raises(RuntimeError, match="twist row"):
        _scan_unit((10, 5, 0, 1, 0, 1))


def test_scan_rejects_an_f_c_row_off_the_fixed_space(monkeypatch):
    # the last coordinate alone appended to the F_C rows: sigma moves it,
    # and each U row still reduces to 0 before the new row is reached
    _altered_walk(
        monkeypatch,
        lambda ordinal, u_rows, fc_rows, *twists: (ordinal, u_rows, fc_rows + (1 << 9,), *twists),
    )
    with pytest.raises(NotInvariant):
        _scan_unit((10, 5, 0, 1, 0, 1))


def test_scan_rejects_a_u_row_outside_the_fixed_subcode(monkeypatch):
    # a pair vector outside F_C appended to the U rows, past the lifts
    def outside(ordinal, u_rows, fc_rows, *twists):
        extra = [x for x in (3 << 2 * p for p in range(5)) if _reduce(fc_rows, x)]
        return ordinal, u_rows + tuple(extra[:1]), fc_rows, *twists

    _altered_walk(monkeypatch, outside)
    with pytest.raises(NotInvariant):
        _scan_unit((10, 5, 0, 1, 0, 1))


def test_length14_blocks_keep_their_own_records(monkeypatch):
    # rows of 14 bits, with the length guards lifted: a sparse k = 6 walk
    # and its scan must keep every block's facts apart.  Keys that packed
    # the rows into 12-bit fields gave 96 blocks of this walk another
    # block's test (a) entry, and 41 of its 521 open codes a wrong verdict
    monkeypatch.setattr(census, "LENGTH_GUARD", 14)
    monkeypatch.setattr(autgroup, "LENGTH_GUARD", 14)
    monkeypatch.setattr(verify, "_records", {})
    n, k = 14, 6
    sigma = canonical_sigma(n)
    allowed = (Perm.identity(n), sigma)
    step = sigma_invariant_count(n, k) // 3000
    scanned, hits = _scan_unit((n, k, 0, 1, 0, step))
    assert scanned == 3001
    records = verify._records[n, k][0]
    blocks = {}
    open_codes = 0
    searched_hits = []
    for ordinal, u_rows, fc_rows, lifts, twist_basis, lvals in _invariant_blocks(
        n, k, sigma, 0, step
    ):
        blocks[ordinal] = (u_rows, fc_rows)
        assert records[ordinal] == _block_entry(n, u_rows, fc_rows)
        for lval in lvals:
            code = LinearCode(n, _rref_ints(fc_rows + _twist_rows(lifts, twist_basis, lval)))
            assert _pairing_split(code)[:2] == (u_rows, fc_rows)
            if _cheap_witness(code, sigma) is not None:
                continue
            open_codes += 1
            if find_automorphism_outside(code, allowed) is None:
                searched_hits.append(code)
    # the ordinals map one-to-one onto the blocks
    assert len(set(blocks.values())) == len(blocks)
    assert open_codes == 521
    # the scan's verdicts, test (a) from the records and then (b), are
    # those of the full automorphism search
    assert [LinearCode(n, rows) for rows in hits] == searched_hits
    assert len(hits) == 67
    # a warm rescan reads every entry from the records
    calls = []
    monkeypatch.setattr(
        verify, "_block_entry", lambda *args: calls.append(args) or _block_entry(*args)
    )
    assert _scan_unit((n, k, 0, 1, 0, step)) == (scanned, hits)
    assert calls == []


@pytest.fixture(scope="module")
def length12_serial_scan():
    """The full serial n = 12 scan of this process from a cold memo: its
    report, the verdict of every pair flip class it met, and the number
    of test (b) searches it ran.  One scan for the tests that read it."""
    calls = []
    search = autgroup._other_pairing_involution
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_records", {})
        mp.setattr(
            autgroup, "_other_pairing_involution", lambda code: calls.append(code) or search(code)
        )
        report = conjecture_search(12)
        classes = [hit for _, verdicts in verify._records.values() for hit in verdicts.values()]
    return report, classes, len(calls)


def test_length12_full_scan_totals(length12_serial_scan):
    """Reproduces the full length-12 scan: 2410873 invariant codes at
    dimensions 5..7, of which exactly 46080 (all of dimension 6) have
    automorphism group exactly the pairing.  From a cold memo it meets
    7040 pair flip classes, 1440 of them hits, and runs test (b) once per
    hit class.  About 2 CPU-s on 2 cores with Python 3.11.7."""
    report, classes, searches = length12_serial_scan
    assert report.scanned == 2410873
    assert len(report.counterexamples) == 46080
    assert {ce.code.k for ce in report.counterexamples} == {6}
    assert (len(classes), sum(classes), searches) == (7040, 1440, 1440)


def _centraliser_of_sigma(n):
    # every element of C(sigma) = Z_2 wr S_{n/2} as an image tuple: a
    # pair permutation pi, 2p -> 2pi(p) and 2p+1 -> 2pi(p)+1, then the
    # flips of the pairs in a set x
    m = n // 2
    for pi in permutations(range(m)):
        for x in range(1 << m):
            yield tuple(2 * pi[i >> 1] + (i & 1 ^ x >> pi[i >> 1] & 1) for i in range(n))


def test_length12_hits_are_two_isodual_classes(length12_serial_scan):
    # README's record: the 46080 hits are the C(sigma)-orbits of the two
    # representatives, 23040 codes each, disjoint, each closed under
    # duality (so both classes are isodual), neither representative
    # self-dual, minimum weight 3.  Every permutation equivalence between
    # codes whose group is <sigma> lies in C(sigma), so these orbits are
    # the classes
    group = list(_centraliser_of_sigma(12))
    assert len(set(group)) == 46080 and group[0] == tuple(range(12))
    orbits = []
    for rows in ORDER_TWO_LENGTH12_REPS:
        code = LinearCode.from_strings(list(rows))
        orbit = {_rref_ints(_apply_bits(g, r) for r in code.rows) for g in group}
        assert len(orbit) == 23040
        assert code.dual().rows in orbit and code.dual() != code
        assert code.minimum_weight() == 3
        orbits.append(orbit)
    assert not orbits[0] & orbits[1]
    report = length12_serial_scan[0]
    assert {ce.code.rows for ce in report.counterexamples} == orbits[0] | orbits[1]


@pytest.mark.slow
def test_length12_parallel_scan_matches_serial(length12_serial_scan):
    """The full length-12 scan with 4 workers, each with its own memo,
    must give the serial report apart from elapsed_ms.  About 2.5 s wall
    and 3 CPU-s on 2 cores with Python 3.11.7; CI runs it on every push
    and pull request, in the slow job."""
    report = conjecture_search(12, jobs=4).to_dict()
    serial = length12_serial_scan[0].to_dict()
    report.pop("elapsed_ms")
    serial.pop("elapsed_ms")
    assert report == serial
