"""Exhaustive and randomized checks of the structural claims, plus the
counterexample search harness for the open conjecture at larger lengths.

Every check returns a :class:`VerifyReport`; a report with an empty
counterexample list means the checked statement held on the scanned
domain.  Reports serialize to JSON with a fixed field order so that
runs with equal parameters produce identical output (up to the wall
time field).
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from math import factorial
from random import Random
from typing import Iterator

from .autgroup import (
    find_automorphism_outside,
    is_automorphism,
    is_group_code,
    is_quasi_group_code,
    paut,
    _automorphism_images,
    _block_entry,
    _flip_class,
    _pairing_only,
    _pairing_split,
)
from .census import (
    _block_count,
    _invariant_blocks,
    _twist_rows,
    enumerate_invariant,
    enumerate_sigma_invariant,
    enumerate_subspaces,
    sigma_invariant_count,
)
from .errors import InvalidInput, NotInvariant, TooLarge
from .fixed import (
    _require_canonical_sigma,
    extra_automorphism,
    fixed_point_witness,
    fixed_subcode,
    t_sigma,
)
from .gf2 import LinearCode, _reduce, _rref_ints
from .perm import (
    Perm,
    _apply_bits,
    canonical_sigma,
    fixed_points,
    from_transpositions,
    generate,
    is_involution,
    pair_product,
)

CONJECTURE_LENGTH_GUARD = 12
_JOURNAL_UNITS = 16
# The journal layout: 2 since each unit is a contiguous run of its
# slice's positions (``_unit_positions``); a journal without it was
# written with interleaved units and covers other positions per unit.
_JOURNAL_VERSION = 2

# The scan's memo by (n, k) (see ``_scan_unit``): the record of each
# census block of the pairing by block ordinal, None until a scan of this
# process first meets the block, the empty test (a) entry () or (entry,
# F_C rows, lifts, twist basis); and whether PAut is exactly <sigma> by
# flip class key, for every class of a nonempty entry a scan has met.
_records: dict[tuple[int, int], tuple[list[tuple | None], dict[int, bool]]] = {}


@dataclass(frozen=True)
class Counterexample:
    code: LinearCode
    reason: str

    def to_dict(self) -> dict:
        return {
            "generators": [str(g) for g in self.code.gens],
            "reason": self.reason,
        }


@dataclass
class VerifyReport:
    theorem_id: str
    n: int
    k_range: tuple[int, int]
    scanned: int
    counterexamples: list[Counterexample] = field(default_factory=list)
    witnesses_checked: int = 0
    elapsed_ms: int = 0
    slice: tuple[int, int] = (0, 1)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "n": self.n,
            "k_range": list(self.k_range),
            "scanned": self.scanned,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "witnesses_checked": self.witnesses_checked,
            "elapsed_ms": self.elapsed_ms,
            "slice": {"index": self.slice[0], "total": self.slice[1]},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _finish(report: VerifyReport, t0: float) -> VerifyReport:
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


def _require_even(n: int) -> None:
    if n <= 0 or n % 2:
        raise InvalidInput(f"length {n} is not a positive even number")


def _random_involution(rng: Random, n: int) -> Perm:
    """Uniformly structured random involution: t >= 1 random disjoint swaps."""
    t = rng.randint(1, n // 2)
    pts = list(range(n))
    rng.shuffle(pts)
    return from_transpositions(n, zip(pts[: 2 * t : 2], pts[1 : 2 * t : 2]))


def _random_invariant_code(rng: Random, n: int, p: Perm) -> LinearCode:
    """Random code invariant under p: span of orbit pairs and symmetrized
    vectors."""
    rows: list[int] = []
    for _ in range(rng.randint(1, max(2, n - 1))):
        w = rng.getrandbits(n)
        if rng.random() < 0.5:
            rows.append(w ^ _apply_bits(p.images, w))
        else:
            rows.append(w)
            rows.append(_apply_bits(p.images, w))
    return LinearCode(n, _rref_ints(rows))


def check_half_dim_bound(trials: int = 10000, n_max: int = 12, seed: int = 0) -> VerifyReport:
    """Planted-involution random codes: the fixed subcode always carries
    at least half the dimension."""
    t0 = time.monotonic()
    if n_max < 2:
        raise InvalidInput("need n_max >= 2")
    if trials < 1:
        raise InvalidInput("need trials >= 1")
    rng = Random(seed)
    rep = VerifyReport("lemma-2.1", n_max, (0, n_max), 0)
    for _ in range(trials):
        n = rng.randrange(2, n_max + 1)
        beta = _random_involution(rng, n)
        code = _random_invariant_code(rng, n, beta)
        rep.scanned += 1
        k = code.k
        f = fixed_subcode(code, beta).k
        rep.witnesses_checked += 1
        if 2 * f < k:
            rep.counterexamples.append(
                Counterexample(code, f"fixed dim {f} below half of k={k} under {beta}")
            )
    return _finish(rep, t0)


def check_fixed_upper_bound(n: int = 6) -> VerifyReport:
    """When a partial pairing involution generates the whole automorphism
    group, the fixed subcode is a proper subcode (dim <= k-1).
    Exhaustive over invariant codes of every dimension."""
    t0 = time.monotonic()
    _require_even(n)
    if not 4 <= n <= 8:
        raise TooLarge("exhaustive upper-bound scan limited to even lengths 4..8")
    rep = VerifyReport("lemma-2.2", n, (0, n), 0)
    ident = Perm.identity(n)
    for t in range(3, n, 2):
        beta = pair_product(n, range((t + 1) // 2))
        allowed = (ident, beta)
        for k in range(0, n + 1):
            for code in enumerate_invariant(n, k, beta):
                rep.scanned += 1
                if find_automorphism_outside(code, allowed) is None:
                    rep.witnesses_checked += 1
                    f = fixed_subcode(code, beta).k
                    if f > k - 1:
                        rep.counterexamples.append(
                            Counterexample(
                                code, f"wholly fixed code with group exactly <{beta}>"
                            )
                        )
    return _finish(rep, t0)


def check_dim1_codes(n: int = 6) -> VerifyReport:
    """Every 1-dimensional code: group order d!(n-d)!, never of order 2;
    even weight below n gives a quasi group code that is not a group
    code; at power-of-two lengths the quasi property is exactly even
    weight."""
    t0 = time.monotonic()
    _require_even(n)
    if not 4 <= n <= 8:
        raise TooLarge("dimension-1 scan limited to even lengths 4..8")
    rep = VerifyReport("prop-3.1", n, (1, 1), 0)
    power_of_two = n & (n - 1) == 0
    for v in range(1, 1 << n):
        code = LinearCode(n, (v,))
        rep.scanned += 1
        d = v.bit_count()
        report = paut(code)
        if report.order != factorial(d) * factorial(n - d):
            rep.counterexamples.append(
                Counterexample(code, f"order {report.order} != {d}!({n}-{d})!")
            )
            continue
        if report.order == 2:
            rep.counterexamples.append(Counterexample(code, "group of order 2"))
            continue
        if d % 2 == 0 and d != n:
            if not is_quasi_group_code(code) or is_group_code(code):
                rep.counterexamples.append(
                    Counterexample(code, "even weight below n must be quasi, not group")
                )
                continue
        if power_of_two and d != n:
            if is_quasi_group_code(code) != (d % 2 == 0):
                rep.counterexamples.append(
                    Counterexample(code, "quasi group property must equal even weight")
                )
                continue
        rep.witnesses_checked += 1
    return _finish(rep, t0)


def check_dim2_codes(n: int = 6) -> VerifyReport:
    """No 2-dimensional code of even length >= 6 has an automorphism
    group of order 2.  Exhaustive; co-dimension 2 follows by duality."""
    t0 = time.monotonic()
    _require_even(n)
    if n not in (6, 8):
        raise TooLarge("exhaustive dimension-2 scan limited to lengths 6 and 8")
    rep = VerifyReport("thm-3.2", n, (2, 2), 0)
    for code in enumerate_subspaces(n, 2):
        rep.scanned += 1
        count = 0
        for _ in _automorphism_images(code):
            count += 1
            if count == 3:
                break
        rep.witnesses_checked += 1
        if count == 2:
            rep.counterexamples.append(
                Counterexample(code, "automorphism group of order exactly 2")
            )
    return _finish(rep, t0)


def check_length4_codes() -> VerifyReport:
    """Length-4 characterization: a 2-dimensional code has automorphism
    group exactly a transposition iff the transposition fixes it
    pointwise and its weight distribution is (1,1,1,1,0); moreover each
    of the 6 transpositions has exactly 2 such codes."""
    t0 = time.monotonic()
    n = 4
    target_wd = (1, 1, 1, 1, 0)
    transpositions = [
        from_transpositions(n, [(a, b)]) for a in range(n) for b in range(a + 1, n)
    ]
    counts = {p: 0 for p in transpositions}
    rep = VerifyReport("prop-3.4", n, (2, 2), 0)
    for code in enumerate_subspaces(n, 2):
        rep.scanned += 1
        wd = code.weight_distribution()
        report = paut(code)
        for beta in transpositions:
            pointwise = fixed_subcode(code, beta) == code
            expected = pointwise and wd == target_wd
            actual = report.order == 2 and is_automorphism(code, beta)
            rep.witnesses_checked += 1
            if actual != expected:
                rep.counterexamples.append(
                    Counterexample(
                        code,
                        f"group exactly <{beta}> is {actual} but the "
                        f"pointwise/weight characterization says {expected}",
                    )
                )
            if actual:
                counts[beta] += 1
    for beta, c in counts.items():
        if c != 2:
            rep.counterexamples.append(
                Counterexample(
                    LinearCode.zero(n), f"{c} codes with group exactly <{beta}>, expected 2"
                )
            )
    return _finish(rep, t0)


def check_fixed_dim_interval(n: int = 6) -> VerifyReport:
    """Codes whose automorphism group is exactly the pairing involution
    have fixed subcode dimension between ceil(k/2) and k-2; in
    particular no such code of dimension 3 exists.  Each dimension is
    one unit of the census scan (``_scan_unit``), and the fixed subcode
    is computed for its hits alone."""
    t0 = time.monotonic()
    _require_even(n)
    if n not in (6, 8):
        raise TooLarge("exhaustive interval scan limited to lengths 6 and 8")
    sigma = canonical_sigma(n)
    rep = VerifyReport("thm-4.2", n, (3, n), 0)
    for k in range(3, n + 1):
        scanned, hits = _scan_unit((n, k, 0, 1, 0, 1))
        rep.scanned += scanned
        rep.witnesses_checked += len(hits)
        for rows in hits:
            code = LinearCode(n, rows)
            f = fixed_subcode(code, sigma).k
            if k == 3:
                rep.counterexamples.append(
                    Counterexample(code, "3-dimensional code with pairing-only group")
                )
            elif f >= k - 1:
                rep.counterexamples.append(
                    Counterexample(code, f"fixed dim {f} in the forbidden band for k={k}")
                )
    return _finish(rep, t0)


def check_dim4_codes(n: int = 6) -> VerifyReport:
    """No 4-dimensional invariant code has the pairing involution as its
    entire automorphism group, and a non-pairing involution witness is
    produced and validated for every scanned code."""
    t0 = time.monotonic()
    _require_even(n)
    if n not in (6, 8, 10):
        raise TooLarge("exhaustive dimension-4 scan limited to lengths 6, 8 and 10")
    sigma = canonical_sigma(n)
    ident = Perm.identity(n)
    allowed = (ident, sigma)
    rep = VerifyReport("thm-4.4", n, (4, 4), 0)
    for code in enumerate_sigma_invariant(n, 4):
        rep.scanned += 1
        extra = extra_automorphism(code, sigma)
        valid = (
            extra is not None
            and extra != sigma
            and is_involution(extra)
            and is_automorphism(code, extra)
        )
        if valid:
            rep.witnesses_checked += 1
            continue
        if find_automorphism_outside(code, allowed) is None:
            rep.counterexamples.append(
                Counterexample(code, "pairing involution is the entire automorphism group")
            )
        else:
            rep.counterexamples.append(
                Counterexample(code, "no involution witness found despite a larger group")
            )
    return _finish(rep, t0)


def check_fixed_point_witness(
    trials: int = 10000, n_max: int = 16, seed: int = 0
) -> VerifyReport:
    """Random invariant codes whose pair support is not full: the
    complement witness satisfies all five guarantees (non-identity,
    differs from the pairing, fixes the code, has at least two fixed
    points, spans a Klein four group with the pairing)."""
    t0 = time.monotonic()
    if n_max < 4:
        raise InvalidInput("need n_max >= 4")
    if trials < 1:
        raise InvalidInput("need trials >= 1")
    rng = Random(seed)
    rep = VerifyReport("thm-5.1", n_max, (0, n_max), 0)
    sigmas = {n: canonical_sigma(n) for n in range(4, n_max + 1, 2)}
    done = 0
    while done < trials:
        n = 2 * rng.randrange(2, n_max // 2 + 1)
        sigma = sigmas[n]
        code = _random_invariant_code(rng, n, sigma)
        if len(t_sigma(code, sigma)) == n // 2:
            continue
        done += 1
        rep.scanned += 1
        beta = fixed_point_witness(code, sigma)
        problems = []
        if beta is None:
            problems.append("no witness returned")
        else:
            if beta == Perm.identity(n):
                problems.append("witness is the identity")
            if beta == sigma:
                problems.append("witness equals the pairing involution")
            if not is_automorphism(code, beta):
                problems.append("witness is not an automorphism")
            if len(fixed_points(beta)) < 2:
                problems.append("witness has fewer than two fixed points")
            group = generate([sigma, beta])
            if len(group) != 4 or any(
                not is_involution(g) for g in group if g != Perm.identity(n)
            ):
                problems.append("witness does not span a Klein four group")
        if problems:
            rep.counterexamples.append(Counterexample(code, "; ".join(problems)))
        else:
            rep.witnesses_checked += 1
    return _finish(rep, t0)


def pairing_group_is_everything(code: LinearCode, sigma: Perm) -> bool:
    """True iff the automorphism group is exactly {identity, pairing}.

    Raises ``InvalidInput`` unless sigma is the canonical pairing of the
    code's length, and ``NotInvariant`` when sigma does not fix the
    code.  The code's census block (``autgroup._pairing_split``) gets its
    entry, ``autgroup._block_entry``, and ``autgroup._pairing_only``
    decides the group from it, as the census scan does: an empty entry,
    at any even length, means a pair flip other than the identity and
    sigma fixes the code; otherwise tests (a) and (b) decide, and a code
    longer than ``autgroup.LENGTH_GUARD`` raises ``TooLarge``.
    """
    n = _require_canonical_sigma(sigma)
    if code.n != n:
        raise InvalidInput("length mismatch")
    if not is_automorphism(code, sigma):
        raise NotInvariant("code is not invariant under the pairing involution")
    u_rows, fc_rows, wrows = _pairing_split(code)
    return _pairing_only(_block_entry(n, u_rows, fc_rows), n, fc_rows, wrows)


def _unit_positions(
    n: int, k: int, unit: int, units: int, sidx: int, stotal: int
) -> tuple[int, int, int]:
    """(start, step, stop) of journal unit ``unit`` of ``units`` in the
    k-dimensional stream of slice sidx/stotal: of the c positions
    sidx + m*stotal the slice holds, the unit takes the contiguous run
    unit*c//units <= m < (unit+1)*c//units."""
    c = len(range(sidx, sigma_invariant_count(n, k), stotal))
    return (
        sidx + unit * c // units * stotal,
        stotal,
        sidx + (unit + 1) * c // units * stotal,
    )


def _scan_unit(args: tuple[int, int, int, int, int, int]) -> tuple[int, list[tuple[int, ...]]]:
    """Scan one journal unit; returns (scanned, the reduced rows of each
    code whose group is exactly <sigma>), in stream order.

    The unit's codes are a contiguous run of its slice's stream
    positions (``_unit_positions``); the block walker,
    ``census._invariant_blocks``, yields each (U, F_C) block the run
    meets once, with the unit's twist values in it, and a unit shares
    only the blocks at the ends of its run with the units next to it.
    ``_records[n, k]`` is the scan's one memo per process: a list of
    block records and a dict of class verdicts.  A block without a
    record gets its rows built, checked and its record: the shared empty
    test (a) entry (``autgroup._block_entry``) when the block's flip
    kernel holds a pair flip other than the identity and sigma, among
    them every block the cheap witnesses settle, and otherwise the entry
    with the F_C rows, lifts and twist basis.  A block with a record is
    never built again, so a revisit costs a list read and a count, and
    the codes of a block with the empty entry are counted but never
    built.  At n = 12, k = 5..7 that is 65320 slots, of which 1280
    blocks get a nonempty entry.  In those, tests (a) and (b) are
    decided once per pair flip class: the pair flips map a code to codes
    of its block with the same verdict, and their twist residues fill a
    coset of the entry's W (the ``autgroup`` module docstring).  The
    class key packs the block ordinal below ``autgroup._flip_class``,
    that coset's canonical word, and keys the verdict dict.  A class met
    first is decided by ``autgroup._pairing_only``: test (a) and, only
    if it passes, test (b) on the built code, the decision of
    ``pairing_group_is_everything``.  The full n = 12 scan meets 7040
    classes, 1440 of them hits.  Every block's rows are checked before
    any of its codes is counted: the F_C rows must be fixed by sigma and
    the U rows must lie in F_C (``NotInvariant``), each lift l must have
    l + l^sigma equal to its U row, and each twist-basis row must be
    fixed by sigma.  By linearity every twist row w of the block then
    has w + w^sigma equal to its U row, so w + w^sigma lies in F_C, and
    w reads equal bits on the pairs U misses, where the complement
    witness swaps them.  Each hit is reported as its own reduced rows,
    plain ints that pass through a worker pool as they are.
    """
    n, k = args[:2]
    sigma = canonical_sigma(n)
    memo = _records.get((n, k))
    if memo is None:
        memo = _records[n, k] = ([None] * _block_count(n, k, sigma), {})
    records, verdicts = memo
    # a class key holds the block ordinal in its low bits
    ordinal_bits = len(records).bit_length()
    # sigma swaps the two bits of every pair (2p, 2p+1)
    low_bits = int("01" * (n // 2), 2)
    scanned = 0
    hits: list[tuple[int, ...]] = []
    for ordinal, lvals, rows in _invariant_blocks(n, k, sigma, *_unit_positions(*args)):
        record = records[ordinal]
        if record is None:
            u_rows, fc_rows, lifts, twist_basis = rows()
            for x in fc_rows:
                if (x ^ x >> 1) & low_bits:
                    raise NotInvariant("code is not invariant under the pairing involution")
            for u in u_rows:
                if _reduce(fc_rows, u):
                    raise NotInvariant("code is not invariant under the pairing involution")
            # each lift w has w + w^sigma equal to its U row, and each
            # twist-basis row w has w + w^sigma = 0
            for w, u in zip(lifts + twist_basis, u_rows + (0,) * len(twist_basis)):
                if w ^ ((w & low_bits) << 1 | (w >> 1) & low_bits) != u:
                    raise RuntimeError("twist row does not lift its U row")
            entry = _block_entry(n, u_rows, fc_rows)
            record = records[ordinal] = entry and (entry, fc_rows, lifts, twist_basis)
        scanned += len(lvals)
        if not record:
            continue
        entry, fc_rows, lifts, twist_basis = record
        for lval in lvals:
            wrows = _twist_rows(lifts, twist_basis, lval)
            key = _flip_class(entry[0], n, fc_rows, wrows) << ordinal_bits | ordinal
            hit = verdicts.get(key)
            if hit is None:
                hit = verdicts[key] = _pairing_only(entry, n, fc_rows, wrows)
            if hit:
                hits.append(_rref_ints(fc_rows + wrows))
    return scanned, hits


def _journal_config(n: int, lo: int, hi: int, slice_: tuple[int, int]) -> dict:
    return {
        "n": n,
        "k_lo": lo,
        "k_hi": hi,
        "slice": list(slice_),
        "units": _JOURNAL_UNITS,
        "version": _JOURNAL_VERSION,
    }


def _load_journal(fd: int | None, config: dict) -> tuple[set[tuple[int, int]], list[dict]]:
    """The finished units and counterexamples recorded in the journal
    open at ``fd`` (``_journal_lock``).

    A new or empty journal gets its config line.  A final line
    without its newline is a record cut off by a kill: it is dropped and
    the file is truncated to its last complete line.  A repeated record
    of a finished unit adds nothing; a record whose k or unit lies
    outside the configured band is rejected, and so is a counterexample
    that is not a list of length-n generator strings with a reason.
    """
    done: set[tuple[int, int]] = set()
    prior_ces: list[dict] = []
    if fd is None:
        return done, prior_ces
    with open(fd, "rb", closefd=False) as fh:
        data = fh.read()
    complete = data[: data.rfind(b"\n") + 1]
    try:
        records = [
            json.loads(line) for line in complete.decode("utf-8").splitlines() if line.strip()
        ]
    except ValueError as exc:
        raise InvalidInput(f"unreadable journal line: {exc}") from exc
    if not all(isinstance(rec, dict) for rec in records):
        raise InvalidInput("malformed journal record: not a JSON object")
    if records:
        head = records[0]
        if head.get("type") != "config" or head.get("config") != config:
            raise InvalidInput("journal belongs to a different configuration")
    for rec in records[1:]:
        if not _is_unit_record(rec, config["n"]):
            raise InvalidInput("malformed journal record")
        if not (
            config["k_lo"] <= rec["k"] <= config["k_hi"]
            and 0 <= rec["unit"] < config["units"]
        ):
            raise InvalidInput(
                f"journal record outside the configured band: k={rec['k']}, unit={rec['unit']}"
            )
        if (rec["k"], rec["unit"]) not in done:
            done.add((rec["k"], rec["unit"]))
            prior_ces.extend(rec["counterexamples"])
    if len(complete) < len(data):
        os.ftruncate(fd, len(complete))
    if not records:
        _append_journal(fd, {"type": "config", "config": config})
    return done, prior_ces


def _is_unit_record(rec: dict, n: int) -> bool:
    ces = rec.get("counterexamples")
    return (
        rec.get("type") == "unit"
        and isinstance(rec.get("k"), int)
        and isinstance(rec.get("unit"), int)
        and isinstance(ces, list)
        and all(
            isinstance(ce, dict)
            and isinstance(ce.get("reason"), str)
            and isinstance(ce.get("generators"), list)
            and all(isinstance(g, str) and len(g) == n for g in ce["generators"])
            for ce in ces
        )
    )


@contextmanager
def _journal_lock(path) -> Iterator[int]:
    """The journal (created if missing), opened once for reading and
    appending, under an exclusive lock for the whole scan; a second scan
    on the same journal is refused rather than interleaving its records.
    Only this process writes the journal, so worker processes need no
    lock of their own."""
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as exc:
            raise InvalidInput(f"journal {path} is in use by another scan") from exc
        yield fd
    finally:
        os.close(fd)


def _append_journal(fd: int, record: dict) -> None:
    """Append one record line to the journal open at ``fd`` and fsync it,
    so a finished unit survives a kill."""
    data = (json.dumps(record) + "\n").encode()
    while data:
        data = data[os.write(fd, data) :]
    os.fsync(fd)


def conjecture_search(
    n: int,
    k_lo: int | None = None,
    k_hi: int | None = None,
    slice_: tuple[int, int] = (0, 1),
    journal_path=None,
    jobs: int = 1,
) -> VerifyReport:
    """Scan pairing-invariant codes in the unsettled dimension band for
    one whose automorphism group is exactly the pairing involution.

    Any hit would be a counterexample to the conjecture that no quasi
    group code has an automorphism group of order 2, and is reported
    with its generators.  Work is split into per-dimension units that
    are journaled as they complete, so an interrupted scan resumes
    without rescanning; ``scanned`` counts only this invocation's work
    while counterexamples aggregate the journal too.  The journal is
    locked for the whole call, and a second scan on a locked journal
    raises ``InvalidInput`` without touching it, as does a journal of
    another configuration or unit layout (``_JOURNAL_VERSION``).  Each
    unit is a contiguous run of the slice's positions of one k
    (``_unit_positions``), so the hits come in stream order per k, and
    a pool holds at most one worker per pending unit.  A hit of this
    call is built once from the rows the scan returns; only the
    counterexamples read back from the journal are parsed from their
    strings.
    """
    t0 = time.monotonic()
    _require_even(n)
    if n > CONJECTURE_LENGTH_GUARD:
        raise TooLarge(f"search limited to length {CONJECTURE_LENGTH_GUARD}")
    lo = 5 if k_lo is None else k_lo
    hi = n - 5 if k_hi is None else k_hi
    if not 5 <= lo <= hi <= n - 5:
        raise InvalidInput(
            "dimension band is settled: only 5 <= k <= n-5 is worth scanning"
        )
    idx, total = slice_
    if total < 1 or not 0 <= idx < total:
        raise InvalidInput(f"invalid slice {slice_}")
    if jobs < 1:
        raise InvalidInput("jobs must be at least 1")

    config = _journal_config(n, lo, hi, (idx, total))
    rep = VerifyReport("conjecture", n, (lo, hi), 0, slice=(idx, total))
    with _journal_lock(journal_path) if journal_path is not None else nullcontext() as journal:
        done, prior = _load_journal(journal, config)
        for ce in prior:
            gens = ce["generators"]
            code = LinearCode.from_strings(gens) if gens else LinearCode.zero(n)
            rep.counterexamples.append(Counterexample(code, ce["reason"]))
        todo = [
            (k, u)
            for k in range(lo, hi + 1)
            for u in range(_JOURNAL_UNITS)
            if (k, u) not in done
        ]
        work = [(n, k, u, _JOURNAL_UNITS, idx, total) for (k, u) in todo]
        parallel = jobs > 1 and len(work) > 1
        pool = nullcontext()
        if parallel:
            # imported here: a serial scan or an analyze has no use for it
            import multiprocessing

            pool = multiprocessing.Pool(min(jobs, len(work)))
        with pool:
            results = pool.imap(_scan_unit, work) if parallel else map(_scan_unit, work)
            for (k, u), (scanned, hits) in zip(todo, results):
                ces = [
                    Counterexample(LinearCode(n, rows), "automorphism group is exactly the pairing")
                    for rows in hits
                ]
                if journal is not None:
                    _append_journal(
                        journal,
                        {
                            "type": "unit",
                            "k": k,
                            "unit": u,
                            "scanned": scanned,
                            "counterexamples": [ce.to_dict() for ce in ces],
                        },
                    )
                rep.scanned += scanned
                rep.witnesses_checked += scanned - len(ces)
                rep.counterexamples.extend(ces)
    return _finish(rep, t0)


CHECKS = {
    "lemma-2.1": check_half_dim_bound,
    "lemma-2.2": check_fixed_upper_bound,
    "prop-3.1": check_dim1_codes,
    "thm-3.2": check_dim2_codes,
    "prop-3.4": check_length4_codes,
    "thm-4.2": check_fixed_dim_interval,
    "thm-4.4": check_dim4_codes,
    "thm-5.1": check_fixed_point_witness,
}
