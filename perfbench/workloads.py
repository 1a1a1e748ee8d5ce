"""Inputs, requests and output checks of the benchmark workloads.

Every workload object is built from an imported ``pautkit`` package
(``pk``) and its ``cli`` module, a seed and a working directory for its
input files and journals.  It offers ``request(j)``, which runs the j-th
request untraced and returns
``(wall_s, codes_settled, outcome)``, and ``check(outcome)``, which
returns a list of problems found in that outcome (empty when correct).
Checks run outside the timed region.  ``batch`` is the number of
requests that form one round; a run stops only at round boundaries.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Recorded outcomes the scan checks compare against (README, "Recorded
# scan outcomes"): n = 10 is clean, and slice 0/100 of the n = 12 band
# holds 433 of the 46080 codes whose group is exactly the pairing.
N10_HITS = 0
N12_SLICE0_HITS = 433

SLICE_TOTAL = 100
SMOKE_SLICE_TOTAL = 16


class ScanWorkload:
    """``conjecture_search`` over one slice of the census per request.

    ``slices`` is cycled through by request index.  With ``resume`` each
    request also calls the search again on the finished journal, which
    exercises the journal read path.
    """

    batch = 1

    def __init__(
        self, pk, n: int, slices: list[tuple[int, int]], resume: bool, work: Path, min_batches: int
    ):
        self.pk = pk
        self.min_batches = min_batches
        self.n = n
        self.ks = range(5, n - 4)
        self.slices = slices
        self.resume = resume
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def slice_for(self, j: int) -> tuple[int, int]:
        return self.slices[j % len(self.slices)]

    def coverage(self, slice_: tuple[int, int]) -> int:
        """Closed-form number of census codes the slice settles: the
        stream positions congruent to the index, summed over k."""
        idx, total = slice_
        out = 0
        for k in self.ks:
            count = self.pk.sigma_invariant_count(self.n, k)
            out += max(0, -(-(count - idx) // total))
        return out

    def expected_hits(self, slice_: tuple[int, int]) -> int | None:
        if self.n == 10:
            return N10_HITS
        if self.n == 12 and slice_ == (0, SLICE_TOTAL):
            return N12_SLICE0_HITS
        return None

    def request(self, j: int):
        pk = self.pk
        slice_ = self.slice_for(j)
        journal = self.work / f"journal-{j}.jsonl"
        journal.unlink(missing_ok=True)  # left by an interrupted run
        t0 = perf_counter()
        report = pk.conjecture_search(self.n, slice_=slice_, journal_path=str(journal))
        resumed = None
        if self.resume:
            resumed = pk.conjecture_search(self.n, slice_=slice_, journal_path=str(journal))
        wall = perf_counter() - t0
        journal.unlink()
        return wall, self.coverage(slice_), (slice_, report, resumed)

    def check(self, outcome) -> list[str]:
        slice_, report, resumed = outcome
        problems = []
        want = self.coverage(slice_)
        if report.scanned != want:
            problems.append(f"slice {slice_}: scanned {report.scanned}, closed form {want}")
        hits = report.counterexamples
        expected = self.expected_hits(slice_)
        if expected is not None and len(hits) != expected:
            problems.append(f"slice {slice_}: {len(hits)} hits, recorded {expected}")
        for ce in hits:
            order = self.pk.paut(ce.code).order
            if order != 2:
                problems.append(f"hit {ce.to_dict()['generators']} has group order {order}")
        if resumed is not None:
            if resumed.scanned != 0:
                problems.append(f"resume scanned {resumed.scanned} codes, expected 0")
            if [c.to_dict() for c in resumed.counterexamples] != [c.to_dict() for c in hits]:
                problems.append("resume returned different counterexamples")
        return problems


def scan_workload(pk, seed: int, smoke: bool, work: Path) -> ScanWorkload:
    if smoke:
        # a small n = 10 slice stands in for the n = 12 one
        total, n, min_batches = SMOKE_SLICE_TOTAL, 10, 1
    else:
        # at least three slices, so that the median can drop one slowed
        # by a burst of load on the machine
        total, n, min_batches = SLICE_TOTAL, 12, 3
    slices = [((seed + j) % total, total) for j in range(total)]
    return ScanWorkload(pk, n, slices, True, work, min_batches)


@dataclass(frozen=True)
class CodeItem:
    path: Path
    code: object  # pautkit LinearCode
    sigma_invariant: bool
    expected_order: int | None = None


# Structured codes with known group orders, each invariant under the
# pairing involution.  The [12,2] two-block code (order 1036800, about
# half a minute) is left out on purpose.
STRUCTURED = [
    ("blocks-12-3", ["111100000000", "000011110000", "000000001111"], 82944),
    ("hamming-8-4", ["11110000", "00111100", "00001111", "01010101"], 1344),
    (
        "class-a-12-6",
        ["100100100000", "010100100110", "001100110110",
         "000010100100", "000001010111", "000000001111"],
        2,
    ),
    (
        "class-b-12-6",
        ["100001010000", "010001001010", "001001001100",
         "000101011001", "000011010101", "000000111111"],
        2,
    ),
]

# One round of the analyze batch: (kind, length, dimensions), repeated
# ``count`` times.  Random codes at n = 12 spend 1.4-2 s in the
# brute-force quasi group test, so they are a small share; n = 10
# random codes (about 0.4 s) are 5 of 38, so the 90th percentile falls
# inside their band rather than at the edge of a kind.  Random
# pairing-invariant codes stop at n = 10: at n = 12 about one in a
# hundred costs 4-70 s in ``paut`` of the code or of its dual.
ROUND = [
    ("random", 8, (3, 4, 5), 16),
    ("invariant", 8, (3, 4, 5), 6),
    ("invariant", 10, (4, 5, 6), 6),
    ("random", 10, (5,), 5),
    ("random", 12, (6,), 1),
]
SMOKE_ROUND = [
    ("random", 8, (3, 4, 5), 4),
    ("invariant", 8, (3, 4, 5), 2),
    ("invariant", 10, (4, 5, 6), 2),
]
ROUNDS_BUILT = 4


def _random_code(pk, rng: random.Random, n: int, k: int):
    while True:
        code = pk.rref([pk.Word(n, rng.getrandbits(n)) for _ in range(k)])
        if code.k == k:
            return code


def _invariant_code(pk, rng: random.Random, n: int, k: int):
    """Random code invariant under the pairing: the span of random words
    and their images."""
    sigma = pk.canonical_sigma(n)
    while True:
        words = [pk.Word(n, rng.getrandbits(n)) for _ in range(rng.randint(1, k))]
        code = pk.rref(words + [pk.apply(sigma, w) for w in words])
        if code.k == k:
            return code


class AnalyzeWorkload:
    """``cli.main(["analyze", path, "--output", "json"])`` per code file.

    The batch is ``ROUNDS_BUILT`` rounds; each round holds the kinds of
    ``ROUND`` (interleaved) plus every structured code, and the run
    cycles through the rounds.
    """

    def __init__(self, pk, cli, seed: int, smoke: bool, work: Path):
        self.pk = pk
        self.cli = cli
        work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        layout = SMOKE_ROUND if smoke else ROUND
        structured = STRUCTURED[1:] if smoke else STRUCTURED
        self.min_batches = 1 if smoke else 3
        self.items: list[CodeItem] = []
        for r in range(ROUNDS_BUILT):
            slots = [(kind, n, ks) for kind, n, ks, count in layout for _ in range(count)]
            rng.shuffle(slots)
            round_items = []
            for kind, n, ks in slots:
                k = rng.choice(ks)
                if kind == "random":
                    code = _random_code(pk, rng, n, k)
                else:
                    code = _invariant_code(pk, rng, n, k)
                round_items.append((f"{kind}-{n}", code, kind == "invariant", None))
            for name, rows, order in structured:
                round_items.append((name, pk.LinearCode.from_strings(rows), True, order))
            for i, (label, code, inv, order) in enumerate(round_items):
                path = work / f"r{r}-{i:02d}-{label}.txt"
                pk.write_code(path, code)
                self.items.append(CodeItem(path, code, inv, order))
        self.batch = len(self.items) // ROUNDS_BUILT
        self._dual_orders: dict = {}

    def item_for(self, j: int) -> CodeItem:
        return self.items[j % len(self.items)]

    def request(self, j: int):
        item = self.item_for(j)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            rc = self.cli.main(["analyze", str(item.path), "--output", "json"])
            wall = perf_counter() - t0
        return wall, 1, (item, rc, buf.getvalue())

    def dual_order(self, code) -> int:
        key = (code.n, code.rows)
        if key not in self._dual_orders:
            self._dual_orders[key] = self.pk.paut(code.dual()).order
        return self._dual_orders[key]

    def check(self, outcome) -> list[str]:
        item, rc, out = outcome
        pk, code = self.pk, item.code
        where = item.path.name
        if rc != 0:
            return [f"{where}: exit code {rc}"]
        try:
            info = json.loads(out)
        except json.JSONDecodeError:
            return [f"{where}: output is not JSON"]
        problems = []
        if (info.get("n"), info.get("k")) != (code.n, code.k):
            problems.append(f"{where}: reports n, k = {info.get('n')}, {info.get('k')}")
        if sum(info.get("weight_distribution", ())) != 1 << code.k:
            problems.append(f"{where}: weight distribution does not sum to 2^{code.k}")
        order = info.get("paut_order")
        if order != self.dual_order(code):
            problems.append(f"{where}: group order {order} differs from the dual's")
        if item.expected_order is not None and order != item.expected_order:
            problems.append(f"{where}: group order {order}, known {item.expected_order}")
        witness = info.get("quasi_group_witness")
        if witness is not None:
            p = pk.Perm.from_cycles(witness, code.n)
            lengths = set(pk.cycle_type(p))
            prime = len(lengths) == 1 and _is_prime(lengths.pop())
            if not (prime and pk.is_fixed_point_free(p) and pk.is_automorphism(code, p)):
                problems.append(f"{where}: quasi group witness {witness} is invalid")
        if item.sigma_invariant and info.get("sigma_in_paut") is not True:
            problems.append(f"{where}: pairing involution not reported as an automorphism")
        return problems


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


def build(pk, cli, name: str, seed: int, smoke: bool, work: Path):
    if name == "analyze":
        return AnalyzeWorkload(pk, cli, seed, smoke, work)
    return scan_workload(pk, seed, smoke, work)
