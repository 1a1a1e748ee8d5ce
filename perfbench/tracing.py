"""Spans around the calls into each pautkit module, and the traced
passes that turn them into per-layer metrics.

Spans are recorded from the benchmark's side of each call, kept in
memory and written out as JSON lines when the run ends.  A traced scan
pass runs ``conjecture_search`` inside a span and then replays the
witness ladder of the scan (complement witness, alpha-x exits, full
search) through the public functions over the same codes, one span per
rung; a traced analyze pass runs each ``cli.main`` call inside a span
and then replays what ``analyze`` computes, one span per library call.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Per-layer metric names with their units; every traced run reports all
# of them, with 0 for a layer the workload leaves idle.
LAYER_UNITS = {
    "census.codes": "count",
    "census.walk_s": "s",
    "census.codes_per_s": "1/s",
    "fixed.witness_calls": "count",
    "fixed.witness_s": "s",
    "fixed.complement_exits": "count",
    "fixed.alpha_tried": "count",
    "fixed.alpha_exits": "count",
    "fixed.alpha_s": "s",
    "fixed.alpha_yield": "ratio",
    "autgroup.search_calls": "count",
    "autgroup.search_s": "s",
    "autgroup.hits": "count",
    "autgroup.search_yield": "ratio",
    "autgroup.paut_s": "s",
    "autgroup.paut_elements": "count",
    "autgroup.quasi_s": "s",
    "autgroup.quasi_found": "count",
    "autgroup.group_code_s": "s",
    "gf2.parse_s": "s",
    "gf2.weights_s": "s",
    "gf2.codewords": "count",
    "verify.scan_s": "s",
    "journal.records": "count",
    "journal.bytes": "bytes",
    "journal.resume_s": "s",
    "cli.analyze_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Span names of library calls replayed for one analyzed code.
ANALYZE_LIBRARY_SPANS = (
    "gf2.parse",
    "gf2.weights",
    "autgroup.paut",
    "autgroup.quasi",
    "autgroup.group_code",
    "fixed.witness",
)


class Tracer:
    """In-memory spans: [name, start, end, parent span id, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        sid = len(self.spans)
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, request]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def totals(self, first: int = 0) -> Counter:
        """Summed duration by span name over spans[first:]."""
        out: Counter = Counter()
        for name, start, end, _parent, _request in self.spans[first:]:
            out[name] += end - start
        return out

    def write(self, path: Path) -> None:
        """One JSON array per line: [id, name, start, end, parent, request],
        times in seconds of ``time.perf_counter``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")


def replay_ladder(pk, tracer: Tracer, codes, n: int, rid: str, counts: Counter) -> set:
    """The scan's witness ladder over ``codes``; returns the hit set as
    generator-row tuples."""
    sigma = pk.canonical_sigma(n)
    allowed = (pk.Perm.identity(n), sigma)
    full = (1 << n) - 1
    hits = set()
    for i, code in enumerate(codes):
        req = f"{rid}:{i}"
        with tracer.span("ladder", req):
            counts["fixed.witness_calls"] += 1
            with tracer.span("fixed.witness", req):
                w = pk.fixed_point_witness(code, sigma)
                if w is not None and not pk.is_automorphism(code, w):
                    raise RuntimeError("fixed point witness failed validation")
            if w is not None:
                counts["fixed.complement_exits"] += 1
                continue
            counts["alpha_reached"] += 1
            exited = False
            with tracer.span("fixed.alpha", req):
                for x in pk.fixed_subcode(code, sigma).codewords():
                    if x.bits and x.bits != full:
                        counts["fixed.alpha_tried"] += 1
                        if pk.is_automorphism(code, pk.alpha_x(x, sigma)):
                            exited = True
                            break
            if exited:
                counts["fixed.alpha_exits"] += 1
                continue
            counts["autgroup.search_calls"] += 1
            with tracer.span("autgroup.search", req):
                found = pk.find_automorphism_outside(code, allowed)
            if found is None:
                counts["autgroup.hits"] += 1
                hits.add(code.rows)
    return hits


def scan_layers(wl, tracer: Tracer, codes) -> tuple[dict, list[str]]:
    """The first scan request traced, plus the ladder replay over its
    codes, which were materialised through ``shard`` before timing.

    The public ``shard`` walks a different path from the scan's range
    walker, so the census time is the scan's wall time minus the summed
    ladder spans over the same codes.
    """
    pk = wl.pk
    slice_ = wl.slice_for(0)
    rid = "scan-0"
    journal = wl.work / "trace-journal.jsonl"
    journal.unlink(missing_ok=True)
    first = len(tracer.spans)
    counts: Counter = Counter()
    with tracer.span("request", rid):
        with tracer.span("verify.scan", rid):
            report = pk.conjecture_search(wl.n, slice_=slice_, journal_path=str(journal))
        resumed = None
        if wl.resume:
            with tracer.span("journal.resume", rid):
                resumed = pk.conjecture_search(wl.n, slice_=slice_, journal_path=str(journal))
        hits = replay_ladder(pk, tracer, codes, wl.n, rid, counts)
    journal_bytes = journal.read_bytes()
    journal.unlink()

    problems = wl.check((slice_, report, resumed))
    if len(codes) != report.scanned:
        problems.append(f"replayed {len(codes)} codes, the scan settled {report.scanned}")
    if hits != {ce.code.rows for ce in report.counterexamples}:
        problems.append(
            f"replayed ladder found {len(hits)} hits, conjecture_search {len(report.counterexamples)}"
        )

    t = tracer.totals(first)
    ladder = t["ladder"]
    walk = t["verify.scan"] - ladder
    reached = counts["alpha_reached"]
    searches = counts["autgroup.search_calls"]
    layers = {name: 0 for name in LAYER_UNITS}
    layers.update({k: v for k, v in counts.items() if k in LAYER_UNITS})
    layers.update(
        {
            "census.codes": len(codes),
            "census.walk_s": walk,
            "census.codes_per_s": len(codes) / walk if walk > 0 else 0.0,
            "fixed.witness_s": t["fixed.witness"],
            "fixed.alpha_s": t["fixed.alpha"],
            "fixed.alpha_yield": counts["fixed.alpha_exits"] / reached if reached else 0.0,
            "autgroup.search_s": t["autgroup.search"],
            "autgroup.search_yield": counts["autgroup.hits"] / searches if searches else 0.0,
            "verify.scan_s": t["verify.scan"],
            "journal.records": journal_bytes.count(b"\n"),
            "journal.bytes": len(journal_bytes),
            "journal.resume_s": t["journal.resume"],
        }
    )
    return layers, problems


def analyze_layers(wl, tracer: Tracer) -> tuple[dict, list[str]]:
    """The first round of analyze requests traced, each followed by a
    replay of its library calls."""
    pk = wl.pk
    first = len(tracer.spans)
    counts: Counter = Counter()
    problems: list[str] = []
    for j in range(wl.batch):
        rid = f"code-{j}"
        with tracer.span("cli.analyze", rid):
            _wall, _codes, outcome = wl.request(j)
        item, _rc, out = outcome
        found = wl.check(outcome)
        problems += found
        with tracer.span("replay", rid):
            with tracer.span("gf2.parse", rid):
                code = pk.read_code(item.path)
            with tracer.span("gf2.weights", rid):
                code.weight_distribution()
                code.minimum_weight()
            counts["gf2.codewords"] += 2 << code.k  # both calls enumerate all 2^k
            with tracer.span("autgroup.paut", rid):
                report = pk.paut(code)
            counts["autgroup.paut_elements"] += report.order
            with tracer.span("autgroup.quasi", rid):
                witness = pk.quasi_group_witness(code)
            counts["autgroup.quasi_found"] += witness is not None
            if code.n <= pk.autgroup.GROUP_CODE_GUARD:
                with tracer.span("autgroup.group_code", rid):
                    pk.is_group_code(code)
            if code.n % 2 == 0 and code.n >= 4:
                sigma = pk.canonical_sigma(code.n)
                with tracer.span("fixed.witness", rid):
                    if pk.is_automorphism(code, sigma):
                        pk.fixed_subcode(code, sigma)
                        pk.t_sigma(code, sigma)
                        w = pk.fixed_point_witness(code, sigma)
                        counts["fixed.witness_calls"] += 1
                        counts["fixed.complement_exits"] += w is not None
        if not found and json.loads(out)["paut_order"] != report.order:
            problems.append(f"{item.path.name}: replayed group order differs from the CLI's")

    t = tracer.totals(first)
    library = sum(t[name] for name in ANALYZE_LIBRARY_SPANS)
    layers = {name: 0 for name in LAYER_UNITS}
    layers.update({k: v for k, v in counts.items() if k in LAYER_UNITS})
    layers.update(
        {
            "fixed.witness_s": t["fixed.witness"],
            "autgroup.paut_s": t["autgroup.paut"],
            "autgroup.quasi_s": t["autgroup.quasi"],
            "autgroup.group_code_s": t["autgroup.group_code"],
            "gf2.parse_s": t["gf2.parse"],
            "gf2.weights_s": t["gf2.weights"],
            "cli.analyze_s": t["cli.analyze"],
            "cli.overhead_s": t["cli.analyze"] - library,
        }
    )
    return layers, problems
