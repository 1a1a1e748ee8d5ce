"""pautkit benchmark: scan throughput and ``analyze`` latency.

Run from the repository root, for example

    python3 perfbench/run.py --workload slice-n12 --seed 0 --seconds 35 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): ``slice-n12``
and ``analyze``.  Each is a closed loop: one process and one caller,
which sends the next request when the previous one returns.
The package is imported from ``src/`` of the checkout, so nothing needs
installing.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes traced passes and reports the per-layer metrics,
and writes its spans to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.
``--smoke`` shrinks every workload to a few seconds (for the smoke test).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every check passed, 1 when a check failed and 2 when the run could not
start (for example, no package sources).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("slice-n12", "analyze")
SETUP_REPEATS = 9
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "scan_codes_per_s": "1/s",
    "analyze_wall_s": "s",
    "analyze_p50_s": "s",
    "analyze_tail_s": "s",
    "peak_rss_mb": "MB",
}


class CannotStart(Exception):
    pass


def load_pautkit():
    """Import pautkit afresh from the checkout's src/ directory."""
    init = SRC / "pautkit" / "__init__.py"
    if not init.is_file():
        raise CannotStart("no package sources at src/pautkit")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pautkit" or m.startswith("pautkit.")]:
        del sys.modules[name]
    pk = importlib.import_module("pautkit")
    cli = importlib.import_module("pautkit.cli")
    if Path(pk.__file__).resolve() != init.resolve():
        raise CannotStart(f"pautkit was imported from {pk.__file__}, not src/")
    return pk, cli


class SetUp:
    """Times the set-up (import plus input building) of a workload.

    The first set-up gives the workload the run uses.  The later ones,
    up to SETUP_REPEATS in all, are spread over the run by
    ``catch_up``, so that their median is not set by whatever load the
    machine had during the first half second.
    """

    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        self.args = (name, seed, smoke, work)
        self.times: list[float] = []
        self.workload = self.once()

    def once(self):
        t0 = perf_counter()
        pk, cli = load_pautkit()
        wl = workloads.build(pk, cli, *self.args)
        self.times.append(perf_counter() - t0)
        return wl

    def catch_up(self, fraction: float) -> None:
        """Repeat until the share of repetitions done reaches ``fraction``."""
        while len(self.times) < 1 + (SETUP_REPEATS - 1) * min(fraction, 1.0):
            self.once()

    def median(self) -> float:
        return statistics.median(self.times)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with at
    least ten samples beyond it, by nearest rank; the median when there
    are too few samples for any of them."""
    xs = sorted(samples)
    for p in TAIL_PERCENTILES:
        if len(xs) * (100 - p) / 100 >= 10:
            return p, xs[math.ceil(p / 100 * len(xs)) - 1]
    return 50.0, statistics.median(xs)


class Tally:
    """Operations attempted and failed, with the problems reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)

    def guarded(self, fn, *args):
        """Call fn; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.record(["exception raised"])
            return None


def measure(wl, seconds: float, tally: Tally, setup: SetUp) -> dict:
    """Untraced closed loop for at least ``seconds`` of request time.

    Latencies are per code: the request wall time over the codes it
    settles, which for ``analyze`` is one.  Throughput and mean latency
    are taken per round and reported as the median over rounds, so that
    a burst of load on the machine during one round does not move them.
    """
    per_code: list[float] = []
    rates: list[float] = []
    means: list[float] = []
    busy = 0.0
    j = 0
    while True:
        batch_wall = 0.0
        batch_codes = 0
        batch_lat: list[float] = []
        for _ in range(wl.batch):
            got = tally.guarded(wl.request, j)
            j += 1
            if got is None:
                continue
            wall, codes, outcome = got
            problems = tally.guarded(wl.check, outcome)
            if problems is None:
                continue
            tally.record(problems)
            batch_lat.append(wall / codes)
            batch_wall += wall
            batch_codes += codes
        busy += batch_wall
        setup.catch_up(busy / seconds)
        if batch_lat:
            per_code += batch_lat
            rates.append(batch_codes / batch_wall)
            means.append(statistics.fmean(batch_lat))
        if busy >= seconds and j >= wl.min_batches * wl.batch:
            break
    if not per_code:
        return {}
    pct, tail_value = tail(per_code)
    return {
        "scan_codes_per_s": statistics.median(rates),
        "analyze_wall_s": statistics.median(means),
        "analyze_p50_s": statistics.median(per_code),
        "analyze_tail_s": tail_value,
        "_tail_percentile": pct,
        "_samples": len(per_code),
    }


def plain_round(wl, tally: Tally) -> float:
    """The first round, untraced; returns its request time."""
    wall = 0.0
    for j in range(wl.batch):
        got = tally.guarded(wl.request, j)
        if got is not None:
            wall += got[0]
            problems = tally.guarded(wl.check, got[2])
            if problems is not None:
                tally.record(problems)
    return wall


def measure_traced(wl, seconds: float, tally: Tally, tracer) -> dict:
    """Traced passes within ``seconds`` (at least one); each pass is the
    first round untraced, then the same round traced.  Every pass does
    the same work, so counts repeat exactly; per-layer values are
    averaged over the passes."""
    codes = None
    if isinstance(wl, workloads.ScanWorkload):
        # the slice's codes, through the public shard, before any timing
        codes = [
            c
            for k in wl.ks
            for c in wl.pk.shard(wl.pk.CensusSlice(wl.n, k, True, wl.slice_for(0)))
        ]
    passes: list[dict] = []
    started = perf_counter()
    # stop before a pass that would end after ``seconds``
    while not passes or (perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds:
        plain = plain_round(wl, tally)
        first = len(tracer.spans)
        t0 = perf_counter()
        if isinstance(wl, workloads.ScanWorkload):
            got = tally.guarded(tracing.scan_layers, wl, tracer, codes)
        else:
            got = tally.guarded(tracing.analyze_layers, wl, tracer)
        traced = perf_counter() - t0
        if got is None:
            break
        layers, problems = got
        tally.record(problems)
        layers["trace.overhead_s"] = traced - plain
        layers["trace.spans"] = len(tracer.spans) - first
        passes.append(layers)
    if not passes:
        return {}
    return {key: statistics.fmean(p[key] for p in passes) for key in tracing.LAYER_UNITS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    # Inputs are rewritten in place by every set-up and kept between
    # runs: creating and deleting hundreds of files per run made the
    # set-up time creep up from run to run.
    work = WORK / (args.workload + ("-smoke" if args.smoke else ""))
    try:
        setup = SetUp(args.workload, args.seed, args.smoke, work)
        wl = setup.workload
        tally = Tally()
        if args.trace:
            tracer = tracing.Tracer()
            values = measure_traced(wl, args.seconds, tally, tracer)
            units = tracing.LAYER_UNITS
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            values = measure(wl, args.seconds, tally, setup)
            setup.catch_up(1.0)
            values["setup_s"] = setup.median()
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
    except CannotStart as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = tally.failed == 0 and all(k in values for k in units)
    attempted = max(tally.attempted, 1)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"failed_ratio = {tally.failed / attempted} ({tally.failed} of {attempted} operations)")
    if "_samples" in values:
        print(
            f"analyze_tail_s is the p{values['_tail_percentile']:g} of "
            f"{values['_samples']} per-code latencies"
        )
    for key, unit in units.items():
        print(f"{key} = {values.get(key)} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": values[key], "unit": unit} for key, unit in units.items() if key in values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
