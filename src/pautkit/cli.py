"""Command line interface.

Exit codes: 0 success / clean scan, 1 counterexample found, 2 usage or
parse error, 3 resource guard tripped, 4 hypothesis violation (for
example the pairing involution is not an automorphism of the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .autgroup import (
    GROUP_CODE_GUARD,
    is_automorphism,
    is_group_code,
    paut,
    quasi_group_witness,
)
from .census import gaussian_binomial, sigma_invariant_count
from .errors import InvalidInput, NotInvariant, TooLarge
from .fixed import extra_automorphism_with_path, fixed_point_witness, fixed_subcode, t_sigma
from .gf2 import read_code
from .perm import canonical_sigma
from .verify import CHECKS, conjecture_search

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3
EXIT_HYPOTHESIS = 4

# Longest length for census counts: from n = 240 the middle counts have
# more digits than Python converts to a string by default, and 238 is
# the longest even length below that, so both flavours print.
CENSUS_LENGTH_GUARD = 238


def _parse_slice(text: str) -> tuple[int, int]:
    try:
        idx, total = text.split("/")
        return int(idx), int(total)
    except ValueError as exc:
        raise InvalidInput(f"slice must look like i/t, got {text!r}") from exc


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def cmd_analyze(args) -> int:
    code = read_code(args.path)
    info: dict = {"n": code.n, "k": code.k}
    lines = [f"length: {code.n}", f"dimension: {code.k}"]
    truncated = False
    try:
        info["minimum_weight"] = code.minimum_weight()
        info["weight_distribution"] = list(code.weight_distribution())
        lines.append(f"minimum weight: {info['minimum_weight']}")
        lines.append(f"weight distribution: {info['weight_distribution']}")
    except TooLarge as exc:
        lines.append(f"weight distribution: not computed ({exc})")
        truncated = True
    try:
        report = paut(code)
        info["paut_order"] = report.order
        info["paut_generators"] = [str(g) for g in report.generators]
        info["is_cyclic_of_order_2"] = report.is_cyclic_of_order_2
        info["has_fpf_involution"] = report.has_fpf_involution
        info["has_fixed_point_involution"] = report.has_fixed_point_involution
        lines.append(f"PAut order: {report.order}")
        lines.append(
            "PAut generators: "
            + (", ".join(str(g) for g in report.generators) or "()")
        )
        witness = quasi_group_witness(code)
        info["quasi_group_code"] = witness is not None
        info["quasi_group_witness"] = None if witness is None else str(witness)
        lines.append(
            "quasi group code: "
            + ("yes, witness " + str(witness) if witness else "no")
        )
        if code.n <= GROUP_CODE_GUARD:
            info["group_code"] = is_group_code(code)
            lines.append(f"group code: {'yes' if info['group_code'] else 'no'}")
        else:
            info["group_code"] = None
            lines.append(f"group code: not computed (length above {GROUP_CODE_GUARD})")
    except TooLarge as exc:
        info["paut_order"] = None
        lines.append(f"PAut: not computed ({exc})")
        truncated = True

    # the pairing-involution facts are guard-free, so report them even
    # when the group computation was refused
    if code.n % 2 == 0:
        sigma = canonical_sigma(code.n)
        if is_automorphism(code, sigma):
            info["sigma_in_paut"] = True
            f = fixed_subcode(code, sigma).k
            ts = t_sigma(code, sigma)
            info["fixed_dim"] = f
            info["t_sigma"] = sorted(2 * p + 1 for p in ts.pairs)
            lines.append("pairing involution is an automorphism: yes")
            lines.append(f"fixed subcode dimension: {f}")
            lines.append(f"T(sigma): {ts}")
            if code.n >= 4:
                beta = fixed_point_witness(code, sigma)
                info["fixed_point_witness"] = None if beta is None else str(beta)
                lines.append(
                    "fixed-point witness: "
                    + (str(beta) if beta else "none (pair support is full)")
                )
        else:
            info["sigma_in_paut"] = False
            lines.append("pairing involution is an automorphism: no")

    _emit(args, info, lines)
    return EXIT_TOO_LARGE if truncated else EXIT_OK


def cmd_verify(args) -> int:
    check = CHECKS[args.theorem_id]
    kwargs = {
        name: value
        for name, value in (("trials", args.trials), ("seed", args.seed))
        if value is not None
    }
    if args.theorem_id in ("lemma-2.1", "thm-5.1"):
        if args.n is not None:
            kwargs["n_max"] = args.n
    elif kwargs:
        raise InvalidInput(f"{args.theorem_id} is exhaustive: it takes no --trials or --seed")
    elif args.theorem_id == "prop-3.4":
        if args.n not in (None, 4):
            raise InvalidInput("prop-3.4 is a check at length 4 only")
    elif args.n is not None:
        kwargs["n"] = args.n
    report = check(**kwargs)
    lines = [
        f"{report.theorem_id}: scanned {report.scanned}, "
        f"witnesses checked {report.witnesses_checked}, "
        f"counterexamples {len(report.counterexamples)}, "
        f"elapsed {report.elapsed_ms} ms"
    ]
    for ce in report.counterexamples:
        lines.append(f"  counterexample: {ce.to_dict()}")
    _emit(args, report.to_dict(), lines)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def cmd_conjecture(args) -> int:
    # an argparse group cannot hold --k against the pair --k-lo, --k-hi
    if args.k is not None and (args.k_lo, args.k_hi) != (None, None):
        raise InvalidInput("--k excludes --k-lo and --k-hi")
    k_lo = args.k if args.k is not None else args.k_lo
    k_hi = args.k if args.k is not None else args.k_hi
    slice_ = _parse_slice(args.slice) if args.slice else (0, 1)
    report = conjecture_search(
        args.n,
        k_lo=k_lo,
        k_hi=k_hi,
        slice_=slice_,
        journal_path=args.journal,
        jobs=args.jobs,
    )
    lines = [
        f"conjecture scan n={report.n} k={report.k_range[0]}..{report.k_range[1]} "
        f"slice {report.slice[0]}/{report.slice[1]}: "
        f"scanned {report.scanned} this run, "
        f"counterexamples {len(report.counterexamples)}, "
        f"elapsed {report.elapsed_ms} ms"
    ]
    for ce in report.counterexamples:
        lines.append(f"  counterexample: {ce.to_dict()}")
    _emit(args, report.to_dict(), lines)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def cmd_witness(args) -> int:
    code = read_code(args.path)
    if code.n % 2 or code.n == 0:
        raise InvalidInput("witness extraction needs a positive even length")
    sigma = canonical_sigma(code.n)
    if not is_automorphism(code, sigma):
        raise NotInvariant("the pairing involution is not an automorphism of this code")
    found = extra_automorphism_with_path(code, sigma)
    if found is None:
        _emit(args, {"witness": None, "path": None}, ["none"])
    else:
        perm, path = found
        _emit(args, {"witness": str(perm), "path": path}, [f"{perm} via {path}"])
    return EXIT_OK


def cmd_census(args) -> int:
    if args.n < 0:
        raise InvalidInput(f"negative length {args.n}")
    if args.n > CENSUS_LENGTH_GUARD:
        raise TooLarge(f"census counts limited to length {CENSUS_LENGTH_GUARD}")
    if args.k is not None and not 0 <= args.k <= args.n:
        raise InvalidInput(f"dimension {args.k} out of range for length {args.n}")
    ks = [args.k] if args.k is not None else list(range(0, args.n + 1))
    counts = {}
    for k in ks:
        if args.sigma_invariant:
            counts[k] = sigma_invariant_count(args.n, k)
        else:
            counts[k] = gaussian_binomial(args.n, k)
    label = "sigma-invariant subspaces" if args.sigma_invariant else "subspaces"
    lines = [f"{label} of GF(2)^{args.n}:"]
    for k, c in counts.items():
        lines.append(f"  k={k}: {c}")
    lines.append(f"  total: {sum(counts.values())}")
    payload = {
        "n": args.n,
        "sigma_invariant": bool(args.sigma_invariant),
        "counts": {str(k): c for k, c in counts.items()},
        "total": sum(counts.values()),
    }
    _emit(args, payload, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pautkit",
        description="Permutation automorphism groups, fixed subcodes and "
        "involution witnesses for binary linear codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a code file")
    p.add_argument("path")
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run one exhaustive or randomized check")
    p.add_argument("theorem_id", choices=sorted(CHECKS))
    p.add_argument("--n", type=int, default=None)
    # None: the randomized suite's own default; exhaustive checks take neither
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "conjecture", help="scan for order-2 automorphism groups in the open band"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-lo", type=int, default=None)
    p.add_argument("--k-hi", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--slice", type=str, default=None, help="shard as i/t")
    p.add_argument("--journal", type=str, default=None)
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("witness", help="extract a non-pairing involution witness")
    p.add_argument("path")
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("census", help="subspace counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--sigma-invariant", action="store_true")
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_census)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NotInvariant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
