"""Command line front end.

Exit codes are a stable contract: 0 success (or answer yes), 1 analysis
failure (or answer no), 2 unusable input, 3 answer unknown within budget.
Reports go to standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import statistics
import sys
from typing import Callable

from . import __version__
from .analysis import (
    NotConsFreeError,
    NotConstrainedError,
    b_safe_terms,
    check_cons_free,
    check_constrained,
    check_semi_linear,
)
from .engine import Budget, Oracle, leftmost_trace, reachable_data
from .fmt import (
    ParseError,
    encode_input,
    parse_term,
    parse_trs,
    print_trs,
    require_decision_interface,
)
from .tabulation import decide
from .terms import App, Trs, format_term
from .tm import TmParseError, compile_tm, parse_tm, simulate_tm
from .transforms import (
    bottom_extend,
    compute_counts,
    phi,
    semi_linearize,
    verify_bottom_extension,
    verify_semi_linearization,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int of at least `low`; anything else exits 2."""

    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return count


def _load_trs(path: str) -> Trs:
    with open(path, encoding="utf-8") as fh:
        return parse_trs(fh.read())


def cmd_check(args: argparse.Namespace) -> int:
    trs = _load_trs(args.path)
    violations = check_cons_free(trs)
    cons_free = not violations
    bad_rules = [i for i, r in enumerate(trs.rules) if not check_semi_linear(r)]
    semi_linear = not bad_rules
    witness = None
    constrained_msg = None
    if cons_free:
        try:
            witness = check_constrained(trs)
        except NotConstrainedError as exc:
            constrained_msg = str(exc)

    if args.json:
        print(
            json.dumps(
                {
                    "cons_free": cons_free,
                    "violations": [v.describe(trs) for v in violations],
                    "semi_linear": semi_linear,
                    "non_semi_linear_rules": bad_rules,
                    "constrained": None if not cons_free else witness is not None,
                    "witness": sorted(s.name for s in witness.a_set)
                    if witness
                    else None,
                    "version": __version__,
                }
            )
        )
    else:
        if cons_free:
            print("cons-free: ok")
        else:
            print(f"cons-free: {len(violations)} violation(s)")
            for v in violations:
                print(f"  {v.describe(trs)}")
        if semi_linear:
            print("semi-linear: ok (all rules)")
        else:
            print(
                "semi-linear: rule(s) "
                + ", ".join(map(str, bad_rules))
                + " duplicate a direct variable"
            )
        if not cons_free:
            print("constrained: skipped (requires cons-free)")
        elif witness is not None:
            names = ", ".join(sorted(s.name for s in witness.a_set))
            print(f"constrained: ok (A = {{{names}}})")
        else:
            print(f"constrained: no ({constrained_msg})")
    return EXIT_OK if cons_free else EXIT_FAIL


def cmd_decide(args: argparse.Namespace) -> int:
    budget = Budget(args.max_terms, args.max_term_size)
    trs = _load_trs(args.path)
    require_decision_interface(trs)
    if args.engine == "table":
        yes, stats = decide(trs, args.bits, mode=args.table_mode)
        print("yes" if yes else "no")
        print(stats.to_json())
        return EXIT_OK if yes else EXIT_FAIL
    strategy = "full" if args.engine == "oracle-full" else "cbv"
    reach = reachable_data(trs, encode_input(bits=args.bits), strategy, budget)
    verdict = reach.verdict(App(trs.symbol("true")))
    print(verdict)
    print(
        f"explored={reach.explored} complete={str(reach.complete).lower()} "
        f"truncated_by={reach.truncated_by}"
    )
    if verdict == "yes":
        return EXIT_OK
    return EXIT_FAIL if verdict == "no" else EXIT_UNKNOWN


def cmd_run(args: argparse.Namespace) -> int:
    trs = _load_trs(args.path)
    term = parse_term(args.term, trs)
    trace = leftmost_trace(trs, term, args.strategy, args.max_steps)
    rendered = trace.render(trs)
    if rendered:
        print(rendered)
    print(f"result: {format_term(trace.terms(trs)[-1])}")
    return EXIT_OK


def cmd_transform(args: argparse.Namespace) -> int:
    trs = _load_trs(args.path)
    stages: list[tuple[str, Trs]] = [("original", trs)]
    try:
        if args.xform in ("semilin", "both"):
            stages.append(("semilin", semi_linearize(stages[-1][1])))
        if args.xform in ("bottom", "both"):
            stages.append(("bottom", bottom_extend(stages[-1][1])))
    except NotConstrainedError as exc:
        print(f"not constrained: {exc}", file=sys.stderr)
        return EXIT_FAIL
    final = stages[-1][1]
    sys.stdout.write(print_trs(final))

    if args.trace_map:
        for i in range(len(trs.rules)):
            print(f"rule {i} -> rule {i}", file=sys.stderr)
        for i in range(len(trs.rules), len(final.rules)):
            print(f"added rule {i}: {final.rules[i]}", file=sys.stderr)

    if args.verify is not None:
        ok = _verify_stages(trs, stages, args.verify)
        print("verify: ok" if ok else "verify: FAILED", file=sys.stderr)
        if not ok:
            return EXIT_FAIL
    return EXIT_OK


def _verify_stages(orig: Trs, stages, max_size: int) -> bool:
    """Oracle equivalence per transformation stage, on every suitably small
    ground start term; one oracle per stage, which the next check reuses."""
    terms = list(b_safe_terms(orig, max_size))
    ok = True
    current = Oracle(orig, "full", Budget())
    for name, trs in stages[1:]:
        if name == "semilin":
            counts = compute_counts(current.trs)
            images = [phi(current.trs, counts, t) for t in terms]
            nxt = Oracle(trs, "full", Budget())
            problems = verify_semi_linearization(current, nxt, terms, images)
            terms = images
        else:
            nxt = Oracle(trs, "cbv", Budget())
            problems = verify_bottom_extension(current, nxt, terms)
        for p in problems:
            print(f"verify[{name}]: {p}", file=sys.stderr)
        ok = ok and not problems
        current = nxt
    return ok


def cmd_compile_tm(args: argparse.Namespace) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            tm = parse_tm(fh.read())
        compiled = compile_tm(tm)
    except (TmParseError, ValueError) as exc:
        print(f"cannot compile: {exc}", file=sys.stderr)
        return EXIT_FAIL
    text = print_trs(compiled.trs)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.manifest:
        for name in sorted(compiled.symbol_manifest):
            print(f"{name}\t{compiled.symbol_manifest[name]}")
    if args.selftest is not None:
        agree = total = 0
        for length in range(args.selftest + 1):
            for tup in itertools.product("01", repeat=length):
                bits = "".join(tup)
                want = simulate_tm(tm, bits, tm.fuel(length)) == "accept"
                got, _ = decide(compiled.trs, bits, mode="demand")
                total += 1
                agree += got == want
        print(f"{agree}/{total} inputs agree")
        if agree != total:
            return EXIT_FAIL
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    trs = _load_trs(args.path)
    require_decision_interface(trs)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        sizes = None
    if sizes is None or any(n < 0 for n in sizes):
        raise ValueError(f"bad --sizes value {args.sizes!r}")
    if not sizes:
        raise ValueError("at least one size is required")
    rows = []
    for bits in ("0" * n for n in sizes):
        _, stats = decide(trs, bits, mode=args.table_mode)
        rows.append(stats)
    slope = ""
    if len(set(sizes)) >= 2:  # a fit needs two distinct sizes
        fit = statistics.linear_regression(
            [math.log(r.input_size) for r in rows],
            [math.log(r.basic_ops) for r in rows],
        )
        slope = f"{fit.slope:.4f}"
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["n", "k", "generations", "basic_ops", "bound_value", "version", "slope"]
    )
    for r in rows:
        writer.writerow(
            [
                r.input_size,
                r.max_arity,
                r.generations,
                r.basic_ops,
                r.bound_value,
                __version__,
                slope,
            ]
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consfree",
        description="Analyze, run, transform, and compile cons-free rewrite "
        "systems.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="static analyses for a .trs file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decide", help="run a decision system on a bit string")
    p.add_argument("path")
    p.add_argument("bits")
    p.add_argument(
        "--engine",
        choices=("table", "oracle-full", "oracle-cbv"),
        default="table",
    )
    p.add_argument(
        "--table-mode",
        choices=("dense", "demand"),
        default="dense",
        help="dense sweeps every key; demand only the keys the input reads",
    )
    p.add_argument("--max-terms", type=int, default=10_000)
    p.add_argument("--max-term-size", type=int, default=1_000)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("run", help="print a leftmost reduction of a term")
    p.add_argument("path")
    p.add_argument("term")
    p.add_argument("--strategy", choices=("full", "cbv"), default="full")
    p.add_argument("--max-steps", type=_at_least(0), default=100)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("transform", help="semi-linearize / bottom-extend")
    p.add_argument("path")
    p.add_argument(
        "--pass",
        dest="xform",
        choices=("semilin", "bottom", "both"),
        required=True,
    )
    p.add_argument(
        "--verify",
        type=_at_least(1),
        metavar="N",
        help="check oracle equivalence on all start terms up to N nodes",
    )
    p.add_argument(
        "--trace-map",
        action="store_true",
        help="print how rule indices map through the transformation",
    )
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("compile-tm", help="compile a .tm machine to a .trs")
    p.add_argument("path")
    p.add_argument("-o", "--output", help="write the system here, not stdout")
    p.add_argument(
        "--selftest",
        type=_at_least(0),
        metavar="L",
        help="compare against direct simulation on all inputs up to length L",
    )
    p.add_argument(
        "--manifest", action="store_true", help="also print symbol roles"
    )
    p.set_defaults(func=cmd_compile_tm)

    p = sub.add_parser("bench", help="tabulation statistics over input sizes")
    p.add_argument("path")
    p.add_argument(
        "--sizes", default="4,8,16,32", help="comma-separated bit counts"
    )
    p.add_argument(
        "--table-mode", choices=("dense", "demand"), default="dense"
    )
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TmParseError as exc:
        print(f"bad machine: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotConsFreeError as exc:
        print(f"not cons-free: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
