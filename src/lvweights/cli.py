"""Command-line front end.

Exit codes: 0 success, 1 usage/parse error, 2 domain error (invalid weight,
p <= n, precondition or I/O failures, a construction fault such as a wrong
count of weights, or a RecursionError from any call).
Data goes to stdout, diagnostics to stderr.  Output is byte-identical for
identical inputs and flags; ``enumerate --jobs`` must be at least 1 and
does not change the output, because every subcommand runs in one process.
"""

from __future__ import annotations

import argparse
import math
import sys

from .core import (_int_arg, _printable, format_weight, omega_to_json,
                   parse_weight)
from .counting import count_distinguished, leading_coefficient
from .enumeration import (
    ScatterRecord,
    SearchBox,
    _MAX_MEMBERS,
    _check_size,
    _enumerate_depths,
    _family_depths,
    default_bound,
    write_scatter_csv,
    write_scatter_svg,
)
from .lv_algorithm import lv
from .modular_iteration import (
    ModularContext,
    distinguished_depth,
    iterate,
    trace_to_json,
)
from .verify import (
    clump_commutation_failures,
    r_commutation_failures,
    round_trip_failures,
)

__all__ = ["main", "run", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for domain
    # errors, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lvweights", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight(p):
        p.add_argument("--weight", required=True,
                       help="comma-separated integers, weakly decreasing")
        p.add_argument("--sort", action="store_true",
                       help="sort the entries instead of rejecting unsorted input")

    p_lv = sub.add_parser("lv", parents=[], help="apply the forward map")
    add_weight(p_lv)
    p_lv.add_argument("--base", type=int, choices=(0, 1), default=1,
                      help="first column index (default 1)")

    p_it = sub.add_parser("iterate", help="full iteration trace as JSON")
    add_weight(p_it)
    p_it.add_argument("--prime", type=int, required=True)
    p_it.add_argument("--cap", type=int, default=64)

    p_ck = sub.add_parser("check", help="minimal iteration depth, if any")
    add_weight(p_ck)
    p_ck.add_argument("--prime", type=int, required=True)
    p_ck.add_argument("--cap", type=int, default=64)

    p_en = sub.add_parser("enumerate",
                          help="construct the distinguished weights")
    p_en.add_argument("--n", type=int, required=True)
    p_en.add_argument("--prime", type=int, required=True)
    p_en.add_argument("--k", type=int, required=True)
    p_en.add_argument("--bound", type=int, default=None,
                      help="keep weights with max |entry| <= this "
                           "(default: largest staircase entry)")
    p_en.add_argument("--jobs", type=int, default=1,
                      help="at least 1; does not change the output")
    p_en.add_argument("--csv", default=None, help="write scatter CSV here")
    p_en.add_argument("--svg", default=None, help="write log-scaled SVG here")

    p_ct = sub.add_parser("count", help="exact count via the recursion")
    p_ct.add_argument("--n", type=int, required=True)
    p_ct.add_argument("--k", type=int, required=True)

    p_cf = sub.add_parser("coeff", help="leading growth coefficient")
    p_cf.add_argument("--n", type=int, required=True)

    p_fa = sub.add_parser("families", help="closed-form families (n <= 4)")
    p_fa.add_argument("--n", type=int, choices=(2, 3, 4), required=True)
    p_fa.add_argument("--prime", type=int, required=True)
    p_fa.add_argument("--max-k", type=int, required=True)
    p_fa.add_argument("--csv", default=None)
    p_fa.add_argument("--svg", default=None)

    p_vf = sub.add_parser("verify", help="run the randomized property suite")
    p_vf.add_argument("--samples", type=int, default=10000)
    p_vf.add_argument("--seed", type=int, default=0)

    return parser


def _weight_arg(args):
    return parse_weight(args.weight, sort=args.sort)


def _coeff_log10_at_least(n: int) -> float:
    """log10(h!/m^(m/2)) (inf past a float), at most log10 of the reduced
    denominator of coeff n = a_m/h! (m = floor((n+1)/2), h = floor(n/2)):
    a_m <= m^(m/2) by value for m <= 4, then by induction on a_m = a_{m-1}
    + (m-1)a_{m-2}, as (1 + 1/(m-1))^(m/2) >= 3/2 >= 1 + 1/sqrt(m-1)."""
    m, h = max((n + 1) // 2, 1), max(n // 2, 0)  # 0 for n < 1
    try:
        return (math.lgamma(h + 1) - m / 2 * math.log(m)) / math.log(10)
    except OverflowError:  # m past a float
        return math.inf


def _emit_weights(depths, args, p) -> None:
    """Print the weights of ``{weight: depth}`` sorted descending, or with
    --csv/--svg write their scatter records.  The weights are built valid
    and anti-symmetric and each depth is exact within the command's cap,
    so the records, built unchecked, are those ``scatter_records`` gives."""
    weights = sorted(depths, reverse=True)
    if args.csv or args.svg:
        h = args.n // 2
        records = [ScatterRecord._of(w[:h], depths[w]) for w in weights]
        if args.csv:
            write_scatter_csv(records, args.csv, ncoords=h)
        if args.svg:
            write_scatter_svg(records, args.svg, p)
    else:
        for w in weights:
            print(format_weight(w))


def run(argv) -> int:
    """Parse ``argv`` (excluding the program name) and dispatch."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    try:
        if args.command == "lv":
            print(omega_to_json(lv(_weight_arg(args), base=args.base)))
        elif args.command == "iterate":
            ctx = ModularContext(args.prime)
            print(trace_to_json(iterate(_weight_arg(args), ctx, args.cap)))
        elif args.command == "check":
            ctx = ModularContext(args.prime)
            depth = distinguished_depth(_weight_arg(args), ctx, args.cap)
            print("not-distinguished" if depth is None else depth)
        elif args.command == "enumerate":
            ctx = ModularContext(args.prime)
            _int_arg("--jobs", args.jobs, 1)
            _check_size(args.n, args.k, args.prime)  # before p**k
            bound = args.bound
            if bound is None:
                bound = default_bound(args.n, args.k, args.prime)
            box = SearchBox(args.n, args.k, bound, args.prime)
            _emit_weights(_enumerate_depths(box), args, ctx.p)
        elif args.command == "count":
            print(_printable(count_distinguished(args.n, args.k), "the count"))
        elif args.command == "coeff":
            what = f"coeff n = {args.n}"
            _printable(None, what, _coeff_log10_at_least(args.n))
            c = leading_coefficient(args.n)
            _printable(max(c.numerator, c.denominator), what)
            print(f"{c.numerator}/{c.denominator}")
        elif args.command == "families":
            ctx = ModularContext(args.prime)
            _check_size(args.n, args.max_k, args.prime, _MAX_MEMBERS,
                        "family members")  # before p**k
            _emit_weights(_family_depths(args.n, ctx, args.max_k), args, ctx.p)
        elif args.command == "verify":
            _int_arg("--samples", args.samples, 1)
            checks = [
                ("reverse-negate commutation",
                 r_commutation_failures(args.samples, args.seed)),
                ("single-clump commutation (base 0)",
                 clump_commutation_failures(max(args.samples // 10, 1),
                                            args.seed)),
                ("round trips and sum conservation",
                 round_trip_failures(args.samples, args.seed)),
            ]
            for name, bad in checks:
                if bad:
                    print(f"{name}: FAIL ({len(bad)} counterexamples)",
                          file=sys.stderr)
                    for w in bad[:5]:
                        print(f"  {format_weight(w)}", file=sys.stderr)
                else:
                    print(f"{name}: ok")
            if any(bad for _, bad in checks):
                return 2
    except RecursionError:  # a RuntimeError, so before the next clause
        print("lvweights: error: iteration too deep for the interpreter's "
              "recursion limit", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"lvweights: error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    code = run(sys.argv[1:] if argv is None else argv)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
