"""Command-line front end, ``lvweights COMMAND [flags]``, its flags read from
one table: ``--flag value`` or ``--flag=value`` (the form for a value that
starts with "-" and is no negative number), a unique prefix of a long flag,
the last of a repeated flag; -h/--help prints the commands, or after a
command its flags.  Exit codes: 0 success or help, 1 usage/parse
error, 2 domain error (invalid weight, p <= n, precondition or I/O
failures, a construction fault such as a wrong count of weights, or a
RecursionError from any call).
Data goes to stdout, diagnostics to stderr.  Output is byte-identical for
identical inputs and flags; ``enumerate --jobs`` must be at least 1 and
does not change the output, because every subcommand runs in one process.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

from .core import (_int_arg, _printable, format_weight, omega_to_json,
                   parse_weight)
from .counting import _leading_terms, count_distinguished
from .enumeration import (FAMILY_IDS, SearchBox, _check_size,
                          _enumerate_depths, _family_depths, _write_csv,
                          _write_lines, default_bound, write_scatter_svg)
from .lv_algorithm import lv
from .modular_iteration import (ModularContext, distinguished_depth, iterate,
                                trace_to_json)
from .verify import suite_failures

__all__ = ["main", "run", "build_parser"]


_REQUIRED = object()  # the default of a flag that must be given
_W = (("--weight", str, _REQUIRED, "comma-separated, weakly decreasing"),
      ("--sort", bool, False, "sort the entries instead of refusing them"))
_N, _K = ("--n", int, _REQUIRED, "length"), ("--k", int, _REQUIRED, "depth")
_P, _CAP = (("--prime", int, _REQUIRED, "a prime greater than n"),
            ("--cap", int, 64, "largest depth tried (default 64)"))
_FILES = (("--csv", str, None, "write scatter CSV here"),
          ("--svg", str, None, "write log-scaled SVG here"))
# command: (help, flags); a flag is (flag, type, default, help), its type
# int, str, bool (a switch) or a tuple of the ints it allows.
_COMMANDS = {
    "lv": ("apply the forward map",
           (*_W, ("--base", (0, 1), 1, "first column index (default 1)"))),
    "iterate": ("full iteration trace as JSON", (*_W, _P, _CAP)),
    "check": ("minimal iteration depth, if any", (*_W, _P, _CAP)),
    "enumerate": ("construct the distinguished weights", (
        _N, _P, _K, ("--bound", int, None, "largest |entry| kept (default: "
                     "the staircase's)"),
        ("--jobs", int, 1, "at least 1; the output is the same"), *_FILES)),
    "count": ("exact count via the recursion", (_N, _K)),
    "coeff": ("leading growth coefficient", (_N,)),
    "families": ("closed-form families (n <= 4)", (
        ("--n", tuple(FAMILY_IDS), _REQUIRED, "length"), _P,
        ("--max-k", int, _REQUIRED, "largest depth"), *_FILES)),
    "verify": ("run the randomized property suite", (
        ("--samples", int, 10000, "at least 1 (default 10000)"),
        ("--seed", int, 0, "random seed (default 0)"))),
}


def _fail(message: str):
    print(f"lvweights: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _flag(arg: str, names) -> str | None:
    """The flag in ``names`` that ``arg`` gives, whole or as a unique prefix
    of a long flag, before any "=value"; "" for an unknown flag; None for
    a value: a word, "-", a negative number or words with a space.  Only
    "-" and a "." or a ``\\d`` (``isdecimal``) load ``re`` for its pattern."""
    if arg == "--":
        _fail('"--" is not supported')
    name = arg.partition("=")[0]
    found = [f for f in names if f == name] or [
        f for f in names if name[:2] == "--" and f.startswith(name)]
    if len(found) > 1:
        _fail(f"{name} is ambiguous: {', '.join(found)}")
    if arg[:1] != "-" or arg == "-" or not found and (" " in arg or (
            arg[1:2].isdecimal() or arg[1:2] == ".")
            and __import__("re").match(r"-\d+$|-\d*\.\d+$", arg)):
        return None
    return found[0] if found else ""


def _help(command) -> str:
    line, table = _COMMANDS[command] if command else ("commands:", [
        (c, bool, 0, h) for c, (h, _) in _COMMANDS.items()])
    return "\n".join([f"usage: lvweights {command or 'COMMAND'} [flags]", line,
                      *(f"  {f:<9} {h}" + " (required)" * (d is _REQUIRED)
                        for f, _, d, h in table)])


def _parse_args(argv) -> SimpleNamespace:
    """``argv`` read against ``_COMMANDS`` (see the module docstring) into
    ``command`` and its flags, each named with "_" for "-"."""
    argv, command, flags, given, stray, i = list(argv), None, {}, {}, [], 0
    kinds = [_flag(a, ("-h", "--help")) for a in argv]
    while i < len(argv):
        arg, flag, i = argv[i], kinds[i], i + 1
        kind = flags[flag][1] if flag in flags else bool
        if flag is None and command is None:
            if arg not in _COMMANDS:
                _fail(f"unknown command {arg!r}; see lvweights --help")
            command, flags = arg, {f[0]: f for f in _COMMANDS[arg][1]}
            kinds[i:] = [_flag(a, (*flags, "-h", "--help")) for a in argv[i:]]
        elif not flag:
            stray.append(arg)
        elif "=" in arg and kind is bool:
            _fail(f"{flag} takes no value")
        elif flag not in flags:  # -h or --help
            print(_help(command))
            raise SystemExit(0)
        elif kind is bool:
            given[flag] = True
        elif "=" not in arg and (i == len(argv) or kinds[i] is not None):
            _fail(f"{flag} needs a value")
        else:
            text = arg.partition("=")[2] if "=" in arg else argv[i]
            i += "=" not in arg
            try:
                given[flag] = text if kind is str else int(text)
            except ValueError:
                _fail(f"{flag} needs an int, got {text!r}")
            if kind not in (int, str) and given[flag] not in kind:
                _fail(f"{flag} must be one of {kind}, got {text!r}")
    table = _COMMANDS[command][1] if command else _fail("no command given")
    missing = [f for f, _, d, _ in table if d is _REQUIRED and f not in given]
    if missing or stray:
        _fail(f"{command} needs {', '.join(missing)}" if missing else
              f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(command=command, **{
        f[2:].replace("-", "_"): given.get(f, d) for f, _, d, _ in table})


def build_parser() -> SimpleNamespace:
    """The parser: ``build_parser().parse_args(argv)``."""
    return SimpleNamespace(parse_args=_parse_args)


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
    --csv/--svg write their scatter files.  The weights are valid, distinct
    and anti-symmetric, so sorted by their leading coordinates too, and each
    depth is exact within the command's cap: the rows read straight from
    the map are those of ``scatter_records``, unchecked in the CSV."""
    weights, h = sorted(depths, reverse=True), args.n // 2
    if args.csv is not None:
        _write_csv(args.csv, h, ((w[:h], depths[w]) for w in weights))
    if args.svg is not None:
        write_scatter_svg(((w[:h], depths[w]) for w in weights), args.svg, p)
    if args.csv is None and args.svg is None:
        row = ",".join(["%d"] * args.n) + "\n"
        _write_lines(sys.stdout, (row % w for w in weights))


def run(argv) -> int:
    """Parse ``argv`` (excluding the program name) and dispatch."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # 0 after help, 1 on a usage error
        return exc.code

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
            _check_size(args.n, args.k, args.prime)  # before a power of p
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
            num, den = _leading_terms(args.n)
            _printable(max(num, den), what)
            print(f"{num}/{den}")
        elif args.command == "families":
            ctx = ModularContext(args.prime)
            _check_size(args.n, args.max_k, args.prime)  # before a power of p
            _emit_weights(_family_depths(args.n, ctx, args.max_k), args, ctx.p)
        elif args.command == "verify":
            _int_arg("--samples", args.samples, 1)
            checks = list(zip(("reverse-negate commutation",
                               "single-clump commutation (base 0)",
                               "round trips and sum conservation"),
                              suite_failures(args.samples, args.seed)))
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
