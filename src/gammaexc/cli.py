"""Command-line frontend: compute, gamma, verify, table, conjugacy.

Output is byte-deterministic for fixed inputs: polynomials print with terms
in a fixed order, JSON uses sorted canonical term lists, and verification
reports list checks in registry order (timings are non-deterministic, so
only ``--timings`` and verify's ``--format json`` show them).  Family names,
their classes, default gamma modes and engines all come from
``oracle.FAMILIES``.  Usage errors exit with status 2; failed or erroring
verification checks exit with status 1.
"""

import argparse
import functools
import json
import sys

from . import checks, closedforms, oracle
from .groups import BudgetExceeded, CycleType, DEFAULT_BUDGET
from .oracle import FamilySpec
from .poly import (
    BIVARIATE,
    NotHomogeneous,
    NotPalindromic,
    OddCoefficient,
    Q_COEFFICIENTS,
    UNIVARIATE,
    ZeroPolynomial,
    _row_coefficients,
    _row_expansion,
    gamma_decompose,
    t_coefficients,
)

_MODE_FLAGS = {"uni": UNIVARIATE, "biv": BIVARIATE, "q": Q_COEFFICIENTS}


class UsageError(Exception):
    pass


def _family_spec(args, n):
    return FamilySpec(args.family, n, getattr(args, "cls", "all"),
                      fixed=getattr(args, "fixed", None),
                      lam=getattr(args, "lam", None),
                      stat=getattr(args, "stat", None))


def _compute(spec, engine, budget):
    # default: the closed engine; only qrefined, which has none, falls back
    if engine != "oracle":
        try:
            return oracle.closed_family(spec)
        except closedforms.NoClosedForm as exc:
            if engine == "closed":
                raise UsageError(f"{exc}; pass --engine oracle") from None
    return oracle.family_poly(spec, budget=budget)


def _cmd_compute(args, out):
    poly = _compute(_family_spec(args, args.n), args.engine, args.budget)
    out.write((poly.to_json() if args.format == "json" else str(poly)) + "\n")
    return 0


def _gamma_input(args, n):
    """The rank-n gamma mode, the family's closed gamma expansion (None where
    that engine defers or is not asked), a thunk for what to expand instead,
    and the functions reading its coefficient column and its expansion: the
    family's closed row, read at the family's mode or in univariate mode,
    else the polynomial (univariate mode on a bivariate family: its s = 1
    specialization)."""
    spec = _family_spec(args, n)
    family = oracle.FAMILIES[spec.family]
    if family.mode is None:
        raise UsageError(f"{spec.family} has no gamma expansion (its "
                         f"polynomial involves u)")
    mode = _MODE_FLAGS[args.mode] if args.mode else family.mode
    closed = family.row and args.engine != "oracle"
    expansion = (family.gamma(spec) if closed and family.gamma
                 and mode == family.mode else None)
    if closed and mode in (family.mode, UNIVARIATE):
        def row():  # a t-row ends at its top t-exponent: trimmed once, here
            answer = family.row(spec)
            return answer if mode == BIVARIATE else _row_coefficients(answer)

        return mode, expansion, row, _row_coefficients, _row_expansion

    def poly():
        f = _compute(spec, args.engine, args.budget)
        return f.substitute_one("s") if mode == UNIVARIATE and "s" in f.vars else f

    return mode, expansion, poly, t_coefficients, gamma_decompose


def _cmd_gamma(args, out):
    mode, expansion, answer, _, expand = _gamma_input(args, args.n)
    try:
        expansion = expansion or expand(answer(), mode)
    except NotPalindromic as exc:
        if args.format == "json":
            witness = {"low_index": exc.low_index, "high_index": exc.high_index,
                       "low": str(exc.low), "high": str(exc.high)}
            out.write(json.dumps({"palindromic": False, "witness": witness},
                                 separators=(",", ":")) + "\n")
        else:
            out.write(f"not palindromic: {exc}\n")
        return 0
    if args.format == "json":
        out.write(json.dumps(expansion.to_json_dict(),
                             separators=(",", ":")) + "\n")
    else:
        out.write(str(expansion) + "\n")
    return 0


def _table_rows(args):
    for n in range(args.n_range[0], args.n_range[1] + 1):
        mode, expansion, answer, coefficients, expand = _gamma_input(args, n)
        answer = answer()
        try:
            expansion = expansion or expand(answer, mode)
        except (NotPalindromic, ZeroPolynomial, NotHomogeneous):
            pass  # no expansion: the row prints without gammas
        yield n, coefficients(answer), expansion


def _cmd_table(args, out):
    rows = list(_table_rows(args))
    if args.out == "json":
        payload = []
        for n, coeffs, expansion in rows:
            entry = {
                "family": args.family,
                "class": args.cls,
                "n": n,
                "coefficients": [str(c) for c in coeffs],
                "palindromic": expansion is not None,
            }
            if expansion is not None:
                entry["gammas"] = expansion.to_json_dict()["gammas"]
                entry["r"] = expansion.r
                entry["cos"] = str(expansion.center_of_symmetry)
                entry["gamma_positive"] = expansion.all_gammas_nonnegative()
            payload.append(entry)
        out.write(json.dumps(payload, separators=(",", ":")) + "\n")
        return 0
    # no field can hold a comma, quote or newline, so none needs quoting
    lines = ["family,class,n,k,coeff,gamma_index,gamma_value,cos,"
             "gamma_positive\n"]
    for n, coeffs, expansion in rows:
        prefix, gammas, tail = f"{args.family},{args.cls},{n},", [], ","
        if expansion is not None:
            gammas = [";".join(map(str, g)) if isinstance(g, tuple) else g
                      for g in expansion.gammas]
            tail = (f"{expansion.center_of_symmetry},"
                    f"{str(expansion.all_gammas_nonnegative()).lower()}")
        # a row has at least as many coefficients as gammas
        lines += [f"{prefix}{k},{c},{k},{g},{tail}\n"
                  for k, (c, g) in enumerate(zip(coeffs, gammas))]
        lines += [f"{prefix}{k},{c},,,{tail}\n"
                  for k, c in enumerate(coeffs[len(gammas):], len(gammas))]
        if not coeffs:  # the zero row still gets its line
            lines.append(f"{prefix},,,,{tail}\n")
    out.write("".join(lines))
    return 0


_CHECK_KEYS = ("id", "suite", "range", "status", "witness", "seconds")


def _cmd_verify(args, out):
    caps = () if args.max_n is None else ("max_n_a", "max_n_b", "max_n_d")
    limits = checks.VerifyLimits(budget=args.budget,
                                 **dict.fromkeys(caps, args.max_n))
    results = checks.run_suite(args.suite, limits)
    failed = sum(res.status in ("fail", "error") for res in results)
    if args.format == "json":  # one object per line, CheckResult's fields
        out.writelines(json.dumps(dict(zip(_CHECK_KEYS, res._values())),
                                  separators=(",", ":")) + "\n" for res in results)
        return 1 if failed else 0
    skipped = 0
    for res in results:
        stamp = f"  [{res.seconds:7.3f}s]" if args.timings else ""
        out.write(f"{res.status.upper():<7} {res.check_id}  ({res.n_range})"
                  f"{stamp}\n")
        if res.status in ("fail", "error"):
            out.write(f"        witness: {res.witness}\n")
        elif res.status == "skipped":
            skipped += 1
            out.write(f"        reason: {res.witness}\n")
    out.write(f"{len(results) - failed - skipped} passed, {failed} failed, "
              f"{skipped} skipped\n")
    return 1 if failed else 0


def _cmd_conjugacy(args, out):
    args.family, args.n = "conjexc", CycleType(args.lam).n
    return _cmd_compute(args, out)


def _parse_range(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range like 2..8, got {text!r}"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _count(noun):  # the argparse type of a count of 0 or more, named noun
    def parse(text):
        if text.isdecimal():
            return int(text)
        raise argparse.ArgumentTypeError(f"expected {noun} of 0 or more, got {text!r}")
    return parse


def _parse_lambda(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a cycle type like 2,2,1, got {text!r}"
        ) from None


def build_parser():
    return _parsers()[0]


@functools.cache
def _parsers():
    """The top parser and, by command name, the parser of each command."""
    parser = argparse.ArgumentParser(
        prog="gammaexc",
        description="Exact excedance Eulerian polynomials over the classical "
                    "Weyl groups: closed forms, brute-force sums, gamma "
                    "expansions, and a theorem verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = _count("a window count")  # the one type of every --budget

    def add_common(p, with_class=True):
        if with_class:
            p.add_argument("--class", dest="cls", default="all",
                           choices=["all", "plus", "minus"])
        p.add_argument("--engine", choices=["oracle", "closed"], default=None,
                       help="default: closed form when one exists")
        p.add_argument("--budget", type=budget, default=DEFAULT_BUDGET,
                       help="enumeration budget (windows visited)")

    def add_family(p):
        p.add_argument("--family", required=True,
                       choices=sorted(oracle.FAMILIES))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--fixed", type=int, default=None,
                       help="fixed-point count for aderexc")
        p.add_argument("--lambda", dest="lam", type=_parse_lambda,
                       default=None, help="cycle type for conjexc, e.g. 2,2")
        p.add_argument("--stat", choices=["inv", "cyc"], default=None,
                       help="refining statistic for qrefined")

    compute = sub.add_parser("compute", help="print one family polynomial")
    compute.set_defaults(run=_cmd_compute)
    add_family(compute)
    add_common(compute)

    gamma = sub.add_parser("gamma", help="print a gamma expansion or the "
                                         "palindromicity counterexample")
    gamma.set_defaults(run=_cmd_gamma)
    add_family(gamma)
    gamma.add_argument("--mode", choices=sorted(_MODE_FLAGS), default=None,
                       help="default: biv for the bivariate families, uni "
                            "for the univariate ones, q for qrefined")
    add_common(gamma)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--suite", default="all",
                        choices=sorted(checks.SUITES) + ["all"])
    verify.add_argument("--max-n", type=_count("a rank"), default=None,
                        help="cap for every group kind (oversized checks "
                             "are skipped by the budget guard)")
    verify.add_argument("--budget", type=budget, default=DEFAULT_BUDGET)
    verify.add_argument("--timings", action="store_true",
                        help="include wall-clock times (non-deterministic)")

    table = sub.add_parser("table", help="batch emission over a range of n")
    table.set_defaults(run=_cmd_table)
    table.add_argument("--family", required=True,
                       choices=sorted(name for name, family
                                      in oracle.FAMILIES.items()
                                      if family.refinement != "lam"
                                      and family.mode is not None))
    table.add_argument("--n-range", type=_parse_range, required=True,
                       metavar="A..B")
    table.add_argument("--fixed", type=int, default=None)
    table.add_argument("--stat", choices=["inv", "cyc"], default=None)
    table.add_argument("--mode", choices=sorted(_MODE_FLAGS), default=None)
    table.add_argument("--out", choices=["csv", "json"], default="csv")
    add_common(table)

    conjugacy = sub.add_parser("conjugacy", help="conjugacy class polynomial")
    conjugacy.set_defaults(run=_cmd_conjugacy)
    conjugacy.add_argument("--lambda", dest="lam", type=_parse_lambda,
                           required=True, help="cycle type, e.g. 2,2")
    add_common(conjugacy, with_class=False)

    for p in (compute, gamma, conjugacy, verify):
        p.add_argument("--format", choices=["text", "json"], default="text")
    return parser, sub.choices


# by command, the option whose value may start with "-" (-1..2, -2,1): argparse
# would read that value as an option, so main joins it to its flag with "="
_JOINED = {"table": "--n-range", "compute": "--lambda", "gamma": "--lambda",
           "conjugacy": "--lambda"}


def main(argv=None):
    given = list(sys.argv[1:] if argv is None else argv)
    flag = _JOINED.get(given[0]) if given else None  # given[0] names the command
    tokens, argv = iter(given), []
    for token in tokens:
        value = next(tokens, None) if token == flag else None
        argv.append(token if value is None else f"{token}={value}")
        if token == "--":  # what follows is no option, so nothing is joined
            argv += tokens
    parser, commands = _parsers()
    if argv and argv[0] in commands:  # one parse, by the command's parser
        args, extra = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extra:  # as parse_args reports them
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:  # only the top parser prints the top-level usage
        args = parser.parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except (UsageError, ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OddCoefficient) else 2  # a bug, not bad input


if __name__ == "__main__":
    sys.exit(main())
