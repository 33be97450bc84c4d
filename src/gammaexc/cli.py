"""Command-line frontend: compute, gamma, verify, table, conjugacy.

Output is byte-deterministic for fixed inputs: polynomials print with terms
in a fixed order, JSON uses sorted canonical term lists, and verification
reports list checks in registry order (timings are only shown on request,
since they are not deterministic).  Family names, their classes, default
gamma modes and engines all come from ``oracle.FAMILIES``.  Usage errors
exit with status 2; failed or erroring verification checks exit with
status 1.
"""

import argparse
import functools
import json
import sys

from . import checks, closedforms, oracle
from .groups import BudgetExceeded, DEFAULT_BUDGET
from .oracle import FamilySpec
from .poly import (
    BIVARIATE,
    NotHomogeneous,
    NotPalindromic,
    Q_COEFFICIENTS,
    UNIVARIATE,
    ZeroPolynomial,
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
    # default: closed where available, oracle otherwise
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
    """The rank-n polynomial to expand and its gamma mode (univariate mode
    on a bivariate family means its s = 1 specialization)."""
    spec = _family_spec(args, n)
    default = oracle.FAMILIES[spec.family].mode
    if default is None:
        raise UsageError(f"{spec.family} has no gamma expansion (its "
                         f"polynomial involves u)")
    poly = _compute(spec, args.engine, args.budget)
    mode = _MODE_FLAGS[args.mode] if args.mode else default
    if mode == UNIVARIATE and "s" in poly.vars and poly.degree("s") > 0:
        poly = poly.substitute_one("s")
    return poly, mode


def _cmd_gamma(args, out):
    poly, mode = _gamma_input(args, args.n)
    try:
        expansion = gamma_decompose(poly, mode)
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


def _gamma_or_none(poly, mode):
    try:
        return gamma_decompose(poly, mode)
    except (NotPalindromic, ZeroPolynomial, NotHomogeneous):
        return None


def _table_rows(args):
    lo, hi = args.n_range
    for n in range(lo, hi + 1):
        poly, mode = _gamma_input(args, n)
        yield n, t_coefficients(poly), _gamma_or_none(poly, mode)


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
        gammas, tail = [], ","
        if expansion is not None:
            gammas = [";".join(map(str, g)) if isinstance(g, tuple) else g
                      for g in expansion.gammas]
            tail = (f"{expansion.center_of_symmetry},"
                    f"{str(expansion.all_gammas_nonnegative()).lower()}")
        for k in range(max(len(coeffs), len(gammas), 1)):
            coeff = f"{k},{coeffs[k]}" if k < len(coeffs) else ","
            gamma = f"{k},{gammas[k]}" if k < len(gammas) else ","
            lines.append(f"{args.family},{args.cls},{n},{coeff},{gamma},"
                         f"{tail}\n")
    out.write("".join(lines))
    return 0


def _cmd_verify(args, out):
    caps = () if args.max_n is None else ("max_n_a", "max_n_b", "max_n_d")
    limits = checks.VerifyLimits(budget=args.budget,
                                 **dict.fromkeys(caps, args.max_n))
    results = checks.run_suite(args.suite, limits)
    failed = skipped = 0
    for res in results:
        stamp = f"  [{res.seconds:7.3f}s]" if args.timings else ""
        out.write(f"{res.status.upper():<7} {res.check_id}  ({res.n_range})"
                  f"{stamp}\n")
        if res.status in ("fail", "error"):
            failed += 1
            out.write(f"        witness: {res.witness}\n")
        elif res.status == "skipped":
            skipped += 1
            out.write(f"        reason: {res.witness}\n")
    out.write(f"{len(results) - failed - skipped} passed, {failed} failed, "
              f"{skipped} skipped\n")
    return 1 if failed else 0


def _cmd_conjugacy(args, out):
    args.family, args.n = "conjexc", sum(args.lam)
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


def _parse_max_n(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a rank of 0 or more, got {text!r}")
    return int(text)


def _parse_lambda(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a cycle type like 2,2,1, got {text!r}"
        ) from None


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="gammaexc",
        description="Exact excedance Eulerian polynomials over the classical "
                    "Weyl groups: closed forms, brute-force sums, gamma "
                    "expansions, and a theorem verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_class=True):
        if with_class:
            p.add_argument("--class", dest="cls", default="all",
                           choices=["all", "plus", "minus"])
        p.add_argument("--engine", choices=["oracle", "closed"], default=None,
                       help="default: closed form when one exists")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
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
    verify.add_argument("--max-n", type=_parse_max_n, default=None,
                        help="cap for every group kind (oversized checks "
                             "are skipped by the budget guard)")
    verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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

    for p in (compute, gamma, conjugacy):
        p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--n-range" in argv[:-1]:  # else argparse reads a range -1..2 as an option
        i = argv.index("--n-range")
        argv[i:i + 2] = [f"--n-range={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except (UsageError, ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
