"""Large-rank checks: requests above the ranks ``verify`` and tier-1 read,
answered in one process by ``gammaexc.cli.main`` and checked either by the
benchmark's standard-library gate (``perfbench/gate.py``) or against a
second engine.  Run from the repository root, with no arguments:

    PYTHONPATH=src:perfbench python3 tests/large_ranks.py

Each check prints one line ending in ``ok``.  The first failure prints what
its request printed (verify's witness, say) and the reason, and exits 1.
The name has no ``test_`` prefix, so pytest does not collect this file.
"""

import contextlib
import io
import sys

from gammaexc import cli
from gammaexc.closedforms import gamma_closed
from gammaexc.oracle import FamilySpec, closed_family
from gate import check_gamma, check_table_csv

# verify suites above verify's default ranks: suite, --max-n.  S_9 goes
# through the bijections and the derangement forms; B_7 and D_7 through the
# signed tallies, which share each permutation's signature in a run
SUITES = (("bijections", 9), ("derangements", 9), ("typeB", 7), ("typeD", 7),
          ("signed_sums", 7))

# requests whose --engine oracle and --engine closed answers are the same
# bytes: kind S at n = 9, the signed groups at n = 8, and n = 0 and 1
ENGINES = (
    "conjugacy --lambda 9", "conjugacy --lambda 5,4", "conjugacy --lambda 3,3,2,1",
    "compute --family aexc --class plus --n 9", "compute --family aexc --class minus --n 9",
    "compute --family bexc --n 8", "compute --family aderexc --class minus --n 9",
    "compute --family aderexc --class plus --n 9",
    "compute --family aderexc --class plus --n 9 --fixed 2",
    "compute --family bexc --class minus --n 8", "compute --family dexc --n 8",
    "compute --family dexc --class plus --n 8", "compute --family dexc --class minus --n 8",
    "compute --family bdexc --n 8", "compute --family bexc --class minus --n 0",
    "compute --family aexc --class plus --n 1", "compute --family bdexc --n 0",
    "compute --family sgnb_des_u --n 0", "gamma --family dexc --class plus --n 0")

# gamma requests and the request of the polynomial each expands (None: compute
# with the same options), checked by check_gamma.  The gamma-vector engine
# answers the first four and the row engine each compute; dexc minus at odd n
# and the univariate families are peeled off their closed rows
GAMMAS = (
    ("gamma --family bexc --n 600", None),
    ("gamma --family dexc --class plus --n 600", None),
    ("gamma --family bdexc --n 600", None),
    ("gamma --family aexc --class minus --n 401", None),
    ("gamma --family dexc --class minus --n 601", None),
    ("gamma --family aderexc --n 300", None),
    ("gamma --family aderexc --class minus --n 301", None),
    ("gamma --family aderexc --class plus --n 300 --fixed 3", None),
    ("gamma --family conjexc --n 60 --lambda 30,20,10", "conjugacy --lambda 30,20,10"))

# table requests, one rank each, checked by check_table_csv in the given
# mode: family, class, ranks, further options, gate mode
BIG, MID = (599, 600, 601), (299, 300, 301)
TABLES = (
    ("dexc", "minus", BIG, (), "biv"), ("bexc", "plus", BIG, (), "biv"),
    ("aexc", "minus", BIG, (), "biv"), ("bdexc", "all", BIG, (), "biv"),
    ("aderexc", "all", MID, (), "uni"), ("aderexc", "plus", MID, (), "uni"),
    ("aderexc", "minus", MID, (), "uni"), ("bexc", "plus", BIG, ("--mode", "uni"), "uni"),
    ("dexc", "minus", BIG, ("--mode", "uni"), "uni"))

# the gamma-vector recurrence (gamma_closed) against the row recurrence
# (closed_family): each class where the gamma engine answers, 15 cases
RECOMPOSED = [(family, n, cls) for family in ("aexc", "bexc", "dexc")
              for n in (299, 300, 301) for cls in ("all", "plus", "minus")]


def report(label, reason):
    """Print label and ok, or label and reason and exit 1."""
    print(label, reason or "ok")
    if reason:
        sys.exit(1)


def answer(*argv):
    """What cli.main prints for argv; a non-zero exit prints it and fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code:
        print(out.getvalue(), end="")
        report(" ".join(argv), f"exited {code}")
    return out.getvalue()


def main():
    for suite, n in SUITES:
        print(answer("verify", "--suite", suite, "--max-n", str(n), "--timings"), end="")
    for request in ENGINES:
        oracle, closed = (answer(*request.split(), "--engine", engine)
                          for engine in ("oracle", "closed"))
        report(request, None if oracle == closed else "oracle and closed answers differ")
    for request, compute in GAMMAS:
        report(request, check_gamma(
            answer(*request.split(), "--format", "json"),
            answer(*(compute or request.replace("gamma", "compute", 1)).split(),
                   "--format", "json")))
    for family, cls, ranks, options, mode in TABLES:
        for n in ranks:
            out = answer("table", "--family", family, "--class", cls,
                         "--n-range", f"{n}..{n}", *options)
            report(" ".join(["table", family, cls, str(n), *options]),
                   check_table_csv(family, cls, n, out, mode=mode))
    cases = 0
    for family, n, cls in RECOMPOSED:
        if (expansion := gamma_closed(family, n, cls)) is not None:
            cases += 1
            row = closed_family(FamilySpec(family, n, cls))
            report(f"recompose {family} {cls} n={n}", None if expansion.recompose() == row
                   else "the gamma vector does not recompose to the closed row")
    report(f"{cases} gamma vectors recompose to their closed rows",
           None if cases == 15 else f"expected 15 cases, got {cases}")


if __name__ == "__main__":
    main()
