import contextlib
import copy
import functools
import inspect
import io
import json
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import count

import pytest

from gammaexc import cli, closedforms, poly
from gammaexc.closedforms import (
    MissingBase,
    NoClosedForm,
    coeff_tables,
    conj_exc_closed,
    derangement_closed,
    dexc_jump_tail,
    eulerian,
    eulerian_t,
    gamma_closed,
    half_sum_closed,
    jump4,
    jump_tables,
    set_partition_count,
    sgn_aexc_closed,
    sgn_bexc_closed,
    sgn_dexc_closed,
    sgnb_des_u_closed,
    step_recurrence,
)
from gammaexc.groups import CycleType, GroupSpec, partitions
from gammaexc.oracle import (FAMILIES, FamilySpec, WeightSpec, closed_family,
                             dist_poly, family_poly)
from gammaexc.poly import (BIVARIATE, D, GammaExpansion, NotHomogeneous,
                           NotPalindromic, OddCoefficient, Poly, UNIVARIATE,
                           ZeroPolynomial, gamma_decompose, half, t_coefficients)

s, t, u = Poly.gens("s", "t", "u")
CLASSES = ("all", "plus", "minus")

# every closed engine that takes a class, at a family and rank it accepts
CLASS_ENGINES = {
    "half_sum_closed": lambda cls: half_sum_closed("aexc", 5, cls),
    "step_recurrence aexc": lambda cls: step_recurrence("aexc", 5, cls),
    "step_recurrence bexc": lambda cls: step_recurrence("bexc", 5, cls),
    "step_recurrence dexc": lambda cls: step_recurrence("dexc", 5, cls),
    "_class_row dexc": lambda cls: closedforms._class_row("dexc", 5, cls),
    "CoeffTable.row": lambda cls: coeff_tables(5).row(4, cls),
    "jump4": lambda cls: jump4("aexc", 5, cls),
    "derangement_closed": lambda cls: derangement_closed(5, cls),
}


@pytest.mark.parametrize("engine", CLASS_ENGINES)
def test_engine_rejects_an_unknown_class(engine):
    with pytest.raises(ValueError,
                       match=r"^cls must be (all/)?plus/minus, got 'bogus'$"):
        CLASS_ENGINES[engine]("bogus")


# every exported closed engine that takes a rank: (the engine at rank n, a
# rank it answers at, the name its int-rule message gives the rank)
RANK_ENGINES = {
    "coeff_tables": (coeff_tables, 3, "n_max"),
    "coeff_tables row": (lambda n: coeff_tables(3).row(n, "plus"), 2, "rank"),
    "derangement_closed": (derangement_closed, 3, "rank"),
    "derangement_closed fixed": (lambda i: derangement_closed(3, fixed=i), 1,
                                 "fixed-point count"),
    "dexc_jump_tail": (dexc_jump_tail, 2, "rank"),
    "eulerian": (lambda n: eulerian("A", n), 3, "rank"),
    "eulerian_t": (lambda n: eulerian_t("B", n), 3, "rank"),
    "half_sum_closed": (lambda n: half_sum_closed("aexc", n, "plus"), 3, "rank"),
    "jump4": (lambda n: jump4("aexc", n, "plus"), 5, "rank"),
    "sgn_aexc_closed": (sgn_aexc_closed, 3, "rank"),
    "sgn_bexc_closed": (sgn_bexc_closed, 2, "rank"),
    "sgn_dexc_closed": (sgn_dexc_closed, 3, "rank"),
    "sgnb_des_u_closed": (sgnb_des_u_closed, 2, "rank"),
    "step_recurrence": (lambda n: step_recurrence("aexc", n, "plus"), 3, "rank"),
}


def test_rank_engines_are_every_exported_closed_engine_with_a_rank():
    import gammaexc

    exported = {name for name in gammaexc.__all__
                if inspect.isfunction(value := getattr(gammaexc, name))
                and value.__module__ == closedforms.__name__
                and {"n", "n_max"} & set(inspect.signature(value).parameters)}
    assert exported == {engine.split()[0] for engine in RANK_ENGINES}


@pytest.mark.parametrize("engine", RANK_ENGINES)
@pytest.mark.parametrize("bad", [float, bool, str])
def test_engine_rank_follows_the_int_rule(engine, bad):
    call, rank, name = RANK_ENGINES[engine]
    call(rank)
    value = bad(rank)  # 3.0, True or "3": never read as a rank
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} {value!r} is not an int"


def _memos():
    """Every memo of the closed engines, by kind and what it holds: the low
    halves of the Eulerian rows and the gamma vectors, each holding the
    rank-1 seed and the ranks that callers asked for."""
    return {(kind, what): memo
            for kind, (rows, gammas, _, _) in closedforms._EULERIAN.items()
            for what, memo in (("rows", rows), ("gammas", gammas))}


def _whole(kind, what, n, value):
    """A memo entry as callers see it: a half row through the mirror (the
    rank-n row has degree n - low), a gamma vector as it is."""
    if what == "gammas":
        return value
    d = n - closedforms._EULERIAN[kind][3]
    return value + value[:d + 1 - len(value)][::-1]


def _gamma_vector(kind, n):
    """The whole gamma vector of A_n or B_n, read off the gamma engine."""
    return list(gamma_closed("aexc" if kind == "A" else "bexc", n).gammas)


@pytest.fixture
def cold():
    """A function that cuts every memo back to its rank-1 seed and returns
    the memos; the ranks held before the test are restored after it."""
    memos = list(_memos().values())
    saved = [dict(memo) for memo in memos]

    def reset():
        for memo in memos:
            seed = memo[1]
            memo.clear()
            memo[1] = seed
        return memos

    try:
        yield reset
    finally:
        for memo, entries in zip(memos, saved):
            memo.clear()
            memo.update(entries)


# bad requests at a rank far above every memo, with the message each raises
BAD_REQUESTS = {
    "step_recurrence aexc": (lambda: step_recurrence("aexc", 400, "bogus"),
                             r"^cls must be all/plus/minus, got 'bogus'$"),
    "step_recurrence dexc": (lambda: step_recurrence("dexc", 400, "bogus"),
                             r"^cls must be all/plus/minus, got 'bogus'$"),
    "step_recurrence bdexc": (lambda: step_recurrence("bdexc", 400, "plus"),
                              r"^bdexc has no plus/minus split$"),
    "_class_row dexc": (lambda: closedforms._class_row("dexc", 400, "bogus"),
                        r"^cls must be all/plus/minus, got 'bogus'$"),
    "eulerian": (lambda: eulerian("C", 400), r"^kind must be A or B, got 'C'$"),
    "half_sum_closed": (lambda: half_sum_closed("aexc", 400, "bogus"),
                        r"^cls must be plus/minus, got 'bogus'$"),
}


@pytest.mark.parametrize("bad", BAD_REQUESTS)
def test_bad_request_fails_before_any_step(cold, bad):
    call, message = BAD_REQUESTS[bad]
    memos = cold()
    with pytest.raises(ValueError, match=message):
        call()
    assert [len(memo) for memo in memos] == [1] * len(memos)


def _race_against_sequential(cold, work):
    """Run `work(ranks)` on four threads at once, from cold memos, and
    require each memo to hold every rank that a sequential `work([40])` keeps
    (rank 40 for the Eulerian rows and gamma vectors) and to map every rank
    it holds to the value a cold sequential call gives for that rank: the
    row, compared through the mirror, or the gamma vector."""
    interval = sys.getswitchinterval()
    rng = random.Random(25)
    cold()
    memos = _memos()
    work([40])
    kept = {key: set(memo) for key, memo in memos.items()}
    values = {}
    read = {"rows": closedforms._eulerian_row, "gammas": _gamma_vector}
    for kind, what in memos:
        for n in range(1, 41):
            cold()
            values[kind, what, n] = read[what](kind, n)
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(20):
            cold()
            # each thread asks for a few random ranks, then the top one
            threads = [threading.Thread(target=work,
                                        args=(rng.sample(range(2, 40), 3) + [40],))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for (kind, what), memo in memos.items():
                assert kept[kind, what] <= set(memo)
                assert {n: _whole(kind, what, n, value)
                        for n, value in memo.items()} \
                    == {n: values[kind, what, n] for n in memo}
    finally:
        sys.setswitchinterval(interval)


class TestEulerian:
    def test_type_a_values(self):
        assert eulerian("A", 1) == 1
        assert eulerian("A", 2) == s + t
        assert eulerian("A", 3) == s ** 2 + 4 * s * t + t ** 2

    def test_type_b_values(self):
        assert eulerian("B", 1) == s + t
        assert eulerian("B", 2) == s ** 2 + 6 * s * t + t ** 2

    def test_against_oracle(self):
        for n in range(1, 6):
            assert eulerian("A", n) == family_poly(FamilySpec("a_des", n))
        for n in range(1, 5):
            assert eulerian("B", n) == family_poly(FamilySpec("b_des", n))

    def test_univariate(self):
        assert eulerian_t("A", 3) == 1 + 4 * t + t ** 2

    def test_validation(self):
        with pytest.raises(ValueError):
            eulerian("C", 3)
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            eulerian("A", -1)
        # rank 0 is the one empty window
        assert eulerian("A", 0) == eulerian("B", 0) == 1

    def test_cold_memo_shared_by_threads(self, cold):
        def work(ranks):
            for n in ranks:
                eulerian("A", n)
                eulerian("B", n)
                gamma_closed("aexc", n)
                gamma_closed("bexc", n)

        _race_against_sequential(cold, work)

    def test_cold_request_keeps_only_its_row(self, cold):
        cold()
        half_sum_closed("aexc", 300, "plus")
        assert set(closedforms._EULERIAN["A"][0]) == {1, 300}

    def test_cold_request_peaks_under_two_megabytes(self, cold):
        # stepping to rank 300 and keeping every row on the way peaks at 7.8 MB
        cold()
        tracemalloc.start()
        try:
            eulerian("A", 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("start", [2, 4])
    def test_ascending_walk_holds_every_rank(self, cold, monkeypatch, start):
        # the warm table sweep's pattern, which starts at rank 4: every rank
        # asked for is held, and the walk steps once per rank from the seed
        steps = []
        row_step = closedforms._row_step
        monkeypatch.setattr(closedforms, "_row_step",
                            lambda *args: steps.append(args) or row_step(*args))
        cold()
        for n in range(start, 61):
            eulerian("B", n)
        assert set(closedforms._EULERIAN["B"][0]) == {1, *range(start, 61)}
        assert len(steps) == 59

    def test_descending_request_steps_from_below(self, cold):
        cold()
        eulerian("B", 80)
        lower = eulerian("B", 50)
        assert set(closedforms._EULERIAN["B"][0]) == {1, 50, 80}
        assert lower == step_recurrence("bexc", 50)


def _full_rows(kind, top, prime=None):
    """Rows 1..top of A_n or B_n by the whole-row step the half-row engine
    replaced, (s+t) f + c st D f, reduced modulo prime when one is given."""
    c, f = {"A": (1, [1]), "B": (2, [1, 1])}[kind]
    rows = [None, f]
    for _ in range(2, top + 1):
        d = len(f) - 1
        f = [a + b + c * (j * a + (d - j + 1) * b)
             for j, (a, b) in enumerate(zip(f + [0], [0] + f))]
        f = [x % prime for x in f] if prime else f
        rows.append(f)
    return rows


class TestHalfRows:
    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_equal_the_full_row_step(self, cold, kind):
        cold()
        for n, row in enumerate(_full_rows(kind, 300)[1:], 1):
            assert closedforms._eulerian_row(kind, n) == row, n

    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_equal_the_full_row_step_at_1000_modulo_a_prime(self, cold, kind):
        prime = 2 ** 61 - 1
        cold()
        row = closedforms._eulerian_row(kind, 1000)
        assert [x % prime for x in row] == _full_rows(kind, 1000, prime)[1000]

    def test_memo_holds_half_rows(self, cold):
        cold()
        eulerian("A", 7)
        eulerian("B", 7)
        assert closedforms._EULERIAN["A"][0][7] == [1, 120, 1191, 2416]
        assert closedforms._EULERIAN["B"][0][7] == [1, 2179, 60657, 259723]


# every family with a closed gamma engine, with its classes
GAMMA_FAMILIES = {"a_des": ("all",), "aexc": CLASSES, "b_des": CLASSES,
                  "bexc": CLASSES, "dexc": CLASSES, "bdexc": ("all",)}


def _covered(family, cls, n):
    """Where the gamma engine answers: from rank 1, wherever the signed sum
    it reads has even degree, (s-t)^(n-1) for type A and (s-t)^n otherwise."""
    if n < 1:
        return False
    if family in ("dexc", "bdexc"):
        return n % 2 == 0
    return cls == "all" or n % 2 == (1 if family == "aexc" else 0)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGammaClosed:
    def test_engines_hang_on_the_family_table(self):
        assert {name for name, family in FAMILIES.items()
                if family.gamma is not None} == set(GAMMA_FAMILIES)

    @pytest.mark.parametrize("n", [*range(61), 250, 251])
    def test_equals_gamma_decompose(self, n):
        # the engine answers where it is covered (a zero polynomial has no
        # expansion) and defers everywhere else, dexc minus at odd n included
        for family, classes in GAMMA_FAMILIES.items():
            for cls in classes:
                spec = FamilySpec(family, max(n, FAMILIES[family].min_n), cls)
                try:
                    expected = gamma_decompose(closed_family(spec), BIVARIATE)
                except (NotPalindromic, ZeroPolynomial):
                    expected = None
                got = FAMILIES[family].gamma(spec)
                assert got == (expected if _covered(family, cls, spec.n)
                               else None), (family, cls, n)

    def test_vectors_at_small_ranks(self):
        assert _gamma_vector("A", 5) == [1, 22, 16]
        assert _gamma_vector("B", 4) == [1, 72, 80]
        # 4st: the bexc minus half at n = 2, one leading zero
        assert gamma_closed("bexc", 2, "minus") \
            == GammaExpansion(BIVARIATE, 1, 2, (4,))
        assert gamma_closed("aexc", 1, "minus") is None  # the zero half
        assert gamma_closed("dexc", 5) is None  # not palindromic
        with pytest.raises(ValueError, match="^no gamma vector for 'sgn_bexc'$"):
            gamma_closed("sgn_bexc", 4)
        with pytest.raises(ValueError, match="^cls must be all/plus/minus"):
            gamma_closed("aexc", 5, "even")

    @pytest.mark.parametrize("argv", [
        "gamma --family bexc --class minus --n 0",
        "gamma --family aexc --class minus --n 1",
        "gamma --family aexc --class plus --n 6",
        "gamma --family bexc --class minus --n 7 --format json",
        "gamma --family dexc --n 5",
        "gamma --family dexc --class plus --n 7 --format json",
        "gamma --family bdexc --n 3",
        "gamma --family bexc --n 6 --mode uni",
        "gamma --family aexc --n 5 --mode q",
        "gamma --family aexc --class minus --n 5 --engine oracle",
        "table --family aexc --class minus --n-range 1..7",
        "table --family dexc --n-range 3..6 --mode uni",
        "table --family bdexc --n-range 0..5 --engine oracle --out json",
    ])
    def test_deferrals_give_the_decompose_bytes(self, monkeypatch, argv):
        # the decompose route is what every request took before the engine;
        # under --mode or --engine oracle the engine is not even asked
        answer = _cli(argv.split())
        asked = []
        monkeypatch.setattr(closedforms, "gamma_closed",
                            lambda *args: asked.append(args))  # defers
        assert answer == _cli(argv.split())
        assert bool(asked) != ("--mode" in argv or "oracle" in argv)

    @pytest.mark.parametrize("n", range(13))
    def test_covered_requests_give_the_decompose_bytes(self, monkeypatch, n):
        argvs = [f"gamma --family {family} --class {cls} --n {n} --format {fmt}"
                 for family, classes in GAMMA_FAMILIES.items()
                 for cls in classes for fmt in ("text", "json")]
        argvs += [f"table --family {family} --class {cls} --n-range {n}..{n}"
                  for family, classes in GAMMA_FAMILIES.items() for cls in classes]
        answers = [_cli(argv.split()) for argv in argvs]
        monkeypatch.setattr(closedforms, "gamma_closed", lambda *args: None)
        assert answers == [_cli(argv.split()) for argv in argvs]

    @pytest.mark.parametrize("request_", [
        "--family aexc --n 400", "--family aexc --class plus --n 401",
        "--family a_des --n 400", "--family bexc --class minus --n 400",
        "--family b_des --class plus --n 400", "--family dexc --n 400",
        "--family dexc --class plus --n 400", "--family bdexc --n 400",
    ])
    def test_covered_request_builds_no_row(self, cold, monkeypatch, request_):
        def refuse(*args):
            raise AssertionError(f"row or peel called with {args}")

        monkeypatch.setattr(cli, "gamma_decompose", refuse)
        monkeypatch.setattr(closedforms, "_eulerian_row", refuse)
        cold()
        code, out, err = _cli(["gamma", *request_.split()])
        assert (code, err) == (0, "") and out.startswith("gamma=[")


def _closed_poly(args, n):
    """``closed_family``'s Poly for a gamma or table request at rank n, and
    the request's gamma mode; univariate mode reads the s = 1 specialization."""
    mode = {"uni": UNIVARIATE, "biv": BIVARIATE}.get(args.mode,
                                                     FAMILIES[args.family].mode)
    f = closed_family(FamilySpec(args.family, n, args.cls, fixed=args.fixed,
                                 lam=getattr(args, "lam", None)))
    return (f.substitute_one("s") if mode == UNIVARIATE and "s" in f.vars
            else f), mode


def _poly_rows(args):
    """``cli._table_rows`` by the Poly route: ``closed_family``, then
    ``t_coefficients`` and ``gamma_decompose``."""
    lo, hi = args.n_range
    for n in range(lo, hi + 1):
        f, mode = _closed_poly(args, n)
        try:
            expansion = gamma_decompose(f, mode)
        except (NotPalindromic, ZeroPolynomial, NotHomogeneous):
            expansion = None
        yield n, t_coefficients(f), expansion


def _poly_input(args, n):
    """``cli._gamma_input`` by the Poly route, with no closed gamma expansion."""
    f, mode = _closed_poly(args, n)
    return mode, None, lambda: f, t_coefficients, gamma_decompose


# (family, class, option) of the requests whose answer is a closed row: the
# six gamma families at their own mode and in univariate mode, aderexc with
# and without a fixed-point count, and the signed sums
ROW_REQUESTS = [
    *(pytest.param(family, cls, "", id=f"{family}-{cls}")
      for family, classes in GAMMA_FAMILIES.items() for cls in classes),
    *(pytest.param(family, cls, "--mode uni", id=f"{family}-{cls}-uni")
      for family, classes in GAMMA_FAMILIES.items() for cls in classes),
    *(pytest.param("aderexc", cls, "", id=f"aderexc-{cls}") for cls in CLASSES),
    *(pytest.param("aderexc", cls, f"--fixed {i}", id=f"aderexc-{cls}-fixed{i}")
      for cls in CLASSES for i in range(4)),
    *(pytest.param(family, "all", "", id=f"{family}-all")
      for family in ("sgn_aexc", "sgn_bexc", "sgn_dexc")),
]

LAMBDAS = [(1,), (2,), (2, 1), (1, 1, 1), (3, 3), (4, 2, 1, 1), (5, 4),
           (6, 2, 2, 1), (9, 1, 1), (12, 11, 9, 8, 7, 5, 3, 2), (30, 20, 10)]


def _ranks(family, option):
    """The ranks a row request is checked at: aderexc up to 61, the others
    up to 61 and at 101 and 249..251, each from the family's lowest rank and
    from a fixed-point count."""
    low = max(FAMILIES[family].min_n,
              int(option.split()[-1]) if "--fixed" in option else 0)
    return [*range(low, 62), *([] if family == "aderexc" else [101, 249, 250, 251])]


def _refuse(*args):
    raise AssertionError(f"called with {args}")


class TestTableRows:
    """``table`` reads the closed rows of the gamma families directly."""

    @pytest.mark.parametrize("out", ["csv", "json"])
    @pytest.mark.parametrize("family, cls, option", ROW_REQUESTS)
    def test_equals_the_poly_route(self, monkeypatch, family, cls, option, out):
        # dexc minus at odd n is palindromic, but the gamma engine defers
        # there, so its gammas come from the row peel
        ranks = _ranks(family, option)
        spans = [f"{ranks[0]}..61"] + (["101..101", "249..251"] if ranks[-1] > 61
                                       else [])
        modes = (("", " --mode biv") if not option
                 and FAMILIES[family].mode == BIVARIATE else ("",))
        argvs = [f"table --family {family} --class {cls} --n-range {span} "
                 f"--out {out} {option}{mode}".split()
                 for span in spans for mode in modes]
        answers = [_cli(argv) for argv in argvs]
        monkeypatch.setattr(cli, "_table_rows", _poly_rows)
        assert answers == [_cli(argv) for argv in argvs]

    @pytest.mark.parametrize("n", [5, 15, 25, 101])
    def test_dexc_minus_at_odd_n_peels_its_row(self, monkeypatch, n):
        assert gamma_closed("dexc", n, "minus") is None
        expected = gamma_decompose(closed_family(FamilySpec("dexc", n, "minus")),
                                   BIVARIATE)
        monkeypatch.setattr(cli, "gamma_decompose", _refuse)
        code, out, err = _cli(f"table --family dexc --class minus --n-range "
                              f"{n}..{n} --out json".split())
        (entry,) = json.loads(out)
        assert (code, err, entry["gamma_positive"]) == (0, "", True)
        assert entry["gammas"] == expected.to_json_dict()["gammas"]

    @pytest.mark.parametrize("option, row_route", [
        ("", True), ("--mode biv", True), ("--engine closed", True),
        ("--mode uni", True), ("--engine oracle", False)])
    def test_route_by_mode_and_engine(self, monkeypatch, option, row_route):
        # the Poly route expands each rank's polynomial with gamma_decompose
        calls = []
        real = cli.gamma_decompose
        monkeypatch.setattr(cli, "gamma_decompose",
                            lambda *args: calls.append(args) or real(*args))
        for family, classes in GAMMA_FAMILIES.items():
            for cls in classes:
                calls.clear()
                code, _, err = _cli(f"table --family {family} --class {cls} "
                                    f"--n-range 1..5 {option}".split())
                assert (code, err) == (0, "")
                assert len(calls) == (0 if row_route else 5), (family, cls)

    @pytest.mark.parametrize("family, cls", [
        (family, cls) for family, classes in GAMMA_FAMILIES.items()
        for cls in classes])
    def test_builds_no_poly(self, monkeypatch, family, cls):
        argv = f"table --family {family} --class {cls} --n-range 2..12".split()
        answer = _cli(argv)
        monkeypatch.setattr(poly, "_symmetry", _refuse)
        monkeypatch.setattr(cli, "gamma_decompose", _refuse)
        monkeypatch.setattr(closedforms, "_poly", _refuse)
        assert _cli(argv) == answer


# exported Poly engine -> the (arguments, FamilySpec) pairs at which it must
# answer what the family table answers; no CLI request reaches these engines
PINNED_ENGINES = {
    "eulerian": lambda: [
        ((kind, n), FamilySpec(family, n))
        for kind, families in (("A", ("a_des", "aexc")), ("B", ("b_des", "bexc")))
        for family in families for n in range(FAMILIES[family].min_n, 61)],
    "half_sum_closed": lambda: [
        ((half_family, n, cls), FamilySpec(family, n, cls))
        for family, half_family in (("aexc", "aexc"), ("b_des", "bexc"),
                                    ("bexc", "bexc"))
        for cls in ("plus", "minus") for n in range(FAMILIES[family].min_n, 61)]
    + [(("bexc", n, "minus"), FamilySpec("bdexc", n)) for n in range(61)],
    "sgn_aexc_closed": lambda: [((n,), FamilySpec("sgn_aexc", n))
                                for n in range(1, 61)],
    "sgn_bexc_closed": lambda: [((n,), FamilySpec("sgn_bexc", n)) for n in range(61)],
    "sgn_dexc_closed": lambda: [((n,), FamilySpec("sgn_dexc", n)) for n in range(61)],
    "derangement_closed": lambda: [
        ((n, cls, fixed), FamilySpec("aderexc", n, cls, fixed=fixed))
        for cls in CLASSES for fixed in (None, 0, 1, 2, 3)
        for n in range(fixed or 0, 61)],
    "conj_exc_closed": lambda: [((lam,), FamilySpec("conjexc", n, lam=lam.parts))
                                for n in range(13) for lam in partitions(n)],
}


@pytest.mark.parametrize("name", PINNED_ENGINES)
def test_exported_engine_equals_the_family_table(name):
    engine = getattr(closedforms, name)
    for args, spec in PINNED_ENGINES[name]():
        got, want = engine(*args), closed_family(spec)
        assert (got, got.vars) == (want, want.vars), (name, args)


class TestGammaRows:
    """``gamma`` takes ``table``'s row route where the gamma engine defers."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("family, cls, option", [
        *ROW_REQUESTS, pytest.param("conjexc", "all", "", id="conjexc-all")])
    def test_equals_the_poly_route(self, monkeypatch, family, cls, option, fmt):
        # the Poly route expands closed_family's Poly, with no gamma engine
        requests = ([f"--n {sum(lam)} --lambda {','.join(map(str, lam))}"
                     for lam in LAMBDAS] if family == "conjexc"
                    else [f"--n {n}" for n in _ranks(family, option)])
        argvs = [f"gamma --family {family} --class {cls} {request} {option} "
                 f"--format {fmt}".split() for request in requests]
        answers = [_cli(argv) for argv in argvs]
        monkeypatch.setattr(cli, "_gamma_input", _poly_input)
        assert answers == [_cli(argv) for argv in argvs]

    def test_the_witness_and_the_zero_row_keep_their_bytes(self):
        assert _cli("gamma --family aexc --class plus --n 6".split()) == (
            0, "not palindromic: coefficient of t^0 is 1 but coefficient of "
               "t^5 is 0\n", "")
        assert _cli("gamma --family aexc --class plus --n 6 --format json"
                    .split()) == (
            0, '{"palindromic":false,"witness":{"low_index":0,"high_index":5,'
               '"low":"1","high":"0"}}\n', "")
        assert _cli("gamma --family aexc --class minus --n 1".split()) == (
            2, "", "error: the zero polynomial has no palindrome data\n")

    def test_builds_no_poly(self, monkeypatch):
        # dexc minus at n = 5 is palindromic where the gamma engine defers
        argvs = [["gamma", "--family", "dexc", "--class", "minus", "--n", "5"]]
        argvs += [f"gamma --family {family} --class {cls} --n {n}".split()
                  for family, classes in GAMMA_FAMILIES.items()
                  for cls in classes for n in range(13)]
        # every other closed row: univariate mode, the derangements, the
        # conjugacy classes and the signed sums
        argvs += [f"gamma --family {family} --class {cls} --n {n} {option}".split()
                  for family, cls, option in
                  [("bexc", "plus", "--mode uni"), ("dexc", "minus", "--mode uni"),
                   ("aderexc", "all", ""), ("aderexc", "minus", "--fixed 1"),
                   ("sgn_aexc", "all", ""), ("sgn_bexc", "all", ""),
                   ("sgn_dexc", "all", "")] for n in range(1, 13)]
        argvs += [f"gamma --family conjexc --n {sum(lam)} --lambda "
                  f"{','.join(map(str, lam))}".split() for lam in LAMBDAS]
        answers = [_cli(argv) for argv in argvs]
        monkeypatch.setattr(poly, "_symmetry", _refuse)
        monkeypatch.setattr(cli, "gamma_decompose", _refuse)
        monkeypatch.setattr(closedforms, "_poly", _refuse)
        assert [_cli(argv) for argv in argvs] == answers


class TestHalfSum:
    def test_aexc5_plus(self):
        assert half_sum_closed("aexc", 5, "plus") == (
            s ** 4 + 11 * s ** 3 * t + 36 * s ** 2 * t ** 2
            + 11 * s * t ** 3 + t ** 4
        )

    def test_rank2_bases(self):
        assert half_sum_closed("aexc", 2, "plus") == s
        assert half_sum_closed("aexc", 2, "minus") == t

    def test_bexc2_minus(self):
        assert half_sum_closed("bexc", 2, "minus") == 4 * s * t

    def test_validation(self):
        with pytest.raises(ValueError, match="^aexc half-sum needs n >= 1$"):
            half_sum_closed("aexc", 0, "plus")
        # S_1 is the identity alone, which is even
        assert half_sum_closed("aexc", 1, "plus") == 1
        assert half_sum_closed("aexc", 1, "minus") == 0
        with pytest.raises(ValueError):
            half_sum_closed("dexc", 3, "plus")
        with pytest.raises(ValueError):
            half_sum_closed("aexc", 3, "all")
        # the class is checked before the family and the rank
        with pytest.raises(ValueError, match="cls must be plus/minus, got 'x'"):
            half_sum_closed("dexc", 1, "x")


class TestStepRecurrence:
    def test_aexc3_plus(self):
        # identity has (exc, nexc-1) = (0, 2); the 3-cycles give st and t^2
        assert step_recurrence("aexc", 3, "plus") == s ** 2 + s * t + t ** 2

    def test_matches_half_sum(self):
        for n in range(1, 9):
            for cls in ("plus", "minus"):
                assert step_recurrence("aexc", n, cls) \
                    == half_sum_closed("aexc", n, cls)
        for n in range(0, 9):
            for cls in ("plus", "minus"):
                assert step_recurrence("bexc", n, cls) \
                    == half_sum_closed("bexc", n, cls)

    def test_bexc3_cross_check(self):
        assert step_recurrence("bexc", 3, "plus") \
            == half_sum_closed("bexc", 3, "plus") \
            == family_poly(FamilySpec("bexc", 3, "plus"))

    def test_dexc2(self):
        assert step_recurrence("dexc", 2) == s ** 2 + 2 * s * t + t ** 2
        assert step_recurrence("bdexc", 2) == 4 * s * t

    def test_dexc_against_oracle(self):
        for n in range(2, 6):
            assert step_recurrence("dexc", n) == family_poly(FamilySpec("dexc", n))
            assert step_recurrence("bdexc", n) \
                == family_poly(FamilySpec("bdexc", n))
            for cls in ("plus", "minus"):
                assert step_recurrence("dexc", n, cls) \
                    == family_poly(FamilySpec("dexc", n, cls))

    def test_all_class_sums(self):
        assert step_recurrence("aexc", 4) == eulerian("A", 4)
        assert step_recurrence("bexc", 3) == eulerian("B", 3)

    def test_validation(self):
        # each engine starts at its family's lowest rank, answering there
        for family in closedforms._STEPS:
            low = FAMILIES[family].min_n
            with pytest.raises(ValueError, match=rf"^{family} step recurrence "
                                                 rf"starts at n = {low}$"):
                step_recurrence(family, low - 1)
            split = FAMILIES[family].split
            for cls in ("all", "plus", "minus") if split else ("all",):
                assert step_recurrence(family, low, cls) \
                    == closed_family(FamilySpec(family, low, cls))
        # S_1 is the identity alone, which is even
        assert step_recurrence("aexc", 1, "plus") == 1
        assert step_recurrence("aexc", 1, "minus") == 0
        with pytest.raises(ValueError):
            step_recurrence("bdexc", 3, "plus")
        with pytest.raises(ValueError, match="^bdexc has no plus/minus split$"):
            step_recurrence("bdexc", 3, "bogus")

    def test_cold_memos_shared_by_threads(self, cold):
        def work(ranks):
            for n in ranks:
                for family in ("aexc", "bexc", "dexc", "bdexc"):
                    step_recurrence(family, n)
                gamma_closed("aexc", n)
                gamma_closed("dexc", n, "minus")

        _race_against_sequential(cold, work)

    def test_stores_nothing(self):
        steps = copy.deepcopy(closedforms._STEPS)
        for family in steps:
            step_recurrence(family, 60)
        assert closedforms._STEPS == steps


class TestCoeffTables:
    def test_row_4(self):
        tables = coeff_tables(6)
        assert tables.row(4, "plus") == (1, 4, 7, 0)
        assert tables.row(4, "minus") == (0, 7, 4, 1)

    def test_row_2(self):
        tables = coeff_tables(4)
        # row 1 is S_1's identity, which is even
        assert tables.row(1, "plus") == (1,)
        assert tables.row(1, "minus") == (0,)
        assert tables.row(2, "plus") == (1, 0)
        assert tables.row(2, "minus") == (0, 1)
        with pytest.raises(ValueError, match="^need n_max >= 1$"):
            coeff_tables(0)

    def test_rows_match_closed_forms(self):
        import math

        tables = coeff_tables(12)
        for n in range(2, 13):
            for cls in ("plus", "minus"):
                f = half_sum_closed("aexc", n, cls).substitute_one("s")
                row = [f.coefficient("t", k) for k in range(n)]
                assert row == list(tables.row(n, cls))
            assert sum(tables.row(n, "plus")) == math.factorial(n) // 2
            assert sum(tables.row(n, "minus")) == math.factorial(n) // 2

    def test_out_of_range(self):
        tables = coeff_tables(5)
        with pytest.raises(ValueError):
            tables.row(6, "plus")
        assert tables.value(4, 17, "plus") == 0

    def test_rejects_unknown_class(self):
        tables = coeff_tables(5)
        with pytest.raises(ValueError, match="cls must be plus/minus, got 'bogus'"):
            tables.row(4, "bogus")
        with pytest.raises(ValueError, match="got 'plus '"):
            tables.value(4, 1, "plus ")


class TestJump:
    def test_table_values(self):
        tab = jump_tables()
        assert tab["L2"][0] == 15 * s * t * (s + t) ** 2
        assert tab["L2"][1] == Fraction(2)
        assert tab["R1"][0] == ((s + t) ** 4 + 8 * s * t * (s + t) ** 2
                                + 16 * (s * t) ** 2)
        assert tab["R1"][1] == Fraction(2)
        assert tab["R7"][0] == 2 * (s * t) ** 2
        assert tab["R7"][1] == Fraction(2)
        assert len(tab) == 13

    def test_callers_cannot_mutate_the_shared_tables(self):
        tab = jump_tables()
        tab["L1"] = (Poly.const(0), Fraction(0))
        del tab["R7"]
        fresh = jump_tables()
        assert len(fresh) == 13
        assert fresh["L1"][1] == Fraction(2)
        assert jump4("aexc", 5, "plus") == step_recurrence("aexc", 9, "plus")

    def test_a_jump_equals_steps(self):
        for n, cls in ((5, "plus"), (5, "minus"), (7, "plus"), (9, "minus")):
            assert jump4("aexc", n, cls) == step_recurrence("aexc", n + 4, cls)

    def test_d_jump_equals_steps(self):
        for n, cls in ((4, "plus"), (4, "minus"), (6, "plus"), (8, "minus")):
            assert jump4("dexc", n, cls) == step_recurrence("dexc", n + 4, cls)

    def test_tail_has_even_gammas(self):
        gexp = gamma_decompose(dexc_jump_tail(2), BIVARIATE)
        assert gexp.center_of_symmetry == 3
        assert all(g % 2 == 0 and g >= 0 for g in gexp.gammas)

    def test_missing_base(self):
        with pytest.raises(MissingBase):
            jump4("aexc", 4, "plus")
        with pytest.raises(MissingBase):
            jump4("aexc", 3, "plus")
        with pytest.raises(MissingBase):
            jump4("dexc", 5, "plus")
        with pytest.raises(ValueError):
            jump4("bexc", 4, "plus")


class TestConjugacyAndDerangements:
    def test_set_partition_count(self):
        assert set_partition_count((2, 2)) == 3
        assert set_partition_count((5,)) == 1
        assert set_partition_count((3, 2)) == 10
        assert set_partition_count(CycleType((2, 1, 1))) == 6

    def test_single_cycle(self):
        assert conj_exc_closed((4,)) == t + 4 * t ** 2 + t ** 3

    def test_double_transposition(self):
        assert conj_exc_closed((2, 2)) == 3 * t ** 2

    def test_identity_class(self):
        assert conj_exc_closed((1, 1, 1, 1)) == Poly.const(1, ("t",))

    def test_derangements(self):
        assert derangement_closed(4) == t + 7 * t ** 2 + t ** 3
        assert derangement_closed(4, "plus") == 3 * t ** 2
        assert derangement_closed(4, "minus") == t + 4 * t ** 2 + t ** 3

    def test_all_fixed(self):
        assert derangement_closed(5, fixed=5) == Poly.const(1, ("t",))
        assert derangement_closed(5, "minus", fixed=5).is_zero

    def test_impossible_fixed_count(self):
        assert derangement_closed(5, fixed=4).is_zero

    def test_against_oracle(self):
        for n in range(1, 7):
            for cls in ("all", "plus", "minus"):
                assert derangement_closed(n, cls) \
                    == family_poly(FamilySpec("aderexc", n, cls))


def _partition_sums(n):
    """(fixed points, class) -> sum of conj_exc_closed over the classes."""
    sums = {}
    for lam in partitions(n):
        for cls in ("all", "plus" if lam.sign == 1 else "minus"):
            key = (lam.fixed_points, cls)
            sums[key] = sums.get(key, 0) + conj_exc_closed(lam)
    return sums


class TestDerangementRecurrence:
    def test_matches_partition_sum(self):
        for n in range(0, 21):
            sums = _partition_sums(n)
            for i in range(n + 1):
                for cls in ("all", "plus", "minus"):
                    assert derangement_closed(n, cls, fixed=i) \
                        == sums.get((i, cls), 0), (n, i, cls)

    @pytest.mark.parametrize("n", [25, 60, 120])
    def test_beyond_the_partition_sum(self, n):
        # !n = n! sum_k (-1)^k / k!, and the even minus the odd derangements
        # number (-1)^(n-1) (n-1)
        subfactorial = sum((-1) ** k * math.factorial(n) // math.factorial(k)
                           for k in range(n + 1))
        assert derangement_closed(n).at_ones() == subfactorial
        plus, minus = derangement_closed(n, "plus"), derangement_closed(n, "minus")
        assert plus + minus == derangement_closed(n)
        assert (plus - minus).at_ones() == (-1) ** (n - 1) * (n - 1)

    def test_rejects_out_of_range_fixed(self):
        for fixed in (-1, 4):
            with pytest.raises(ValueError, match="outside 0..3"):
                derangement_closed(3, fixed=fixed)

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="cls must be all/plus/minus, got 'odd'"):
            derangement_closed(4, "odd")


class TestDerangementSignRow:
    """The derangements' signed sum, read by the class rule off a closed row,
    against the cycle recurrence at q = -1 and against the oracle."""

    @staticmethod
    def _signed(m):
        plus, minus = map(closedforms._derangement_row, (m, m), ("plus", "minus"))
        return [a - b for a, b in zip(plus, minus, strict=True)]

    def test_equals_the_cycle_recurrence_at_q_minus_1(self):
        for m, row in zip(range(151), _derangement_rows(-1)):
            assert self._signed(m) == [(-1) ** m * c for c in row], m

    @pytest.mark.parametrize("n", [25, 60, 120])
    def test_every_class_equals_the_recurrence_halves(self, n):
        rows = [*zip(range(n + 1), _derangement_rows(1), _derangement_rows(-1))]
        for fixed in range(4):
            _, whole, at_minus_1 = rows[n - fixed]
            signed = [(-1) ** (n - fixed) * c for c in at_minus_1]
            for cls, sign in (("all", 0), ("plus", 1), ("minus", -1)):
                half = [a + sign * b for a, b in zip(whole, signed)]
                expected = whole if not sign else [c // 2 for c in half]
                assert closedforms._derangement_row(n, cls, fixed) \
                    == [math.comb(n, fixed) * c for c in expected], (fixed, cls)

    def test_equals_the_oracle_signed_sum(self):
        weight = WeightSpec((("t", "exc", 0),), sign_stat="inv")
        for n in range(9):
            oracle = dist_poly(GroupSpec("S", n, fixed_points=0), weight)
            assert oracle == derangement_closed(n, "plus") \
                - derangement_closed(n, "minus"), n
            assert closedforms._poly(self._signed(n), UNIVARIATE) == oracle, n

    def test_each_request_runs_the_recurrence_once(self, monkeypatch):
        calls, real = [], closedforms._derangements_by_cycles
        monkeypatch.setattr(closedforms, "_derangements_by_cycles",
                            lambda m: calls.append(m) or real(m))
        for cls in CLASSES:
            for fixed in (None, 2):
                calls.clear()
                closed_family(FamilySpec("aderexc", 30, cls, fixed=fixed))
                assert calls == [30 - (fixed or 0)], (cls, fixed)


class TestClosedFamilyDispatch:
    def test_matches_oracle_engine(self):
        cases = [
            FamilySpec("aexc", 5, "plus"),
            FamilySpec("aexc", 4),
            FamilySpec("a_des", 4),
            FamilySpec("b_des", 3, "minus"),
            FamilySpec("bexc", 3, "plus"),
            FamilySpec("dexc", 4, "minus"),
            FamilySpec("bdexc", 3),
            FamilySpec("sgn_aexc", 5),
            FamilySpec("sgn_bexc", 3),
            FamilySpec("sgn_dexc", 4),
            FamilySpec("aderexc", 5, "minus"),
            FamilySpec("conjexc", 5, lam=(3, 2)),
        ]
        for fs in cases:
            assert closed_family(fs) == family_poly(fs), str(fs)

    def test_sgnb_des_u(self):
        assert closed_family(FamilySpec("sgnb_des_u", 3)) == sgnb_des_u_closed(3)

    def test_sgn_dexc_parity(self):
        assert sgn_dexc_closed(4) == (s - t) ** 4
        assert sgn_dexc_closed(5) == s * (s - t) ** 4

    def test_type_d_families_never_call_step_recurrence(self, cold, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"step_recurrence{args}")

        monkeypatch.setattr(closedforms, "step_recurrence", refuse)
        cold()
        for fs in (FamilySpec("dexc", 150), FamilySpec("dexc", 150, "plus"),
                   FamilySpec("dexc", 150, "minus"), FamilySpec("bdexc", 150)):
            closed_family(fs)
        assert set(closedforms._EULERIAN["B"][0]) == {1, 150}

    def test_qrefined_has_no_closed_form(self):
        with pytest.raises(NoClosedForm):
            closed_family(FamilySpec("qrefined", 4, stat="inv"))


class TestBridgeSplitExample:
    def test_rank5_bridge_splits_at_centers_2_and_3(self):
        from gammaexc.poly import D, UNIVARIATE, gamma_decompose, split_odd_length

        bridge = (s * t * D(eulerian("A", 5))).substitute_one("s")
        expansion = gamma_decompose(bridge, UNIVARIATE)
        assert expansion.center_of_symmetry == Fraction(5, 2)
        low, high = split_odd_length(expansion)
        assert low.center_of_symmetry == 2
        assert high.center_of_symmetry == 3
        assert low.recompose() + high.recompose() == bridge

    def test_fixed_scaling(self):
        # choosing the fixed points multiplies the derangement polynomial
        assert derangement_closed(6, fixed=2) \
            == 15 * derangement_closed(4)


# -- an independent reference: the recurrences written out on Poly -------------

REF_TOP = 40


@functools.cache
def _reference():
    """Eulerian polynomials and step pairs up to REF_TOP, by sparse Poly."""
    eul = {}
    one, zero = Poly.const(1, ("s", "t")), Poly.zero(("s", "t"))
    for kind, c, seed in (("A", 1, one), ("B", 2, s + t)):
        eul[kind] = [one, seed]  # rank 0: the one empty window
        while len(eul[kind]) <= REF_TOP:
            f = eul[kind][-1]
            eul[kind].append((s + t) * f + c * s * t * D(f))
    grow_a = lambda m: half(s * t * D(eul["A"][m - 1]))  # noqa: E731
    grow_b = lambda m: s * t * D(eul["B"][m - 1])  # noqa: E731
    pairs = {}
    for family, low, grow in (("aexc", 1, grow_a), ("bexc", 0, grow_b),
                              ("dexc", 0, grow_b)):
        pairs[family] = {low: (one, zero)}  # the identity alone, even
        for m in range(low + 1, REF_TOP + 1):
            x, y = pairs[family][m - 1]
            g = grow(m)
            pairs[family][m] = (s * x + t * y + g, t * x + s * y + g)
    return eul, pairs


def _derangement_rows(q):
    """d_m(q, t) = sum of q^cyc t^exc over the derangements of [m], as t-rows
    for m = 0, 1, 2, ...: d_k = (k-1) t d_{k-1} + t(1-t) d'_{k-1}
    + (k-1) q t d_{k-2}, the cycle recurrence the engine runs at q = 1 only.
    At q = -1, (-1)^m d_m(-1, t) is the derangements' signed sum."""
    older, row = [], [1]  # the rows of d_{k-2} and d_{k-1}
    yield row
    for k in count(1):
        a, b = [0] + row + [0], [0] + older + [0] * k
        older, row = row, [j * a[j + 1] + (k - j) * a[j] + (k - 1) * q * b[j]
                           for j in range(k + 1)]
        yield row


def _sign(cls):
    return 1 if cls == "plus" else -1


class TestClassRuleHelpers:
    """The row helpers of the class rule, pinned entry by entry."""

    def test_signed_is_the_signed_binomial_row(self):
        for m in range(81):
            assert closedforms._signed(m) \
                == [(-1) ** k * math.comb(m, k) for k in range(m + 1)]

    def test_half_halves_negative_even_entries_exactly(self):
        row = [-4, 0, 6, -2, -10 ** 30, 10 ** 30 + 2]
        assert closedforms._half(row) == [-2, 0, 3, -1, -5 * 10 ** 29,
                                          5 * 10 ** 29 + 1]

    @pytest.mark.parametrize("odd", (3, -3))
    def test_half_names_the_first_odd_entry(self, odd):
        with pytest.raises(OddCoefficient) as err:
            closedforms._half([2, -4, odd, 5, -7])
        assert str(err.value) == f"coefficient {odd} at t^2 is odd"
        with pytest.raises(OddCoefficient) as err:
            closedforms._half([odd, 4])
        assert str(err.value) == f"coefficient {odd} at t^0 is odd"

    def test_add_and_subtract(self):
        a, b = [5, -1, 7, 10 ** 30], [2, 3, -4, -1]
        assert closedforms._add(a, b) == [7, 2, 3, 10 ** 30 - 1]
        assert closedforms._add(a, b, -1) == [3, -4, 11, 10 ** 30 + 1]


class TestRowEnginesAgainstPolyReference:
    def test_eulerian(self):
        eul, _ = _reference()
        for kind in ("A", "B"):
            for n in range(1, REF_TOP + 1):
                f = eulerian(kind, n)
                assert f == eul[kind][n] and f.vars == ("s", "t")
                g = eulerian_t(kind, n)
                assert g == eul[kind][n].substitute_one("s")
                assert g.vars == ("t",)

    def test_signed_forms(self):
        for n in range(1, REF_TOP + 1):
            assert sgn_aexc_closed(n) == (s - t) ** (n - 1)
            assert sgn_bexc_closed(n) == (s - t) ** n
            assert sgn_dexc_closed(n) == ((s - t) ** n if n % 2 == 0
                                          else s * (s - t) ** (n - 1))
            assert sgnb_des_u_closed(n) == (s - t) ** n * u ** n
            for f in (sgn_aexc_closed(n), sgn_bexc_closed(n),
                      sgn_dexc_closed(n)):
                assert f.vars == ("s", "t")
            assert sgnb_des_u_closed(n).vars == ("s", "t", "u")

    def test_half_sums(self):
        eul, _ = _reference()
        for family, kind, low, shift in (("aexc", "A", 2, 1), ("bexc", "B", 1, 0)):
            for n in range(low, REF_TOP + 1):
                for cls in ("plus", "minus"):
                    expected = half(eul[kind][n]
                                    + _sign(cls) * (s - t) ** (n - shift))
                    f = half_sum_closed(family, n, cls)
                    assert f == expected and f.vars == ("s", "t")

    def test_step_recurrence(self):
        _, pairs = _reference()
        for family in ("aexc", "bexc"):
            for n, (x, y) in pairs[family].items():
                assert step_recurrence(family, n) == x + y
                assert step_recurrence(family, n, "plus") == x
                assert step_recurrence(family, n, "minus") == y
        for n, (x, y) in pairs["dexc"].items():
            assert step_recurrence("dexc", n) == x
            assert step_recurrence("bdexc", n) == y
            for cls in ("plus", "minus"):
                f = step_recurrence("dexc", n, cls)
                assert f == half(x + _sign(cls) * sgn_dexc_closed(n))
                assert f.vars == ("s", "t")

    def test_type_d_families_equal_the_step_recurrence(self):
        for n in range(0, REF_TOP + 1):
            _assert_type_d_families_equal_the_step_recurrence(n)


def _assert_type_d_families_equal_the_step_recurrence(n):
    """The family table's dexc and bdexc, read off B_n's row, equal the
    pair recurrence that steps (D_n, (B-D)_n)."""
    for cls in ("all", "plus", "minus"):
        assert closed_family(FamilySpec("dexc", n, cls)) \
            == step_recurrence("dexc", n, cls)
    assert closed_family(FamilySpec("bdexc", n)) == step_recurrence("bdexc", n)


class TestRowEnginesAtRank250:
    N = 250

    @staticmethod
    def _binomial(m, extra=()):
        return {(m - k, k) + extra: (-1) ** k * math.comb(m, k)
                for k in range(m + 1)}

    def test_class_totals(self):
        n, fact = self.N, math.factorial(self.N)
        assert eulerian("A", n).at_ones() == fact
        assert eulerian("B", n).at_ones() == 2 ** n * fact
        assert step_recurrence("dexc", n).at_ones() == 2 ** (n - 1) * fact
        assert step_recurrence("bdexc", n).at_ones() == 2 ** (n - 1) * fact

    def test_plus_and_minus_make_all(self):
        n = self.N
        for family, whole, signed in (
                ("aexc", eulerian("A", n), sgn_aexc_closed(n)),
                ("bexc", eulerian("B", n), sgn_bexc_closed(n))):
            plus = half_sum_closed(family, n, "plus")
            minus = half_sum_closed(family, n, "minus")
            assert plus + minus == whole
            assert plus - minus == signed
            assert step_recurrence(family, n, "plus") == plus
            assert step_recurrence(family, n, "minus") == minus
        plus = step_recurrence("dexc", n, "plus")
        minus = step_recurrence("dexc", n, "minus")
        assert plus + minus == step_recurrence("dexc", n)
        assert plus - minus == sgn_dexc_closed(n)
        assert step_recurrence("dexc", n) + step_recurrence("bdexc", n) \
            == eulerian("B", n)

    def test_type_d_families_equal_the_step_recurrence(self):
        _assert_type_d_families_equal_the_step_recurrence(self.N)

    def test_signed_forms_are_binomial_expansions(self):
        n = self.N
        assert sgn_aexc_closed(n).terms == self._binomial(n - 1)
        assert sgn_bexc_closed(n).terms == self._binomial(n)
        assert sgn_dexc_closed(n).terms == self._binomial(n)
        odd = {(i + 1, k): c for (i, k), c in self._binomial(n).items()}
        assert sgn_dexc_closed(n + 1).terms == odd
        assert sgnb_des_u_closed(n).terms == self._binomial(n, (n,))
