"""Registry of machine-checkable claims, one named check per theorem.

Each check pits an independently computed value (closed form, recurrence,
fixed table, bijection image) against the enumeration oracle or against the
gamma machinery, with exact equality everywhere.  A check over a group
streams it in chunks of at most ``_CHUNK`` windows and keeps no set of them:
a bijection is proven by its inverse plus the test that each image lies in
the codomain.  A check returns the range it covered, or raises ``Mismatch``
whose message is the witness showing both sides; ``_same`` and
``_gamma_positive`` are the assertions that raise it, and ``_as_mismatch``
turns a polynomial that breaks a claim's premise (not palindromic, not
homogeneous, a negative gamma, an odd coefficient) into one.  ``run_suite``
is the one place that turns an outcome into a CheckResult: a return passes, a
``Mismatch`` fails, a range beyond the enumeration budget comes back skipped
with the reason, and anything else a check raises comes back as an error
whose witness is the exception, so one broken check never hides the rest.

A check is added in one of two ways.  A claim of a shape the module already
has is a row, ``_row(id, claim, shape, *args)``, which runs
``shape(limits, *args)``; the shapes sit under "shapes shared by types" and
the rows among the checks of their suite.  A check with logic of its own is
a function of the limits decorated with ``_register(id, claim)``.  The id's
prefix names the suite.  A check over ranks declares them once, with
``ranks=(lo, top)`` on either form, ``top`` an int or a function of the
limits: its body then takes ``(limits, n)``, the registry runs it at
n = lo..top in order, and the range it reports is the one that ran.  Rows
look up library engines and build tabulated polynomials only when they run.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations

from . import bijections, closedforms, oracle
from .groups import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    GroupSpec,
    _cycle_lengths,
    _signed_windows,
    asc,
    des,
    exc,
    inv,
    inv_b,
    inv_b_negsum,
    iterate,
    nexc,
    partitions,
)
from .oracle import FamilySpec, WeightSpec, dist_poly, family_poly
from .poly import (
    BIVARIATE,
    D,
    NotGammaPositive,
    NotHomogeneous,
    NotPalindromic,
    OddCoefficient,
    Poly,
    Q_COEFFICIENTS,
    Record,
    UNIVARIATE,
    gamma_decompose,
    half,
    palindrome_info,
    split_odd_length,
    t_coefficients,
)

SUITES = ("gamma_calculus", "typeA", "typeB", "typeD", "derangements",
          "bijections", "signed_sums", "q_refined")

_CHUNK = 120  # windows the fundamental transform's check maps at a time
_S = Poly.variable("s")
_T = Poly.variable("t")


class VerifyLimits(Record):
    __slots__ = ("max_n_a", "max_n_b", "max_n_d", "budget")
    _defaults = dict(max_n_a=8, max_n_b=6, max_n_d=6, budget=DEFAULT_BUDGET)


class CheckResult(Record):
    # status: pass | fail | skipped | error
    __slots__ = ("check_id", "suite", "n_range", "status", "witness", "seconds")


@dataclass(frozen=True)
class Check:
    check_id: str
    suite: str
    claim: str
    func: object


class Mismatch(Exception):
    """A check's claim does not hold; the message is the witness."""


REGISTRY: list[Check] = []


def _register(check_id, claim, ranks=None):
    """Register a function of the limits, or with ``ranks=(lo, top)`` a body
    of ``(limits, n)`` run over those ranks; the id's prefix names its suite."""
    def wrap(body):
        func = body if ranks is None else _over_ranks(body, *ranks)
        REGISTRY.append(Check(check_id, check_id.split(".")[0], claim, func))
        return body

    return wrap


def _over_ranks(body, lo, top):
    """The check running ``body(limits, n)`` at n = lo..top(limits), in order,
    that reports the range it ran."""
    def check(limits):
        hi = top(limits) if callable(top) else top
        for n in range(lo, hi + 1):
            body(limits, n)
        return _ranged(lo, hi)

    return check


def _row(check_id, claim, shape, *args, ranks=None):
    """Register the check ``shape(limits, *args)``, or with ``ranks`` the
    body ``shape(limits, n, *args)``."""
    _register(check_id, claim, ranks)(lambda *head: shape(*head, *args))


def _same(label, left, right):
    """Raise Mismatch with the witness ``label: left != right`` unless equal.

    The label is formatted only on failure, so a per-window check passes
    the window itself and compares its image's properties as one tuple.
    """
    if left != right:
        raise Mismatch(f"{label}: {left} != {right}")


@contextmanager
def _as_mismatch(label):
    """A polynomial inside the block that breaks the claim's premise fails
    the claim: Mismatch with the witness ``label: <what broke>``."""
    try:
        yield
    except (NotPalindromic, NotHomogeneous, NotGammaPositive,
            OddCoefficient) as exc_:
        raise Mismatch(f"{label}: {exc_}") from None


def _gamma_positive(label, f, mode, center=None):
    """The gamma expansion of f, asserted non-negative (and centered); an f
    that is not palindromic or not homogeneous fails the claim too."""
    with _as_mismatch(label):
        expansion = gamma_decompose(f, mode)
    if not expansion.all_gammas_nonnegative():
        raise Mismatch(f"{label}: {expansion} != (>= 0)")
    if center is not None:
        _same(f"{label} center", expansion.center_of_symmetry, center)
    return expansion


def _ranged(lo, hi):
    return f"n={lo}..{hi}" if hi >= lo else "n=(empty)"


def _ranks_label(ranks):
    """``n=`` and the ranks, cut to ``first,second,..,last`` past four."""
    ranks = [*ranks[:2], "..", ranks[-1]] if len(ranks) > 4 else ranks
    return "n=" + ",".join(map(str, ranks))


# ---------------------------------------------------------------- gamma calculus


def _gamma_samples():
    """Gamma positive bivariate polynomials with known centers."""
    return [
        (closedforms.half_sum_closed("aexc", 5, "plus"), Fraction(2)),
        (closedforms.half_sum_closed("aexc", 5, "minus"), Fraction(2)),
        (closedforms.half_sum_closed("bexc", 4, "plus"), Fraction(2)),
        (closedforms.step_recurrence("dexc", 4, "minus"), Fraction(2)),
        ((_S + _T) ** 3, Fraction(3, 2)),
        (closedforms.eulerian("B", 3), Fraction(3, 2)),
    ]


@_register("gamma_calculus.product_center_addition",
           "products of gamma positive polynomials are gamma positive and "
           "centers of symmetry add")
def _check_products(limits):
    samples = _gamma_samples()
    for f, cf in samples:
        for g, cg in samples:
            _gamma_positive("product", f * g, BIVARIATE, cf + cg)
    return f"{len(samples)}^2 products"


@_register("gamma_calculus.derivative_center_shift",
           "the s+t derivative of a gamma positive polynomial is gamma "
           "positive with center lowered by one half")
def _check_derivative(limits):
    for f, cf in _gamma_samples():
        _gamma_positive("derivative", D(f), BIVARIATE, cf - Fraction(1, 2))
    return "6 samples"


@_register("gamma_calculus.monomial_multipliers_shift_center",
           "multiplying by st raises the center by one; by s+t, by one half")
def _check_multipliers(limits):
    for f, cf in _gamma_samples():
        for factor, shift in ((_S * _T, Fraction(1)), (_S + _T, Fraction(1, 2))):
            _gamma_positive("multiplied", factor * f, BIVARIATE, cf + shift)
    return "6 samples x 2 multipliers"


@_register("gamma_calculus.odd_length_split",
           "odd-length gamma positive polynomials split into two even-length "
           "gamma positive halves with centers one apart")
def _check_split(limits):
    samples = [(1 + _T) ** 3,
               (_S * _T * D(closedforms.eulerian("A", 5))).substitute_one("s"),
               (_S * _T * D(closedforms.eulerian("B", 4))).substitute_one("s")]
    for i, f in enumerate(samples):
        with _as_mismatch(f"sample {i}"):
            low, high = split_odd_length(gamma_decompose(f, UNIVARIATE))
        _same("split sum", low.recompose() + high.recompose(), f)
        _same("split center gap",
              high.center_of_symmetry - low.center_of_symmetry, 1)
        _same("length parities", (low.length % 2, high.length % 2), (0, 0))
    return "3 samples"


@_register("gamma_calculus.decompose_recompose_roundtrip",
           "gamma decomposition and recomposition are mutually inverse")
def _check_roundtrip(limits):
    for i, (f, _) in enumerate(_gamma_samples()):
        with _as_mismatch(f"sample {i}"):
            _same("bivariate roundtrip",
                  gamma_decompose(f, BIVARIATE).recompose(), f)
            univ = f.substitute_one("s")
            _same("univariate roundtrip",
                  gamma_decompose(univ, UNIVARIATE).recompose(), univ)
    return "6 samples x 2 modes"


# ---------------------------------------------------------- shapes shared by types
# A shape takes the limits first, then the arguments its rows give.


def _halves(family, n, limits, **refinement):
    """The family's plus and minus halves, from one oracle pass."""
    spec, weight = oracle.family_domain(FamilySpec(family, n, **refinement))
    return oracle.length_halves(spec, weight, budget=limits.budget)


def _closed(family, n, cls="all"):
    """The family's closed engine, looked up when the check runs."""
    return oracle.closed_family(FamilySpec(family, n, cls))


def _closed_equals_oracle(limits, n, family):
    """Both half-sum closed forms equal the enumerated halves."""
    for cls, enumerated in zip(("plus", "minus"), _halves(family, n, limits)):
        _same(f"n={n} {cls}", closedforms.half_sum_closed(family, n, cls),
              enumerated)


def _step_equals_half_sum(limits, n, family):
    for cls in ("plus", "minus"):
        _same(f"n={n} {cls}", closedforms.step_recurrence(family, n, cls),
              closedforms.half_sum_closed(family, n, cls))


def _base_polynomials(limits, family, table):
    """Tabulated (polynomial, gamma vector) per (rank, class), from
    ``table(s, t)``."""
    expected = table(_S, _T)
    for (n, cls), (poly, gammas) in expected.items():
        got = _closed(family, n, cls)
        _same(f"n={n} {cls}", got, poly)
        _same(f"n={n} {cls} gammas", gamma_decompose(got, BIVARIATE).gammas,
              gammas)
    return _ranks_label(sorted({n for n, _ in expected}))


def _jump_table_values(limits, table):
    """Tabulated (polynomial, center) per jump-table name, from
    ``table(st, s + t)``."""
    expected = table(_S * _T, _S + _T)
    tab = closedforms.jump_tables()
    for name, (poly, cos) in expected.items():
        _same(name, tab[name], (poly, cos))
        _gamma_positive(f"{name} gamma", tab[name][0], BIVARIATE, cos)
    first, *_, last = expected
    return f"{first}..{last}"


def _jump_equals_four_steps(limits, family, n_values):
    for n in n_values:
        for cls in ("plus", "minus"):
            _same(f"n={n}->{n + 4} {cls}", closedforms.jump4(family, n, cls),
                  closedforms.step_recurrence(family, n + 4, cls))
    return "n+4=" + ",".join(str(n + 4) for n in n_values)


def _totals_and_additivity(limits, n, family, order):
    """The halves add to the whole, order(n) at s = t = 1, and differ by sgn."""
    full = family_poly(FamilySpec(family, n), budget=limits.budget)
    plus = family_poly(FamilySpec(family, n, "plus"), budget=limits.budget)
    minus = family_poly(FamilySpec(family, n, "minus"), budget=limits.budget)
    _same(f"n={n} additivity", plus + minus, full)
    _same(f"n={n} signed sum", plus - minus, _closed("sgn_" + family, n))
    _same(f"n={n} total", full.at_ones(), order(n))


def _closed_equals_family(limits, n, family):
    """The closed engine equals the enumeration at rank n."""
    _same(f"n={n}", family_poly(FamilySpec(family, n), budget=limits.budget),
          _closed(family, n))


def _rank_gamma_positive(limits, family, ranks, shift):
    """Both halves at each rank are gamma positive with center (n - shift)/2."""
    for n in ranks:
        for cls in ("plus", "minus"):
            _gamma_positive(f"n={n} {cls}", _closed(family, n, cls), BIVARIATE,
                            Fraction(n - shift, 2))
    return _ranks_label(ranks)


def _even_split(family, n, cls):
    """Two gamma positive polynomials with centers one apart summing to the
    univariate plus/minus polynomial at an even-center-breaking rank."""
    other = "minus" if cls == "plus" else "plus"
    if family == "dexc":
        prev_same = closedforms.step_recurrence("dexc", n - 1, cls)
        prev_other = closedforms.step_recurrence("bdexc", n - 1)
        bridge = half(_S * _T * D(closedforms.eulerian("B", n - 1)))
    else:
        prev_same = closedforms.half_sum_closed(family, n - 1, cls)
        prev_other = closedforms.half_sum_closed(family, n - 1, other)
        bridge = _S * _T * D(prev_same if family == "aexc"
                             else closedforms.eulerian("B", n - 1))
    p_low, p_high = split_odd_length(
        gamma_decompose(bridge.substitute_one("s"), UNIVARIATE))
    w2 = _T * prev_other.substitute_one("s")
    return (prev_same.substitute_one("s") + p_low.recompose(),
            (half(w2) if family == "dexc" else w2) + p_high.recompose())


def _two_term_split(limits, family, n_values):
    """Each univariate half of the family's closed engine splits by
    ``_even_split``."""
    for n in n_values:
        for cls in ("plus", "minus"):
            with _as_mismatch(f"n={n} {cls} split"):
                w1, w2 = _even_split(family, n, cls)
            _same(f"n={n} {cls} sum", w1 + w2,
                  _closed(family, n, cls).substitute_one("s"))
            g1 = _gamma_positive(f"n={n} {cls} first term", w1, UNIVARIATE)
            g2 = _gamma_positive(f"n={n} {cls} second term", w2, UNIVARIATE)
            _same(f"n={n} {cls} center gap",
                  g2.center_of_symmetry - g1.center_of_symmetry, 1)
    return _ranks_label(n_values)


def _q_gamma_positive(limits, n, stat):
    plus, minus = _halves("qrefined", n, limits, stat=stat)
    for cls, f in (("plus", plus), ("minus", minus), ("all", plus + minus)):
        if not f.is_zero:
            _gamma_positive(f"n={n} {cls}", f, Q_COEFFICIENTS)


# ------------------------------------------------------------------------ type A


_row("typeA.eulerian_recurrence_certified",
     "the bivariate descent polynomial recurrence reproduces the "
     "enumeration over the symmetric group",
     _closed_equals_family, "a_des", ranks=(1, lambda lim: min(lim.max_n_a, 6)))

_row("typeA.closed_equals_oracle",
     "the half-sum closed forms match the enumerated even/odd "
     "excedance polynomials",
     _closed_equals_oracle, "aexc", ranks=(2, lambda lim: lim.max_n_a))

_row("typeA.step_equals_half_sum",
     "the one-step plus/minus recurrence agrees with the half-sum "
     "closed form",
     _step_equals_half_sum, "aexc", ranks=(2, lambda lim: max(lim.max_n_a, 12)))


@_register("typeA.palindromic_iff_odd_rank",
           "the even/odd excedance polynomials are palindromic exactly at "
           "odd ranks", ranks=(2, 9))
def _check_palindromic_iff(limits, n):
    for cls in ("plus", "minus"):
        f = closedforms.half_sum_closed("aexc", n, cls)
        _same(f"n={n} {cls} palindromic",
              palindrome_info(f, BIVARIATE).is_palindromic, n % 2 == 1)


@_register("typeA.derivative_halving",
           "both excedance halves have the same s+t derivative, half that of "
           "the full polynomial", ranks=(2, lambda lim: max(lim.max_n_a, 8)))
def _check_derivative_halving(limits, n):
    dp = D(closedforms.half_sum_closed("aexc", n, "plus"))
    dm = D(closedforms.half_sum_closed("aexc", n, "minus"))
    with _as_mismatch(f"n={n} half the whole"):
        da = half(D(closedforms.eulerian("A", n)))
    _same(f"n={n} plus vs minus", dp, dm)
    _same(f"n={n} minus vs half the whole", dm, da)

_row("typeA.base_polynomials",
     "the rank 5 and 7 even/odd excedance polynomials and their gamma "
     "vectors take their tabulated values",
     _base_polynomials, "aexc", lambda s, t: {
         (5, "plus"): (s ** 4 + 11 * s ** 3 * t + 36 * s ** 2 * t ** 2
                       + 11 * s * t ** 3 + t ** 4, (1, 7, 16)),
         (5, "minus"): (15 * s ** 3 * t + 30 * s ** 2 * t ** 2
                        + 15 * s * t ** 3, (15, 0)),
         (7, "plus"): (s ** 6 + 57 * s ** 5 * t + 603 * s ** 4 * t ** 2
                       + 1198 * s ** 3 * t ** 3 + 603 * s ** 2 * t ** 4
                       + 57 * s * t ** 5 + t ** 6, (1, 51, 384, 104)),
         (7, "minus"): (63 * s ** 5 * t + 588 * s ** 4 * t ** 2
                        + 1218 * s ** 3 * t ** 3 + 588 * s ** 2 * t ** 4
                        + 63 * s * t ** 5, (63, 336, 168)),
     })

_row("typeA.odd_rank_gamma_positive",
     "at odd ranks from 5 on, both excedance halves are gamma positive "
     "with center (n-1)/2",
     _rank_gamma_positive, "aexc", range(5, 12, 2), 1)


@_register("typeA.even_rank_two_term_split",
           "at even ranks the univariate excedance halves split into two "
           "gamma positive polynomials with centers one apart")
def _check_aexc_split(limits):
    covered = _two_term_split(limits, "aexc", range(4, 11, 2))
    _same("rank-4 split", _even_split("aexc", 4, "plus"),
          (1 + 4 * _T + _T ** 2, 6 * _T ** 2))
    return covered


@_register("typeA.coefficient_triangle",
           "the coupled coefficient recurrences rebuild the rows extracted "
           "from the closed forms, and the halves sum to the Eulerian numbers",
           ranks=(2, 12))
def _check_coeff_tables(limits, n):
    tables = closedforms.coeff_tables(n)
    for cls in ("plus", "minus"):
        f = closedforms.half_sum_closed("aexc", n, cls)
        _same(f"row {n} {cls}", tables.row(n, cls),
              tuple(t_coefficients(f, BIVARIATE)))
    full = t_coefficients(closedforms.eulerian_t("A", n))
    for k in range(n):
        _same(f"Eulerian({n},{k})",
              tables.value(n, k, "plus") + tables.value(n, k, "minus"), full[k])

_row("typeA.jump_table_values",
     "the six fixed rank-jump polynomials match their tabulated "
     "expansions and centers",
     _jump_table_values, lambda st, spt: {
         "L1": (spt ** 4 + 7 * st * spt ** 2 + 16 * st ** 2, Fraction(2)),
         "L2": (15 * st * spt ** 2, Fraction(2)),
         "L3": (15 * st * spt ** 3 + 60 * st ** 2 * spt, Fraction(5, 2)),
         "L4": (25 * st ** 2 * spt ** 2 + 20 * st ** 3, Fraction(3)),
         "L5": (10 * st ** 3 * spt, Fraction(7, 2)),
         "L6": (st ** 4, Fraction(4)),
     })

_row("typeA.jump_equals_four_steps",
     "the four-step jump built from the fixed tables equals four "
     "applications of the one-step recurrence",
     _jump_equals_four_steps, "aexc", (5, 7, 9))

_row("typeA.totals_and_class_additivity",
     "family totals count the domain and the even/odd halves sum to "
     "the whole",
     _totals_and_additivity, "aexc", math.factorial,
     ranks=(2, lambda lim: min(lim.max_n_a, 7)))


# ------------------------------------------------------------------------ type B


_row("typeB.eulerian_recurrence_certified",
     "the type-B descent polynomial recurrence reproduces the "
     "enumeration over the signed group",
     _closed_equals_family, "b_des", ranks=(1, lambda lim: lim.max_n_b))

_row("typeB.closed_equals_oracle",
     "the type-B half-sum closed forms match the enumerated even/odd "
     "excedance polynomials",
     _closed_equals_oracle, "bexc", ranks=(1, lambda lim: lim.max_n_b))

_row("typeB.step_equals_half_sum",
     "the type-B one-step recurrence agrees with the half-sum closed form",
     _step_equals_half_sum, "bexc", ranks=(1, lambda lim: max(lim.max_n_b, 12)))


@_register("typeB.descent_excedance_equidistributed",
           "type-B descents and excedances are equidistributed over the even "
           "elements and over the odd elements separately",
           ranks=(1, lambda lim: lim.max_n_b))
def _check_b_equidistribution(limits, n):
    pairs = zip(_halves("b_des", n, limits), _halves("bexc", n, limits))
    for cls, (descents, excedances) in zip(("plus", "minus"), pairs):
        _same(f"n={n} {cls}", descents, excedances)


@_register("typeB.weak_excedance_equidistribution",
           "ascents and weak excedances are jointly equidistributed with the "
           "negative-letter set statistic", ranks=(1, lambda lim: lim.max_n_b))
def _check_b_weak(limits, n):
    _same(f"n={n}",
          dist_poly(GroupSpec("B", n),
                    WeightSpec((("t", "asc_b", 0), ("u", "negs", 0))),
                    budget=limits.budget),
          dist_poly(GroupSpec("B", n),
                    WeightSpec((("t", "wkexc_b", 0), ("u", "negs", 0))),
                    budget=limits.budget))

_row("typeB.even_rank_gamma_positive",
     "at even ranks both type-B excedance halves are gamma positive "
     "with center n/2",
     _rank_gamma_positive, "bexc", range(2, 11, 2), 0)

_row("typeB.odd_rank_two_term_split",
     "at odd ranks the univariate type-B halves split into two gamma "
     "positive polynomials with centers one apart",
     _two_term_split, "bexc", range(3, 10, 2))


@_register("typeB.inversion_variants_agree_mod_2",
           "the pairwise inversion count and the negative-letter-sum variant "
           "have the same parity on every signed permutation",
           ranks=(1, lambda lim: min(lim.max_n_b, 5)))
def _check_inv_variants(limits, n):
    for p in iterate(GroupSpec("B", n), budget=limits.budget):
        _same(p, inv_b(p) % 2, inv_b_negsum(p) % 2)

_row("typeB.totals_and_class_additivity",
     "type-B family totals count the domain and the halves sum to the "
     "whole",
     _totals_and_additivity, "bexc", lambda n: 2 ** n * math.factorial(n),
     ranks=(1, lambda lim: lim.max_n_b))


# ------------------------------------------------------------------------ type D


@_register("typeD.bridge_to_typeB",
           "the type-D excedance polynomial equals the even type-B half, and "
           "the complement equals the odd half", ranks=(1, lambda lim: lim.max_n_d))
def _check_d_bridge(limits, n):
    _same(f"n={n} dexc", family_poly(FamilySpec("dexc", n), budget=limits.budget),
          closedforms.half_sum_closed("bexc", n, "plus"))
    _same(f"n={n} bdexc", family_poly(FamilySpec("bdexc", n), budget=limits.budget),
          closedforms.half_sum_closed("bexc", n, "minus"))


@_register("typeD.step_equals_oracle",
           "the coupled type-D recurrences match the enumeration, including "
           "the signed plus/minus halves", ranks=(2, lambda lim: lim.max_n_d))
def _check_d_step(limits, n):
    plus, minus = _halves("dexc", n, limits)
    _same(f"n={n} dexc", closedforms.step_recurrence("dexc", n), plus + minus)
    _same(f"n={n} bdexc", closedforms.step_recurrence("bdexc", n),
          family_poly(FamilySpec("bdexc", n), budget=limits.budget))
    for cls, enumerated in (("plus", plus), ("minus", minus)):
        _same(f"n={n} dexc {cls}",
              closedforms.step_recurrence("dexc", n, cls), enumerated)


@_register("typeD.descent_restriction_equidistributed",
           "type-B descents restricted to the type-D subgroup are "
           "equidistributed with type-D excedances",
           ranks=(2, lambda lim: lim.max_n_d))
def _check_d_descent(limits, n):
    _same(f"n={n}",
          dist_poly(GroupSpec("D", n), oracle.BDES_WEIGHT, budget=limits.budget),
          family_poly(FamilySpec("dexc", n), budget=limits.budget))

_row("typeD.base_polynomials",
     "the rank 4 and 6 type-D excedance halves and their gamma vectors "
     "take their tabulated values",
     _base_polynomials, "dexc", lambda s, t: {
         (4, "plus"): (s ** 4 + 16 * s ** 3 * t + 62 * s ** 2 * t ** 2
                       + 16 * s * t ** 3 + t ** 4, (1, 12, 32)),
         (4, "minus"): (20 * s ** 3 * t + 56 * s ** 2 * t ** 2
                        + 20 * s * t ** 3, (20, 16)),
         (6, "plus"): (s ** 6 + 176 * s ** 5 * t + 2647 * s ** 4 * t ** 2
                       + 5872 * s ** 3 * t ** 3 + 2647 * s ** 2 * t ** 4
                       + 176 * s * t ** 5 + t ** 6, (1, 170, 1952, 928)),
         (6, "minus"): (182 * s ** 5 * t + 2632 * s ** 4 * t ** 2
                        + 5892 * s ** 3 * t ** 3 + 2632 * s ** 2 * t ** 4
                        + 182 * s * t ** 5, (182, 1904, 992)),
     })

_row("typeD.even_rank_gamma_positive",
     "at even ranks from 4 on, both type-D halves are gamma positive "
     "with center n/2",
     _rank_gamma_positive, "dexc", range(4, 11, 2), 0)

_row("typeD.odd_rank_two_term_split",
     "at odd ranks from 5 on, the univariate type-D halves split into "
     "two gamma positive polynomials with centers one apart",
     _two_term_split, "dexc", range(5, 10, 2))

_row("typeD.jump_table_values",
     "the seven fixed type-D jump polynomials match their tabulated "
     "expansions and centers",
     _jump_table_values, lambda st, spt: {
         "R1": (spt ** 4 + 8 * st * spt ** 2 + 16 * st ** 2, Fraction(2)),
         "R2": (16 * st * spt ** 2, Fraction(2)),
         "R3": (4 * st * spt ** 3 + 32 * st ** 2 * spt, Fraction(5, 2)),
         "R4": (2 * st ** 2 * spt ** 2 + 8 * st ** 3, Fraction(3)),
         "R5": (12 * st * spt ** 2, Fraction(2)),
         "R6": (8 * st ** 2 * spt, Fraction(5, 2)),
         "R7": (2 * st ** 2, Fraction(2)),
     })


@_register("typeD.jump_equals_four_steps",
           "the type-D four-step jump equals four one-step applications, and "
           "its shared tail has even gamma coefficients")
def _check_d_jump(limits):
    for n in (2, 4, 6):
        tail = _gamma_positive(f"tail n={n}", closedforms.dexc_jump_tail(n),
                               BIVARIATE, Fraction(n + 4, 2))
        _same(f"tail n={n} odd gammas", [g for g in tail.gammas if g % 2], [])
    return _jump_equals_four_steps(limits, "dexc", (4, 6, 8))


_row("typeD.totals_and_class_additivity",
     "type-D family totals count the domain and the halves sum to the "
     "whole",
     _totals_and_additivity, "dexc", lambda n: 2 ** (n - 1) * math.factorial(n),
     ranks=(2, lambda lim: lim.max_n_d))


# -------------------------------------------------------------------- signed sums


_row("signed_sums.type_a_power",
     "the sign-weighted type-A excedance sum collapses to (s-t)^(n-1)",
     _closed_equals_family, "sgn_aexc", ranks=(2, lambda lim: lim.max_n_a))

_row("signed_sums.type_b_power",
     "the sign-weighted type-B excedance sum collapses to (s-t)^n",
     _closed_equals_family, "sgn_bexc", ranks=(1, lambda lim: lim.max_n_b))


@_register("signed_sums.type_b_descent_position",
           "the trivariate signed descent sum is (s-t)^n u^n, the partial sum "
           "away from the last position vanishes, and the letter values are "
           "immaterial")
def _check_sgn_b_u(limits):
    u = Poly.variable("u")
    for n in range(1, limits.max_n_b + 1):
        full = oracle.sgnb_des_u(n, budget=limits.budget)
        _same(f"n={n}", full, closedforms.sgnb_des_u_closed(n))
        _same(f"n={n} partial", full - full.coefficient("u", n) * u ** n, 0)
    # sums the statistics over the windows of (2, 5, 9) themselves: the
    # kernel behind sgnb_des_u only ever sees B_n
    _same("letters (2,5,9)",
          oracle._weighted_sum(_signed_windows((2, 5, 9)), oracle.SGNB_WEIGHT,
                               "B"),
          closedforms.sgnb_des_u_closed(3))
    return _ranged(1, limits.max_n_b)

_row("signed_sums.type_d_power",
     "the sign-weighted type-D excedance sum is (s-t)^n at even ranks "
     "and s(s-t)^(n-1) at odd ranks",
     _closed_equals_family, "sgn_dexc", ranks=(1, lambda lim: lim.max_n_d + 1))


@_register("signed_sums.type_d_fourth_power_jump",
           "the signed type-D sum gains a factor (s-t)^4 every four ranks",
           ranks=(1, 8))
def _check_sgn_d_jump(limits, n):
    _same(f"n={n}", closedforms.sgn_dexc_closed(n + 4),
          (_S - _T) ** 4 * closedforms.sgn_dexc_closed(n))


# -------------------------------------------------------------------- derangements


@_register("derangements.long_cycle_distribution",
           "excedances over the n-cycles distribute as t times the rank n-1 "
           "Eulerian polynomial", ranks=(2, lambda lim: lim.max_n_a))
def _check_long_cycles(limits, n):
    _same(f"n={n}",
          dist_poly(GroupSpec("S", n, cycle_type=(n,)), oracle.T_EXC_WEIGHT,
                    budget=limits.budget),
          _T * closedforms.eulerian_t("A", n - 1))


@_register("derangements.conjugacy_product_formula",
           "every conjugacy class's excedance polynomial equals the "
           "set-partition count times the product of long-cycle factors",
           ranks=(1, lambda lim: lim.max_n_a))
def _check_conjugacy(limits, n):
    excs = oracle._column(GroupSpec("S", n), exc, limits.budget)  # in a run, by position
    windows = iterate(GroupSpec("S", n), limits.budget, by_permutation=True)
    tally = Counter(zip(map(_cycle_lengths, windows), excs))
    for lam in partitions(n):
        dist = {(e,): c for (parts, e), c in tally.items() if parts == lam.parts}
        _same(f"n={n} type {lam}", Poly(("t",), dist),
              closedforms.conj_exc_closed(lam))
        _same(f"|C_{lam}|", sum(dist.values()), lam.class_size())


_EXC_FIXED_WEIGHT = WeightSpec((("t", "exc", 0), ("q", "fixed_points", 0)))


@_register("derangements.fixed_point_refinement",
           "the closed derangement sums match the enumeration for every "
           "fixed-point count and sign class", ranks=(1, lambda lim: lim.max_n_a))
def _check_fixed_refinement(limits, n):
    plus, minus = oracle.length_halves(GroupSpec("S", n), _EXC_FIXED_WEIGHT,
                                       budget=limits.budget)
    classes = {"plus": plus, "minus": minus, "all": plus + minus}
    by_class = Counter()  # (fixed points, class) -> sum of class product formulas
    for lam in partitions(n):
        for cls in ("all", "plus" if lam.sign == 1 else "minus"):
            by_class[lam.fixed_points, cls] += closedforms.conj_exc_closed(lam)
    for i in range(n + 1):
        for cls, poly in classes.items():
            engine = closedforms.derangement_closed(n, cls, fixed=i)
            _same(f"n={n} i={i} {cls}", poly.coefficient("q", i), engine)
            _same(f"n={n} i={i} {cls} by classes", by_class.get((i, cls), 0), engine)


@_register("derangements.gamma_positive_with_centers",
           "derangement excedance polynomials are gamma positive with center "
           "(n - fixed)/2 in every sign class",
           ranks=(2, lambda lim: max(lim.max_n_a, 9)))
def _check_derangement_gamma(limits, n):
    for i in range(0, n + 1):
        for cls in ("all", "plus", "minus"):
            f = closedforms.derangement_closed(n, cls, fixed=i)
            if not f.is_zero:
                _gamma_positive(f"n={n} i={i} {cls}", f, UNIVARIATE,
                                Fraction(n - i, 2))


@_register("derangements.set_partition_counts",
           "the set-partition counting factor is integral and the class "
           "sizes sum to the group order")
def _check_partition_counts(limits):
    for lam, want in {(2, 2): 3, (3, 2): 10, (4,): 1, (1, 1, 1, 1): 1}.items():
        _same(lam, closedforms.set_partition_count(lam), want)
    for n in range(0, 10):
        _same(f"n={n} class sizes", sum(lam.class_size() for lam in partitions(n)),
              math.factorial(n))
    return "n=0..9"


# ---------------------------------------------------------------------- bijections


@_register("bijections.fundamental_transform",
           "the fundamental transformation is a bijection carrying the "
           "excedance count to the descent count", ranks=(1, lambda lim: lim.max_n_a))
def _check_fft(limits, n):
    # a left inverse makes it injective: n! images in S_n, so onto S_n; a chunk
    # the maps fail (the inverse class-exactly) or that raises is read per window
    letters, windows = list(range(1, n + 1)), iterate(GroupSpec("S", n), limits.budget)
    excs = iter(oracle._column(GroupSpec("S", n), exc, limits.budget))
    while chunk := [*islice(windows, _CHUNK)]:
        want = [*islice(excs, len(chunk))]  # the chunk's slice of the exc column
        with suppress(Exception):
            images = [*map(bijections.foata_fft, chunk)]
            if [*map(sorted, images)] == [letters] * len(chunk) and (
                    [*oracle.stream(des, images, n)] == want):
                back = [*map(bijections.foata_fft_inverse, images)]
                if [*map(type, back)] == [*map(type, chunk)] and all(
                        map(tuple.__eq__, back, chunk)):
                    continue
        for p in chunk:
            image = bijections.foata_fft(p)
            # the letters first: only an image in S_n reaches the inverse
            _same(p, sorted(image), letters)
            # (des of the image, inverse of the image)
            _same(p, (des(image), bijections.foata_fft_inverse(image)), (exc(p), p))


@_register("bijections.penultimate_to_front",
           "the penultimate-to-front map is a bijection carrying "
           "(exc, nexc-1) to (des, asc)", ranks=(2, lambda lim: min(lim.max_n_a, 7)))
def _check_penultimate(limits, n):
    # the image's tail gives back p less its n, so the map is injective:
    # (n-1)! images among the (n-1)! windows with n first, so onto them
    letters = list(range(1, n + 1))
    for p in iterate(GroupSpec("S", n, pos_n=n - 1), budget=limits.budget):
        image = bijections.penultimate_to_front(p)
        _same(p, (image[0], sorted(image)), (n, letters))
        # (exc, nexc - 1, p less its n), read off the image
        _same(p, (des(image), asc(image),
                  bijections.foata_fft_inverse(image[1:]).window),
              (exc(p), nexc(p) - 1, (*p[:-2], p[-1])))


@_register("bijections.swap_last_two_involution",
           "swapping the last two letters is a sign-reversing, "
           "excedance-preserving involution away from the top letter",
           ranks=(2, lambda lim: min(lim.max_n_a, 7)))
def _check_swap(limits, n):
    for r in range(1, n - 1):
        for p in iterate(GroupSpec("S", n, pos_n=r), budget=limits.budget):
            image = bijections.swap_last_two(p)
            # (excedances, change of inversion parity, image of the image)
            _same(p, (exc(image), (inv(image) - inv(p)) % 2,
                      bijections.swap_last_two(image)),
                  (exc(p), 1, p))


@_register("bijections.halving_consequence",
           "away from the last two positions, the even elements carry exactly "
           "half of each restricted excedance distribution",
           ranks=(3, lambda lim: min(lim.max_n_a, 7)))
def _check_halving(limits, n):
    for r in range(1, n - 1):
        even, odd = oracle.length_halves(
            GroupSpec("S", n, pos_n=r), oracle.AEXC_WEIGHT, budget=limits.budget)
        _same(f"n={n} r={r}", 2 * even, even + odd)


@_register("bijections.long_cycle_correspondence",
           "the long-cycle encoding is a bijection onto the n-cycles with "
           "excedance count one more than the source's descent count",
           ranks=(2, lambda lim: min(lim.max_n_a, 7)))
def _check_long_cycle_map(limits, n):
    # a left inverse makes it injective: (n-1)! n-cycles, so all of them
    letters = list(range(1, n + 1))
    for p in iterate(GroupSpec("S", n - 1), budget=limits.budget):
        image = bijections.perm_to_long_cycle(p)
        _same(p, sorted(image), letters)
        _same(p, _cycle_lengths(image), (n,))
        # (excedances, inverse), both of the image
        _same(p, (exc(image), bijections.long_cycle_to_perm(image)),
              (des(p) + 1, p))


@_register("bijections.cycle_standardization",
           "order-preserving relabelling keeps a cycle's excedance count, "
           "making class polynomials factor through long cycles")
def _check_standardize(limits):
    for pool in ((1, 2, 3, 4, 5), (2, 5, 7, 9)):
        for k in range(1, 5):
            for arrangement in permutations(pool, k):
                std = bijections.standardize_cycle(arrangement)
                _same(arrangement, sorted(std), list(range(1, k + 1)))
                _same(arrangement, bijections.cycle_excedances(arrangement),
                      bijections.cycle_excedances(std))
    # the two-cycle product identity at type (3, 2)
    _same("type (3,2)",
          dist_poly(GroupSpec("S", 5, cycle_type=(3, 2)), oracle.T_EXC_WEIGHT,
                    budget=limits.budget),
          10 * (_T * closedforms.eulerian_t("A", 2))
          * (_T * closedforms.eulerian_t("A", 1)))
    return "cycles over two universes"


# ------------------------------------------------------------------------ q-refined


_row("q_refined.inv_gamma_positive",
     "the inversion-refined derangement sums have gamma vectors with "
     "non-negative polynomial coefficients in both sign classes",
     _q_gamma_positive, "inv", ranks=(2, lambda lim: min(lim.max_n_a, 7)))

_row("q_refined.cyc_gamma_positive",
     "the cycle-count-refined derangement sums have gamma vectors with "
     "non-negative polynomial coefficients in both sign classes",
     _q_gamma_positive, "cyc", ranks=(2, lambda lim: min(lim.max_n_a, 7)))


@_register("q_refined.q1_collapse",
           "setting q = 1 collapses the refined sums to the closed "
           "derangement polynomials", ranks=(2, lambda lim: min(lim.max_n_a, 7)))
def _check_q_collapse(limits, n):
    for stat in ("inv", "cyc"):
        plus, minus = _halves("qrefined", n, limits, stat=stat)
        for cls, f in (("plus", plus), ("minus", minus), ("all", plus + minus)):
            _same(f"n={n} {cls} {stat}", f.substitute_one("q"),
                  closedforms.derangement_closed(n, cls))


# ---------------------------------------------------------------------- the runner


def run_suite(suite, limits=None):
    """Run a suite (or "all"); returns CheckResults in registry order.  The
    checks share one run's ``oracle.kernel_memo`` block: the oracle walks a
    domain once per set of statistics, S_n once per set of signed forms."""
    limits = limits or VerifyLimits()
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    selected = [c for c in REGISTRY if suite == "all" or c.suite == suite]

    def run_one(check):
        start = time.perf_counter()
        try:
            n_range, status, witness = check.func(limits), "pass", None
        except Mismatch as exc_:
            n_range, status, witness = "-", "fail", str(exc_)
        except BudgetExceeded as exc_:
            n_range, status, witness = "-", "skipped", str(exc_)
        except Exception as exc_:  # a raising check is reported, not fatal
            n_range, status = "-", "error"
            witness = f"{type(exc_).__name__}: {exc_}"
        return CheckResult(check.check_id, check.suite, n_range, status,
                           witness, time.perf_counter() - start)

    with oracle.kernel_memo():
        return [run_one(c) for c in selected]
