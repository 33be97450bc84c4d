"""Registry of machine-checkable claims, one named check per theorem.

Each check pits an independently computed value (closed form, recurrence,
fixed table, bijection image) against the enumeration oracle or against the
gamma machinery, with exact equality everywhere.  ``run_suite`` executes a
suite and returns one CheckResult per check; a failing result always carries
a witness showing both sides.  Checks whose range would exceed the
enumeration budget come back as skipped results with the reason, never as
failures.  A check that raises anything else comes back as an error result
whose witness is the exception, so one broken check never hides the rest.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bijections, closedforms, oracle
from .groups import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    GroupSpec,
    asc,
    cycle_type,
    des,
    exc,
    fixed_points,
    inv,
    inv_b,
    inv_b_negsum,
    iterate,
    nexc,
    partitions,
    pos_n,
    sign,
)
from .oracle import FamilySpec, WeightSpec, dist_poly, family_poly
from .poly import (
    BIVARIATE,
    D,
    Poly,
    Q_COEFFICIENTS,
    UNIVARIATE,
    gamma_decompose,
    half,
    palindrome_info,
    split_odd_length,
)

SUITES = ("gamma_calculus", "typeA", "typeB", "typeD", "derangements",
          "bijections", "signed_sums", "q_refined")

_S = Poly.variable("s")
_T = Poly.variable("t")


@dataclass(frozen=True)
class VerifyLimits:
    max_n_a: int = 8
    max_n_b: int = 6
    max_n_d: int = 6
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    suite: str
    n_range: str
    status: str  # pass | fail | skipped | error
    witness: str | None
    seconds: float


@dataclass(frozen=True)
class Check:
    check_id: str
    suite: str
    claim: str
    func: object


REGISTRY: list[Check] = []


def _register(check_id, suite, claim):
    def wrap(func):
        REGISTRY.append(Check(check_id, suite, claim, func))
        return func

    return wrap


def _mismatch(label, left, right):
    return f"{label}: {left} != {right}"


def _ranged(lo, hi):
    return f"n={lo}..{hi}" if hi >= lo else "n=(empty)"


# ---------------------------------------------------------------- gamma calculus


def _gamma_samples():
    """Gamma positive bivariate polynomials with known centers."""
    samples = [
        (closedforms.half_sum_closed("aexc", 5, "plus"), Fraction(2)),
        (closedforms.half_sum_closed("aexc", 5, "minus"), Fraction(2)),
        (closedforms.half_sum_closed("bexc", 4, "plus"), Fraction(2)),
        (closedforms.step_recurrence("dexc", 4, "minus"), Fraction(2)),
        ((_S + _T) ** 3, Fraction(3, 2)),
        (closedforms.eulerian("B", 3), Fraction(3, 2)),
    ]
    return samples


@_register("gamma_calculus.product_center_addition", "gamma_calculus",
           "products of gamma positive polynomials are gamma positive and "
           "centers of symmetry add")
def _check_products(limits):
    samples = _gamma_samples()
    for f, cf in samples:
        for g, cg in samples:
            expansion = gamma_decompose(f * g, BIVARIATE)
            if not expansion.all_gammas_nonnegative():
                return None, _mismatch("negative gamma", expansion, "(>= 0)")
            if expansion.center_of_symmetry != cf + cg:
                return None, _mismatch("center", expansion.center_of_symmetry,
                                       cf + cg)
    return f"{len(samples)}^2 products", None


@_register("gamma_calculus.derivative_center_shift", "gamma_calculus",
           "the s+t derivative of a gamma positive polynomial is gamma "
           "positive with center lowered by one half")
def _check_derivative(limits):
    for f, cf in _gamma_samples():
        expansion = gamma_decompose(D(f), BIVARIATE)
        if not expansion.all_gammas_nonnegative():
            return None, _mismatch("negative gamma", expansion, "(>= 0)")
        if expansion.center_of_symmetry != cf - Fraction(1, 2):
            return None, _mismatch("center", expansion.center_of_symmetry,
                                   cf - Fraction(1, 2))
    return "6 samples", None


@_register("gamma_calculus.monomial_multipliers_shift_center", "gamma_calculus",
           "multiplying by st raises the center by one; by s+t, by one half")
def _check_multipliers(limits):
    for f, cf in _gamma_samples():
        for factor, shift in ((_S * _T, Fraction(1)), (_S + _T, Fraction(1, 2))):
            expansion = gamma_decompose(factor * f, BIVARIATE)
            if not expansion.all_gammas_nonnegative():
                return None, _mismatch("negative gamma", expansion, "(>= 0)")
            if expansion.center_of_symmetry != cf + shift:
                return None, _mismatch("center", expansion.center_of_symmetry,
                                       cf + shift)
    return "6 samples x 2 multipliers", None


@_register("gamma_calculus.odd_length_split", "gamma_calculus",
           "odd-length gamma positive polynomials split into two even-length "
           "gamma positive halves with centers one apart")
def _check_split(limits):
    t = _T
    samples = [(1 + t) ** 3,
               (_S * _T * D(closedforms.eulerian("A", 5))).substitute_one("s"),
               (_S * _T * D(closedforms.eulerian("B", 4))).substitute_one("s")]
    for f in samples:
        src = gamma_decompose(f, UNIVARIATE)
        low, high = split_odd_length(src)
        if low.recompose() + high.recompose() != f:
            return None, _mismatch("split sum", low.recompose() + high.recompose(), f)
        if (high.center_of_symmetry - low.center_of_symmetry) != 1:
            return None, _mismatch("split centers", low.center_of_symmetry,
                                   high.center_of_symmetry)
        if low.length % 2 or high.length % 2:
            return None, _mismatch("lengths", (low.length, high.length), "even")
        if not (low.all_gammas_nonnegative() and high.all_gammas_nonnegative()):
            return None, _mismatch("positivity", (low, high), "(>= 0)")
    return "3 samples", None


@_register("gamma_calculus.decompose_recompose_roundtrip", "gamma_calculus",
           "gamma decomposition and recomposition are mutually inverse")
def _check_roundtrip(limits):
    for f, _ in _gamma_samples():
        if gamma_decompose(f, BIVARIATE).recompose() != f:
            return None, _mismatch("roundtrip", f, "recompose(decompose(f))")
        univ = f.substitute_one("s")
        if gamma_decompose(univ, UNIVARIATE).recompose() != univ:
            return None, _mismatch("roundtrip", univ, "recompose(decompose(f))")
    return "6 samples x 2 modes", None


# ------------------------------------------------------------------------ type A


@_register("typeA.eulerian_recurrence_certified", "typeA",
           "the bivariate descent polynomial recurrence reproduces the "
           "enumeration over the symmetric group")
def _check_eulerian_a(limits):
    hi = min(limits.max_n_a, 6)
    for n in range(1, hi + 1):
        left = closedforms.eulerian("A", n)
        right = family_poly(FamilySpec("a_des", n), budget=limits.budget)
        if left != right:
            return None, _mismatch(f"A_{n}", left, right)
    return _ranged(1, hi), None


@_register("typeA.closed_equals_oracle", "typeA",
           "the half-sum closed forms match the enumerated even/odd "
           "excedance polynomials")
def _check_aexc_oracle(limits):
    for n in range(2, limits.max_n_a + 1):
        for cls in ("plus", "minus"):
            left = closedforms.half_sum_closed("aexc", n, cls)
            right = family_poly(FamilySpec("aexc", n, cls), budget=limits.budget)
            if left != right:
                return None, _mismatch(f"n={n} {cls}", left, right)
    return _ranged(2, limits.max_n_a), None


@_register("typeA.step_equals_half_sum", "typeA",
           "the one-step plus/minus recurrence agrees with the half-sum "
           "closed form")
def _check_aexc_step(limits):
    hi = max(limits.max_n_a, 12)
    for n in range(2, hi + 1):
        for cls in ("plus", "minus"):
            left = closedforms.step_recurrence("aexc", n, cls)
            right = closedforms.half_sum_closed("aexc", n, cls)
            if left != right:
                return None, _mismatch(f"n={n} {cls}", left, right)
    return _ranged(2, hi), None


@_register("typeA.palindromic_iff_odd_rank", "typeA",
           "the even/odd excedance polynomials are palindromic exactly at "
           "odd ranks")
def _check_palindromic_iff(limits):
    for n in range(2, 10):
        for cls in ("plus", "minus"):
            f = closedforms.half_sum_closed("aexc", n, cls)
            got = palindrome_info(f, BIVARIATE).is_palindromic
            if got != (n % 2 == 1):
                return None, _mismatch(f"n={n} {cls} palindromic", got, n % 2 == 1)
    return _ranged(2, 9), None


@_register("typeA.derivative_halving", "typeA",
           "both excedance halves have the same s+t derivative, half that of "
           "the full polynomial")
def _check_derivative_halving(limits):
    hi = max(limits.max_n_a, 8)
    for n in range(2, hi + 1):
        dp = D(closedforms.half_sum_closed("aexc", n, "plus"))
        dm = D(closedforms.half_sum_closed("aexc", n, "minus"))
        da = half(D(closedforms.eulerian("A", n)))
        if not (dp == dm == da):
            return None, _mismatch(f"n={n}", dp, (dm, da))
    return _ranged(2, hi), None


_AEXC5_PLUS = (_S ** 4 + 11 * _S ** 3 * _T + 36 * _S ** 2 * _T ** 2
               + 11 * _S * _T ** 3 + _T ** 4)
_AEXC5_MINUS = 15 * _S ** 3 * _T + 30 * _S ** 2 * _T ** 2 + 15 * _S * _T ** 3
_AEXC7_PLUS = (_S ** 6 + 57 * _S ** 5 * _T + 603 * _S ** 4 * _T ** 2
               + 1198 * _S ** 3 * _T ** 3 + 603 * _S ** 2 * _T ** 4
               + 57 * _S * _T ** 5 + _T ** 6)
_AEXC7_MINUS = (63 * _S ** 5 * _T + 588 * _S ** 4 * _T ** 2
                + 1218 * _S ** 3 * _T ** 3 + 588 * _S ** 2 * _T ** 4
                + 63 * _S * _T ** 5)


@_register("typeA.base_polynomials", "typeA",
           "the rank 5 and 7 even/odd excedance polynomials and their gamma "
           "vectors take their tabulated values")
def _check_aexc_bases(limits):
    expected = {
        (5, "plus"): (_AEXC5_PLUS, (1, 7, 16)),
        (5, "minus"): (_AEXC5_MINUS, (15, 0)),
        (7, "plus"): (_AEXC7_PLUS, (1, 51, 384, 104)),
        (7, "minus"): (_AEXC7_MINUS, (63, 336, 168)),
    }
    for (n, cls), (poly, gammas) in expected.items():
        got = closedforms.half_sum_closed("aexc", n, cls)
        if got != poly:
            return None, _mismatch(f"n={n} {cls}", got, poly)
        gexp = gamma_decompose(got, BIVARIATE)
        if gexp.gammas != gammas:
            return None, _mismatch(f"n={n} {cls} gammas", gexp.gammas, gammas)
    return "n=5,7", None


@_register("typeA.odd_rank_gamma_positive", "typeA",
           "at odd ranks from 5 on, both excedance halves are gamma positive "
           "with center (n-1)/2")
def _check_aexc_odd_gamma(limits):
    for n in range(5, 12, 2):
        for cls in ("plus", "minus"):
            gexp = gamma_decompose(
                closedforms.half_sum_closed("aexc", n, cls), BIVARIATE
            )
            if not gexp.all_gammas_nonnegative():
                return None, _mismatch(f"n={n} {cls}", gexp, "(>= 0)")
            if gexp.center_of_symmetry != Fraction(n - 1, 2):
                return None, _mismatch(f"n={n} {cls} center",
                                       gexp.center_of_symmetry,
                                       Fraction(n - 1, 2))
    return "n=5,7,9,11", None


def _even_split(family, n, cls):
    """Two gamma positive polynomials with centers one apart summing to the
    univariate plus/minus polynomial at an even-center-breaking rank."""
    other = "minus" if cls == "plus" else "plus"
    if family == "aexc":
        prev_same = closedforms.half_sum_closed("aexc", n - 1, cls)
        prev_other = closedforms.half_sum_closed("aexc", n - 1, other)
        bridge = _S * _T * D(prev_same)
        scale = 1
    elif family == "bexc":
        prev_same = closedforms.half_sum_closed("bexc", n - 1, cls)
        prev_other = closedforms.half_sum_closed("bexc", n - 1, other)
        bridge = _S * _T * D(closedforms.eulerian("B", n - 1))
        scale = 1
    else:  # dexc
        prev_same = closedforms.step_recurrence("dexc", n - 1, cls)
        prev_other = closedforms.step_recurrence("bdexc", n - 1)
        bridge = half(_S * _T * D(closedforms.eulerian("B", n - 1)))
        scale = 2
    p = gamma_decompose(bridge.substitute_one("s"), UNIVARIATE)
    p_low, p_high = split_odd_length(p)
    w1 = prev_same.substitute_one("s") + p_low.recompose()
    if scale == 2:
        w2 = half(_T * prev_other.substitute_one("s")) + p_high.recompose()
    else:
        w2 = _T * prev_other.substitute_one("s") + p_high.recompose()
    return w1, w2


def _check_two_term(family, n_values, target):
    for n in n_values:
        for cls in ("plus", "minus"):
            w1, w2 = _even_split(family, n, cls)
            goal = target(n, cls)
            if w1 + w2 != goal:
                return _mismatch(f"n={n} {cls} sum", w1 + w2, goal)
            g1 = gamma_decompose(w1, UNIVARIATE)
            g2 = gamma_decompose(w2, UNIVARIATE)
            if not (g1.all_gammas_nonnegative() and g2.all_gammas_nonnegative()):
                return _mismatch(f"n={n} {cls} positivity", (g1, g2), "(>= 0)")
            if g2.center_of_symmetry - g1.center_of_symmetry != 1:
                return _mismatch(f"n={n} {cls} centers",
                                 (g1.center_of_symmetry, g2.center_of_symmetry),
                                 "differ by 1")
    return None


@_register("typeA.even_rank_two_term_split", "typeA",
           "at even ranks the univariate excedance halves split into two "
           "gamma positive polynomials with centers one apart")
def _check_aexc_split(limits):
    witness = _check_two_term(
        "aexc", range(4, 11, 2),
        lambda n, cls: closedforms.half_sum_closed("aexc", n, cls)
        .substitute_one("s"),
    )
    if witness:
        return None, witness
    # tabulated base split at rank 4
    t = _T
    w1, w2 = _even_split("aexc", 4, "plus")
    if (w1, w2) != (1 + 4 * t + t ** 2, 6 * t ** 2):
        return None, _mismatch("rank-4 split", (w1, w2),
                               (1 + 4 * t + t ** 2, 6 * t ** 2))
    return "n=4,6,8,10", None


@_register("typeA.coefficient_triangle", "typeA",
           "the coupled coefficient recurrences rebuild the rows extracted "
           "from the closed forms, and the halves sum to the Eulerian numbers")
def _check_coeff_tables(limits):
    hi = 12
    tables = closedforms.coeff_tables(hi)
    for n in range(2, hi + 1):
        for cls in ("plus", "minus"):
            f = closedforms.half_sum_closed("aexc", n, cls).substitute_one("s")
            extracted = tuple(
                f.coefficient("t", k).constant_value() for k in range(n)
            )
            if tables.row(n, cls) != extracted:
                return None, _mismatch(f"row {n} {cls}", tables.row(n, cls),
                                       extracted)
        full = closedforms.eulerian_t("A", n)
        for k in range(n):
            total = tables.value(n, k, "plus") + tables.value(n, k, "minus")
            if total != full.coefficient("t", k).constant_value():
                return None, _mismatch(f"Eulerian({n},{k})", total, full)
    return _ranged(2, hi), None


@_register("typeA.jump_table_values", "typeA",
           "the six fixed rank-jump polynomials match their tabulated "
           "expansions and centers")
def _check_l_tables(limits):
    tab = closedforms.jump_tables()
    expected = {
        "L1": ((_S + _T) ** 4 + 7 * _S * _T * (_S + _T) ** 2
               + 16 * (_S * _T) ** 2, Fraction(2)),
        "L2": (15 * _S * _T * (_S + _T) ** 2, Fraction(2)),
        "L3": (15 * _S * _T * (_S + _T) ** 3 + 60 * (_S * _T) ** 2 * (_S + _T),
               Fraction(5, 2)),
        "L4": (25 * (_S * _T) ** 2 * (_S + _T) ** 2 + 20 * (_S * _T) ** 3,
               Fraction(3)),
        "L5": (10 * (_S * _T) ** 3 * (_S + _T), Fraction(7, 2)),
        "L6": ((_S * _T) ** 4, Fraction(4)),
    }
    for name, (poly, cos) in expected.items():
        got_poly, got_cos = tab[name]
        if got_poly != poly or got_cos != cos:
            return None, _mismatch(name, (got_poly, got_cos), (poly, cos))
        gexp = gamma_decompose(got_poly, BIVARIATE)
        if not gexp.all_gammas_nonnegative() or gexp.center_of_symmetry != cos:
            return None, _mismatch(f"{name} gamma", gexp, cos)
    return "L1..L6", None


@_register("typeA.jump_equals_four_steps", "typeA",
           "the four-step jump built from the fixed tables equals four "
           "applications of the one-step recurrence")
def _check_a_jump(limits):
    for n in (5, 7, 9):
        for cls in ("plus", "minus"):
            left = closedforms.jump4("aexc", n, cls)
            right = closedforms.step_recurrence("aexc", n + 4, cls)
            if left != right:
                return None, _mismatch(f"n={n}->{n + 4} {cls}", left, right)
    return "n+4=9,11,13", None


@_register("typeA.totals_and_class_additivity", "typeA",
           "family totals count the domain and the even/odd halves sum to "
           "the whole")
def _check_a_totals(limits):
    hi = min(limits.max_n_a, 7)
    for n in range(2, hi + 1):
        full = family_poly(FamilySpec("aexc", n), budget=limits.budget)
        plus = family_poly(FamilySpec("aexc", n, "plus"), budget=limits.budget)
        minus = family_poly(FamilySpec("aexc", n, "minus"), budget=limits.budget)
        if plus + minus != full:
            return None, _mismatch(f"n={n} additivity", plus + minus, full)
        if full.at_ones() != math.factorial(n):
            return None, _mismatch(f"n={n} total", full.at_ones(),
                                   math.factorial(n))
    return _ranged(2, hi), None


# ------------------------------------------------------------------------ type B


@_register("typeB.eulerian_recurrence_certified", "typeB",
           "the type-B descent polynomial recurrence reproduces the "
           "enumeration over the signed group")
def _check_eulerian_b(limits):
    for n in range(1, limits.max_n_b + 1):
        left = closedforms.eulerian("B", n)
        right = family_poly(FamilySpec("b_des", n), budget=limits.budget)
        if left != right:
            return None, _mismatch(f"B_{n}", left, right)
    return _ranged(1, limits.max_n_b), None


@_register("typeB.closed_equals_oracle", "typeB",
           "the type-B half-sum closed forms match the enumerated even/odd "
           "excedance polynomials")
def _check_bexc_oracle(limits):
    for n in range(1, limits.max_n_b + 1):
        for cls in ("plus", "minus"):
            left = closedforms.half_sum_closed("bexc", n, cls)
            right = family_poly(FamilySpec("bexc", n, cls), budget=limits.budget)
            if left != right:
                return None, _mismatch(f"n={n} {cls}", left, right)
    return _ranged(1, limits.max_n_b), None


@_register("typeB.step_equals_half_sum", "typeB",
           "the type-B one-step recurrence agrees with the half-sum closed form")
def _check_bexc_step(limits):
    hi = max(limits.max_n_b, 12)
    for n in range(1, hi + 1):
        for cls in ("plus", "minus"):
            left = closedforms.step_recurrence("bexc", n, cls)
            right = closedforms.half_sum_closed("bexc", n, cls)
            if left != right:
                return None, _mismatch(f"n={n} {cls}", left, right)
    return _ranged(1, hi), None


@_register("typeB.descent_excedance_equidistributed", "typeB",
           "type-B descents and excedances are equidistributed over the even "
           "elements and over the odd elements separately")
def _check_b_equidistribution(limits):
    for n in range(1, limits.max_n_b + 1):
        for cls in ("plus", "minus", "all"):
            left = family_poly(FamilySpec("b_des", n, cls), budget=limits.budget)
            right = family_poly(FamilySpec("bexc", n, cls), budget=limits.budget)
            if left != right:
                return None, _mismatch(f"n={n} {cls}", left, right)
    return _ranged(1, limits.max_n_b), None


@_register("typeB.weak_excedance_equidistribution", "typeB",
           "ascents and weak excedances are jointly equidistributed with the "
           "negative-letter set statistic")
def _check_b_weak(limits):
    for n in range(1, limits.max_n_b + 1):
        left = dist_poly(
            GroupSpec("B", n),
            WeightSpec((("t", "asc_b", 0), ("u", "negs", 0))),
            budget=limits.budget,
        )
        right = dist_poly(
            GroupSpec("B", n),
            WeightSpec((("t", "wkexc_b", 0), ("u", "negs", 0))),
            budget=limits.budget,
        )
        if left != right:
            return None, _mismatch(f"n={n}", left, right)
    return _ranged(1, limits.max_n_b), None


@_register("typeB.even_rank_gamma_positive", "typeB",
           "at even ranks both type-B excedance halves are gamma positive "
           "with center n/2")
def _check_bexc_gamma(limits):
    for n in range(2, 11, 2):
        for cls in ("plus", "minus"):
            gexp = gamma_decompose(
                closedforms.half_sum_closed("bexc", n, cls), BIVARIATE
            )
            if not gexp.all_gammas_nonnegative():
                return None, _mismatch(f"n={n} {cls}", gexp, "(>= 0)")
            if gexp.center_of_symmetry != Fraction(n, 2):
                return None, _mismatch(f"n={n} {cls} center",
                                       gexp.center_of_symmetry, Fraction(n, 2))
    return "n=2,4,..,10", None


@_register("typeB.odd_rank_two_term_split", "typeB",
           "at odd ranks the univariate type-B halves split into two gamma "
           "positive polynomials with centers one apart")
def _check_bexc_split(limits):
    witness = _check_two_term(
        "bexc", range(3, 10, 2),
        lambda n, cls: closedforms.half_sum_closed("bexc", n, cls)
        .substitute_one("s"),
    )
    return ("n=3,5,7,9", None) if witness is None else (None, witness)


@_register("typeB.inversion_variants_agree_mod_2", "typeB",
           "the pairwise inversion count and the negative-letter-sum variant "
           "have the same parity on every signed permutation")
def _check_inv_variants(limits):
    hi = min(limits.max_n_b, 5)
    for n in range(1, hi + 1):
        for p in iterate(GroupSpec("B", n), budget=limits.budget):
            if inv_b(p.window) % 2 != inv_b_negsum(p.window) % 2:
                return None, _mismatch(f"{p}", inv_b(p.window),
                                       inv_b_negsum(p.window))
    return _ranged(1, hi), None


@_register("typeB.totals_and_class_additivity", "typeB",
           "type-B family totals count the domain and the halves sum to the "
           "whole")
def _check_b_totals(limits):
    for n in range(1, limits.max_n_b + 1):
        full = family_poly(FamilySpec("bexc", n), budget=limits.budget)
        plus = family_poly(FamilySpec("bexc", n, "plus"), budget=limits.budget)
        minus = family_poly(FamilySpec("bexc", n, "minus"), budget=limits.budget)
        if plus + minus != full:
            return None, _mismatch(f"n={n} additivity", plus + minus, full)
        if full.at_ones() != 2 ** n * math.factorial(n):
            return None, _mismatch(f"n={n} total", full.at_ones(),
                                   2 ** n * math.factorial(n))
    return _ranged(1, limits.max_n_b), None


# ------------------------------------------------------------------------ type D


@_register("typeD.bridge_to_typeB", "typeD",
           "the type-D excedance polynomial equals the even type-B half, and "
           "the complement equals the odd half")
def _check_d_bridge(limits):
    for n in range(1, limits.max_n_d + 1):
        left = family_poly(FamilySpec("dexc", n), budget=limits.budget)
        right = closedforms.half_sum_closed("bexc", n, "plus")
        if left != right:
            return None, _mismatch(f"n={n} dexc", left, right)
        left = family_poly(FamilySpec("bdexc", n), budget=limits.budget)
        right = closedforms.half_sum_closed("bexc", n, "minus")
        if left != right:
            return None, _mismatch(f"n={n} bdexc", left, right)
    return _ranged(1, limits.max_n_d), None


@_register("typeD.step_equals_oracle", "typeD",
           "the coupled type-D recurrences match the enumeration, including "
           "the signed plus/minus halves")
def _check_d_step(limits):
    for n in range(2, limits.max_n_d + 1):
        for family in ("dexc", "bdexc"):
            left = closedforms.step_recurrence(family, n)
            right = family_poly(FamilySpec(family, n), budget=limits.budget)
            if left != right:
                return None, _mismatch(f"n={n} {family}", left, right)
        for cls in ("plus", "minus"):
            left = closedforms.step_recurrence("dexc", n, cls)
            right = family_poly(FamilySpec("dexc", n, cls), budget=limits.budget)
            if left != right:
                return None, _mismatch(f"n={n} dexc {cls}", left, right)
    return _ranged(2, limits.max_n_d), None


@_register("typeD.descent_restriction_equidistributed", "typeD",
           "type-B descents restricted to the type-D subgroup are "
           "equidistributed with type-D excedances")
def _check_d_descent(limits):
    for n in range(2, limits.max_n_d + 1):
        left = dist_poly(GroupSpec("D", n),
                         WeightSpec((("t", "des_b", 0), ("s", "asc_b", 0))),
                         budget=limits.budget)
        right = family_poly(FamilySpec("dexc", n), budget=limits.budget)
        if left != right:
            return None, _mismatch(f"n={n}", left, right)
    return _ranged(2, limits.max_n_d), None


_DEXC4_PLUS = (_S ** 4 + 16 * _S ** 3 * _T + 62 * _S ** 2 * _T ** 2
               + 16 * _S * _T ** 3 + _T ** 4)
_DEXC4_MINUS = 20 * _S ** 3 * _T + 56 * _S ** 2 * _T ** 2 + 20 * _S * _T ** 3
_DEXC6_PLUS = (_S ** 6 + 176 * _S ** 5 * _T + 2647 * _S ** 4 * _T ** 2
               + 5872 * _S ** 3 * _T ** 3 + 2647 * _S ** 2 * _T ** 4
               + 176 * _S * _T ** 5 + _T ** 6)
_DEXC6_MINUS = (182 * _S ** 5 * _T + 2632 * _S ** 4 * _T ** 2
                + 5892 * _S ** 3 * _T ** 3 + 2632 * _S ** 2 * _T ** 4
                + 182 * _S * _T ** 5)


@_register("typeD.base_polynomials", "typeD",
           "the rank 4 and 6 type-D excedance halves and their gamma vectors "
           "take their tabulated values")
def _check_d_bases(limits):
    expected = {
        (4, "plus"): (_DEXC4_PLUS, (1, 12, 32)),
        (4, "minus"): (_DEXC4_MINUS, (20, 16)),
        (6, "plus"): (_DEXC6_PLUS, (1, 170, 1952, 928)),
        (6, "minus"): (_DEXC6_MINUS, (182, 1904, 992)),
    }
    for (n, cls), (poly, gammas) in expected.items():
        got = closedforms.step_recurrence("dexc", n, cls)
        if got != poly:
            return None, _mismatch(f"n={n} {cls}", got, poly)
        gexp = gamma_decompose(got, BIVARIATE)
        if gexp.gammas != gammas:
            return None, _mismatch(f"n={n} {cls} gammas", gexp.gammas, gammas)
    return "n=4,6", None


@_register("typeD.even_rank_gamma_positive", "typeD",
           "at even ranks from 4 on, both type-D halves are gamma positive "
           "with center n/2")
def _check_dexc_gamma(limits):
    for n in range(4, 11, 2):
        for cls in ("plus", "minus"):
            gexp = gamma_decompose(
                closedforms.step_recurrence("dexc", n, cls), BIVARIATE
            )
            if not gexp.all_gammas_nonnegative():
                return None, _mismatch(f"n={n} {cls}", gexp, "(>= 0)")
            if gexp.center_of_symmetry != Fraction(n, 2):
                return None, _mismatch(f"n={n} {cls} center",
                                       gexp.center_of_symmetry, Fraction(n, 2))
    return "n=4,6,8,10", None


@_register("typeD.odd_rank_two_term_split", "typeD",
           "at odd ranks from 5 on, the univariate type-D halves split into "
           "two gamma positive polynomials with centers one apart")
def _check_dexc_split(limits):
    witness = _check_two_term(
        "dexc", range(5, 10, 2),
        lambda n, cls: closedforms.step_recurrence("dexc", n, cls)
        .substitute_one("s"),
    )
    return ("n=5,7,9", None) if witness is None else (None, witness)


@_register("typeD.jump_table_values", "typeD",
           "the seven fixed type-D jump polynomials match their tabulated "
           "expansions and centers")
def _check_r_tables(limits):
    tab = closedforms.jump_tables()
    st, spt = _S * _T, _S + _T
    expected = {
        "R1": (spt ** 4 + 8 * st * spt ** 2 + 16 * st ** 2, Fraction(2)),
        "R2": (16 * st * spt ** 2, Fraction(2)),
        "R3": (4 * st * spt ** 3 + 32 * st ** 2 * spt, Fraction(5, 2)),
        "R4": (2 * st ** 2 * spt ** 2 + 8 * st ** 3, Fraction(3)),
        "R5": (12 * st * spt ** 2, Fraction(2)),
        "R6": (8 * st ** 2 * spt, Fraction(5, 2)),
        "R7": (2 * st ** 2, Fraction(2)),
    }
    for name, (poly, cos) in expected.items():
        got_poly, got_cos = tab[name]
        if got_poly != poly or got_cos != cos:
            return None, _mismatch(name, (got_poly, got_cos), (poly, cos))
        gexp = gamma_decompose(got_poly, BIVARIATE)
        if not gexp.all_gammas_nonnegative() or gexp.center_of_symmetry != cos:
            return None, _mismatch(f"{name} gamma", gexp, cos)
    return "R1..R7", None


@_register("typeD.jump_equals_four_steps", "typeD",
           "the type-D four-step jump equals four one-step applications, and "
           "its shared tail has even gamma coefficients")
def _check_d_jump(limits):
    for n in (4, 6, 8):
        for cls in ("plus", "minus"):
            left = closedforms.jump4("dexc", n, cls)
            right = closedforms.step_recurrence("dexc", n + 4, cls)
            if left != right:
                return None, _mismatch(f"n={n}->{n + 4} {cls}", left, right)
    for n in (2, 4, 6):
        tail = closedforms.dexc_jump_tail(n)
        gexp = gamma_decompose(tail, BIVARIATE)
        if gexp.center_of_symmetry != Fraction(n + 4, 2):
            return None, _mismatch(f"tail n={n} center",
                                   gexp.center_of_symmetry, Fraction(n + 4, 2))
        if not all(isinstance(g, int) and g % 2 == 0 and g >= 0
                   for g in gexp.gammas):
            return None, _mismatch(f"tail n={n} gammas", gexp.gammas,
                                   "(even, >= 0)")
    return "n+4=8,10,12", None


@_register("typeD.totals_and_class_additivity", "typeD",
           "type-D family totals count the domain and the halves sum to the "
           "whole")
def _check_d_totals(limits):
    for n in range(2, limits.max_n_d + 1):
        full = family_poly(FamilySpec("dexc", n), budget=limits.budget)
        plus = family_poly(FamilySpec("dexc", n, "plus"), budget=limits.budget)
        minus = family_poly(FamilySpec("dexc", n, "minus"), budget=limits.budget)
        if plus + minus != full:
            return None, _mismatch(f"n={n} additivity", plus + minus, full)
        if full.at_ones() != 2 ** (n - 1) * math.factorial(n):
            return None, _mismatch(f"n={n} total", full.at_ones(),
                                   2 ** (n - 1) * math.factorial(n))
    return _ranged(2, limits.max_n_d), None


# -------------------------------------------------------------------- signed sums


@_register("signed_sums.type_a_power", "signed_sums",
           "the sign-weighted type-A excedance sum collapses to (s-t)^(n-1)")
def _check_sgn_a(limits):
    for n in range(2, limits.max_n_a + 1):
        left = family_poly(FamilySpec("sgn_aexc", n), budget=limits.budget)
        if left != closedforms.sgn_aexc_closed(n):
            return None, _mismatch(f"n={n}", left, closedforms.sgn_aexc_closed(n))
    return _ranged(2, limits.max_n_a), None


@_register("signed_sums.type_b_power", "signed_sums",
           "the sign-weighted type-B excedance sum collapses to (s-t)^n")
def _check_sgn_b(limits):
    for n in range(1, limits.max_n_b + 1):
        left = family_poly(FamilySpec("sgn_bexc", n), budget=limits.budget)
        if left != closedforms.sgn_bexc_closed(n):
            return None, _mismatch(f"n={n}", left, closedforms.sgn_bexc_closed(n))
    return _ranged(1, limits.max_n_b), None


@_register("signed_sums.type_b_descent_position", "signed_sums",
           "the trivariate signed descent sum is (s-t)^n u^n, the partial sum "
           "away from the last position vanishes, and the letter values are "
           "immaterial")
def _check_sgn_b_u(limits):
    u = Poly.variable("u")
    for n in range(1, limits.max_n_b + 1):
        full = oracle.sgnb_des_u(n, budget=limits.budget)
        if full != closedforms.sgnb_des_u_closed(n):
            return None, _mismatch(f"n={n}", full,
                                   closedforms.sgnb_des_u_closed(n))
        partial = oracle.sgnb_des_u(n, positions="max_not_last",
                                    budget=limits.budget)
        if not partial.is_zero:
            return None, _mismatch(f"n={n} partial", partial, 0)
    other = oracle.sgnb_des_u(3, letters=(2, 5, 9), budget=limits.budget)
    if other != closedforms.sgnb_des_u_closed(3):
        return None, _mismatch("letters (2,5,9)", other,
                               closedforms.sgnb_des_u_closed(3))
    return _ranged(1, limits.max_n_b), None


@_register("signed_sums.type_d_power", "signed_sums",
           "the sign-weighted type-D excedance sum is (s-t)^n at even ranks "
           "and s(s-t)^(n-1) at odd ranks")
def _check_sgn_d(limits):
    hi = limits.max_n_d + 1
    for n in range(1, hi + 1):
        left = family_poly(FamilySpec("sgn_dexc", n), budget=limits.budget)
        if left != closedforms.sgn_dexc_closed(n):
            return None, _mismatch(f"n={n}", left, closedforms.sgn_dexc_closed(n))
    return _ranged(1, hi), None


@_register("signed_sums.type_d_fourth_power_jump", "signed_sums",
           "the signed type-D sum gains a factor (s-t)^4 every four ranks")
def _check_sgn_d_jump(limits):
    for n in range(1, 9):
        left = closedforms.sgn_dexc_closed(n + 4)
        right = (_S - _T) ** 4 * closedforms.sgn_dexc_closed(n)
        if left != right:
            return None, _mismatch(f"n={n}", left, right)
    return _ranged(1, 8), None


# -------------------------------------------------------------------- derangements


@_register("derangements.long_cycle_distribution", "derangements",
           "excedances over the n-cycles distribute as t times the rank n-1 "
           "Eulerian polynomial")
def _check_long_cycles(limits):
    for n in range(2, limits.max_n_a + 1):
        left = dist_poly(GroupSpec("S", n, cycle_type=(n,)),
                         oracle.T_EXC_WEIGHT, budget=limits.budget)
        right = _T * closedforms.eulerian_t("A", n - 1)
        if left != right:
            return None, _mismatch(f"n={n}", left, right)
    return _ranged(2, limits.max_n_a), None


@_register("derangements.conjugacy_product_formula", "derangements",
           "every conjugacy class's excedance polynomial equals the "
           "set-partition count times the product of long-cycle factors")
def _check_conjugacy(limits):
    for n in range(1, limits.max_n_a + 1):
        buckets = {}
        for p in iterate(GroupSpec("S", n), budget=limits.budget):
            dist = buckets.setdefault(cycle_type(p.window).parts, {})
            e = exc(p.window)
            dist[e] = dist.get(e, 0) + 1
        for lam in partitions(n):
            got = Poly(("t",), {(e,): c
                                for e, c in buckets.get(lam.parts, {}).items()})
            want = closedforms.conj_exc_closed(lam)
            if got != want:
                return None, _mismatch(f"n={n} type {lam}", got, want)
            if sum(buckets.get(lam.parts, {}).values()) != lam.class_size():
                return None, _mismatch(f"|C_{lam}|",
                                       sum(buckets.get(lam.parts, {}).values()),
                                       lam.class_size())
    return _ranged(1, limits.max_n_a), None


@_register("derangements.fixed_point_refinement", "derangements",
           "the closed derangement sums match the enumeration for every "
           "fixed-point count and sign class")
def _check_fixed_refinement(limits):
    for n in range(1, limits.max_n_a + 1):
        buckets = {}
        for p in iterate(GroupSpec("S", n), budget=limits.budget):
            w = p.window
            key = (fixed_points(w), sign(w))
            buckets.setdefault(key, {})
            e = exc(w)
            buckets[key][e] = buckets[key].get(e, 0) + 1
        for i in range(n + 1):
            for cls, sgn in (("plus", 1), ("minus", -1), ("all", None)):
                terms = {}
                for (fixed, sg), dist in buckets.items():
                    if fixed != i or (sgn is not None and sg != sgn):
                        continue
                    for e, c in dist.items():
                        terms[(e,)] = terms.get((e,), 0) + c
                got = Poly(("t",), terms)
                want = closedforms.derangement_closed(n, cls, fixed=i)
                if got != want:
                    return None, _mismatch(f"n={n} i={i} {cls}", got, want)
    return _ranged(1, limits.max_n_a), None


@_register("derangements.gamma_positive_with_centers", "derangements",
           "derangement excedance polynomials are gamma positive with center "
           "(n - fixed)/2 in every sign class")
def _check_derangement_gamma(limits):
    hi = max(limits.max_n_a, 9)
    for n in range(2, hi + 1):
        for i in range(0, n + 1):
            for cls in ("all", "plus", "minus"):
                f = closedforms.derangement_closed(n, cls, fixed=i)
                if f.is_zero:
                    continue
                gexp = gamma_decompose(f, UNIVARIATE)
                if not gexp.all_gammas_nonnegative():
                    return None, _mismatch(f"n={n} i={i} {cls}", gexp, "(>= 0)")
                if gexp.center_of_symmetry != Fraction(n - i, 2):
                    return None, _mismatch(f"n={n} i={i} {cls} center",
                                           gexp.center_of_symmetry,
                                           Fraction(n - i, 2))
    return _ranged(2, hi), None


@_register("derangements.set_partition_counts", "derangements",
           "the set-partition counting factor is integral and the class "
           "sizes sum to the group order")
def _check_partition_counts(limits):
    expected = {(2, 2): 3, (3, 2): 10, (4,): 1, (1, 1, 1, 1): 1}
    for lam, want in expected.items():
        got = closedforms.set_partition_count(lam)
        if got != want:
            return None, _mismatch(f"{lam}", got, want)
    for n in range(0, 10):
        total = sum(lam.class_size() for lam in partitions(n))
        if total != math.factorial(n):
            return None, _mismatch(f"n={n} class sizes", total, math.factorial(n))
    return "n=0..9", None


# ---------------------------------------------------------------------- bijections


@_register("bijections.fundamental_transform", "bijections",
           "the fundamental transformation is a bijection carrying the "
           "excedance count to the descent count")
def _check_fft(limits):
    for n in range(1, limits.max_n_a + 1):
        seen = set()
        for p in iterate(GroupSpec("S", n), budget=limits.budget):
            image = bijections.foata_fft(p)
            if des(image.window) != exc(p.window):
                return None, _mismatch(f"{p} -> {image}", des(image.window),
                                       exc(p.window))
            if bijections.foata_fft_inverse(image) != p:
                return None, _mismatch(f"inverse at {p}",
                                       bijections.foata_fft_inverse(image), p)
            seen.add(image.window)
        if len(seen) != math.factorial(n):
            return None, _mismatch(f"n={n} image size", len(seen),
                                   math.factorial(n))
    return _ranged(1, limits.max_n_a), None


@_register("bijections.penultimate_to_front", "bijections",
           "the penultimate-to-front map is a bijection carrying "
           "(exc, nexc-1) to (des, asc)")
def _check_penultimate(limits):
    hi = min(limits.max_n_a, 7)
    for n in range(2, hi + 1):
        seen = set()
        count = 0
        for p in iterate(GroupSpec("S", n, pos_n=n - 1), budget=limits.budget):
            image = bijections.penultimate_to_front(p)
            if pos_n(image.window) != 1:
                return None, _mismatch(f"{p} image position",
                                       pos_n(image.window), 1)
            if (exc(p.window), nexc(p.window) - 1) != (des(image.window),
                                                       asc(image.window)):
                return None, _mismatch(
                    f"{p} -> {image}",
                    (exc(p.window), nexc(p.window) - 1),
                    (des(image.window), asc(image.window)))
            seen.add(image.window)
            count += 1
        if len(seen) != count:
            return None, _mismatch(f"n={n} injectivity", len(seen), count)
    return _ranged(2, hi), None


@_register("bijections.swap_last_two_involution", "bijections",
           "swapping the last two letters is a sign-reversing, "
           "excedance-preserving involution away from the top letter")
def _check_swap(limits):
    hi = min(limits.max_n_a, 7)
    for n in range(2, hi + 1):
        for r in range(1, n - 1):
            for p in iterate(GroupSpec("S", n, pos_n=r), budget=limits.budget):
                image = bijections.swap_last_two(p)
                if exc(image.window) != exc(p.window):
                    return None, _mismatch(f"{p} excedance", exc(image.window),
                                           exc(p.window))
                if inv(image.window) % 2 == inv(p.window) % 2:
                    return None, _mismatch(f"{p} parity", inv(image.window),
                                           inv(p.window))
                if bijections.swap_last_two(image) != p:
                    return None, _mismatch(f"{p} involution",
                                           bijections.swap_last_two(image), p)
    return _ranged(2, hi), None


@_register("bijections.halving_consequence", "bijections",
           "away from the last two positions, the even elements carry exactly "
           "half of each restricted excedance distribution")
def _check_halving(limits):
    hi = min(limits.max_n_a, 7)
    for n in range(3, hi + 1):
        for r in range(1, n - 1):
            whole = dist_poly(GroupSpec("S", n, pos_n=r), oracle.AEXC_WEIGHT,
                              budget=limits.budget)
            even = dist_poly(GroupSpec("S", n, parity="even", pos_n=r),
                             oracle.AEXC_WEIGHT, budget=limits.budget)
            if 2 * even != whole:
                return None, _mismatch(f"n={n} r={r}", 2 * even, whole)
    return _ranged(3, hi), None


@_register("bijections.long_cycle_correspondence", "bijections",
           "the long-cycle encoding is a bijection onto the n-cycles with "
           "excedance count one more than the source's descent count")
def _check_long_cycle_map(limits):
    hi = min(limits.max_n_a, 7)
    for n in range(2, hi + 1):
        images = set()
        for p in iterate(GroupSpec("S", n - 1), budget=limits.budget):
            image = bijections.perm_to_long_cycle(p)
            if cycle_type(image.window).parts != (n,):
                return None, _mismatch(f"{p} image", cycle_type(image.window),
                                       (n,))
            if exc(image.window) != des(p.window) + 1:
                return None, _mismatch(f"{p} statistic", exc(image.window),
                                       des(p.window) + 1)
            if bijections.long_cycle_to_perm(image) != p:
                return None, _mismatch(f"{p} inverse",
                                       bijections.long_cycle_to_perm(image), p)
            images.add(image.window)
        n_cycles = sum(1 for q in iterate(GroupSpec("S", n, cycle_type=(n,)),
                                          budget=limits.budget))
        if len(images) != n_cycles:
            return None, _mismatch(f"n={n} surjectivity", len(images), n_cycles)
    return _ranged(2, hi), None


@_register("bijections.cycle_standardization", "bijections",
           "order-preserving relabelling keeps a cycle's excedance count, "
           "making class polynomials factor through long cycles")
def _check_standardize(limits):
    from itertools import combinations, permutations as iperm

    for universe in (range(1, 6), (2, 5, 7, 9)):
        pool = tuple(universe)
        for k in range(1, min(4, len(pool)) + 1):
            for subset in combinations(pool, k):
                for arrangement in iperm(subset):
                    std = bijections.standardize_cycle(arrangement)
                    if (bijections.cycle_excedances(arrangement)
                            != bijections.cycle_excedances(std)):
                        return None, _mismatch(f"{arrangement}",
                                               bijections.cycle_excedances(
                                                   arrangement),
                                               bijections.cycle_excedances(std))
    # the two-cycle product identity at type (3, 2)
    left = dist_poly(GroupSpec("S", 5, cycle_type=(3, 2)), oracle.T_EXC_WEIGHT,
                     budget=limits.budget)
    t = _T
    right = 10 * (t * closedforms.eulerian_t("A", 2)) * (t *
                                                         closedforms.eulerian_t("A", 1))
    if left != right:
        return None, _mismatch("type (3,2)", left, right)
    return "cycles over two universes", None


# ------------------------------------------------------------------------ q-refined


@_register("q_refined.inv_gamma_positive", "q_refined",
           "the inversion-refined derangement sums have gamma vectors with "
           "non-negative polynomial coefficients in both sign classes")
def _check_q_inv(limits):
    hi = min(limits.max_n_a, 7)
    for n in range(2, hi + 1):
        for cls in ("plus", "minus", "all"):
            f = oracle.q_refined(n, "inv", cls, budget=limits.budget)
            if f.is_zero:
                continue
            gexp = gamma_decompose(f, Q_COEFFICIENTS)
            if not gexp.all_gammas_nonnegative():
                return None, _mismatch(f"n={n} {cls}", gexp, "(>= 0)")
    return _ranged(2, hi), None


@_register("q_refined.cyc_gamma_positive", "q_refined",
           "the cycle-count-refined derangement sums have gamma vectors with "
           "non-negative polynomial coefficients in both sign classes")
def _check_q_cyc(limits):
    hi = min(limits.max_n_a, 7)
    for n in range(2, hi + 1):
        for cls in ("plus", "minus", "all"):
            f = oracle.q_refined(n, "cyc", cls, budget=limits.budget)
            if f.is_zero:
                continue
            gexp = gamma_decompose(f, Q_COEFFICIENTS)
            if not gexp.all_gammas_nonnegative():
                return None, _mismatch(f"n={n} {cls}", gexp, "(>= 0)")
    return _ranged(2, hi), None


@_register("q_refined.q1_collapse", "q_refined",
           "setting q = 1 collapses the refined sums to the closed "
           "derangement polynomials")
def _check_q_collapse(limits):
    hi = min(limits.max_n_a, 7)
    for n in range(2, hi + 1):
        for cls in ("plus", "minus", "all"):
            for stat in ("inv", "cyc"):
                left = oracle.q_refined(n, stat, cls,
                                        budget=limits.budget).substitute_one("q")
                right = closedforms.derangement_closed(n, cls)
                if left != right:
                    return None, _mismatch(f"n={n} {cls} {stat}", left, right)
    return _ranged(2, hi), None


# ---------------------------------------------------------------------- the runner


def all_check_ids():
    return tuple(c.check_id for c in REGISTRY)


def run_suite(suite, limits=None):
    """Run a suite (or "all"); returns CheckResults in registry order."""
    limits = limits or VerifyLimits()
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    selected = [c for c in REGISTRY if suite == "all" or c.suite == suite]

    def run_one(check):
        start = time.perf_counter()
        try:
            n_range, witness = check.func(limits)
            status = "pass" if witness is None else "fail"
            if witness is not None:
                n_range = n_range or "-"
        except BudgetExceeded as exc_:
            return CheckResult(check.check_id, check.suite, "-", "skipped",
                               str(exc_), time.perf_counter() - start)
        except Exception as exc_:  # a raising check is reported, not fatal
            return CheckResult(check.check_id, check.suite, "-", "error",
                               f"{type(exc_).__name__}: {exc_}",
                               time.perf_counter() - start)
        return CheckResult(check.check_id, check.suite, n_range or "-", status,
                           witness, time.perf_counter() - start)

    return [run_one(c) for c in selected]
