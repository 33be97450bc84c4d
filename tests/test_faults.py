"""Faults in library code, each mapped to the verify checks it must fail.

A fault monkeypatches one library name.  With it in place, every check named
for it reports ``fail`` with a witness (not ``error``, not ``skipped``);
without it, the same suites pass.  Every registered check is either named
by a fault or listed in ``NOT_YET_FAULTED``, so a new check comes with a
fault that can break it.
"""

from itertools import chain, repeat
from operator import add

import pytest

from gammaexc import bijections, checks, closedforms, groups, oracle, poly
from gammaexc.checks import VerifyLimits, run_suite
from gammaexc.groups import Perm
from gammaexc.poly import Poly

LIMITS = VerifyLimits(max_n_a=5, max_n_b=4, max_n_d=4)

_ST = Poly.variable("s") * Poly.variable("t")
_S3T = Poly.variable("s") ** 3 * Poly.variable("t")
_T = Poly.variable("t")


def _off_at(points, delta):
    """The fault adding ``delta`` to the value at the argument tuples ``points``."""
    def fault(real):
        def faulted(*args):
            value = real(*args)
            return value + delta if args in points else value

        return faulted

    return fault


def _row_off_at(points):
    """The fault adding s^(d-1) t, 1 at entry 1, to the row of degree d at
    the argument tuples ``points``."""
    def fault(real):
        def faulted(*args):
            row = real(*args)
            return [row[0], row[1] + 1, *row[2:]] if args in points else row

        return faulted

    return fault


def _tables_l2_r2_off(real):
    return lambda: {name: (f + _ST if name in ("L2", "R2") else f, center)
                    for name, (f, center) in real().items()}


def _even_filter_keeps_all(real):
    """The fault reading an even spec as its whole domain, in a function
    whose first argument is the spec."""
    def filtered(spec, *args, **kwargs):
        if spec.parity == "even":
            spec = groups.GroupSpec(spec.kind, spec.n, "all", spec.pos_n,
                                    spec.fixed_points, spec.cycle_type)
        return real(spec, *args, **kwargs)

    return filtered


def _class_last_dropped(real):
    def class_windows(spec):
        return iter([*real(spec)][:-1])

    return class_windows


def _ranks_reversed(real):
    def standardize(entries):
        ranks = real(entries)
        return tuple(len(ranks) + 1 - k for k in ranks)

    return standardize


def _signed_form_off_at(stat, p):
    """The fault adding 1 to c in ``_SIGNED_FORMS``' form of ``stat`` at the
    permutation ``p``."""
    def fault(real):
        form = real[stat]

        def faulted(q):
            c, w = form(q)
            return c + (q == p), w

        return {**real, stat: faulted}

    return fault


def _first_exc_off(real):
    """The fault adding 1 to the first value of each kind-S ``exc`` stream."""
    form = real[groups.exc]

    def faulted(windows, n):
        return map(add, form(windows, n), chain((1,), repeat(0)))

    return {**real, groups.exc: faulted}


def _top_negated_at_3(real):
    def signed(m):
        row = real(m)
        if m == 3:
            row[-1] = -row[-1]
        return row

    return signed


def _last_gamma_negated(real):
    def peel(row, lo, hi):
        gammas = real(row, lo, hi)
        nonzero = [i for i, g in enumerate(gammas) if g]
        if nonzero:
            gammas[nonzero[-1]] = -gammas[nonzero[-1]]
        return gammas

    return peel


_HALF_SUM_OFF = ("closedforms.half_sum_closed + s^3 t at (aexc, 5, minus), "
                 "(bexc, 4, plus)")
_EULERIAN_OFF = "closedforms.eulerian + s^3 t at (A, 4), (B, 3)"
_CLASS_ROW_OFF = ("closedforms._class_row + s^(d-1) t at (aexc, 4, all), "
                  "(aexc, 5, minus), (bexc, 3, all), (bexc, 4, plus), "
                  "(dexc, 4 and 8, plus)")
_PEEL_NEGATED = "poly._peel negates its last nonzero gamma"
_SIGNED_TOP_NEGATED = "closedforms._signed negates its top entry at m = 3"
_FFT_SHIFTED = "bijections.foata_fft shifts every letter up by one"
_LONG_CYCLE_SHIFTED = ("bijections.perm_to_long_cycle shifts every letter up "
                       "by one")
_LONG_CYCLE_IDENTITY = "bijections.perm_to_long_cycle returns the identity"
_RANKS_REPEATED = "bijections.standardize_cycle gives every entry rank 1"

# fault id -> (module, name, the fault built from the real object, the check
# ids it must fail)
FAULTS = {
    # a run reads each signed spec off its signature counts by the class
    # rule and reads no signed window, so these two faults twist the rule:
    # every window read as having an even number of negated entries, and an
    # even half read as its whole domain
    "oracle._kept_classes reads every class as 0": (
        oracle, "_kept_classes",
        lambda real: lambda spec: [(0,) * len(kept) for kept in real(spec)],
        ("typeB.closed_equals_oracle",)),
    "oracle._kept_classes' even filter keeps all": (
        oracle, "_kept_classes", _even_filter_keeps_all,
        ("typeB.totals_and_class_additivity",
         "typeD.totals_and_class_additivity")),
    # a run reads inv(p) mod 2 off the parity strings, and inv itself only
    # where a filter drops windows: the parity of a derangement
    "oracle.inv returns 0": (
        oracle, "inv", lambda real: lambda w: 0, ("q_refined.q1_collapse",)),
    "oracle._perm_parities flipped": (
        oracle, "_perm_parities",
        lambda real: lambda n, shift=0: real(n, shift + 1),
        ("typeB.closed_equals_oracle", "typeD.step_equals_oracle",
         "signed_sums.type_d_power")),
    # a run sums a whole S_n's exc column from its window bytes, and streams
    # exc over the specs a filter thins: halves, classes, derangements
    "oracle._A_STREAMS' exc stream + 1 on its first window": (
        oracle, "_A_STREAMS", _first_exc_off,
        ("derangements.long_cycle_distribution", "bijections.halving_consequence",
         "q_refined.q1_collapse")),
    "oracle._POSITIONAL counts only the excedances by 2 or more": (
        oracle, "_POSITIONAL", lambda real: {**real, groups.exc: lambda v, i: v > i + 1},
        ("typeA.closed_equals_oracle", "derangements.conjugacy_product_formula",
         "derangements.fixed_point_refinement")),
    "oracle._parities flipped": (
        oracle, "_parities",
        lambda real: lambda n, r, shift=0: real(n, r, shift + 1),
        ("typeA.closed_equals_oracle", "signed_sums.type_a_power",
         "derangements.fixed_point_refinement")),
    # iterate reads these two from groups; oracle binds _parities and
    # _perm_parities apart, and groups._parities reads _perm_parities from
    # groups, so the kind-S tally sees the second one too
    "groups._class_windows drops the last window of each class": (
        groups, "_class_windows", _class_last_dropped,
        ("derangements.long_cycle_distribution",
         "bijections.cycle_standardization")),
    "groups._perm_parities flipped": (
        groups, "_perm_parities",
        lambda real: lambda n, shift=0: real(n, shift + 1),
        ("typeA.totals_and_class_additivity",)),
    "oracle.iterate's even filter keeps all": (
        oracle, "iterate", _even_filter_keeps_all,
        ("typeA.totals_and_class_additivity",)),
    _HALF_SUM_OFF: (
        closedforms, "half_sum_closed",
        _off_at({("aexc", 5, "minus"), ("bexc", 4, "plus")}, _S3T),
        ("gamma_calculus.product_center_addition",
         "gamma_calculus.derivative_center_shift",
         "gamma_calculus.monomial_multipliers_shift_center",
         "gamma_calculus.decompose_recompose_roundtrip",
         "typeA.closed_equals_oracle", "typeA.step_equals_half_sum",
         "typeA.palindromic_iff_odd_rank", "typeA.derivative_halving",
         "typeA.even_rank_two_term_split", "typeA.coefficient_triangle",
         "typeB.closed_equals_oracle", "typeB.step_equals_half_sum",
         "typeB.odd_rank_two_term_split", "typeD.bridge_to_typeB")),
    # the family table reads every class of aexc, bexc and dexc, and the
    # descent families, off _class_row, not through the Poly engines
    _CLASS_ROW_OFF: (
        closedforms, "_class_row",
        _row_off_at({("aexc", 4, "all"), ("aexc", 5, "minus"), ("bexc", 3, "all"),
                     ("bexc", 4, "plus"), ("dexc", 4, "plus"), ("dexc", 8, "plus")}),
        ("typeA.base_polynomials", "typeA.odd_rank_gamma_positive",
         "typeA.eulerian_recurrence_certified", "typeB.even_rank_gamma_positive",
         "typeB.eulerian_recurrence_certified", "typeD.base_polynomials",
         "typeD.even_rank_gamma_positive")),
    "closedforms.step_recurrence + s^3 t at (dexc, 4 and 8, plus), (aexc, 9, plus)": (
        closedforms, "step_recurrence",
        _off_at({("dexc", 4, "plus"), ("dexc", 8, "plus"), ("aexc", 9, "plus")},
                _S3T),
        ("typeA.step_equals_half_sum", "typeA.jump_equals_four_steps",
         "typeD.step_equals_oracle", "typeD.odd_rank_two_term_split",
         "typeD.jump_equals_four_steps")),
    _EULERIAN_OFF: (
        closedforms, "eulerian", _off_at({("A", 4), ("B", 3)}, _S3T),
        ("gamma_calculus.product_center_addition",
         "gamma_calculus.derivative_center_shift",
         "gamma_calculus.monomial_multipliers_shift_center",
         "gamma_calculus.decompose_recompose_roundtrip",
         "typeA.derivative_halving", "typeD.jump_equals_four_steps")),
    "closedforms.jump_tables L2, R2 + st": (
        closedforms, "jump_tables", _tables_l2_r2_off,
        ("typeA.jump_table_values", "typeD.jump_table_values")),
    # the family table reads the signed sums off their rows
    "closedforms._signed + st at m = 2": (
        closedforms, "_signed", _row_off_at({(2,)}),
        ("signed_sums.type_b_power",)),
    "closedforms._sgn_dexc_row + s^2 t at n = 3": (
        closedforms, "_sgn_dexc_row", _row_off_at({(3,)}),
        ("signed_sums.type_d_power",)),
    "closedforms.sgn_dexc_closed + st at n = 3": (
        closedforms, "sgn_dexc_closed", _off_at({(3,)}, _ST),
        ("signed_sums.type_d_fourth_power_jump",)),
    _PEEL_NEGATED: (
        poly, "_peel", _last_gamma_negated,
        ("gamma_calculus.product_center_addition",
         "gamma_calculus.derivative_center_shift",
         "gamma_calculus.monomial_multipliers_shift_center",
         "gamma_calculus.odd_length_split",
         "gamma_calculus.decompose_recompose_roundtrip",
         "typeA.base_polynomials", "typeA.odd_rank_gamma_positive",
         "typeA.even_rank_two_term_split", "typeA.jump_table_values",
         "typeB.even_rank_gamma_positive", "typeB.odd_rank_two_term_split",
         "typeD.base_polynomials", "typeD.even_rank_gamma_positive",
         "typeD.odd_rank_two_term_split", "typeD.jump_table_values",
         "typeD.jump_equals_four_steps",
         "derangements.gamma_positive_with_centers",
         "q_refined.inv_gamma_positive", "q_refined.cyc_gamma_positive")),
    # the signed binomial row feeds the signed sums and every class half
    _SIGNED_TOP_NEGATED: (
        closedforms, "_signed", _top_negated_at_3,
        ("signed_sums.type_a_power", "signed_sums.type_b_power",
         "signed_sums.type_b_descent_position",
         "typeA.closed_equals_oracle", "typeA.step_equals_half_sum",
         "typeA.derivative_halving", "typeA.even_rank_two_term_split",
         "typeA.coefficient_triangle", "typeA.totals_and_class_additivity",
         "typeB.closed_equals_oracle", "typeB.step_equals_half_sum",
         "typeB.odd_rank_two_term_split", "typeB.totals_and_class_additivity",
         "typeD.bridge_to_typeB")),
    "bijections.foata_fft returns the reversed word": (
        bijections, "foata_fft",
        lambda real: lambda w: Perm._trusted(real(w)[::-1]),
        ("bijections.fundamental_transform",
         "bijections.penultimate_to_front")),
    _FFT_SHIFTED: (
        bijections, "foata_fft",
        lambda real: lambda w: Perm._trusted(v + 1 for v in real(w)),
        ("bijections.fundamental_transform",
         "bijections.penultimate_to_front")),
    "bijections.foata_fft_inverse returns its input": (
        bijections, "foata_fft_inverse", lambda real: lambda w: Perm._trusted(w),
        ("bijections.fundamental_transform",
         "bijections.penultimate_to_front")),
    "bijections.swap_last_two returns its input": (
        bijections, "swap_last_two", lambda real: lambda w: w,
        ("bijections.swap_last_two_involution",)),
    "bijections.perm_to_long_cycle reads the reversed window": (
        bijections, "perm_to_long_cycle",
        lambda real: lambda w: real(tuple(w)[::-1]),
        ("bijections.long_cycle_correspondence",)),
    _LONG_CYCLE_SHIFTED: (
        bijections, "perm_to_long_cycle",
        lambda real: lambda w: Perm._trusted(v + 1 for v in real(w)),
        ("bijections.long_cycle_correspondence",)),
    _LONG_CYCLE_IDENTITY: (
        bijections, "perm_to_long_cycle",
        lambda real: lambda w: Perm._trusted(range(1, len(w) + 2)),
        ("bijections.long_cycle_correspondence",)),
    "bijections.standardize_cycle reverses its ranks": (
        bijections, "standardize_cycle", _ranks_reversed,
        ("bijections.cycle_standardization",)),
    _RANKS_REPEATED: (
        bijections, "standardize_cycle",
        lambda real: lambda entries: (1,) * len(tuple(entries)),
        ("bijections.cycle_standardization",)),
    "closedforms.set_partition_count + 1 at (2, 2)": (
        closedforms, "set_partition_count",
        lambda real: lambda lam: real(lam) + (tuple(lam) == (2, 2)),
        ("derangements.set_partition_counts",
         "derangements.conjugacy_product_formula")),
    "closedforms.eulerian_t + t at (A, 3)": (
        closedforms, "eulerian_t", _off_at({("A", 3)}, _T),
        ("derangements.long_cycle_distribution",)),
    "closedforms.derangement_closed + t at (4, all), no fixed count": (
        closedforms, "derangement_closed", _off_at({(4, "all")}, _T),
        ("q_refined.q1_collapse",)),
    "oracle._parities all zero": (
        oracle, "_parities",
        lambda real: lambda n, r, shift=0: bytes(len(bytes(real(n, r, shift)))),
        ("bijections.halving_consequence",)),
    "oracle._SIGNED_FORMS' des_b form + 1 at p = (2, 1)": (
        oracle, "_SIGNED_FORMS", _signed_form_off_at("des_b", (2, 1)),
        ("typeB.descent_excedance_equidistributed",
         "typeD.descent_restriction_equidistributed")),
    "oracle._SIGNED_FORMS' pos_n form + 1 at p = (1, 2)": (
        oracle, "_SIGNED_FORMS", _signed_form_off_at("pos_n", (1, 2)),
        ("signed_sums.type_b_descent_position",)),
    "oracle._SIGNED_FORMS' wkexc_b form + 1 at p = (2, 1)": (
        oracle, "_SIGNED_FORMS", _signed_form_off_at("wkexc_b", (2, 1)),
        ("typeB.weak_excedance_equidistribution",)),
    # checks binds _cycle_lengths and inv_b_negsum at import, so their
    # faults patch them there
    "checks._cycle_lengths reverses its order": (
        checks, "_cycle_lengths", lambda real: lambda w: real(w)[::-1],
        ("derangements.conjugacy_product_formula",)),
    "checks.inv_b_negsum + 1 at n = 2": (
        checks, "inv_b_negsum",
        lambda real: lambda w: real(w) + (len(w) == 2),
        ("typeB.inversion_variants_agree_mod_2",)),
}

# (fault id, check id) -> how the check's witness starts under the fault: a
# polynomial that breaks a claim's premise (no gamma expansion, a negative
# gamma in a split, an odd coefficient to halve) fails the claim at the
# sample, or the rank and class, that broke it
WITNESS_STARTS = {
    (_CLASS_ROW_OFF, "typeA.odd_rank_gamma_positive"): "n=5 minus: ",
    (_HALF_SUM_OFF, "gamma_calculus.decompose_recompose_roundtrip"):
        "sample 1: ",
    (_EULERIAN_OFF, "typeA.derivative_halving"): "n=4 half the whole: ",
    (_PEEL_NEGATED, "gamma_calculus.odd_length_split"): "sample 0: ",
    (_PEEL_NEGATED, "typeA.even_rank_two_term_split"): "n=4 plus split: ",
    (_PEEL_NEGATED, "typeB.odd_rank_two_term_split"): "n=3 plus split: ",
    (_PEEL_NEGATED, "typeD.odd_rank_two_term_split"): "n=5 plus split: ",
    # an image outside S_n fails the letters test before the inverse reads it
    (_FFT_SHIFTED, "bijections.fundamental_transform"): "1: [2] != [1]",
    (_FFT_SHIFTED, "bijections.penultimate_to_front"): "2,1: (2, [2, 2]) != ",
    (_LONG_CYCLE_SHIFTED, "bijections.long_cycle_correspondence"):
        "1: [2, 3] != [1, 2]",
    # an image off the codomain fails before the inverse or exc reads it
    (_LONG_CYCLE_IDENTITY, "bijections.long_cycle_correspondence"):
        "1: (1, 1) != (2,)",
    (_RANKS_REPEATED, "bijections.cycle_standardization"):
        "(1, 2): [1, 1] != [1, 2]",
}

# Checks that no fault above names yet: a check leaves it when a fault that
# makes it fail joins FAULTS, and a new check joins FAULTS with its fault.
NOT_YET_FAULTED = ()


def _results(check_ids):
    """Run the suites holding ``check_ids``: check id -> CheckResult."""
    suites = dict.fromkeys(check_id.split(".")[0] for check_id in check_ids)
    return {r.check_id: r for suite in suites for r in run_suite(suite, LIMITS)}


@pytest.mark.parametrize("fault_id", FAULTS)
def test_fault_fails_its_checks(monkeypatch, fault_id):
    module, name, fault, check_ids = FAULTS[fault_id]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    results = _results(check_ids)
    for check_id in check_ids:
        result = results[check_id]
        assert (result.status, bool(result.witness)) == ("fail", True), result
        assert result.witness.startswith(
            WITNESS_STARTS.get((fault_id, check_id), "")), result


def test_suites_pass_without_faults():
    check_ids = [i for *_, ids in FAULTS.values() for i in ids]
    assert {r.status for r in _results(check_ids).values()} == {"pass"}


def test_every_check_is_faulted_or_listed_as_not_yet():
    faulted = {i for *_, ids in FAULTS.values() for i in ids}
    listed = set(NOT_YET_FAULTED)
    assert len(listed) == len(NOT_YET_FAULTED)
    assert faulted & listed == set()
    assert faulted | listed == {c.check_id for c in checks.REGISTRY}
