import collections
import contextlib
import csv
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from gammaexc import checks, closedforms, groups, oracle
from gammaexc.checks import Check, REGISTRY, VerifyLimits, run_suite
from gammaexc.cli import main
from gammaexc.groups import BudgetExceeded, GroupSpec, Perm
from gammaexc.poly import Poly

# Frozen manifest: every registered check, in registration order.  A check
# may only be added or renamed together with this list.
EXPECTED_CHECK_IDS = (
    "gamma_calculus.product_center_addition",
    "gamma_calculus.derivative_center_shift",
    "gamma_calculus.monomial_multipliers_shift_center",
    "gamma_calculus.odd_length_split",
    "gamma_calculus.decompose_recompose_roundtrip",
    "typeA.eulerian_recurrence_certified",
    "typeA.closed_equals_oracle",
    "typeA.step_equals_half_sum",
    "typeA.palindromic_iff_odd_rank",
    "typeA.derivative_halving",
    "typeA.base_polynomials",
    "typeA.odd_rank_gamma_positive",
    "typeA.even_rank_two_term_split",
    "typeA.coefficient_triangle",
    "typeA.jump_table_values",
    "typeA.jump_equals_four_steps",
    "typeA.totals_and_class_additivity",
    "typeB.eulerian_recurrence_certified",
    "typeB.closed_equals_oracle",
    "typeB.step_equals_half_sum",
    "typeB.descent_excedance_equidistributed",
    "typeB.weak_excedance_equidistribution",
    "typeB.even_rank_gamma_positive",
    "typeB.odd_rank_two_term_split",
    "typeB.inversion_variants_agree_mod_2",
    "typeB.totals_and_class_additivity",
    "typeD.bridge_to_typeB",
    "typeD.step_equals_oracle",
    "typeD.descent_restriction_equidistributed",
    "typeD.base_polynomials",
    "typeD.even_rank_gamma_positive",
    "typeD.odd_rank_two_term_split",
    "typeD.jump_table_values",
    "typeD.jump_equals_four_steps",
    "typeD.totals_and_class_additivity",
    "signed_sums.type_a_power",
    "signed_sums.type_b_power",
    "signed_sums.type_b_descent_position",
    "signed_sums.type_d_power",
    "signed_sums.type_d_fourth_power_jump",
    "derangements.long_cycle_distribution",
    "derangements.conjugacy_product_formula",
    "derangements.fixed_point_refinement",
    "derangements.gamma_positive_with_centers",
    "derangements.set_partition_counts",
    "bijections.fundamental_transform",
    "bijections.penultimate_to_front",
    "bijections.swap_last_two_involution",
    "bijections.halving_consequence",
    "bijections.long_cycle_correspondence",
    "bijections.cycle_standardization",
    "q_refined.inv_gamma_positive",
    "q_refined.cyc_gamma_positive",
    "q_refined.q1_collapse",
)


class TestRegistry:
    def test_manifest_complete(self):
        assert tuple(c.check_id for c in REGISTRY) == EXPECTED_CHECK_IDS

    def test_ids_unique(self):
        ids = [c.check_id for c in REGISTRY]
        assert len(set(ids)) == len(ids)

    def test_every_check_has_a_claim_and_suite(self):
        for check in REGISTRY:
            assert check.suite in checks.SUITES
            assert len(check.claim) > 20

    def test_every_suite_nonempty(self):
        for suite in checks.SUITES:
            assert any(c.suite == suite for c in REGISTRY), suite


class TestRunSuite:
    def test_trivial_range_all_pass_quickly(self):
        import time

        start = time.perf_counter()
        results = run_suite("all", VerifyLimits(max_n_a=2, max_n_b=2, max_n_d=2))
        elapsed = time.perf_counter() - start
        assert all(r.status == "pass" for r in results)
        assert elapsed < 1.0

    def test_single_suite_selection(self):
        results = run_suite("bijections",
                            VerifyLimits(max_n_a=4, max_n_b=2, max_n_d=2))
        assert {r.suite for r in results} == {"bijections"}
        assert all(r.status == "pass" for r in results)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_results_in_registry_order(self):
        results = run_suite("gamma_calculus", VerifyLimits(2, 2, 2))
        expected = [c.check_id for c in REGISTRY if c.suite == "gamma_calculus"]
        assert [r.check_id for r in results] == expected

    def test_budget_skip_carries_reason(self):
        limits = VerifyLimits(max_n_a=3, max_n_b=9, max_n_d=2, budget=10_000)
        results = run_suite("typeB", limits)
        skipped = [r for r in results if r.status == "skipped"]
        assert skipped, "expected budget-bound checks to be skipped"
        assert all("budget" in r.witness for r in skipped)
        assert not [r for r in results if r.status == "fail"]

    def test_fail_path_carries_witness(self):
        doomed = Check("tmp.always_fails", "typeA", "a deliberately failing probe",
                       _raises(checks.Mismatch("left 1 != right 2")))
        REGISTRY.append(doomed)
        try:
            results = run_suite("typeA", VerifyLimits(2, 2, 2))
            bad = [r for r in results if r.check_id == "tmp.always_fails"]
            assert len(bad) == 1
            assert (bad[0].status, bad[0].n_range) == ("fail", "-")
            assert "1 != right 2" in bad[0].witness
        finally:
            REGISTRY.remove(doomed)


def _raises(exc):
    def check(limits):
        raise exc

    return check


class TestRanks:
    """A check over ranks runs its body at n = lo..top in order and reports
    the range that ran."""

    def _run(self, monkeypatch, body, max_n_a):
        monkeypatch.setattr(checks, "REGISTRY", [])
        checks._register("typeA.tmp_ranked", "a temporary check over ranks",
                         ranks=(2, lambda lim: lim.max_n_a))(body)
        result, = run_suite("typeA", VerifyLimits(max_n_a, 2, 2))
        return result

    def test_body_sees_each_rank_in_order(self, monkeypatch):
        seen = []
        result = self._run(monkeypatch, lambda limits, n: seen.append(n), 4)
        assert seen == [2, 3, 4]
        assert (result.status, result.n_range) == ("pass", "n=2..4")

    def test_empty_range_never_runs_the_body(self, monkeypatch):
        seen = []
        result = self._run(monkeypatch, lambda limits, n: seen.append(n), 1)
        assert seen == []
        assert (result.status, result.n_range) == ("pass", "n=(empty)")

    def test_mismatch_stops_at_its_rank(self, monkeypatch):
        seen = []

        def body(limits, n):
            seen.append(n)
            checks._same(f"n={n}", n, 2)

        result = self._run(monkeypatch, body, 4)
        assert seen == [2, 3]
        assert (result.status, result.n_range, result.witness) == (
            "fail", "-", "n=3: 3 != 2")


_ERRORING = [
    Check("tmp.passes", "typeA", "a passing probe",
          lambda limits: "n=1..1"),
    Check("tmp.value_error", "typeA", "a probe that raises",
          _raises(ValueError("coefficient 3 is odd"))),
    Check("tmp.assertion", "typeB", "a probe that asserts",
          _raises(AssertionError("peel left a remainder"))),
]


class TestErroringChecks:
    def test_run_suite_reports_errors_and_keeps_going(self, monkeypatch):
        monkeypatch.setattr(checks, "REGISTRY", _ERRORING)
        results = run_suite("all", VerifyLimits(2, 2, 2))
        assert [(r.check_id, r.status, r.witness) for r in results] == [
            ("tmp.passes", "pass", None),
            ("tmp.value_error", "error", "ValueError: coefficient 3 is odd"),
            ("tmp.assertion", "error", "AssertionError: peel left a remainder"),
        ]

    def test_cli_prints_errors_as_failures(self, monkeypatch):
        monkeypatch.setattr(checks, "REGISTRY", _ERRORING)
        code, out, err = _run_cli(["verify", "--suite", "all"])
        assert (code, err) == (1, "")
        assert out == (
            "PASS    tmp.passes  (n=1..1)\n"
            "ERROR   tmp.value_error  (-)\n"
            "        witness: ValueError: coefficient 3 is odd\n"
            "ERROR   tmp.assertion  (-)\n"
            "        witness: AssertionError: peel left a remainder\n"
            "1 passed, 2 failed, 0 skipped\n"
        )


@pytest.fixture
def wrong_aexc3_minus(monkeypatch):
    """A half-sum closed form that is off by st at (aexc, 3, minus) only."""
    real = closedforms.half_sum_closed

    def half_sum_closed(family, n, cls):
        f = real(family, n, cls)
        if (family, n, cls) == ("aexc", 3, "minus"):
            f = f + Poly.variable("s") * Poly.variable("t")
        return f

    monkeypatch.setattr(closedforms, "half_sum_closed", half_sum_closed)


class TestFailingTheorem:
    def test_run_suite_reports_fail_with_witness(self, wrong_aexc3_minus):
        results = {r.check_id: r
                   for r in run_suite("typeA", VerifyLimits(4, 4, 4))}
        broken = results["typeA.closed_equals_oracle"]
        assert (broken.status, broken.n_range) == ("fail", "-")
        assert broken.witness == "n=3 minus: 4*s*t != 3*s*t"
        unaffected = ("typeA.eulerian_recurrence_certified",
                      "typeA.palindromic_iff_odd_rank",
                      "typeA.base_polynomials",
                      "typeA.odd_rank_gamma_positive",
                      "typeA.jump_table_values",
                      "typeA.jump_equals_four_steps",
                      "typeA.totals_and_class_additivity")
        assert {results[i].status for i in unaffected} == {"pass"}
        assert {r.status for r in results.values()} == {"pass", "fail"}

    def test_cli_exits_one(self, wrong_aexc3_minus):
        code, out, err = _run_cli(["verify", "--suite", "typeA", "--max-n", "4"])
        assert (code, err) == (1, "")
        assert ("FAIL    typeA.closed_equals_oracle  (-)\n"
                "        witness: n=3 minus: 4*s*t != 3*s*t\n") in out
        assert "PASS    typeA.totals_and_class_additivity  (n=2..4)\n" in out


class TestOnePassHalves:
    """The checks that read both length halves from one pass can still fail."""

    def test_additivity_sees_a_parity_filter_that_keeps_everything(
            self, monkeypatch):
        # a run reads a signed spec's half off the class rule
        real = oracle._kept_classes

        def even_keeps_all(spec):
            if spec.parity == "even":
                spec = GroupSpec(spec.kind, spec.n, "all")
            return real(spec)

        monkeypatch.setattr(oracle, "_kept_classes", even_keeps_all)
        results = {r.check_id: r
                   for r in run_suite("typeB", VerifyLimits(4, 4, 4))}
        broken = results["typeB.totals_and_class_additivity"]
        assert broken.status == "fail"
        assert broken.witness.startswith("n=1 additivity: ")
        # halves from one pass never read the filter
        assert results["typeB.closed_equals_oracle"].status == "pass"

    def test_swapped_halves_fail(self, monkeypatch):
        real = oracle.length_halves
        monkeypatch.setattr(oracle, "length_halves",
                            lambda *args, **kwargs: real(*args, **kwargs)[::-1])
        results = {r.check_id: r for suite in ("typeA", "derangements")
                   for r in run_suite(suite, VerifyLimits(4, 4, 4))}
        assert (results["typeA.closed_equals_oracle"].status,
                results["typeA.closed_equals_oracle"].witness) == (
            "fail", "n=2 plus: s != t")
        assert (results["derangements.fixed_point_refinement"].status,
                results["derangements.fixed_point_refinement"].witness) == (
            "fail", "n=1 i=1 plus: 0 != 1")


MEMO_LIMITS = VerifyLimits(5, 4, 4)


def _outcomes(results):
    return [(r.check_id, r.status, r.n_range, r.witness) for r in results]


class TestRunMemo:
    """One run asks the oracle each question once, and keeps the answers to
    itself: the next run, another thread and a caller outside a run
    enumerate afresh."""

    def test_a_run_reports_what_each_check_finds_alone(self):
        alone = [(c.check_id, "pass", c.func(MEMO_LIMITS), None) for c in REGISTRY]
        assert _outcomes(run_suite("all", MEMO_LIMITS)) == alone

    def test_a_run_enumerates_each_question_once(self, monkeypatch):
        asked, real = collections.Counter(), oracle._signed_tally

        def counting(spec, bases, windows, parity):
            asked[spec, tuple(bases)] += 1  # bases: name -> kernel form
            return real(spec, bases, windows, parity)

        monkeypatch.setattr(oracle, "_signed_tally", counting)
        run_suite("typeD", MEMO_LIMITS)
        assert asked and set(asked.values()) == {1}
        run_suite("typeD", MEMO_LIMITS)
        assert set(asked.values()) == {2}

    def test_a_fault_patched_between_runs_fails_the_second(self, monkeypatch):
        assert {r.status for r in run_suite("typeA", MEMO_LIMITS)} == {"pass"}
        real = oracle._parities
        monkeypatch.setattr(oracle, "_parities",
                            lambda n, r, shift=0: real(n, r, shift + 1))
        results = {r.check_id: r for r in run_suite("typeA", MEMO_LIMITS)}
        assert results["typeA.closed_equals_oracle"].status == "fail"

    def test_a_refused_request_is_refused_again(self, monkeypatch):
        spec, weight = GroupSpec("B", 4), oracle.BEXC_WEIGHT
        walks, real = [], oracle._signed_tally
        monkeypatch.setattr(oracle, "_signed_tally",
                            lambda *args: walks.append(args[0]) or real(*args))
        with oracle.kernel_memo():
            whole = oracle.dist_poly(spec, weight, budget=None)
            assert oracle.dist_poly(spec, weight, budget=None) == whole
            assert walks == [spec]  # the repeat refolds the stored tally
            for _ in range(2):  # a smaller budget is another question
                with pytest.raises(BudgetExceeded):
                    oracle.dist_poly(spec, weight, budget=10)
        assert oracle.dist_poly(spec, weight, budget=None) == whole
        assert walks == [spec, spec]  # outside the block it walks afresh

    def test_requests_sharing_a_tally_answer_as_alone_in_any_order(self):
        # per group, requests whose weights read the same bases: the whole,
        # its halves, signed sums, a pos_n slice and the derangements
        requests = []
        for spec, weight, sign in ((GroupSpec("S", 5), oracle.AEXC_WEIGHT, "inv"),
                                   (GroupSpec("B", 4), oracle.BEXC_WEIGHT, "inv_b"),
                                   (GroupSpec("D", 4), oracle.DEXC_WEIGHT, "inv_d")):
            signed = oracle.WeightSpec(weight.exponents, sign_stat=sign)
            partial = oracle.WeightSpec(weight.exponents[1:])  # one variable
            halves = [GroupSpec(spec.kind, spec.n, p) for p in ("even", "odd")]
            requests.append([
                *((oracle.dist_poly, s, w) for s in [spec, *halves]
                  for w in (weight, signed, partial)),
                (oracle.length_halves, spec, weight),
                (oracle.length_halves, spec, signed)])
        requests[0] += [
            (ask, GroupSpec("S", 5, **refine), oracle.T_EXC_WEIGHT)
            for refine in ({"pos_n": 2}, {"fixed_points": 0})
            for ask in (oracle.dist_poly, oracle.length_halves)]
        for group in requests:
            alone = {r: r[0](*r[1:]) for r in group}
            for order in (group, group[::-1], *itertools.permutations(group, 2)):
                with oracle.kernel_memo():
                    assert [r[0](*r[1:]) for r in order] == [alone[r] for r in order]

    def test_a_run_reads_exc_over_each_window_of_s8_once(self, monkeypatch):
        # the type-A, derangement and Foata checks each get S_8's exc column
        # summed off its window bytes, reading no window one by one; the only
        # S_8 windows read for exc are the n-cycles, streamed once for their
        # own class's spec
        reads, form = collections.Counter(), oracle._A_STREAMS[groups.exc]
        builds, positional = collections.Counter(), oracle._positional

        def counting(windows, n):
            return form(map(lambda w: reads.update((tuple(w),)) or w, windows), n)

        def building(flat, n, pred):
            builds[n, pred] += 1
            return positional(flat, n, pred)

        monkeypatch.setitem(oracle._A_STREAMS, groups.exc, counting)
        monkeypatch.setattr(oracle, "_positional", building)
        run_suite("all")
        assert builds[8, oracle._POSITIONAL[groups.exc]] > 0
        perms = itertools.permutations(range(1, 9))
        assert {w: k for w, k in reads.items() if len(w) == 8} == {
            w: 1 for w in perms if groups._cycle_lengths(w) == (8,)}

    def test_a_run_reads_a_patched_exc_per_window(self, monkeypatch):
        # a statistic that is not the one keyed in _POSITIONAL and
        # _A_STREAMS is mapped as it is, over every window
        reads, real = collections.Counter(), groups.exc
        monkeypatch.setitem(oracle.A_STATISTICS, "exc",
                            lambda w: reads.update((tuple(w),)) or real(w))
        spec = GroupSpec("S", 6)
        with oracle.kernel_memo():
            got = oracle.dist_poly(spec, oracle.AEXC_WEIGHT)
        assert reads == dict.fromkeys(itertools.permutations(range(1, 7)), 1)
        assert got == oracle._weighted_sum(oracle.iterate(spec), oracle.AEXC_WEIGHT, "S")

    def test_a_run_holds_tallies_and_signature_counts_only(self):
        # kind-S requests, whole and filtered, the checks' exc columns and
        # every signed domain leave no column, window bytes or per-spec dict
        fixed = oracle.WeightSpec((("t", "exc", 0), ("q", "fixed_points", 0)))
        with oracle.kernel_memo():
            for n in range(1, 6):
                whole = GroupSpec("S", n)
                oracle.length_halves(whole, fixed)
                oracle.dist_poly(GroupSpec("S", n, "odd"), oracle.AEXC_WEIGHT)
                oracle.dist_poly(GroupSpec("S", n, fixed_points=0), oracle.T_EXC_WEIGHT)
                for spec in (whole, GroupSpec("S", n, cycle_type=(n,))):
                    for stat in (groups.exc, groups.fixed_points):
                        assert [*oracle._column(spec, stat)] == [
                            *map(stat, groups.iterate(spec, by_permutation=True))]
                self._ask_every_signed_domain(n)
            memo = oracle._MEMO.get()
        assert {type(value) for value in memo.values()} == {list, collections.Counter}
        for key, value in memo.items():
            if type(value) is collections.Counter:  # (n, forms) -> signatures
                n, forms = key
                assert type(n) is int and all(map(callable, forms)), key
            else:  # (spec, budget, base names, parity carried) -> entries
                spec, budget, names, parity = key
                assert type(spec) is GroupSpec and type(parity) is bool, key
                assert all(type(name) is str for name in names), key
                assert {type(entry) for entry in value} <= {tuple}, key

    def test_a_run_builds_no_class_mask_for_a_signed_kernel_call(self, monkeypatch):
        # the masks of _signed_windows_by_permutation are product(..., repeat=n)
        masks, real = [], groups.product

        def product(*args, **kwargs):
            if "repeat" in kwargs:
                masks.append(kwargs["repeat"])
            return real(*args, **kwargs)

        monkeypatch.setattr(groups, "product", product)
        with oracle.kernel_memo():
            for spec in self._signed_specs(5):
                oracle.dist_poly(spec, oracle.BEXC_WEIGHT)
        assert masks == []
        oracle.dist_poly(GroupSpec("B", 5), oracle.BEXC_WEIGHT)  # a bare call reads them
        assert masks == [5, 5]

    def test_length_halves_then_the_whole_walk_once(self, monkeypatch):
        walks = collections.Counter()
        for name in ("_type_a_tally", "_signed_tally"):
            def counting(spec, *args, real=getattr(oracle, name)):
                walks[spec] += 1
                return real(spec, *args)

            monkeypatch.setattr(oracle, name, counting)
        with oracle.kernel_memo():
            for spec, weight in ((GroupSpec("S", 5), oracle.AEXC_WEIGHT),
                                 (GroupSpec("B", 4), oracle.BEXC_WEIGHT),
                                 (GroupSpec("D", 4), oracle.DEXC_WEIGHT)):
                even, odd = oracle.length_halves(spec, weight)
                assert oracle.dist_poly(spec, weight) == even + odd
        assert walks == dict.fromkeys(walks, 1) and len(walks) == 3

    @staticmethod
    def _signed_specs(n):
        return [*(GroupSpec(kind, n, parity) for kind in "BD"
                  for parity in ("all", "even", "odd")), GroupSpec("B-D", n)]

    @staticmethod
    def _count_form_calls(monkeypatch):
        """Counts each kernel form's calls per (its first name, p), with one
        counting wrapper per form object, so D_n's forms stay B_n's."""
        calls, forms, wrappers = collections.Counter(), oracle._SIGNED_FORMS, {}

        def counted(name, form):
            def counting(p):
                calls[name, p] += 1
                return form(p)

            return counting

        for name, form in forms.items():
            wrappers.setdefault(form, counted(name, form))
        monkeypatch.setattr(oracle, "_SIGNED_FORMS",
                            {name: wrappers[form] for name, form in forms.items()})
        return calls

    def _ask_every_signed_domain(self, n):
        for spec in self._signed_specs(n):
            for weight in (oracle.BEXC_WEIGHT, oracle.DEXC_WEIGHT, oracle.BDES_WEIGHT):
                for sign in (None, "inv_b", "inv_d"):
                    oracle.dist_poly(spec, oracle.WeightSpec(weight.exponents, sign))
            if spec.parity == "all" and spec.kind != "B-D":
                oracle.length_halves(spec, oracle.DEXC_WEIGHT)

    def test_a_run_computes_each_signature_once(self, monkeypatch):
        # B_4, its halves, D_4, its halves and B-D_4 share exc_b's form
        # (exc_d is the same object) and read des_b's apart
        calls = self._count_form_calls(monkeypatch)
        with oracle.kernel_memo():
            self._ask_every_signed_domain(4)
        perms = list(itertools.permutations(range(1, 5)))
        assert calls == {(name, p): 1 for name in ("exc_b", "des_b") for p in perms}
        calls.clear()
        self._ask_every_signed_domain(4)  # outside a run every walk computes
        assert set(calls) == {(name, p) for name in ("exc_b", "des_b") for p in perms}
        assert min(calls.values()) > 1

    def test_a_run_pulls_no_signed_window(self, monkeypatch):
        # every signed domain of a run is read off its signature counts
        pulled, real = collections.Counter(), oracle.iterate  # windows, per kind
        monkeypatch.setattr(oracle, "iterate", lambda spec, *args, **kwargs: map(
            lambda w: pulled.update((spec.kind,)) or w, real(spec, *args, **kwargs)))
        run_suite("all")
        assert set(pulled) == {"S"}

    def test_a_run_asking_every_signed_domain_holds_little(self):
        # a run at n = 4 makes the one-time allocations, and a full
        # collection empties the free lists, so the trace reads the same in
        # any test order: a run at n = 6 peaks at about 87 KB (CPython
        # 3.11); holding each p's signature in n! slots and each walk's
        # blocks peaked at about 324 KB
        import gc
        import tracemalloc

        with oracle.kernel_memo():
            self._ask_every_signed_domain(4)
        gc.collect()
        tracemalloc.start()
        try:
            with oracle.kernel_memo():
                self._ask_every_signed_domain(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_blocks_out_of_lexicographic_order_answer_as_alone(self, monkeypatch):
        requests = [(spec, weight) for n in range(5) for spec in self._signed_specs(n)
                    for weight in (oracle.BEXC_WEIGHT, oracle.DEXC_WEIGHT)]
        alone = [oracle.dist_poly(spec, weight) for spec, weight in requests]
        real = oracle.iterate

        def reordered(spec, budget, by_permutation):
            # the odd-numbered blocks in order, then the even-numbered ones
            # backwards: a bare call meets each p's blocks apart (a run
            # reads no window)
            windows = [*real(spec, budget, by_permutation=by_permutation)]
            size = 2 ** max(spec.n - 1, 0)
            blocks = [windows[i:i + size] for i in range(0, len(windows), size)]
            return itertools.chain.from_iterable(blocks[1::2] + blocks[::2][::-1])

        monkeypatch.setattr(oracle, "iterate", reordered)
        assert [oracle.dist_poly(spec, weight) for spec, weight in requests] == alone
        with oracle.kernel_memo():
            assert [oracle.dist_poly(s, w) for s, w in requests] == alone

    def test_every_signed_request_in_one_run_equals_the_reference_sum(self):
        weights = [oracle.WeightSpec((("t", stat, 0),))
                   for stat in oracle.SIGNED_STATISTICS]
        weights += [oracle.WeightSpec(weight.exponents, sign)
                    for weight in (oracle.BEXC_WEIGHT, oracle.BDES_WEIGHT,
                                   oracle.DEXC_WEIGHT, oracle.SGNB_WEIGHT)
                    for sign in (None, "inv_b", "inv_d")]
        with oracle.kernel_memo():
            for n in range(5):
                for spec in self._signed_specs(n):
                    for weight in weights:
                        want = oracle._weighted_sum(oracle.iterate(spec, budget=None),
                                                    weight, spec.kind)
                        assert oracle.dist_poly(spec, weight) == want, (spec, weight)

    def test_a_statistic_free_weight_answers_at_every_rank_in_either_order(self):
        # a weight reading no statistic has the same (empty) set of forms at
        # every rank, so a run must keep the signatures it holds per rank
        requests = [(spec, oracle.WeightSpec((), sign))
                    for n in range(1, 5) for spec in self._signed_specs(n)
                    for sign in (None, "inv_b", "inv_d")]
        alone = {request: oracle.dist_poly(*request) for request in requests}
        for order in (requests, requests[::-1]):
            with oracle.kernel_memo():
                assert [oracle.dist_poly(*r) for r in order] == [alone[r] for r in order]

    def test_threads_keep_their_own_runs(self):
        want = _outcomes(run_suite("typeD", MEMO_LIMITS))
        got, outside = [None, None], []

        def run(i):
            got[i] = _outcomes(run_suite("typeD", MEMO_LIMITS))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        spec, weight = GroupSpec("D", 3), oracle.DEXC_WEIGHT
        interval, deadline = sys.getswitchinterval(), time.monotonic() + 120
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            while True:  # a third caller, outside any run, while the runs go on
                first, again = (oracle.dist_poly(spec, weight) for _ in range(2))
                outside.append((oracle._MEMO.get(), first is again, first == again))
                if not any(t.is_alive() for t in threads) or time.monotonic() > deadline:
                    break
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want, want]
        assert outside and set(outside) == {(None, False, True)}


def test_a_walked_signed_domain_answers_other_forms_without_a_window(monkeypatch):
    spec = GroupSpec("B", 4)
    weights = (oracle.BDES_WEIGHT, oracle.SGNB_WEIGHT,
               oracle.WeightSpec(oracle.BEXC_WEIGHT.exponents, "inv_b"))
    alone = [oracle.dist_poly(spec, weight) for weight in weights]
    pulled, real = collections.Counter(), oracle.iterate  # windows pulled, per spec
    monkeypatch.setattr(oracle, "iterate", lambda spec, *args, **kwargs: map(
        lambda w: pulled.update((spec,)) or w, real(spec, *args, **kwargs)))
    with oracle.kernel_memo():
        oracle.dist_poly(spec, oracle.BEXC_WEIGHT)
        assert not pulled  # a run reads the signature counts, not the windows
        assert [oracle.dist_poly(spec, weight) for weight in weights] == alone
        assert oracle.length_halves(spec, oracle.BDES_WEIGHT) == (
            oracle.dist_poly(GroupSpec("B", 4, "even"), oracle.BDES_WEIGHT),
            oracle.dist_poly(GroupSpec("B", 4, "odd"), oracle.BDES_WEIGHT))
        assert not pulled  # nor do the half specs


def test_a_held_signed_domain_still_refuses_a_smaller_budget():
    spec = GroupSpec("D", 4)
    with oracle.kernel_memo():
        oracle.dist_poly(spec, oracle.DEXC_WEIGHT, budget=None)
        for weight in (oracle.DEXC_WEIGHT, oracle.BDES_WEIGHT):
            with pytest.raises(BudgetExceeded):
                oracle.dist_poly(spec, weight, budget=10)


class _Capture(io.StringIO):
    pass


def _run_cli(argv):
    import contextlib

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCli:
    def test_compute_dexc6_plus(self):
        code, out, _ = _run_cli(["compute", "--family", "dexc", "--n", "6",
                                 "--class", "plus"])
        assert code == 0
        assert out == ("s^6 + 176*s^5*t + 2647*s^4*t^2 + 5872*s^3*t^3"
                       " + 2647*s^2*t^4 + 176*s*t^5 + t^6\n")

    def test_compute_engines_agree(self):
        base = ["compute", "--family", "bexc", "--n", "3", "--class", "minus"]
        _, closed_out, _ = _run_cli(base + ["--engine", "closed"])
        _, oracle_out, _ = _run_cli(base + ["--engine", "oracle"])
        assert closed_out == oracle_out

    def test_compute_json(self):
        code, out, _ = _run_cli(["compute", "--family", "aexc", "--n", "2",
                                 "--class", "plus", "--format", "json"])
        assert code == 0
        blob = json.loads(out)
        assert blob == {"vars": ["s", "t"],
                        "terms": [{"exp": [1, 0], "coeff": "1"}]}

    def test_compute_deterministic(self):
        argv = ["compute", "--family", "aderexc", "--n", "6"]
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first == second

    def test_gamma_aexc7_minus(self):
        code, out, _ = _run_cli(["gamma", "--family", "aexc", "--n", "7",
                                 "--class", "minus"])
        assert code == 0
        assert out == "gamma=[63, 336, 168] r=1 n=6 cos=3\n"

    def test_gamma_not_palindromic_witness(self):
        code, out, _ = _run_cli(["gamma", "--family", "aexc", "--n", "4",
                                 "--class", "plus", "--mode", "uni",
                                 "--engine", "oracle"])
        assert code == 0
        assert "not palindromic" in out

    def test_gamma_q_mode(self):
        code, out, _ = _run_cli(["gamma", "--family", "qrefined", "--n", "3",
                                 "--class", "plus", "--stat", "cyc",
                                 "--engine", "oracle", "--format", "json"])
        assert code == 0
        blob = json.loads(out)
        assert blob["mode"] == "q_coefficients"
        assert blob["gammas"] == [["0", "1"]]

    @pytest.mark.parametrize("engine", [[], ["--engine", "closed"],
                                        ["--engine", "oracle"]])
    def test_conjexc_lambda_must_partition_n(self, engine):
        code, out, err = _run_cli(["compute", "--family", "conjexc", "--n", "5",
                                   "--lambda", "2,2"] + engine)
        assert (code, out, err) == (2, "", "error: 2,2 is not a partition of 5\n")

    def test_conjugacy(self):
        code, out, _ = _run_cli(["conjugacy", "--lambda", "2,2"])
        assert code == 0
        assert out == "3*t^2\n"
        code, oracle_out, _ = _run_cli(["conjugacy", "--lambda", "2,2",
                                        "--engine", "oracle"])
        assert oracle_out == out

    def test_verify_exit_zero(self):
        code, out, _ = _run_cli(["verify", "--suite", "gamma_calculus",
                                 "--max-n", "3"])
        assert code == 0
        assert "0 failed" in out
        assert out.count("PASS") == 5

    def test_verify_budget_skips(self):
        code, out, _ = _run_cli(["verify", "--suite", "typeB", "--max-n", "9",
                                 "--budget", "10000"])
        assert code == 0
        assert "SKIPPED" in out.upper() or "skipped" in out

    def test_table_csv(self):
        code, out, _ = _run_cli(["table", "--family", "aexc", "--class",
                                 "plus", "--n-range", "4..5", "--out", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("family,class,n,k,coeff,gamma_index,gamma_value,"
                            "cos,gamma_positive")
        assert "aexc,plus,5,0,1,0,1,2,true" in lines
        # rank 4 rows exist but carry no gamma data (not palindromic)
        rank4 = [line for line in lines[1:] if line.startswith("aexc,plus,4")]
        assert rank4 and all(line.endswith(",,") for line in rank4)

    def test_table_json(self):
        code, out, _ = _run_cli(["table", "--family", "dexc", "--class",
                                 "minus", "--n-range", "4..4", "--out", "json"])
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["coefficients"] == ["0", "20", "56", "20"]
        assert rows[0]["gammas"] == ["20", "16"]
        assert rows[0]["gamma_positive"] is True

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["compute", "--family", "not_a_family", "--n", "3"])
        assert err.value.code == 2

    def test_table_has_no_format_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["table", "--family", "aexc", "--class", "plus",
                  "--n-range", "2..3", "--format", "json"])
        assert err.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_verify_has_one_cap_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--max-n-a", "3"])
        assert err.value.code == 2
        assert "unrecognized arguments: --max-n-a 3" in capsys.readouterr().err

    def test_semantic_error_exit_2(self):
        code, _, err = _run_cli(["compute", "--family", "bdexc", "--n", "3",
                                 "--class", "plus"])
        assert code == 2
        assert "error:" in err
        code, _, err = _run_cli(["compute", "--family", "qrefined", "--n", "3",
                                 "--engine", "closed", "--stat", "inv"])
        assert code == 2
        code, _, err = _run_cli(["compute", "--family", "aexc", "--n", "9",
                                 "--budget", "100", "--engine", "oracle"])
        assert code == 2

    def test_failed_integrity_check_exits_1(self, monkeypatch):
        # an odd coefficient to halve signals a bug upstream, not bad input
        real = closedforms._signed
        monkeypatch.setattr(closedforms, "_signed",
                            lambda m: [(row := real(m))[0], row[1] + 1, *row[2:]])
        assert _run_cli(["compute", "--family", "aexc", "--class", "plus",
                         "--n", "6"]) == (1, "", "error: coefficient 53 at t^1 is odd\n")


class TestCliExtras:
    def test_compute_fixed_points_family(self):
        code, out, _ = _run_cli(["compute", "--family", "aderexc", "--n", "6",
                                 "--fixed", "2"])
        assert code == 0
        assert out == "15*t + 105*t^2 + 15*t^3\n"

    def test_gamma_univariate_mode_specializes(self):
        code, out, _ = _run_cli(["gamma", "--family", "bexc", "--n", "4",
                                 "--class", "plus", "--mode", "uni"])
        assert code == 0
        assert out == "gamma=[1, 32, 48] r=0 n=4 cos=2\n"

    def test_table_qrefined_json(self):
        code, out, _ = _run_cli(["table", "--family", "qrefined", "--stat",
                                 "cyc", "--class", "plus", "--n-range",
                                 "3..3", "--out", "json"])
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["gammas"] == [["0", "1"]]
        assert rows[0]["gamma_positive"] is True

    def test_verify_timings_flag(self):
        code, out, _ = _run_cli(["verify", "--suite", "gamma_calculus",
                                 "--max-n", "2", "--timings"])
        assert code == 0
        assert "s]" in out

    @pytest.mark.parametrize("status", ["pass", "skipped", "fail", "error"])
    def test_verify_json_is_the_text_report(self, request, monkeypatch, status):
        argv = {"pass": ["--suite", "gamma_calculus", "--max-n", "3"],
                "skipped": ["--suite", "typeB", "--max-n", "9", "--budget", "10000"],
                "fail": ["--suite", "typeA", "--max-n", "4"],
                "error": ["--suite", "all"]}[status]
        if status == "fail":
            request.getfixturevalue("wrong_aexc3_minus")
        if status == "error":
            monkeypatch.setattr(checks, "REGISTRY", _ERRORING)
        code, text, _ = _run_cli(["verify", *argv])
        json_code, out, err = _run_cli(["verify", *argv, "--format", "json"])
        assert (json_code, err) == (code, "")
        report, counts = [], collections.Counter()
        for line in out.splitlines():  # one object per check, in registry order
            entry = json.loads(line)
            assert list(entry) == ["id", "suite", "range", "status", "witness",
                                   "seconds"]
            assert isinstance(entry["seconds"], float) and entry["seconds"] >= 0
            report.append(f"{entry['status'].upper():<7} {entry['id']}  "
                          f"({entry['range']})\n")
            label = {"fail": "witness", "error": "witness",
                     "skipped": "reason"}.get(entry["status"])
            if label:
                report.append(f"        {label}: {entry['witness']}\n")
            else:
                assert entry["witness"] is None
            counts[entry["status"]] += 1
        assert counts[status]
        report.append(f"{counts['pass']} passed, {counts['fail'] + counts['error']}"
                      f" failed, {counts['skipped']} skipped\n")
        assert "".join(report) == text

    def test_sgnb_family_via_compute(self):
        code, out, _ = _run_cli(["compute", "--family", "sgnb_des_u",
                                 "--n", "2", "--engine", "oracle"])
        assert code == 0
        _, closed_out, _ = _run_cli(["compute", "--family", "sgnb_des_u",
                                     "--n", "2", "--engine", "closed"])
        assert out == closed_out

    def test_sgnb_has_no_gamma_expansion(self):
        for extra in ([], ["--mode", "uni"], ["--engine", "oracle"]):
            for n in ("0", "1", "3"):
                code, out, err = _run_cli(["gamma", "--family", "sgnb_des_u",
                                           "--n", n] + extra)
                assert (code, out) == (2, "")
                assert err == ("error: sgnb_des_u has no gamma expansion "
                               "(its polynomial involves u)\n")

    def test_table_does_not_offer_sgnb(self):
        with pytest.raises(SystemExit) as exit_info:
            _run_cli(["table", "--family", "sgnb_des_u", "--n-range", "2..3"])
        assert exit_info.value.code == 2


@pytest.mark.parametrize("family", sorted(oracle.FAMILIES))
@pytest.mark.parametrize("cls", ["all", "plus", "minus"])
def test_default_engine_matches_oracle_at_low_ranks(family, cls):
    for n in range(4):
        argv = ["compute", "--family", family, "--n", str(n), "--class", cls]
        if family == "conjexc" and n > 0:
            argv += ["--lambda", str(n)]
        if family == "qrefined":
            argv += ["--stat", "cyc"]
        default = _run_cli(argv)
        by_oracle = _run_cli(argv + ["--engine", "oracle"])
        if family != "qrefined":  # every other family has a closed engine
            by_closed = _run_cli(argv + ["--engine", "closed"])
            assert by_closed[:2] == by_oracle[:2], (argv, by_closed, by_oracle)
        if default[0] == 2 and by_oracle[0] == 2:
            continue
        assert default[:2] == by_oracle[:2], (argv, default, by_oracle)


def test_rank_below_family_minimum_is_rejected_up_front():
    for family in ("aexc", "sgn_aexc"):
        code, out, err = _run_cli(["compute", "--family", family, "--n", "0"])
        assert (code, out) == (2, "")
        assert err == f"error: {family} needs n >= 1, got n = 0\n"


@pytest.mark.parametrize("family, answer", [("dexc", "s\n"), ("bdexc", "t\n")])
def test_type_d_closed_engine_reaches_rank_one(family, answer):
    argv = ["compute", "--family", family, "--engine"]
    assert _run_cli(argv + ["closed", "--n", "1"]) == (0, answer, "")
    assert _run_cli(argv + ["oracle", "--n", "1"]) == (0, answer, "")
    # rank 0 is the empty window, which lies in D_0 and not in B_0 \ D_0
    at_zero = {"dexc": "1\n", "bdexc": "0\n"}[family]
    assert _run_cli(argv + ["closed", "--n", "0"]) == (0, at_zero, "")
    assert _run_cli(argv + ["oracle", "--n", "0"]) == (0, at_zero, "")


@pytest.mark.parametrize("engine", ["closed", "oracle"])
@pytest.mark.parametrize("fixed", ["5", "-1"])
def test_out_of_range_fixed_gets_one_message_on_both_engines(engine, fixed):
    code, out, err = _run_cli(["compute", "--family", "aderexc", "--n", "3",
                               "--fixed", fixed, "--engine", engine])
    assert (code, out, err) == (
        2, "", f"error: fixed-point count {fixed} outside 0..3\n")


@pytest.mark.parametrize("argv, message", [
    (["compute", "--family", "qrefined", "--stat", "cyc", "--n", "4",
      "--fixed", "2"], "qrefined takes no fixed-point count"),
    (["compute", "--family", "aexc", "--n", "3", "--lambda", "2,1"],
     "aexc takes no cycle type"),
    (["gamma", "--family", "aderexc", "--n", "4", "--stat", "inv"],
     "aderexc takes no refining statistic"),
    (["table", "--family", "dexc", "--n-range", "2..3", "--fixed", "0"],
     "dexc takes no fixed-point count"),
])
@pytest.mark.parametrize("engine", [[], ["--engine", "oracle"]])
def test_refinement_the_family_ignores_is_rejected(argv, message, engine):
    code, out, err = _run_cli(argv + engine)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["conjugacy", "--lambda", "2,x"],
    ["compute", "--family", "conjexc", "--n", "4", "--lambda", "2,x"],
    ["gamma", "--family", "conjexc", "--n", "4", "--lambda", "2,x"],
])
def test_malformed_lambda_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert ("argument --lambda: expected a cycle type like 2,2,1, got '2,x'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text, message", [
    ("5..2", "empty range '5..2'"),
    ("x", "expected a range like 2..8, got 'x'"),
])
def test_malformed_range_is_a_usage_error(text, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["table", "--family", "aexc", "--n-range", text])
    assert exit_info.value.code == 2
    assert f"argument --n-range: {message}\n" in capsys.readouterr().err


# the last argument of each request -> the message it must get
NEGATIVE_VALUE_ERRORS = {"-1..2": "aexc needs n >= 1, got n = -1",
                         "-1": "parts must be positive: (-1,)",
                         "-2,1": "parts must be positive: (-2, 1)"}


@pytest.mark.parametrize("argv", [
    ["table", "--family", "aexc", "--n-range", "-1..2"],
    ["table", "--family", "aexc", "--n-range=-1..2"],
    ["conjugacy", "--lambda", "-1"],
    ["conjugacy", "--lambda", "-2,1"],
    ["table", "--family", "aexc", "--n-range", "2..3", "--n-range", "-1..2"],
    ["conjugacy", "--lambda", "2,1", "--lambda", "-2,1"],
])
def test_negative_range_reaches_the_family_check(argv, capsys):
    # argparse alone would read "-1..2" or "-2,1" as an option and report a
    # missing value; every occurrence is read, and the last one wins
    assert main(argv) == 2
    message = NEGATIVE_VALUE_ERRORS[argv[-1].rpartition("=")[2]]
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, extra", [
    (["table", "--family", "aexc", "--n-range", "2..3", "--lambda", "2,1"],
     "--lambda 2,1"),
    (["compute", "--family", "aexc", "--n", "3", "--n-range", "2..3"],
     "--n-range 2..3"),
    (["table", "--family", "aexc", "--n-range", "2..3", "--", "--n-range", "4..5"],
     "-- --n-range 4..5"),
])
def test_a_value_is_joined_only_to_an_option_of_the_command(argv, extra, capsys):
    # --n-range and --lambda are joined to their values for the commands that
    # take them and before any "--"; elsewhere the user's tokens are reported
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {extra}\n")


@pytest.mark.parametrize("text", ["-1", "-8", "x"])
def test_malformed_max_n_is_a_usage_error(text, capsys):
    # a negative cap would run no rank and still report every check passed
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--max-n", text])
    assert exit_info.value.code == 2
    assert (f"argument --max-n: expected a rank of 0 or more, got {text!r}\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "typeB"],
    ["compute", "--family", "aexc", "--n", "3", "--engine", "oracle"],
])
@pytest.mark.parametrize("text", ["-1", "x"])
def test_malformed_budget_is_a_usage_error(argv, text, capsys):
    # a negative budget would skip every enumerating check and still exit 0
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--budget", text])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: gammaexc {argv[0]} ")
    assert f"argument --budget: expected a window count of 0 or more, got {text!r}\n" in err


def test_budget_zero_refuses_every_window():
    code, out, _ = _run_cli(["verify", "--suite", "typeB", "--budget", "0"])
    assert (code, out.splitlines()[-1]) == (0, "3 passed, 0 failed, 6 skipped")
    assert _run_cli(["compute", "--family", "aexc", "--n", "3", "--engine", "oracle",
                     "--budget", "0"]) == (
        2, "", "error: enumerating S_3 visits 6 windows, over the budget of 0\n")


def test_max_n_zero_runs_the_fixed_checks():
    code, out, _ = _run_cli(["verify", "--suite", "typeA", "--max-n", "0"])
    assert code == 0
    assert "typeA.closed_equals_oracle  (n=(empty))" in out
    assert "typeA.odd_rank_gamma_positive  (n=5,7,9,11)" in out


@pytest.mark.parametrize("ranks, label", [
    ((5, 7), "n=5,7"),
    (range(4, 11, 2), "n=4,6,8,10"),
    (range(2, 11, 2), "n=2,4,..,10"),
    ([9], "n=9"),
])
def test_ranks_label(ranks, label):
    assert checks._ranks_label(ranks) == label


def test_fundamental_transform_keeps_no_images():
    # the check streams S_7 with O(1) state; a set of the 5040 images
    # traces over 1 MB.  A full collection (it empties the free lists) comes
    # before a first call, which makes the one-time allocations, and the
    # second call is traced: it reads 61,832 bytes at its peak on CPython
    # 3.11 (alone, in this file and in the full suite under -X dev -W error),
    # 61,952 on 3.10 and 61,824 on 3.12.  Collecting between the two calls
    # instead read 81,792
    import gc
    import tracemalloc

    check = next(c for c in REGISTRY
                 if c.check_id == "bijections.fundamental_transform")
    gc.collect()
    check.func(VerifyLimits(max_n_a=7))
    tracemalloc.start()
    try:
        assert check.func(VerifyLimits(max_n_a=7)) == "n=1..7"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _raise(_):
    raise ValueError("no image")


# (fault on foata_fft at 2,4,1,6,3,5, the 173rd window of S_6, mid-chunk;
# the check's status and witness, as the per-window loop names them)
@pytest.mark.parametrize("image, status, witness", [
    (lambda image: Perm._trusted((image[1], image[0], *image[2:])), "fail",
     "2,4,1,6,3,5: (4, Perm(2,4,5,6,1,3)) != (3, Perm(2,4,1,6,3,5))"),
    (_raise, "error", "ValueError: no image"),
])
def test_fundamental_transform_names_a_window_mapped_amiss_mid_chunk(
        monkeypatch, image, status, witness):
    from gammaexc import bijections

    real = bijections.foata_fft
    monkeypatch.setattr(bijections, "foata_fft", lambda w: image(real(w))
                        if tuple(w) == (2, 4, 1, 6, 3, 5) else real(w))
    result = next(r for r in run_suite("bijections", VerifyLimits(max_n_a=6))
                  if r.check_id == "bijections.fundamental_transform")
    assert (result.status, result.witness) == (status, witness)


def test_descent_position_check_reads_the_letters(monkeypatch):
    # the fused kernel never reads SIGNED_STATISTICS, so only the letters
    # comparison sees a broken des_b
    monkeypatch.setitem(oracle.SIGNED_STATISTICS, "des_b", lambda w: 0)
    check = next(c for c in REGISTRY
                 if c.check_id == "signed_sums.type_b_descent_position")
    with pytest.raises(checks.Mismatch, match=r"letters \(2,5,9\)"):
        check.func(VerifyLimits(2, 2, 2))


def test_library_errors_are_value_errors_but_the_budget():
    # cli.main turns ValueError and BudgetExceeded into exit status 2, so a
    # new error class outside ValueError would escape as a traceback
    from gammaexc import bijections, groups, poly

    defined = {obj for module in (poly, groups, oracle, closedforms, bijections)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__}
    assert closedforms.NoClosedForm in defined
    assert {cls for cls in defined if not issubclass(cls, ValueError)} == {
        groups.BudgetExceeded}


def test_importing_checks_does_no_polynomial_arithmetic():
    # the tabulated base polynomials are built inside their checks
    script = (
        "import sys\n"
        "from gammaexc.poly import Poly\n"
        "calls = []\n"
        "for name in ('__mul__', '__rmul__'):\n"
        "    def counted(*args, _orig=getattr(Poly, name)):\n"
        "        calls.append(name)\n"
        "        return _orig(*args)\n"
        "    setattr(Poly, name, counted)\n"
        "assert 'gammaexc.checks' not in sys.modules\n"
        "import gammaexc.checks\n"
        "print(len(calls))\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0\n"


def test_only_groupspec_and_check_are_dataclasses():
    # every other value is a poly.Record: a dataclass costs about 1 ms of
    # code generation per class on every import; Check stays one because
    # perfbench/child.py calls dataclasses.replace on it
    script = (
        "import dataclasses, sys\n"
        "import gammaexc.cli\n"
        "print(sorted(f'{value.__module__}.{name}'\n"
        "             for module in list(sys.modules.values())\n"
        "             if module.__name__.startswith('gammaexc')\n"
        "             for name, value in vars(module).items()\n"
        "             if isinstance(value, type) and dataclasses.is_dataclass(value)\n"
        "             and value.__module__ == module.__name__))\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "['gammaexc.checks.Check']\n"


def test_parser_is_built_once_per_process():
    from gammaexc.cli import build_parser

    assert build_parser() is build_parser()


# requests whose stdout, stderr, exit code and Namespace must not depend on
# which parser reads them
DISPATCH_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["--family", "aexc"],
    ["table", "-h"], ["table", "--he"], ["table"],
    ["table", "--fam", "aexc", "--n-range", "2..3"],
    ["table", "--family", "aexc", "--n-range", "2..3", "stray"],
    ["table", "--family", "aexc", "--n-range", "2..3", "--bogus"],
    ["compute", "--family", "aexc", "--n", "4", "stray", "--bogus"],
    ["table", "--family", "aexc", "--", "--n-range", "2..3"],
    ["table", "--family", "aexc", "--n-range", "2..3", "--"],
    ["table", "--family", "aexc", "--n-range", "-1..2"],
    ["table", "--family", "aexc", "--n-range", "2..3", "--n-range", "-1..2"],
    ["table", "--family", "aexc", "--n-range"],
    ["conjugacy", "--lambda", "2,1", "--lambda", "-2,1"],
    ["table", "--family", "aexc", "--n-range", "2..3", "--lambda", "2,1"],
    ["table", "--family", "aexc", "--n-range", "2..3", "--", "--n-range", "4..5"],
    ["verify", "--suite", "bogus"], ["verify", "-h"],
    ["gamma", "--family", "aexc", "--n", "3", "--mode", "bogus"],
    ["gamma", "--family", "aexc", "--class", "plus", "--n", "6"],
    ["compute", "--family", "bexc", "--n", "3", "--format", "json"],
    ["conjugacy", "--lambda", "3,1"],
]


def _request(argv, seen):
    seen.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), list(seen)


def test_a_command_parser_parses_as_the_top_parser_does(monkeypatch):
    # the reference is main with no command parser to hand argv to, so the
    # top parser's parse_args reads every request, in this interpreter
    from gammaexc import cli

    seen, commands = [], cli._parsers()[1]
    runs = {name: p.get_default("run") for name, p in commands.items()}

    def recorder(run):
        return lambda args, out: seen.append(vars(args).copy()) or run(args, out)

    try:
        for name, p in commands.items():
            p.set_defaults(run=recorder(runs[name]))
        answers = [_request(argv, seen) for argv in DISPATCH_CORPUS]
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
        assert answers == [_request(argv, seen) for argv in DISPATCH_CORPUS]
    finally:
        for name, p in commands.items():
            p.set_defaults(run=runs[name])
    ran = [args["command"] for *_, namespaces in answers for args in namespaces]
    assert ran == ["table"] * 3 + ["conjugacy", "gamma", "compute", "conjugacy"]


def test_a_request_is_parsed_once(monkeypatch):
    from gammaexc import cli

    argv = ["table", "--family", "dexc", "--class", "minus", "--n-range", "3..6"]
    answer = _run_cli(argv)
    monkeypatch.setattr(cli.build_parser(), "parse_known_args",
                        lambda *args: pytest.fail("the top parser ran"))
    assert _run_cli(argv) == answer


def test_table_csv_never_needs_quoting():
    # table joins its CSV lines by hand; csv's writer must give the same bytes
    from gammaexc.cli import _parsers

    table = _parsers()[1]["table"]
    families = next(a.choices for a in table._actions if a.dest == "family")
    seen = ""
    for family in families:
        top, stats = (7, ["inv", "cyc"]) if family == "qrefined" \
            else (12, [None])  # qrefined has only the oracle: n! windows
        for cls, mode, stat, n in itertools.product(
                ("all", "plus", "minus"), (None, "uni", "biv", "q"), stats,
                range(top + 1)):
            argv = ["table", "--family", family, "--class", cls,
                    "--n-range", f"{n}..{n}"]
            argv += ["--mode", mode] if mode else []
            argv += ["--stat", stat] if stat else []
            code, out, _ = _run_cli(argv)
            if code:
                continue
            rows = list(csv.reader(io.StringIO(out)))
            rewritten = io.StringIO()
            csv.writer(rewritten, lineterminator="\n").writerows(rows)
            assert rewritten.getvalue() == out, argv
            assert {len(row) for row in rows} == {9}, argv  # no stray comma
            seen += out
    # the zero row, a q-tuple and a half-integral center all went through
    for line in ("\naderexc,minus,3,,,,,,\n", ";", "/2,"):
        assert line in seen
