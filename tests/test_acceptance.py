"""Acceptance criteria, one test per criterion, exact equality throughout.

Every assertion is bit-identical polynomial equality (all arithmetic is over
the integers), and the stated wall-clock bounds are asserted where given.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import time
from fractions import Fraction

from gammaexc import bijections, closedforms, oracle
from gammaexc.closedforms import (
    coeff_tables,
    conj_exc_closed,
    derangement_closed,
    half_sum_closed,
    jump4,
    sgn_dexc_closed,
    sgnb_des_u_closed,
    step_recurrence,
)
from gammaexc.groups import (
    GroupSpec,
    asc,
    cycle_type,
    des,
    exc,
    inv,
    iterate,
    nexc,
    partitions,
    pos_n,
    sign,
)
from gammaexc.oracle import FamilySpec, family_poly
from gammaexc.poly import (
    BIVARIATE,
    D,
    Poly,
    Q_COEFFICIENTS,
    UNIVARIATE,
    gamma_decompose,
    half,
    split_odd_length,
)

s, t, u, q = Poly.gens("s", "t", "u", "q")


def _report(number, label):
    print(f"PASS criterion {number}: {label}")


def test_criterion_01_type_a_tabulated_values():
    expected = {
        (5, "plus"): (s ** 4 + 11 * s ** 3 * t + 36 * s ** 2 * t ** 2
                      + 11 * s * t ** 3 + t ** 4, (1, 7, 16), 0),
        (5, "minus"): (15 * s ** 3 * t + 30 * s ** 2 * t ** 2
                       + 15 * s * t ** 3, (15, 0), 1),
        (7, "plus"): (s ** 6 + 57 * s ** 5 * t + 603 * s ** 4 * t ** 2
                      + 1198 * s ** 3 * t ** 3 + 603 * s ** 2 * t ** 4
                      + 57 * s * t ** 5 + t ** 6, (1, 51, 384, 104), 0),
        (7, "minus"): (63 * s ** 5 * t + 588 * s ** 4 * t ** 2
                       + 1218 * s ** 3 * t ** 3 + 588 * s ** 2 * t ** 4
                       + 63 * s * t ** 5, (63, 336, 168), 1),
    }
    start = time.perf_counter()
    for (n, cls), (poly, gammas, r) in expected.items():
        got = half_sum_closed("aexc", n, cls)
        assert got == poly
        expansion = gamma_decompose(got, BIVARIATE)
        assert expansion.gammas == gammas and expansion.r == r
    closed_elapsed = time.perf_counter() - start
    assert closed_elapsed < 1.0
    start = time.perf_counter()
    for cls in ("plus", "minus"):
        assert family_poly(FamilySpec("aexc", 7, cls)) == expected[(7, cls)][0]
    oracle_elapsed = time.perf_counter() - start
    assert oracle_elapsed < 5.0
    _report(1, f"rank 5/7 type-A values and gamma vectors "
               f"(closed {closed_elapsed:.2f}s, oracle {oracle_elapsed:.2f}s)")


def test_criterion_02_type_d_tabulated_values():
    expected = {
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
    }
    for (n, cls), (poly, gammas) in expected.items():
        got = step_recurrence("dexc", n, cls)
        assert got == poly
        assert gamma_decompose(got, BIVARIATE).gammas == gammas
    start = time.perf_counter()
    for cls in ("plus", "minus"):  # two scans of D_6: 2 x 23040 elements
        assert family_poly(FamilySpec("dexc", 6, cls)) == expected[(6, cls)][0]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"rank 4/6 type-D values and gamma vectors "
               f"(oracle over 46080 elements {elapsed:.2f}s)")


def test_criterion_03_type_a_signed_sum():
    start = time.perf_counter()
    for n in range(2, 9):
        assert family_poly(FamilySpec("sgn_aexc", n)) == (s - t) ** (n - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"signed type-A sums equal (s-t)^(n-1) for n=2..8 "
               f"({elapsed:.2f}s)")


def test_criterion_04_type_b_signed_sums():
    for n in range(1, 7):
        assert family_poly(FamilySpec("sgn_bexc", n)) == (s - t) ** n
        full = oracle.sgnb_des_u(n)
        assert full == sgnb_des_u_closed(n)
        assert (full - full.coefficient("u", n) * u ** n).is_zero
    _report(4, "signed type-B excedance and descent-position sums for n<=6, "
               "with the vanishing partial sum")


def test_criterion_05_type_d_signed_sums():
    for n in range(1, 8):
        got = family_poly(FamilySpec("sgn_dexc", n))
        want = (s - t) ** n if n % 2 == 0 else s * (s - t) ** (n - 1)
        assert got == want
    for n in range(1, 9):
        assert sgn_dexc_closed(n + 4) == (s - t) ** 4 * sgn_dexc_closed(n)
    _report(5, "signed type-D sums for n<=7 and the (s-t)^4 jump")


def test_criterion_06_equidistributions():
    for n in range(1, 7):
        for cls in ("plus", "minus"):
            assert family_poly(FamilySpec("b_des", n, cls)) \
                == family_poly(FamilySpec("bexc", n, cls))
        assert family_poly(FamilySpec("dexc", n)) \
            == family_poly(FamilySpec("bexc", n, "plus"))
        assert family_poly(FamilySpec("bdexc", n)) \
            == family_poly(FamilySpec("bexc", n, "minus"))
    _report(6, "descent/excedance equidistribution over both type-B classes "
               "and the type-D bridge, n<=6")


def test_criterion_07_recurrences_and_jumps():
    for n in range(2, 9):
        for cls in ("plus", "minus"):
            assert step_recurrence("aexc", n, cls) \
                == family_poly(FamilySpec("aexc", n, cls))
    for n in range(1, 7):
        for cls in ("plus", "minus"):
            assert step_recurrence("bexc", n, cls) \
                == family_poly(FamilySpec("bexc", n, cls))
    for n in range(2, 7):
        assert step_recurrence("dexc", n) == family_poly(FamilySpec("dexc", n))
        assert step_recurrence("bdexc", n) \
            == family_poly(FamilySpec("bdexc", n))
    for n in (5, 7, 9):  # jump targets 9, 11, 13
        for cls in ("plus", "minus"):
            assert jump4("aexc", n, cls) == step_recurrence("aexc", n + 4, cls)
    for n in (4, 6, 8):  # jump targets 8, 10, 12
        for cls in ("plus", "minus"):
            assert jump4("dexc", n, cls) == step_recurrence("dexc", n + 4, cls)
    _report(7, "one-step recurrences match the oracle (A<=8, B<=6, D<=6); "
               "four-step jumps match four steps (A to 13, D to 12)")


def test_criterion_08_coefficient_tables():
    tables = coeff_tables(12)
    assert tables.row(4, "plus") == (1, 4, 7, 0)
    assert tables.row(4, "minus") == (0, 7, 4, 1)
    for n in range(2, 13):
        for cls in ("plus", "minus"):
            f = half_sum_closed("aexc", n, cls).substitute_one("s")
            row = [f.coefficient("t", k) for k in range(n)]
            assert row == list(tables.row(n, cls))
    _report(8, "coefficient triangles match closed-form extraction for n<=12")


def test_criterion_09_bijections():
    import math

    for n in range(1, 9):
        images = set()
        for p in iterate(GroupSpec("S", n)):
            image = bijections.foata_fft(p)
            assert des(image.window) == exc(p.window)
            images.add(image.window)
        assert len(images) == math.factorial(n)
    for n in range(2, 8):
        seen = set()
        for p in iterate(GroupSpec("S", n, pos_n=n - 1)):
            image = bijections.penultimate_to_front(p)
            assert pos_n(image.window) == 1
            assert exc(p.window) == des(image.window)
            assert nexc(p.window) == asc(image.window) + 1
            seen.add(image.window)
        assert len(seen) == math.factorial(n - 1)
        for r in range(1, n - 1):
            for p in iterate(GroupSpec("S", n, pos_n=r)):
                image = bijections.swap_last_two(p)
                assert exc(image.window) == exc(p.window)
                assert inv(image.window) % 2 != inv(p.window) % 2
                assert bijections.swap_last_two(image) == p
        for p in iterate(GroupSpec("S", n - 1)):
            image = bijections.perm_to_long_cycle(p)
            assert cycle_type(image.window).parts == (n,)
            assert exc(image.window) == des(p.window) + 1
            assert bijections.long_cycle_to_perm(image) == p
    _report(9, "fundamental transform (n<=8), penultimate map, last-two swap "
               "and long-cycle correspondence (n<=7) certified")


def test_criterion_10_conjugacy_and_derangements():
    start = time.perf_counter()
    for n in range(1, 9):
        class_dist = {}
        refined = {}
        for p in iterate(GroupSpec("S", n)):
            w = p.window
            e = exc(w)
            lam = cycle_type(w).parts
            dist = class_dist.setdefault(lam, {})
            dist[e] = dist.get(e, 0) + 1
            fixed = sum(1 for i, v in enumerate(w, 1) if v == i)
            key = (fixed, sign(w))
            rdist = refined.setdefault(key, {})
            rdist[e] = rdist.get(e, 0) + 1
        for lam in partitions(n):
            got = Poly(("t",), {(e,): c
                                for e, c in class_dist.get(lam.parts, {}).items()})
            assert got == conj_exc_closed(lam), f"class {lam} at n={n}"
        for i in range(n + 1):
            for cls, sg in (("all", None), ("plus", 1), ("minus", -1)):
                terms = {}
                for (fixed, sgn), dist in refined.items():
                    if fixed != i or (sg is not None and sgn != sg):
                        continue
                    for e, c in dist.items():
                        terms[(e,)] = terms.get((e,), 0) + c
                assert Poly(("t",), terms) \
                    == derangement_closed(n, cls, fixed=i), (n, i, cls)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(10, f"conjugacy-class product formula and derangement sums match "
                f"the oracle for n<=8 ({elapsed:.2f}s)")


def _two_term_split(family, n, cls):
    other = "minus" if cls == "plus" else "plus"
    if family == "aexc":
        prev_same = half_sum_closed("aexc", n - 1, cls)
        prev_other = half_sum_closed("aexc", n - 1, other)
        bridge = s * t * D(prev_same)
        halve_other = False
    elif family == "bexc":
        prev_same = half_sum_closed("bexc", n - 1, cls)
        prev_other = half_sum_closed("bexc", n - 1, other)
        bridge = s * t * D(closedforms.eulerian("B", n - 1))
        halve_other = False
    else:
        prev_same = step_recurrence("dexc", n - 1, cls)
        prev_other = step_recurrence("bdexc", n - 1)
        bridge = half(s * t * D(closedforms.eulerian("B", n - 1)))
        halve_other = True
    p_low, p_high = split_odd_length(
        gamma_decompose(bridge.substitute_one("s"), UNIVARIATE))
    w1 = prev_same.substitute_one("s") + p_low.recompose()
    tail = t * prev_other.substitute_one("s")
    w2 = (half(tail) if halve_other else tail) + p_high.recompose()
    return w1, w2


def test_criterion_11_gamma_positivity_and_splits():
    for n in range(5, 12, 2):
        for cls in ("plus", "minus"):
            expansion = gamma_decompose(half_sum_closed("aexc", n, cls),
                                        BIVARIATE)
            assert expansion.all_gammas_nonnegative()
            assert expansion.center_of_symmetry == Fraction(n - 1, 2)
    for n in range(2, 11, 2):
        for cls in ("plus", "minus"):
            expansion = gamma_decompose(half_sum_closed("bexc", n, cls),
                                        BIVARIATE)
            assert expansion.all_gammas_nonnegative()
            assert expansion.center_of_symmetry == Fraction(n, 2)
    for n in range(4, 11, 2):
        for cls in ("plus", "minus"):
            expansion = gamma_decompose(step_recurrence("dexc", n, cls),
                                        BIVARIATE)
            assert expansion.all_gammas_nonnegative()
            assert expansion.center_of_symmetry == Fraction(n, 2)
    for n in range(2, 10):
        for cls in ("all", "plus", "minus"):
            f = derangement_closed(n, cls)
            if f.is_zero:
                continue
            expansion = gamma_decompose(f, UNIVARIATE)
            assert expansion.all_gammas_nonnegative()
            assert expansion.center_of_symmetry == Fraction(n, 2)
    splits = (("aexc", range(4, 11, 2)), ("bexc", range(3, 10, 2)),
              ("dexc", range(5, 10, 2)))
    for family, ranks in splits:
        for n in ranks:
            for cls in ("plus", "minus"):
                if family == "aexc":
                    goal = half_sum_closed("aexc", n, cls).substitute_one("s")
                elif family == "bexc":
                    goal = half_sum_closed("bexc", n, cls).substitute_one("s")
                else:
                    goal = step_recurrence("dexc", n, cls).substitute_one("s")
                w1, w2 = _two_term_split(family, n, cls)
                assert w1 + w2 == goal
                g1 = gamma_decompose(w1, UNIVARIATE)
                g2 = gamma_decompose(w2, UNIVARIATE)
                assert g1.all_gammas_nonnegative()
                assert g2.all_gammas_nonnegative()
                assert g2.center_of_symmetry - g1.center_of_symmetry == 1
    _report(11, "all positivity/center claims hold; two-term splits "
                "recompose exactly (A even<=10, B odd<=9, D odd<=9)")


def test_criterion_12_q_refinement():
    for n in range(2, 8):
        for cls in ("plus", "minus"):
            for stat in ("inv", "cyc"):
                f = oracle.q_refined(n, stat, cls)
                if f.is_zero:
                    continue
                expansion = gamma_decompose(f, Q_COEFFICIENTS)
                assert expansion.all_gammas_nonnegative(), (n, cls, stat)
                assert f.substitute_one("q") == derangement_closed(n, cls)
    _report(12, "q-refined derangement sums are gamma positive with "
                "polynomial coefficients (n<=7) and collapse at q=1")
