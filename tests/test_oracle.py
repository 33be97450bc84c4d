import pytest

from gammaexc.groups import BudgetExceeded, GroupSpec, InvalidSpec
from gammaexc.oracle import (
    AEXC_WEIGHT,
    FamilySpec,
    NonIncreasingLetters,
    T_EXC_WEIGHT,
    UndefinedStatistic,
    UnsupportedClass,
    WeightSpec,
    dist_poly,
    family_domain,
    family_poly,
    q_refined,
    sgnb_des_u,
)
from gammaexc.poly import Poly

s, t, u, q = Poly.gens("s", "t", "u", "q")


class TestDistPoly:
    def test_s2_excedance(self):
        assert dist_poly(GroupSpec("S", 2), AEXC_WEIGHT) == s + t

    def test_a4_univariate(self):
        got = dist_poly(GroupSpec("S", 4, parity="even"), T_EXC_WEIGHT)
        assert got == 1 + 4 * t + 7 * t ** 2

    def test_b2_minus(self):
        got = dist_poly(
            GroupSpec("B", 2, parity="odd"),
            WeightSpec((("t", "exc_b", 0), ("s", "nexc_b", 0))),
        )
        assert got == 4 * s * t

    def test_derangements_4(self):
        got = dist_poly(GroupSpec("S", 4, fixed_points=0), T_EXC_WEIGHT)
        assert got == t + 7 * t ** 2 + t ** 3

    def test_signed_weight(self):
        got = dist_poly(GroupSpec("S", 3),
                        WeightSpec(AEXC_WEIGHT.exponents, sign_stat="inv"))
        assert got == (s - t) ** 2

    def test_statistic_mismatch(self):
        with pytest.raises(UndefinedStatistic):
            dist_poly(GroupSpec("B", 2), T_EXC_WEIGHT)
        with pytest.raises(UndefinedStatistic):
            dist_poly(GroupSpec("S", 2),
                      WeightSpec((("t", "exc", 0),), sign_stat="inv_b"))

    def test_negative_exponent_guard(self):
        with pytest.raises(InvalidSpec):
            dist_poly(GroupSpec("S", 2), WeightSpec((("t", "exc", -1),)))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            dist_poly(GroupSpec("S", 9), T_EXC_WEIGHT, budget=1000)

    def test_weight_validation(self):
        with pytest.raises(InvalidSpec):
            WeightSpec((("t", "exc", 0), ("t", "des", 0)))
        with pytest.raises(InvalidSpec):
            WeightSpec((("x", "exc", 0),))
        with pytest.raises(InvalidSpec):
            WeightSpec((("t", "exc", 0),), sign_stat="des")


class TestFamilyPoly:
    def test_aexc5_plus(self):
        assert family_poly(FamilySpec("aexc", 5, "plus")) == (
            s ** 4 + 11 * s ** 3 * t + 36 * s ** 2 * t ** 2
            + 11 * s * t ** 3 + t ** 4
        )

    def test_dexc4_minus(self):
        assert family_poly(FamilySpec("dexc", 4, "minus")) == (
            20 * s ** 3 * t + 56 * s ** 2 * t ** 2 + 20 * s * t ** 3
        )

    def test_sgn_aexc4(self):
        assert family_poly(FamilySpec("sgn_aexc", 4)) == (s - t) ** 3

    def test_univariate_families(self):
        assert family_poly(FamilySpec("aderexc", 4, "plus")) == 3 * t ** 2
        assert family_poly(FamilySpec("conjexc", 4, lam=(2, 2))) == 3 * t ** 2
        assert family_poly(FamilySpec("aderexc", 5, fixed=5)) == Poly.const(
            1, ("t",))

    def test_totals(self):
        for name, n, size in (("aexc", 5, 120), ("bexc", 3, 48),
                              ("dexc", 3, 24), ("bdexc", 3, 24),
                              ("b_des", 3, 48)):
            assert family_poly(FamilySpec(name, n)).at_ones() == size

    def test_class_additivity(self):
        for name, n in (("aexc", 5), ("bexc", 3), ("dexc", 4),
                        ("aderexc", 5)):
            full = family_poly(FamilySpec(name, n))
            plus = family_poly(FamilySpec(name, n, "plus"))
            minus = family_poly(FamilySpec(name, n, "minus"))
            assert plus + minus == full

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedClass):
            family_poly(FamilySpec("bdexc", 3, "plus"))
        with pytest.raises(UnsupportedClass):
            family_poly(FamilySpec("sgn_aexc", 3, "minus"))
        with pytest.raises(UnsupportedClass):
            family_poly(FamilySpec("a_des", 3, "plus"))

    def test_unknown_family(self):
        with pytest.raises(InvalidSpec):
            family_domain(FamilySpec("nope", 3))

    def test_conjexc_needs_lambda(self):
        with pytest.raises(InvalidSpec):
            family_poly(FamilySpec("conjexc", 4))


class TestSgnBDesU:
    def test_n1(self):
        assert sgnb_des_u(1) == (s - t) * u

    def test_n3_default_letters(self):
        assert sgnb_des_u(3) == (s - t) ** 3 * u ** 3

    def test_n3_custom_letters(self):
        assert sgnb_des_u(3, (1, 2, 3)) == (s - t) ** 3 * u ** 3
        assert sgnb_des_u(3, (2, 5, 9)) == (s - t) ** 3 * u ** 3

    def test_partial_sum_vanishes(self):
        assert sgnb_des_u(3, positions="max_not_last").is_zero
        assert sgnb_des_u(3, (2, 5, 9), positions="max_not_last").is_zero
        full = sgnb_des_u(3)
        last = sgnb_des_u(3, positions="max_last")
        assert last == full

    def test_family_record_sums_the_same_polynomial(self):
        for n in range(5):
            assert family_poly(FamilySpec("sgnb_des_u", n)) == sgnb_des_u(n)

    def test_budget_uses_iterates_rule(self):
        with pytest.raises(BudgetExceeded, match="enumerating B_7 visits 645120"):
            sgnb_des_u(7, budget=1000)

    def test_letter_validation(self):
        with pytest.raises(NonIncreasingLetters):
            sgnb_des_u(3, (3, 2, 1))
        with pytest.raises(NonIncreasingLetters):
            sgnb_des_u(3, (0, 1, 2))
        with pytest.raises(NonIncreasingLetters):
            sgnb_des_u(2, (1, 2, 3))


class TestQRefined:
    def test_n2_cyc_minus(self):
        assert q_refined(2, "cyc", "minus") == q * t

    def test_n3_cyc_plus(self):
        assert q_refined(3, "cyc", "plus") == q * t + q * t ** 2

    def test_q1_specialization(self):
        for cls in ("all", "plus", "minus"):
            collapsed = q_refined(4, "inv", cls).substitute_one("q")
            assert collapsed == family_poly(FamilySpec("aderexc", 4, cls))

    def test_stat_validation(self):
        with pytest.raises(InvalidSpec):
            q_refined(3, "des")
