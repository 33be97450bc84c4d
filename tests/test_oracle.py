from itertools import combinations, compress, permutations
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from gammaexc import groups, oracle
from gammaexc.groups import (
    BudgetExceeded,
    GroupSpec,
    InvalidSpec,
    _perm_parities,
    _perm_windows_pos_n,
    _signed_windows,
    inv,
    inv_b,
    inv_d,
    iterate,
    partitions,
)
from gammaexc.oracle import (
    AEXC_WEIGHT,
    A_STATISTICS,
    FamilySpec,
    SGNB_WEIGHT,
    SIGNED_STATISTICS,
    SIGN_STATISTICS,
    T_EXC_WEIGHT,
    UndefinedStatistic,
    UnsupportedClass,
    WeightSpec,
    _A_STREAMS,
    _COMPLEMENTS,
    _signed_kernel,
    _weighted_sum,
    dist_poly,
    family_domain,
    family_poly,
    length_halves,
    q_refined,
    sgnb_des_u,
)
from gammaexc.poly import Poly, VARIABLES

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

    def test_unknown_class(self):
        with pytest.raises(InvalidSpec,
                           match=r"^class must be all/plus/minus, got 'x'$"):
            FamilySpec("aexc", 3, "x")

    def test_conjexc_needs_lambda(self):
        with pytest.raises(InvalidSpec):
            family_poly(FamilySpec("conjexc", 4))


class TestSgnBDesU:
    def test_n1(self):
        assert sgnb_des_u(1) == (s - t) * u

    def test_n3_default_letters(self):
        assert sgnb_des_u(3) == (s - t) ** 3 * u ** 3

    def test_partial_sum_vanishes(self):
        for n in range(5):
            full = sgnb_des_u(n)
            assert (full - full.coefficient("u", n) * u ** n).is_zero

    def test_family_record_sums_the_same_polynomial(self):
        for n in range(5):
            assert family_poly(FamilySpec("sgnb_des_u", n)) == sgnb_des_u(n)

    def test_budget_uses_iterates_rule(self):
        with pytest.raises(BudgetExceeded, match="enumerating B_7 visits 645120"):
            sgnb_des_u(7, budget=1000)


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


# -- the fused kernel against the reference sum ---------------------------------


def _reference(spec, weight):
    """The weight summed window by window over ``iterate``'s stream."""
    windows = map(attrgetter("window"), iterate(spec))
    return _weighted_sum(windows, weight, spec.kind)


def _with_parity(spec, parity):
    """The spec with its length parity set to ``parity``, filters kept."""
    return GroupSpec(spec.kind, spec.n, parity, spec.pos_n, spec.fixed_points,
                     spec.cycle_type)


@st.composite
def group_specs(draw, kinds=("S", "B", "D", "B-D"),
                parities=("all", "even", "odd")):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(0, 5))
    parity = "all" if kind == "B-D" else draw(st.sampled_from(parities))
    filters = {}
    if kind == "S":
        if n >= 1 and draw(st.booleans()):
            filters["pos_n"] = draw(st.integers(1, n))
        if draw(st.booleans()):
            filters["fixed_points"] = draw(st.integers(0, n))
        if draw(st.booleans()):
            filters["cycle_type"] = draw(st.sampled_from(
                [lam.parts for lam in partitions(n)]))
    return GroupSpec(kind, n, parity=parity, **filters)


@st.composite
def weight_specs(draw, kind):
    table = A_STATISTICS if kind == "S" else SIGNED_STATISTICS
    k = draw(st.integers(0, 3))
    stats = draw(st.lists(st.sampled_from(sorted(table)), min_size=k,
                          max_size=k))
    variables = draw(st.permutations(VARIABLES))[:k]
    offsets = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    signs = [None] + sorted(stat for stat in SIGN_STATISTICS if stat in table)
    return WeightSpec(tuple(zip(variables, stats, offsets)),
                      sign_stat=draw(st.sampled_from(signs)))


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_reference_sum(self, data):
        spec = data.draw(group_specs())
        weight = data.draw(weight_specs(spec.kind))
        assert dist_poly(spec, weight) == _reference(spec, weight)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_length_halves_equal_the_reference_halves(self, data):
        spec = data.draw(group_specs(kinds=("S", "B", "D"), parities=("all",)))
        weight = data.draw(weight_specs(spec.kind))
        assert length_halves(spec, weight) == tuple(
            _reference(_with_parity(spec, parity), weight)
            for parity in ("even", "odd"))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 30), unique=True, max_size=5).map(sorted))
    def test_sgnb_des_u_on_letters(self, letters):
        # the letters are immaterial: their signed windows sum to B_n's
        assert _weighted_sum(_signed_windows(tuple(letters)), SGNB_WEIGHT,
                             "B") == sgnb_des_u(len(letters))

    @pytest.mark.parametrize("n", range(6))
    def test_empty_weight_with_inv_sign(self, n):
        """Each source of the kind-S parity, on a weight with no statistic."""
        weight = WeightSpec((), sign_stat="inv")
        specs = [GroupSpec("S", n),  # the parity string
                 *(GroupSpec("S", n, parity=parity)  # inv per window
                   for parity in ("even", "odd")),
                 *(GroupSpec("S", n, pos_n=r)  # the shifted string
                   for r in range(1, n + 1)),
                 *(GroupSpec("S", n, fixed_points=i)  # inv per window
                   for i in range(n + 1)),
                 *(GroupSpec("S", n, cycle_type=lam.parts)  # n - len(lam)
                   for lam in partitions(n))]
        for spec in specs:
            assert dist_poly(spec, weight) == _reference(spec, weight), spec
            if spec.parity == "all":
                assert length_halves(spec, weight) == tuple(
                    _reference(_with_parity(spec, parity), weight)
                    for parity in ("even", "odd")), spec

    def test_complement_statistics_at_low_ranks(self):
        # the kernel reads nexc and asc as n - exc and max(n - 1, 0) - des
        weight = WeightSpec((("t", "nexc", 0), ("s", "asc", 0), ("q", "exc", 0),
                             ("u", "des", 0)))
        for n in range(5):
            for spec in (GroupSpec("S", n), GroupSpec("S", n, parity="odd")):
                assert dist_poly(spec, weight) == _reference(spec, weight)

    def test_every_signed_statistic_has_a_kernel_form(self):
        # a kernel base or a complement, never both; a type-A statistic's
        # kernel form is its own function
        bases = set(_signed_kernel(3))
        complements = set(_COMPLEMENTS) & set(SIGNED_STATISTICS)
        assert bases | complements == set(SIGNED_STATISTICS)
        assert not bases & complements
        assert {base for base, _ in map(_COMPLEMENTS.get, complements)} <= bases

    @pytest.mark.parametrize("spec", [
        GroupSpec("D", 4, parity="even"), GroupSpec("B", 3),
        GroupSpec("B", 3, parity="odd"), GroupSpec("B-D", 3),
        GroupSpec("S", 4, fixed_points=0), GroupSpec("B", 0)])
    def test_pulls_every_window_through_iterate(self, spec, monkeypatch):
        pulled = []

        def counting(*args, **kwargs):
            for w in iterate(*args, **kwargs):
                pulled.append(w)
                yield w

        monkeypatch.setattr(oracle, "iterate", counting)
        dist_poly(spec, WeightSpec((), sign_stat=None))
        assert sorted(pulled) == [p.window for p in iterate(spec)]
        whole = _with_parity(spec, "all")
        if whole.kind != "B-D":
            pulled.clear()
            length_halves(whole, WeightSpec((), sign_stat=None))
            assert sorted(pulled) == [p.window for p in iterate(whole)]

    @pytest.mark.parametrize("stat", sorted(SIGNED_STATISTICS))
    def test_signed_forms_are_affine_on_b4(self, stat):
        """On every window of B_4, c + sum(w[j] for negated j) is the stat,
        and a complement is 4 minus its base's value."""
        base = _COMPLEMENTS.get(stat, (stat,))[0]
        form, reference = _signed_kernel(4)[base], SIGNED_STATISTICS[stat]
        for w in _signed_windows((1, 2, 3, 4)):
            c, weights = form(tuple(map(abs, w)))
            value = c + sum(x for x, v in zip(weights, w) if v < 0)
            assert (value if base == stat else 4 - value) == reference(w), w

    def test_inversion_identity_on_b4(self):
        """inv_D(eps.p) = inv(p) + 2 sum_{j negated} (j - L_j), inv_B adds negs.

        L_j = #{i < j: p_i > p_j}, positions 0-based.
        """
        for p in permutations((1, 2, 3, 4)):
            L = [sum(a > v for a in p[:j]) for j, v in enumerate(p)]
            for k in range(5):
                for negated in combinations(range(4), k):
                    w = tuple(-v if j in negated else v
                              for j, v in enumerate(p))
                    assert inv_d(w) == inv(p) + 2 * sum(j - L[j]
                                                        for j in negated)
                    assert inv_b(w) == inv_d(w) + k


class TestStreams:
    """Each kind-S stream form equals ``map`` of its per-element function."""

    STREAMED = ("exc", "fixed_points", "des", "inv")

    def test_the_streamed_bases(self):
        assert set(_A_STREAMS) == {A_STATISTICS[name] for name in self.STREAMED}

    @pytest.mark.parametrize("name", STREAMED)
    def test_equals_the_per_element_map(self, name):
        stat, form = A_STATISTICS[name], _A_STREAMS[A_STATISTICS[name]]
        for n in range(9):
            whole = list(permutations(range(1, n + 1)))
            odd = list(compress(whole, _perm_parities(n, 1)))
            slices = [list(_perm_windows_pos_n(n, r)) for r in {1, n} if n]
            for windows in [whole, odd, *slices]:
                assert list(form(iter(windows), n)) == list(map(stat, windows))

    @pytest.mark.parametrize("name", sorted(A_STATISTICS))
    def test_stream_reads_the_form_else_maps(self, name, monkeypatch):
        stat, windows = A_STATISTICS[name], list(permutations(range(1, 5)))
        want = list(map(stat, windows))
        if stat in _A_STREAMS:  # a marked form shows that it was read
            monkeypatch.setitem(_A_STREAMS, stat, lambda ws, n: (-n for _ in ws))
            want = [-4] * len(windows)
        assert list(oracle.stream(stat, iter(windows), 4)) == want


class TestSharedForms:
    """The signed kernel reads nexc and asc off the exc and des forms."""

    @pytest.mark.parametrize("sign_stat", [None, "inv_b", "inv_d"])
    @pytest.mark.parametrize("excs", [("exc_b", "nexc_b"), ("exc_d", "nexc_d")])
    def test_signed_complement_statistics_at_low_ranks(self, excs, sign_stat):
        # the signed kernel computes exc and des once per permutation and
        # reads nexc and asc as n minus their digits
        weight = WeightSpec((("t", excs[1], 0), ("s", "asc_b", 0),
                             ("q", excs[0], 0), ("u", "des_b", 0)),
                            sign_stat=sign_stat)
        for n in range(5):
            for kind in ("B", "D", "B-D"):
                parities = ("all",) if kind == "B-D" else ("all", "even", "odd")
                for parity in parities:
                    spec = GroupSpec(kind, n, parity=parity)
                    assert dist_poly(spec, weight) == _reference(spec, weight), spec
                if kind != "B-D":
                    assert length_halves(GroupSpec(kind, n), weight) == tuple(
                        _reference(GroupSpec(kind, n, parity=parity), weight)
                        for parity in ("even", "odd")), (kind, n)


class TestKernelErrors:
    @pytest.mark.parametrize("kind, stat", [("S", "exc_b"), ("B", "exc"),
                                            ("D", "des"), ("B-D", "cyc")])
    def test_statistic_the_kind_lacks(self, kind, stat):
        with pytest.raises(UndefinedStatistic, match=repr(stat)):
            dist_poly(GroupSpec(kind, 2), WeightSpec((("t", stat, 0),)))

    def test_sign_statistic_the_kind_lacks(self):
        with pytest.raises(UndefinedStatistic, match="'inv'"):
            dist_poly(GroupSpec("D", 2),
                      WeightSpec((("t", "exc_d", 0),), sign_stat="inv"))

    def test_negative_offset_names_a_window(self):
        with pytest.raises(InvalidSpec, match=r"offset drives exponent "
                           r"negative on 1,2 \(statistic value 0, offset -1\)"):
            dist_poly(GroupSpec("S", 2), WeightSpec((("t", "exc", -1),)))
        with pytest.raises(InvalidSpec, match=r"negative on -1,-2 "
                           r"\(statistic value 0, offset -1\)"):
            dist_poly(GroupSpec("B", 2), WeightSpec((("s", "nexc_b", -1),)))

    def test_budget_before_any_window(self, monkeypatch):
        def no_windows(*args):
            raise AssertionError("a window was built")

        for stream in ("_perm_windows", "_perm_windows_pos_n",
                       "_signed_windows"):
            monkeypatch.setattr(groups, stream, no_windows)
        with pytest.raises(BudgetExceeded):
            dist_poly(GroupSpec("B", 9), oracle.BEXC_WEIGHT, budget=1000)
        with pytest.raises(BudgetExceeded):
            dist_poly(GroupSpec("S", 9), T_EXC_WEIGHT, budget=1000)
        with pytest.raises(BudgetExceeded):
            dist_poly(GroupSpec("S", 9, pos_n=2), T_EXC_WEIGHT, budget=1000)
        with pytest.raises(BudgetExceeded):
            sgnb_des_u(7, budget=1000)

    def test_undefined_statistic_before_budget(self):
        with pytest.raises(UndefinedStatistic, match="'exc'"):
            dist_poly(GroupSpec("B", 9), WeightSpec((("t", "exc", 0),)),
                      budget=1000)
        with pytest.raises(UndefinedStatistic, match="'inv_d'"):
            dist_poly(GroupSpec("S", 9), WeightSpec((), sign_stat="inv_d"),
                      budget=1000)

    def test_length_halves_undefined_statistic_before_budget(self):
        with pytest.raises(UndefinedStatistic, match="'exc'"):
            length_halves(GroupSpec("B", 9), WeightSpec((("t", "exc", 0),)),
                          budget=1000)
        with pytest.raises(UndefinedStatistic, match="'inv_d'"):
            length_halves(GroupSpec("S", 9), WeightSpec((), sign_stat="inv_d"),
                          budget=1000)
        with pytest.raises(BudgetExceeded):
            length_halves(GroupSpec("D", 9), oracle.DEXC_WEIGHT, budget=1000)

    @pytest.mark.parametrize("spec", [
        GroupSpec("S", 3, parity="even"), GroupSpec("B", 3, parity="odd"),
        GroupSpec("D", 3, parity="even"), GroupSpec("B-D", 3)])
    def test_length_halves_need_a_whole_group(self, spec):
        with pytest.raises(InvalidSpec, match="length_halves needs a whole"):
            length_halves(spec, WeightSpec(()))


@st.composite
def _s_requests(draw):
    """Requests over one S_n, n <= 6: dist_poly on the whole, its halves, its
    pos_n slices, its fixed-point and cycle-type specs, and length_halves on
    the whole, each with a weight reading exc, fixed_points, des, inv or cyc."""
    n = draw(st.integers(1, 6))
    specs = [GroupSpec("S", n, parity) for parity in ("all", "even", "odd")]
    specs += [GroupSpec("S", n, pos_n=r) for r in range(1, n + 1)]
    specs += [GroupSpec("S", n, parity, fixed_points=k)
              for parity in ("all", "even") for k in range(n + 1)]
    specs += [GroupSpec("S", n, cycle_type=lam.parts) for lam in partitions(n)]
    weights = st.builds(
        lambda stats, sign: WeightSpec(tuple(zip("tqs", stats, (0, 0, 0))), sign),
        st.lists(st.sampled_from(("exc", "fixed_points", "des", "inv", "cyc")),
                 max_size=3), st.sampled_from((None, "inv")))
    requests = st.one_of(
        st.tuples(st.just(dist_poly), st.sampled_from(specs), weights),
        st.tuples(st.just(length_halves), st.just(specs[0]), weights))
    return draw(st.lists(requests, min_size=1, max_size=8))


class TestHeldColumns:
    """A run holds each kind-S statistic over a spec as one column; a bare
    call streams and holds none."""

    @settings(max_examples=60, deadline=None)
    @given(_s_requests())
    def test_any_order_in_one_run_answers_as_bare(self, requests):
        bare = [ask(spec, weight) for ask, spec, weight in requests]
        with oracle.kernel_memo():
            assert [ask(spec, weight) for ask, spec, weight in requests] == bare

    def test_a_bare_call_streams(self):
        # streaming, this traces 103,357 bytes at its peak (CPython 3.11),
        # most of it S_8's parity string; holding its exc and fixed_points
        # columns would add about 80 KB
        import tracemalloc

        weight = WeightSpec((("t", "exc", 0), ("q", "fixed_points", 0)))
        dist_poly(GroupSpec("S", 3), weight)
        tracemalloc.start()
        try:
            dist_poly(GroupSpec("S", 8), weight)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 103_357 + 8 * 1024

    def test_a_held_column_still_refuses_a_smaller_budget(self):
        spec = GroupSpec("S", 5)
        with oracle.kernel_memo():
            want = dist_poly(spec, T_EXC_WEIGHT, budget=None)
            assert bytes(oracle._column(spec, groups.exc, None)) == bytes(
                map(groups.exc, iterate(spec)))
            for ask in (lambda: dist_poly(spec, T_EXC_WEIGHT, budget=10),
                        lambda: dist_poly(spec, AEXC_WEIGHT, budget=10),
                        lambda: oracle._column(spec, groups.exc, 10)):
                with pytest.raises(BudgetExceeded):
                    ask()
            assert dist_poly(spec, T_EXC_WEIGHT, budget=120) == want
