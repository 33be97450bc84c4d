import math
import re
import time
import tracemalloc
from itertools import permutations

import pytest

from gammaexc import groups
from gammaexc.closedforms import conj_exc_closed
from gammaexc.groups import (
    BudgetExceeded,
    CycleType,
    GroupSpec,
    InvalidSpec,
    Perm,
    SignedPerm,
    WindowError,
    _cycle_lengths,
    _cycles,
    _perm_parities,
    asc,
    asc_b,
    cardinality,
    cyc,
    cycle_type,
    des,
    des_b,
    enumeration_cost,
    exc,
    exc_b,
    exc_d,
    fixed_points,
    inv,
    inv_b,
    inv_b_negsum,
    inv_d,
    iterate,
    negs,
    nexc,
    nexc_b,
    nexc_d,
    parse_window,
    partitions,
    pos_n,
    sign,
    wkexc_b,
)


class TestWindows:
    def test_parse(self):
        assert parse_window("-2,1") == (-2, 1)
        assert parse_window(" 3 , 1 , 2 ") == (3, 1, 2)

    def test_parse_position_messages(self):
        with pytest.raises(WindowError, match="position 2"):
            parse_window("1,x,3")
        with pytest.raises(WindowError, match="position 1"):
            parse_window(",1")

    def test_perm_validation(self):
        with pytest.raises(WindowError, match="position 3"):
            Perm((1, 2, 2))
        with pytest.raises(WindowError, match="position 1"):
            Perm((4, 2, 3))
        with pytest.raises(WindowError, match="position 2"):
            SignedPerm((1, 0))
        with pytest.raises(WindowError, match="position 2"):
            SignedPerm((-2, 2))
        with pytest.raises(WindowError, match=r"^position 1: \|3\| outside "
                           r"1\.\.2$"):
            SignedPerm((3, 1))

    def test_round_trip_text(self):
        sigma = SignedPerm.parse("-2,1")
        assert str(sigma) == "-2,1"
        assert sigma == SignedPerm((-2, 1))

    def test_class_exact_identity(self):
        p, sigma = Perm((2, 1)), SignedPerm((2, 1))
        assert p != sigma and sigma != p
        assert hash(p) == hash(("Perm", (2, 1)))
        assert hash(sigma) == hash(("SignedPerm", (2, 1)))
        assert (repr(p), repr(sigma)) == ("Perm(2,1)", "SignedPerm(2,1)")
        assert type(SignedPerm.identity(2)) is SignedPerm
        assert p == Perm((2, 1)) and not p != Perm((2, 1))
        assert p != (2, 1) and (2, 1) != p
        assert not p == (2, 1) and not (2, 1) == p
        assert (2, 1) not in {p}
        assert not p == sigma and not sigma == p

    @pytest.mark.parametrize("window", [(2, 1), (1, 2)])
    def test_not_equal_is_class_exact(self, window):
        # (2, 1) is p's own window, (1, 2) another one
        p, sigma, differs = Perm((2, 1)), SignedPerm((2, 1)), window != (2, 1)
        assert (p != Perm(window)) is (Perm(window) != p) is differs
        assert (sigma != SignedPerm(window)) is (SignedPerm(window) != sigma) is differs
        for other in (SignedPerm(window), window):
            assert (p != other) is (other != p) is True
        assert (sigma != Perm(window)) is (sigma != window) is True

    def test_immutability(self):
        p = Perm((2, 1))
        with pytest.raises(AttributeError):
            p.window = (1, 2)


class TestStatsA:
    def test_example_312(self):
        p = Perm((3, 1, 2))
        assert (exc(p), nexc(p), des(p), asc(p)) == (1, 2, 1, 1)
        assert (inv(p), cyc(p), sign(p), pos_n(p)) == (2, 1, 1, 1)

    def test_identity(self):
        p = Perm.identity(5)
        assert (exc(p), nexc(p), des(p), inv(p), fixed_points(p)) == (0, 5, 0, 0, 5)

    def test_transposition(self):
        p = Perm((2, 1))
        assert (exc(p), inv(p), sign(p)) == (1, 1, -1)

    def test_complementary_counts(self):
        for n in range(1, 9):
            for p in iterate(GroupSpec("S", n)):
                assert exc(p) + nexc(p) == n
                assert des(p) + asc(p) == n - 1

    def test_sign_matches_cycle_type(self):
        for n in range(1, 9):
            for p in iterate(GroupSpec("S", n)):
                assert sign(p) == cycle_type(p).sign


class TestStatsB:
    def test_example_neg2_1(self):
        sigma = SignedPerm((-2, 1))
        assert (exc_b(sigma), inv_b(sigma), inv_b(sigma) % 2,
                des_b(sigma)) == (1, 2, 0, 1)

    def test_example_neg1_neg2(self):
        sigma = SignedPerm((-1, -2))
        assert (exc_b(sigma), inv_b(sigma), inv_b(sigma) % 2) == (2, 4, 0)

    def test_identity(self):
        sigma = SignedPerm.identity(4)
        assert (exc_b(sigma), wkexc_b(sigma), inv_b(sigma),
                des_b(sigma)) == (0, 4, 0, 0)

    def test_pos_n_ignores_signs(self):
        assert pos_n(SignedPerm((-2, 1))) == 1
        assert pos_n(SignedPerm((1, 3, -2))) == 2
        assert pos_n((2, -9, 5)) == 2

    def test_b2_plus_distribution(self):
        total = {}
        for sigma in iterate(GroupSpec("B", 2, parity="even")):
            key = (nexc_b(sigma), exc_b(sigma))
            total[key] = total.get(key, 0) + 1
        assert total == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_complementary_counts(self):
        for n in range(1, 7):
            for sigma in iterate(GroupSpec("B", n)):
                assert exc_b(sigma) + nexc_b(sigma) == n
                assert des_b(sigma) + asc_b(sigma) == n

    def test_parity_coherence(self):
        for n in range(2, 7):
            even = cardinality(GroupSpec("B", n, parity="even"))
            assert even * 2 == 2 ** n * math.factorial(n)

    def test_inv_variants_same_parity(self):
        for n in range(1, 5):
            for sigma in iterate(GroupSpec("B", n)):
                assert inv_b(sigma.window) % 2 == inv_b_negsum(sigma.window) % 2


class TestStatsD:
    def test_example_neg2_neg1(self):
        sigma = SignedPerm((-2, -1))
        assert (exc_d(sigma), inv_d(sigma), inv_d(sigma) % 2) == (1, 1, 1)

    def test_example_2_1(self):
        sigma = SignedPerm((2, 1))
        assert (exc_d(sigma), inv_d(sigma)) == (1, 1)

    def test_d2_distribution(self):
        total = {}
        for sigma in iterate(GroupSpec("D", 2)):
            key = (nexc_d(sigma), exc_d(sigma))
            total[key] = total.get(key, 0) + 1
        assert total == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_parity_coherence(self):
        for n in range(2, 7):
            even = cardinality(GroupSpec("D", n, parity="even"))
            assert even * 2 == 2 ** (n - 1) * math.factorial(n)


class TestCycleTypes:
    def test_identity(self):
        assert cycle_type(Perm.identity(4)).parts == (1, 1, 1, 1)

    def test_double_transposition(self):
        lam = cycle_type(Perm((2, 1, 4, 3)))
        assert lam.parts == (2, 2)
        assert lam.sign == 1

    def test_three_cycle(self):
        lam = cycle_type(Perm((3, 1, 2)))
        assert lam.parts == (3,)
        assert lam.sign == 1

    def test_class_size(self):
        assert CycleType((2, 2)).class_size() == 3
        assert CycleType((3, 2)).class_size() == 20
        for n in range(10):
            assert sum(lam.class_size() for lam in partitions(n)) \
                == math.factorial(n)

    @pytest.mark.parametrize("parts, bad", [
        ((2.5, 1.9), 2.5), ((2, 1.0), 1.0), ((True, 1), True)])
    def test_non_int_parts_rejected(self, parts, bad):
        message = re.escape(f"part {bad!r} is not an int")
        with pytest.raises(InvalidSpec, match=message):
            CycleType(parts)
        with pytest.raises(InvalidSpec, match=message):
            GroupSpec("S", 3, cycle_type=parts)
        with pytest.raises(InvalidSpec, match=message):
            conj_exc_closed(parts)

    def test_non_positive_part_rejected(self):
        with pytest.raises(InvalidSpec,
                           match=r"^parts must be positive: \(2, 0\)$"):
            CycleType((2, 0))

    def test_multiplicities(self):
        lam = CycleType((3, 2, 2, 1))
        assert lam.multiplicity(2) == 2
        assert lam.fixed_points == 1
        assert lam.n == 8

    def test_cycle_lengths_are_the_sorted_cycles(self):
        for n in range(9):
            for w in permutations(range(1, n + 1)):
                assert _cycle_lengths(w) == tuple(
                    sorted(map(len, _cycles(w)), reverse=True)), w


class TestPartitions:
    def test_empty_partition(self):
        assert [lam.parts for lam in partitions(0)] == [()]

    def test_order(self):
        assert [lam.parts for lam in partitions(4)] \
            == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counts(self):
        # partition numbers p(0..9) = 1,1,2,3,5,7,11,15,22,30
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        for n, want in enumerate(expected):
            assert sum(1 for _ in partitions(n)) == want

    def test_negative_rank(self):
        with pytest.raises(InvalidSpec):
            partitions(-1)

    @pytest.mark.parametrize("n, message", [
        (-1, "n must be non-negative"),
        (True, "rank True is not an int"),
        (2.0, "rank 2.0 is not an int"),
        ("3", "rank '3' is not an int"),
    ])
    def test_bad_rank_raises_when_called(self, n, message):
        # GroupSpec's int rule and wording; the stream is never consumed
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            partitions(n)


class TestIterate:
    def test_cardinalities(self):
        assert cardinality(GroupSpec("S", 4)) == 24
        assert cardinality(GroupSpec("S", 4, parity="even")) == 12
        assert cardinality(GroupSpec("S", 4, fixed_points=0)) == 9
        assert cardinality(GroupSpec("S", 4, parity="even", fixed_points=0)) == 3
        assert cardinality(GroupSpec("S", 4, parity="odd", fixed_points=0)) == 6
        assert cardinality(GroupSpec("S", 4, cycle_type=(2, 2))) == 3
        assert cardinality(GroupSpec("B", 3)) == 48
        assert cardinality(GroupSpec("D", 3)) == 24
        assert cardinality(GroupSpec("B-D", 3)) == 24
        assert cardinality(GroupSpec("S", 0)) == 1

    def test_pos_n_slices(self):
        for r in range(1, 5):
            assert cardinality(GroupSpec("S", 4, pos_n=r)) == 6
        windows = [p.window for p in iterate(GroupSpec("S", 4, pos_n=2))]
        assert all(w[1] == 4 for w in windows)

    def test_lexicographic_order(self):
        windows = [p.window for p in iterate(GroupSpec("B", 2))]
        assert windows == sorted(windows)
        assert windows[0] == (-2, -1)
        windows = [p.window for p in iterate(GroupSpec("S", 3))]
        assert windows == sorted(windows)

    @pytest.mark.parametrize("kind, parity", [
        ("S", "all"), ("S", "odd"), ("B", "all"), ("B", "even"), ("B", "odd"),
        ("D", "all"), ("D", "even"), ("D", "odd"), ("B-D", "all")])
    def test_by_permutation_order(self, kind, parity):
        for n in range(5):
            spec = GroupSpec(kind, n, parity=parity)
            lex = [p.window for p in iterate(spec)]
            blocks = list(iterate(spec, by_permutation=True))
            assert sorted(blocks) == lex
            # one window per p on S; on a signed group 2^(n-1) windows, one
            # class of one p (at n = 0 the one empty window)
            size = 1 if kind == "S" else 2 ** max(n - 1, 0)
            perms = []
            for start in range(0, len(blocks), size):
                block = blocks[start:start + size]
                assert len(block) == size
                assert len({tuple(map(abs, w)) for w in block}) == 1
                assert len({negs(w) % 2 for w in block}) == 1
                perms.append(tuple(map(abs, block[0])))
            assert perms == sorted(perms)

    def test_by_permutation_class_streams(self):
        # a class is generated whole, or is empty where the spec's parity or
        # fixed points are not its cycle type's
        for n in range(8):
            for lam in partitions(n):
                for parity in ("all", "even", "odd"):
                    for fixed in (None, lam.fixed_points,
                                  (lam.fixed_points + 1) % (n + 1)):
                        spec = GroupSpec("S", n, parity, fixed_points=fixed,
                                         cycle_type=lam.parts)
                        lex = [p.window for p in iterate(spec)]
                        got = list(iterate(spec, by_permutation=True))
                        assert len(set(got)) == len(got), spec
                        assert sorted(got) == lex, spec

    def test_by_permutation_halves_keep_the_order(self):
        for n in range(8):
            for parity in ("all", "even", "odd"):
                for r in (None, *range(1, n + 1)):
                    spec = GroupSpec("S", n, parity, pos_n=r)
                    lex = [p.window for p in iterate(spec)]
                    assert list(iterate(spec, by_permutation=True)) == lex, spec

    def test_kind_s_streams_equal_a_per_window_filter(self):
        # every parity x pos_n x fixed-point x cycle-type spec up to n = 6:
        # the default order is the lexicographic filter of permutations, and
        # the bare order too, but for a generated class, which is sorted
        for n in range(7):
            rows = [(w, inv(w) % 2, w.index(n) + 1 if n else None,
                     fixed_points(w), cycle_type(w).parts)
                    for w in permutations(range(1, n + 1))]
            for parity, want in (("all", None), ("even", 0), ("odd", 1)):
                for r in (None, *range(1, n + 1)):
                    for fixed in (None, *range(n + 1)):
                        for lam in (None, *(lam.parts for lam in partitions(n))):
                            spec = GroupSpec("S", n, parity, pos_n=r,
                                             fixed_points=fixed, cycle_type=lam)
                            kept = [w for w, bit, at, fix, parts in rows
                                    if want in (None, bit) and r in (None, at)
                                    and fixed in (None, fix)
                                    and lam in (None, parts)]
                            assert [p.window for p in iterate(spec)] == kept, spec
                            bare = list(iterate(spec, by_permutation=True))
                            if lam is not None and r is None:
                                bare.sort()
                            assert bare == kept, spec

    def test_kind_s_halves_read_no_inv(self, monkeypatch):
        specs = (GroupSpec("S", 7, "odd", fixed_points=0),
                 GroupSpec("S", 7, "even", pos_n=3))
        expected = {spec: [p.window for p in iterate(spec)] for spec in specs}

        def refuse(w):
            raise AssertionError(f"inv{w}")

        monkeypatch.setattr(groups, "inv", refuse)
        for spec in specs:
            assert [p.window for p in iterate(spec)] == expected[spec]
            assert list(iterate(spec, by_permutation=True)) == expected[spec]

    def test_class_is_streamed(self):
        # the 12-cycles of S_12 are 11! windows: the first comes at once
        stream = iterate(GroupSpec("S", 12, cycle_type=(12,)),
                         by_permutation=True)
        assert iter(stream) is stream
        start = time.perf_counter()
        assert next(stream) == (*range(2, 13), 1)
        assert time.perf_counter() - start < 0.5

    def test_each_exactly_once(self):
        seen = [p.window for p in iterate(GroupSpec("D", 3))]
        assert len(seen) == len(set(seen))
        assert all(sum(1 for v in w if v < 0) % 2 == 0 for w in seen)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            list(iterate(GroupSpec("B", 12)))
        with pytest.raises(BudgetExceeded):
            list(iterate(GroupSpec("S", 4), budget=10))

    @pytest.mark.parametrize("by_permutation", [False, True])
    def test_budget_raised_when_called(self, by_permutation):
        # iterate returns a stream: the guard fires before it is consumed
        for spec in (GroupSpec("B", 12), GroupSpec("S", 13, fixed_points=0)):
            with pytest.raises(BudgetExceeded):
                iterate(spec, by_permutation=by_permutation)
        with pytest.raises(BudgetExceeded):
            iterate(GroupSpec("S", 4), budget=10, by_permutation=by_permutation)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            GroupSpec("S", 4, pos_n=5)
        with pytest.raises(InvalidSpec):
            GroupSpec("S", 4, cycle_type=(3, 2))
        with pytest.raises(InvalidSpec):
            GroupSpec("B", 3, fixed_points=1)
        with pytest.raises(InvalidSpec):
            GroupSpec("X", 3)
        with pytest.raises(InvalidSpec):
            GroupSpec("B-D", 3, parity="even")

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": -1}, "n must be non-negative"),
        ({"n": 2, "parity": "x"}, "parity must be all/even/odd, got 'x'"),
        ({"n": 2, "fixed_points": 3}, "fixed_points=3 outside 0..2"),
        ({"n": 2.5}, "rank 2.5 is not an int"),
        ({"n": True}, "rank True is not an int"),
        ({"n": 4, "pos_n": 1.0}, "pos_n 1.0 is not an int"),
        ({"n": 4, "pos_n": True}, "pos_n True is not an int"),
        ({"n": 4, "pos_n": 5}, "pos_n=5 outside 1..4"),
        ({"n": 4, "fixed_points": 0.0}, "fixed_points 0.0 is not an int"),
    ])
    def test_invalid_spec_messages(self, kwargs, message):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            GroupSpec("S", **kwargs)

    def test_spec_names_its_cycle_type(self):
        assert str(GroupSpec("S", 4, cycle_type=(2, 2))) == "S_4 type=2,2"

    def test_enumeration_cost(self):
        # n = 0..6; a half of B counts all of B_n's windows, twice the
        # windows its stream builds
        costs = {
            "S": (1, 1, 2, 6, 24, 120, 720),
            "B": (1, 2, 8, 48, 384, 3840, 46080),
            "D": (1, 1, 4, 24, 192, 1920, 23040),
            "B-D": (1, 1, 4, 24, 192, 1920, 23040),
        }
        pos_n_costs = (None, 1, 1, 2, 6, 24, 120)
        for n in range(7):
            # a class costs all of S_n, in either mode
            for lam in partitions(n):
                spec = GroupSpec("S", n, cycle_type=lam.parts)
                assert enumeration_cost(spec) == costs["S"][n], spec
                for by_permutation in (False, True):
                    iterate(spec, costs["S"][n], by_permutation=by_permutation)
                    with pytest.raises(BudgetExceeded):
                        iterate(spec, costs["S"][n] - 1,
                                by_permutation=by_permutation)
            assert enumeration_cost(GroupSpec("B-D", n)) == costs["B-D"][n]
            for parity in ("all", "even", "odd"):
                for kind in ("S", "B", "D"):
                    spec = GroupSpec(kind, n, parity)
                    assert enumeration_cost(spec) == costs[kind][n], spec
                for r in range(1, n + 1):
                    spec = GroupSpec("S", n, parity, pos_n=r)
                    assert enumeration_cost(spec) == pos_n_costs[n], spec


class TestKernelIdentities:
    """The identities the oracle's kind-S tally reads instead of a statistic."""

    def test_parity_string_lists_inv_mod_2_in_lexicographic_order(self):
        for m in range(9):
            assert bytes(_perm_parities(m)) == bytes(
                inv(p) % 2 for p in permutations(range(1, m + 1)))
            flipped = bytes(1 - b for b in _perm_parities(m))
            assert bytes(_perm_parities(m, shift=3)) == flipped

    def test_parity_stream_is_the_doubled_bytes_at_every_rank(self):
        # the reference: S_m's string doubled up from S_1's at every rank,
        # also above rank 8, where the stream chains S_8's
        strings = [(b"\0", b"\1")] * 2  # S_0's and S_1's, each with its flip
        for m in range(2, 11):
            a, b = strings[-1]
            strings.append(((a + b) * (m // 2) + a * (m % 2),
                            (b + a) * (m // 2) + b * (m % 2)))
        for n in range(11):
            for shift in (0, 1):
                assert bytes(_perm_parities(n, shift)) == strings[n][shift], (n, shift)
                for r in range(1, n + 1) if n <= 9 else ():
                    want = strings[n - 1][(n - r + shift) % 2]
                    assert bytes(groups._parities(n, r, shift)) == want, (n, r, shift)

    def test_a_half_reaches_its_first_window_in_little_memory(self):
        # at n = 11 the whole parity string is 11! bytes; the stream holds
        # S_8's, 40320 bytes, in either order
        for by_permutation in (False, True):
            tracemalloc.start()
            try:
                windows = iterate(GroupSpec("S", 11, "odd"), budget=None,
                                  by_permutation=by_permutation)
                first, peak = next(windows), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert tuple(first) == (*range(1, 10), 11, 10)
            assert peak < 8 * 2 ** 20, (by_permutation, peak)

    def test_complements(self):
        for n in range(8):
            for w in permutations(range(1, n + 1)):
                assert nexc(w) == n - exc(w)
                assert asc(w) == max(n - 1, 0) - des(w)


class TestRankZero:
    def test_empty_groups(self):
        assert cardinality(GroupSpec("S", 0)) == 1
        assert cardinality(GroupSpec("B", 0)) == 1
        assert cardinality(GroupSpec("D", 0)) == 1
        assert cardinality(GroupSpec("B-D", 0)) == 0

    def test_empty_window_stats(self):
        p = Perm(())
        assert (exc(p), nexc(p), des(p), inv(p), cyc(p)) == (0, 0, 0, 0, 0)
        assert pos_n(p) == 0
