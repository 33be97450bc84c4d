import re
from itertools import permutations

import pytest

from gammaexc.bijections import (
    DuplicateEntries,
    PreconditionViolated,
    cycle_excedances,
    foata_fft,
    foata_fft_inverse,
    long_cycle_to_perm,
    penultimate_to_front,
    perm_to_long_cycle,
    standardize_cycle,
    swap_last_two,
)
from gammaexc.groups import (
    GroupSpec,
    Perm,
    SignedPerm,
    WindowError,
    _cycles,
    asc,
    cycle_type,
    des,
    exc,
    inv,
    iterate,
    nexc,
    pos_n,
)


def _exactly(message):
    return f"^{re.escape(message)}$"


def _multiset(values):
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


class TestFoataFFT:
    def test_identity_maps_to_zero_descents(self):
        image = foata_fft(Perm.identity(5))
        assert des(image.window) == 0

    def test_distribution_matches_eulerian(self):
        images = [foata_fft(p) for p in iterate(GroupSpec("S", 4))]
        dist = _multiset(des(q.window) for q in images)
        assert dist == {0: 1, 1: 11, 2: 11, 3: 1}
        assert dist == _multiset(exc(p.window)
                                 for p in iterate(GroupSpec("S", 4)))

    def test_small_case(self):
        values = {exc(p.window) for p in iterate(GroupSpec("S", 2))}
        images = {des(foata_fft(p).window) for p in iterate(GroupSpec("S", 2))}
        assert values == images == {0, 1}

    def test_pointwise_and_bijective(self):
        for n in range(1, 7):
            seen = set()
            for p in iterate(GroupSpec("S", n)):
                image = foata_fft(p)
                assert des(image.window) == exc(p.window)
                assert foata_fft_inverse(image) == p
                seen.add(image.window)
            assert len(seen) == sum(1 for _ in iterate(GroupSpec("S", n)))


def _cycle_word_fft(w):
    """The cycle-word definition: each cycle from its least letter, the
    cycles by decreasing least letter, concatenated and reversed."""
    return tuple(reversed([v for c in reversed(_cycles(w)) for v in c]))


def _cycle_backwards_fft(w):
    """Each cycle walked backwards through the inverse, from the letter
    mapped to its least letter round to that letter, by increasing least."""
    preimage = {v: i for i, v in enumerate(w, 1)}
    word = []
    for cycle in _cycles(w):  # by increasing least letter
        j = preimage[cycle[0]]
        while j != cycle[0]:
            word.append(j)
            j = preimage[j]
        word.append(cycle[0])
    return tuple(word)


def _cycle_word_fft_inverse(w):
    """The reversed window cut before each left-to-right minimum, each piece
    written as a cycle."""
    word, image, start = tuple(w)[::-1], [0] * len(w), 0
    for i in range(1, len(w) + 1):
        if i == len(w) or word[i] < word[start]:
            cycle = word[start:i]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a - 1] = b
            start = i
    return tuple(image)


class TestFoataWalks:
    """The one-walk transform and its one-pass inverse against the cycle-word
    definitions, on every window of S_0..S_8."""

    @pytest.mark.parametrize("n", range(9))
    def test_equal_the_cycle_word_definitions(self, n):
        for w in map(Perm, permutations(range(1, n + 1))):
            assert tuple(foata_fft(w)) == _cycle_word_fft(w), w
            assert tuple(foata_fft_inverse(w)) == _cycle_word_fft_inverse(w), w

    @pytest.mark.parametrize("n", range(8))
    def test_the_forward_walk_writes_each_cycle_backwards(self, n):
        for w in map(Perm, permutations(range(1, n + 1))):
            assert tuple(foata_fft(w)) == _cycle_backwards_fft(w), w


class TestPenultimateToFront:
    def test_n2(self):
        image = penultimate_to_front(Perm((2, 1)))
        assert image == Perm((2, 1))
        assert exc((2, 1)) == des(image.window) == 1

    def test_statistic_transport(self):
        n = 5
        left = _multiset(
            (exc(p.window), nexc(p.window) - 1)
            for p in iterate(GroupSpec("S", n, pos_n=n - 1))
        )
        right = _multiset(
            (des(p.window), asc(p.window))
            for p in iterate(GroupSpec("S", n, pos_n=1))
        )
        assert left == right
        for p in iterate(GroupSpec("S", n, pos_n=n - 1)):
            image = penultimate_to_front(p)
            assert pos_n(image.window) == 1
            assert exc(p.window) == des(image.window)
            assert nexc(p.window) == asc(image.window) + 1

    def test_injective_on_domain(self):
        images = {penultimate_to_front(p).window
                  for p in iterate(GroupSpec("S", 4, pos_n=3))}
        assert len(images) == 6

    def test_precondition(self):
        with pytest.raises(PreconditionViolated, match=_exactly(
                "expected the letter 3 at position 2, found it at 3")):
            penultimate_to_front(Perm((1, 2, 3)))


class TestSwapLastTwo:
    def test_example(self):
        image = swap_last_two(Perm((3, 1, 2)))
        assert image == Perm((3, 2, 1))
        assert exc(image.window) == exc((3, 1, 2)) == 1
        assert inv(image.window) % 2 != inv((3, 1, 2)) % 2

    def test_involution_everywhere_applicable(self):
        for n in range(2, 6):
            for r in range(1, n - 1):
                for p in iterate(GroupSpec("S", n, pos_n=r)):
                    assert swap_last_two(swap_last_two(p)) == p

    def test_halving_consequence(self):
        for r in (1, 2):
            whole = _multiset(
                (exc(p.window), nexc(p.window))
                for p in iterate(GroupSpec("S", 4, pos_n=r))
            )
            even = _multiset(
                (exc(p.window), nexc(p.window))
                for p in iterate(GroupSpec("S", 4, parity="even", pos_n=r))
            )
            assert {k: 2 * v for k, v in even.items()} == whole

    def test_precondition(self):
        message = _exactly("the letter 3 must sit before position 2")
        with pytest.raises(PreconditionViolated, match=message):
            swap_last_two(Perm((1, 3, 2)))
        with pytest.raises(PreconditionViolated, match=message):
            swap_last_two(Perm((1, 2, 3)))


class TestLongCycleMaps:
    def test_example_n3(self):
        image = perm_to_long_cycle(Perm((1, 2)))
        assert image == Perm((3, 1, 2))
        assert des((1, 2)) == 0 and exc(image.window) == 1

    def test_distribution(self):
        dist = _multiset(
            exc(perm_to_long_cycle(p).window)
            for p in iterate(GroupSpec("S", 2))
        )
        assert dist == {1: 1, 2: 1}  # t + t^2 over the two 3-cycles

    def test_round_trip(self):
        for p in iterate(GroupSpec("S", 3)):
            image = perm_to_long_cycle(p)
            assert cycle_type(image.window).parts == (4,)
            assert long_cycle_to_perm(image) == p

    def test_statistic(self):
        for n in range(2, 7):
            for p in iterate(GroupSpec("S", n - 1)):
                assert exc(perm_to_long_cycle(p).window) == des(p.window) + 1

    def test_inverse_domain(self):
        with pytest.raises(PreconditionViolated,
                           match=_exactly("(2, 1, 4, 3) is not a single 4-cycle")):
            long_cycle_to_perm(Perm((2, 1, 4, 3)))
        with pytest.raises(PreconditionViolated,
                           match=_exactly("(1, 2, 3) is not a single 3-cycle")):
            long_cycle_to_perm(Perm((1, 2, 3)))
        with pytest.raises(PreconditionViolated, match=_exactly(
                "need a permutation of [m] with m >= 1")):
            perm_to_long_cycle(())


@pytest.mark.parametrize("bijection, window, message", [
    (foata_fft, (3, 1), "position 1: value 3 outside 1..2"),
    (foata_fft_inverse, SignedPerm((-1, 2)), "position 1: value -1 outside 1..2"),
    (penultimate_to_front, (1, 3, 3), "position 3: value 3 repeated"),
    (swap_last_two, (1, 1, 1), "position 2: value 1 repeated"),
    (perm_to_long_cycle, (1, 1), "position 2: value 1 repeated"),
    (long_cycle_to_perm, (2, 2), "position 2: value 2 repeated"),
    (long_cycle_to_perm, (5, 1), "position 1: value 5 outside 1..2"),
])
def test_bad_window_is_rejected(bijection, window, message):
    # a window that is not a Perm is validated before the map reads it
    with pytest.raises(WindowError, match=_exactly(message)):
        bijection(window)


class TestStandardize:
    def test_example(self):
        assert standardize_cycle((2, 7, 5)) == (1, 3, 2)
        assert cycle_excedances((2, 7, 5)) == cycle_excedances((1, 3, 2))

    def test_identity_on_initial_segment(self):
        assert standardize_cycle((1, 3, 2)) == (1, 3, 2)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateEntries):
            standardize_cycle((2, 2, 5))
        with pytest.raises(DuplicateEntries):
            cycle_excedances((1, 1))

    def test_excedance_preservation(self):
        from itertools import permutations

        for subset in ((4, 9, 11), (2, 3, 8, 10)):
            for arrangement in permutations(subset):
                assert cycle_excedances(arrangement) \
                    == cycle_excedances(standardize_cycle(arrangement))
