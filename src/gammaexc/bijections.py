"""Statistic-transporting bijections on the symmetric group.

``foata_fft`` carries the excedance count to the descent count.  Write each
cycle with its smallest element first and sort the cycles by decreasing
first entries; in the concatenated word, the within-cycle adjacencies are
ascents exactly at the excedance positions and every cycle boundary is a
descent, so the word's ascent count equals exc.  Reversing the word turns
ascents into descents, giving des(fft(p)) = exc(p): one walk of each cycle
forwards from its least letter, by increasing least letter, each letter
written before the one it follows.  The word is decodable (cut before
each left-to-right minimum, in one pass), so the map is a bijection.

The remaining maps move the largest letter around the window: the
penultimate-to-front bijection and the last-two-swap involution drive the
plus/minus recurrences, and the long-cycle correspondence identifies the
excedance distribution over n-cycles with a shifted descent distribution.
Each map reads any window, validated unless it is a ``Perm``, and returns
a ``Perm``; a bad window raises ``WindowError``.
"""

from .groups import Perm, _cycles, pos_n


class PreconditionViolated(ValueError):
    """The map's domain condition on the window fails."""


class DuplicateEntries(ValueError):
    """Cycle entries must be distinct."""


def foata_fft(w):
    """Foata's first fundamental transformation: des(fft(w)) = exc(w)."""
    if type(w) is not Perm:
        w = Perm(w)
    image, word = [0, *w], []  # letter -> its image; 0 once written
    for least in range(1, len(w) + 1):
        if j := image[least]:  # else written with a smaller letter's cycle
            start = len(word)
            word.append(least)
            while j != least:  # the cycle forwards, each letter before the last
                word.insert(start, j)
                image[j], j = 0, image[j]
    return Perm._trusted(word)


def foata_fft_inverse(w):
    """Inverse of ``foata_fft``: exc(fft_inverse(w)) = des(w)."""
    if type(w) is not Perm:
        w = Perm(w)
    image = [0] * (len(w) + 1)  # letter -> its image; entry 0 is scratch
    least, prev = len(w) + 1, 0
    for v in reversed(w):
        # a left-to-right minimum of the word opens a cycle and closes the
        # one before, whose last letter maps back to that cycle's least
        if v < least:
            image[prev], least = least, v
        else:
            image[prev] = v
        prev = v
    image[prev] = least
    return Perm._trusted(image[1:])


def penultimate_to_front(w):
    """Move the top letter from the penultimate slot to the front, applying
    the fundamental transformation to the rest.

    Domain: windows with the letter n at position n-1.  The image has n at
    position 1, and (exc, nexc-1) of the input becomes (des, asc) of the
    output.
    """
    if type(w) is not Perm:
        w = Perm(w)
    n = len(w)
    if n < 2 or pos_n(w) != n - 1:
        raise PreconditionViolated(
            f"expected the letter {n} at position {n - 1}, found it at {pos_n(w)}"
        )
    reduced = Perm._trusted((*w[:-2], w[-1]))  # w without its letter n
    return Perm._trusted((n, *foata_fft(reduced)))


def swap_last_two(w):
    """Exchange the last two window entries.

    Domain: windows whose top letter sits before the last two positions.
    This is a sign-reversing involution preserving the excedance count.
    """
    if type(w) is not Perm:
        w = Perm(w)
    n = len(w)
    if n < 2 or pos_n(w) > n - 2:
        raise PreconditionViolated(
            f"the letter {n} must sit before position {n - 1}"
        )
    return Perm._trusted((*w[:-2], w[-1], w[-2]))


def perm_to_long_cycle(w):
    """Encode a permutation of [n-1] as an n-cycle with exc = des + 1.

    The window a_1..a_{n-1} maps to the cycle (1, n+1-a_1, ..., n+1-a_{n-1})
    on [n], returned in window notation.
    """
    if type(w) is not Perm:
        w = Perm(w)
    n = len(w) + 1
    if n < 2:
        raise PreconditionViolated("need a permutation of [m] with m >= 1")
    cycle = [1, *(n + 1 - a for a in w)]
    image = dict(zip(cycle, cycle[1:] + [1]))  # each letter to the next
    return Perm._trusted(map(image.get, range(1, n + 1)))


def long_cycle_to_perm(w):
    """Inverse of ``perm_to_long_cycle``; domain: single n-cycles on [n]."""
    if type(w) is not Perm:
        w = Perm(w)
    n = len(w)
    if n < 2 or len(cycles := _cycles(w)) != 1:
        raise PreconditionViolated(f"{tuple(w)} is not a single {n}-cycle")
    return Perm._trusted(n + 1 - a for a in cycles[0][1:])


def standardize_cycle(entries):
    """Order-preserving relabelling of a cycle onto [k].

    The least entry becomes 1, the next becomes 2, and so on; the excedance
    count of the cycle (as a permutation of its entry set) is preserved.
    """
    entries = tuple(entries)
    if len(set(entries)) != len(entries):
        raise DuplicateEntries(f"cycle entries repeat: {entries}")
    rank = {v: i + 1 for i, v in enumerate(sorted(entries))}
    return tuple(rank[v] for v in entries)


def cycle_excedances(entries):
    """Excedances of the cyclic permutation (e_1 e_2 ... e_k) of its entries."""
    entries = tuple(entries)
    if len(set(entries)) != len(entries):
        raise DuplicateEntries(f"cycle entries repeat: {entries}")
    return sum(b > a for a, b in zip(entries, entries[1:] + entries[:1]))
