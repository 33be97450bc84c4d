"""Statistic-transporting bijections on the symmetric group.

``foata_fft`` carries the excedance count to the descent count.  Write each
cycle with its smallest element first and sort the cycles by decreasing
first entries; in the concatenated word, the within-cycle adjacencies are
ascents exactly at the excedance positions and every cycle boundary is a
descent, so the word's ascent count equals exc.  Reversing the word turns
ascents into descents, giving des(fft(p)) = exc(p).  The word is decodable
(cut before each left-to-right minimum), so the map is a bijection.

The remaining maps move the largest letter around the window: the
penultimate-to-front bijection and the last-two-swap involution drive the
plus/minus recurrences, and the long-cycle correspondence identifies the
excedance distribution over n-cycles with a shifted descent distribution.
"""

from __future__ import annotations

from .groups import Perm, _cycles, _window, cyc, pos_n


class PreconditionViolated(ValueError):
    """The map's domain condition on the window fails."""


class DuplicateEntries(ValueError):
    """Cycle entries must be distinct."""


def foata_fft(p):
    """Foata's first fundamental transformation: des(fft(p)) = exc(p)."""
    word = [v for c in reversed(_cycles(_window(p))) for v in c]
    return Perm._trusted(tuple(reversed(word)))


def foata_fft_inverse(p):
    """Inverse of ``foata_fft``: exc(fft_inverse(p)) = des(p)."""
    u = _window(p)
    word = tuple(reversed(u))
    n = len(word)
    image = [0] * n
    start = 0
    for i in range(1, n + 1):
        if i == n or word[i] < word[start]:
            cycle = word[start:i]  # first entry is the cycle's minimum
            for a, b in zip(cycle, cycle[1:]):
                image[a - 1] = b
            image[cycle[-1] - 1] = cycle[0]
            start = i
    return Perm._trusted(tuple(image))


def penultimate_to_front(p):
    """Move the top letter from the penultimate slot to the front, applying
    the fundamental transformation to the rest.

    Domain: windows with the letter n at position n-1.  The image has n at
    position 1, and (exc, nexc-1) of the input becomes (des, asc) of the
    output.
    """
    w = _window(p)
    n = len(w)
    if n < 2 or pos_n(w) != n - 1:
        raise PreconditionViolated(
            f"expected the letter {n} at position {n - 1}, found it at {pos_n(w)}"
        )
    reduced = tuple(v for v in w if v != n)
    transformed = foata_fft(reduced)
    return Perm._trusted((n,) + transformed.window)


def swap_last_two(p):
    """Exchange the last two window entries.

    Domain: windows whose top letter sits before the last two positions.
    This is a sign-reversing involution preserving the excedance count.
    """
    w = _window(p)
    n = len(w)
    if n < 2 or pos_n(w) > n - 2:
        raise PreconditionViolated(
            f"the letter {n} must sit before position {n - 1}"
        )
    return Perm._trusted(w[:-2] + (w[-1], w[-2]))


def perm_to_long_cycle(p):
    """Encode a permutation of [n-1] as an n-cycle with exc = des + 1.

    The window a_1..a_{n-1} maps to the cycle (1, n+1-a_1, ..., n+1-a_{n-1})
    on [n], returned in window notation.
    """
    w = _window(p)
    n = len(w) + 1
    if n < 2:
        raise PreconditionViolated("need a permutation of at least the empty set")
    cycle = [1] + [n + 1 - a for a in w]
    image = [0] * n
    for a, b in zip(cycle, cycle[1:]):
        image[a - 1] = b
    image[cycle[-1] - 1] = cycle[0]
    return Perm._trusted(tuple(image))


def long_cycle_to_perm(p):
    """Inverse of ``perm_to_long_cycle``; domain: single n-cycles on [n]."""
    w = _window(p)
    n = len(w)
    if n < 2 or cyc(w) != 1:
        raise PreconditionViolated(f"{w} is not a single {n}-cycle")
    cycle = [1]
    j = w[0]
    while j != 1:
        cycle.append(j)
        j = w[j - 1]
    return Perm._trusted(tuple(n + 1 - a for a in cycle[1:]))


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
    count = 0
    for a, b in zip(entries, entries[1:] + entries[:1]):
        if b > a:
            count += 1
    return count
