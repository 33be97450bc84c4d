"""Window-notation elements of the classical Weyl groups and their statistics.

A permutation of [n] is stored in window (one-line) notation as a tuple
``(pi_1, ..., pi_n)``.  A signed permutation stores a window of signed
integers whose absolute values are a permutation of [n]; the negative entry
-k plays the role of the barred letter.  The type-D group is the subset with
an even number of negative window entries.

Statistics.  Type A: position i is an excedance when pi_i > i; descents and
ascents compare adjacent window entries.  The signed groups follow Brenti's
excedance convention: position i is an excedance of sigma when
sigma_{|sigma_i|} > sigma_i, or when sigma_i = -i; the weak variant replaces
the second clause by sigma_i = i.  Type-B descents prepend sigma_0 = 0.  The
type-B inversion count used for the even/odd split is the pairwise one,

    inv_B = #{i<j: sigma_i > sigma_j} + #{i<j: -sigma_i > sigma_j} + #Negs,

which reproduces the classical base distributions; the alternative count
that adds the (negative) sum of negative letters to the ordinary inversion
number is exposed as ``inv_b_negsum`` for parity comparisons.  Type D drops
the #Negs term:  inv_D = inv + #{i<j: -sigma_i > sigma_j}.  ``pos_n`` is the
position of the entry of largest absolute value, on either kind of window.

Each statistic is one function of a window, and a ``Perm`` is one: a
validated window tuple.  ``KINDS`` is the one table of the group kinds'
rules.  ``iterate`` is the one enumerator: it picks one stream of bare
windows per spec and by default maps ``Perm._trusted`` or
``SignedPerm._trusted`` over it.  The oracle's fused kernel reads bare
windows one permutation of [n] at a time: a generated class for a cycle
type, and outside a run one ``compress`` block per p and class that
``_kept_classes`` keeps on a signed group.  Every other spec, in either
order, takes ``_lexicographic``: S_n or a pos_n slice, a half
``compress``-ed by its inv parities (``_parities``), then one loop for the
filters left (``_perm_bytes`` lays S_n's out as bytes).  The per-element
functions over ``iterate``'s lexicographic elements are the reference.
"""

import math
from collections import Counter
from itertools import chain, combinations, compress, product, repeat, starmap
from itertools import permutations as _itertools_permutations
from operator import eq, gt, le, lt, neg

from .poly import Record

DEFAULT_BUDGET = 10 ** 9


class WindowError(ValueError):
    """A window fails validation; the message pinpoints the position."""


class InvalidSpec(ValueError):
    """A group specification is internally inconsistent."""


class BudgetExceeded(RuntimeError):
    """Enumerating the requested group would visit too many elements."""


def parse_window(text):
    """Parse comma-separated signed integers, e.g. ``-2,1`` -> (-2, 1)."""
    entries = [piece.strip() for piece in text.split(",")]
    window = []
    for pos, piece in enumerate(entries, start=1):
        if not piece:
            raise WindowError(f"position {pos}: empty entry")
        try:
            window.append(int(piece))
        except ValueError:
            raise WindowError(f"position {pos}: {piece!r} is not an integer") from None
    return tuple(window)


def _validate_perm(window):
    n = len(window)
    seen = set()
    for pos, v in enumerate(window, start=1):
        if not 1 <= v <= n:
            raise WindowError(f"position {pos}: value {v} outside 1..{n}")
        if v in seen:
            raise WindowError(f"position {pos}: value {v} repeated")
        seen.add(v)


def _validate_signed(window):
    n = len(window)
    seen = set()
    for pos, v in enumerate(window, start=1):
        if v == 0:
            raise WindowError(f"position {pos}: zero is not a letter")
        if not 1 <= abs(v) <= n:
            raise WindowError(f"position {pos}: |{v}| outside 1..{n}")
        if abs(v) in seen:
            raise WindowError(f"position {pos}: letter {abs(v)} repeated")
        seen.add(abs(v))


class Perm(tuple):
    """A permutation of [n] in window notation: a validated window tuple.

    Ordering and concatenation follow ``tuple``.  Equality, hash and repr
    are class-exact: a ``Perm`` never equals its bare window, nor a
    ``SignedPerm`` with the same window.
    """

    __slots__ = ()
    _validate = staticmethod(_validate_perm)
    _trusted = classmethod(tuple.__new__)

    def __new__(cls, window):
        self = tuple.__new__(cls, window)
        cls._validate(self)
        return self

    @classmethod
    def parse(cls, text):
        return cls(parse_window(text))

    @classmethod
    def identity(cls, n):
        return cls._trusted(range(1, n + 1))

    @property
    def window(self):
        return tuple(self)

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    def __hash__(self):
        return hash((type(self).__name__, tuple(self)))

    def __str__(self):
        return ",".join(map(str, self))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class SignedPerm(Perm):
    """A signed permutation (hyperoctahedral element) in window notation."""

    __slots__ = ()
    _validate = staticmethod(_validate_signed)


# -- type A statistics -------------------------------------------------------


def exc(w):
    return sum(map(gt, w, range(1, len(w) + 1)))


def nexc(w):
    return sum(map(le, w, range(1, len(w) + 1)))


def des(w):
    return sum(map(gt, w, w[1:]))


def asc(w):
    return sum(map(lt, w, w[1:]))


def inv(w):
    return sum(starmap(gt, combinations(w, 2)))


def fixed_points(w):
    return sum(map(eq, w, range(1, len(w) + 1)))


def _cycles(w):
    """The cycles of a window, each listed from its smallest entry.

    Each walk starts at the smallest position not yet visited, which is the
    least entry of its cycle, so cycles come out in increasing first entry.
    """
    seen = [False] * len(w)
    cycles = []
    for start in range(len(w)):
        if seen[start]:
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j + 1)
            j = w[j] - 1
        cycles.append(cycle)
    return cycles


def _cycle_lengths(w):
    """The cycle lengths of a window, weakly decreasing: each cycle counted
    from its least letter, its other letters zeroed as passed, till all are."""
    image, lengths, left = [0, *w], [], len(w)
    for least in range(1, len(w) + 1):
        if j := image[least]:
            k = 1
            while j != least:
                image[j], j = 0, image[j]
                k += 1
            lengths.append(k)
            if not (left := left - k):
                break
    lengths.sort(reverse=True)
    return tuple(lengths)


def cyc(w):
    return len(_cycles(w))


def sign(w):
    return -1 if inv(w) % 2 else 1


def pos_n(w):
    """1-based position of the entry of largest absolute value; 0 if empty.

    On a permutation or signed permutation of [n] this is where n or -n sits.
    """
    return w.index(max(w, key=abs)) + 1 if w else 0


# -- signed statistics (types B and D) ----------------------------------------


def negs(w):
    return sum(map(lt, w, repeat(0)))


def _brenti_exc(w, fixed_sign):
    """#{i: w_{|w_i|} > w_i, or w_i = fixed_sign * i}."""
    count = 0
    for i, v in enumerate(w, start=1):
        if w[abs(v) - 1] > v or v == fixed_sign * i:
            count += 1
    return count


def exc_b(w):
    return _brenti_exc(w, -1)


def nexc_b(w):
    return len(w) - exc_b(w)


def wkexc_b(w):
    return _brenti_exc(w, 1)


def des_b(w):
    return des((0, *w))


def asc_b(w):
    return asc((0, *w))


def inv_b(w):
    return inv_d(w) + negs(w)


def inv_b_negsum(w):
    """Alternative type-B inversion count: inv plus the sum of negative letters."""
    return inv(w) + sum(v for v in w if v < 0)


exc_d = exc_b
nexc_d = nexc_b
wkexc_d = wkexc_b


def inv_d(w):
    return inv(w) + sum(-a > b for a, b in combinations(w, 2))


# -- cycle types and partitions ------------------------------------------------


class CycleType(Record):
    """An integer partition recording cycle lengths, parts weakly decreasing."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        given = tuple(parts)
        for p in given:
            if type(p) is not int:  # bool and float are not parts
                raise InvalidSpec(f"part {p!r} is not an int")
        if any(p < 1 for p in given):
            raise InvalidSpec(f"parts must be positive: {parts}")
        super().__init__(tuple(sorted(given, reverse=True)))

    @property
    def n(self):
        return sum(self.parts)

    def multiplicity(self, i):
        return sum(1 for p in self.parts if p == i)

    def multiplicities(self):
        return dict(Counter(self.parts))

    @property
    def fixed_points(self):
        return self.multiplicity(1)

    @property
    def sign(self):
        return -1 if (self.n - len(self.parts)) % 2 else 1

    def class_size(self):
        """|C_lambda| = n! / prod(i^m_i * m_i!)."""
        size = math.factorial(self.n)
        for i, m in self.multiplicities().items():
            size //= i ** m * math.factorial(m)
        return size

    def __str__(self):
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def __iter__(self):
        return iter(self.parts)


def cycle_type(w):
    """Cycle type of a permutation; its sign equals the permutation's sign."""
    return CycleType(_cycle_lengths(w))


def _parts_desc(remaining, max_part):
    if remaining == 0:
        yield ()
    for p in range(min(remaining, max_part), 0, -1):
        yield from ((p,) + rest for rest in _parts_desc(remaining - p, p))


def _check_rank(n):
    if type(n) is not int:  # bool and float are not ranks
        raise InvalidSpec(f"rank {n!r} is not an int")
    if n < 0:
        raise InvalidSpec("n must be non-negative")


def partitions(n):
    """Partitions of n as CycleTypes, in reverse lexicographic order."""
    _check_rank(n)
    return (CycleType(parts) for parts in _parts_desc(n, n))


# -- group enumeration ---------------------------------------------------------


# kind -> (the parities of the negated-entry count it keeps, how far one
# negated entry moves its even/odd length split mod 2, or None: no split).
# inv_B = inv_D + negs moves by 1; inv_D = inv(|w|) mod 2 and inv do not.
KINDS = {"S": ((0,), 0), "B": ((0, 1), 1), "D": ((0,), 0), "B-D": ((1,), None)}


class GroupSpec(Record):
    """One of the summation domains: a group, coset side, or refined subset.

    kind: a key of ``KINDS``: "S" (permutations), "B" (signed), "D" (even
    negatives), "B-D" (odd negatives).  parity restricts to even/odd length
    elements (inv for S, inv_B for B, inv_D for D; not available for B-D).
    The remaining filters apply to kind "S" only.
    """

    __slots__ = ("kind", "n", "parity", "pos_n", "fixed_points", "cycle_type")

    def __init__(self, kind, n, parity="all", pos_n=None, fixed_points=None,
                 cycle_type=None):
        if not isinstance(kind, str) or kind not in KINDS:
            raise InvalidSpec(f"unknown kind {kind!r}")
        _check_rank(n)
        if parity not in ("all", "even", "odd"):
            raise InvalidSpec(f"parity must be all/even/odd, got {parity!r}")
        if parity != "all" and KINDS[kind][1] is None:
            raise InvalidSpec(f"{kind} carries no even/odd length split here")
        if kind != "S" and (pos_n is not None or fixed_points is not None
                            or cycle_type is not None):
            raise InvalidSpec("pos_n/fixed_points/cycle_type apply to kind S only")
        for name, value, low in (("pos_n", pos_n, 1), ("fixed_points", fixed_points, 0)):
            if value is not None and type(value) is not int:
                raise InvalidSpec(f"{name} {value!r} is not an int")
            if value is not None and not low <= value <= n:
                raise InvalidSpec(f"{name}={value} outside {low}..{n}")
        if cycle_type is not None:
            lam = CycleType(tuple(cycle_type))
            if lam.n != n:
                raise InvalidSpec(f"{lam} is not a partition of {n}")
            cycle_type = lam.parts
        super().__init__(kind, n, parity, pos_n, fixed_points, cycle_type)

    def __str__(self):
        tags = [f"{self.kind}_{self.n}"]
        if self.parity != "all":
            tags.append("+" if self.parity == "even" else "-")
        if self.pos_n is not None:
            tags.append(f"pos_n={self.pos_n}")
        if self.fixed_points is not None:
            tags.append(f"fix={self.fixed_points}")
        if self.cycle_type is not None:
            tags.append("type=" + ",".join(map(str, self.cycle_type)))
        return " ".join(tags)


def enumeration_cost(spec):
    """Number of windows the enumerator must visit for this spec."""
    if spec.kind == "S":  # a pos_n slice fixes where n sits
        return math.factorial(spec.n - (spec.pos_n is not None))
    # a kind that keeps one parity of negated entries has half the signs
    signs = 2 ** max(spec.n - (len(KINDS[spec.kind][0]) == 1), 0)
    return signs * math.factorial(spec.n)


def _perm_windows(n):
    return _itertools_permutations(range(1, n + 1))


def _perm_parities(n, shift=0):
    """(inv(w) + shift) % 2 for each window w of ``_perm_windows(n)``, as a
    stream: S_m's is S_(m-1)'s once per first letter, flipped under an even
    one (inv(w) sums w's Lehmer digits), so S_n's chains S_8's per prefix."""
    low = min(n, 8)  # S_8's, 40320 bytes, is the longest string built
    parities = b"\0", b"\1"  # S_1's, and flipped
    for m in range(2, low + 1):
        parities = [(a + b) * (m // 2) + a * (m % 2)
                    for a, b in (parities, parities[::-1])]
    return chain.from_iterable(  # up to n = 8, one prefix: the empty one
        parities[(shift + sum(digits)) % 2]
        for digits in product(*map(range, range(n, low, -1))))


def _perm_bytes(n):
    """``_perm_windows(n)`` as one byte string: S_m's is S_(m-1)'s, each window
    led by a 0 byte (by extended slices), translated once per first letter
    a: 0 to a, and each letter from a up one higher."""
    flat = b""
    for m in range(1, n + 1):  # a first letter's block: (m - 1)! windows, m! bytes
        size = math.factorial(m)
        padded, flat, prev = bytearray(size), bytearray(m * size), flat
        for i in range(1, m):
            padded[i::m] = prev[i - 1::m - 1]
        for a in range(1, m + 1):
            flat[(a - 1) * size:a * size] = padded.translate(
                bytes([a, *range(1, a), *range(a + 1, m + 1)]).ljust(256, b"\0"))
    return flat


def _perm_windows_pos_n(n, r):
    """Windows of S_n with letter n at position r, in lexicographic order."""
    for reduced in _perm_windows(n - 1):
        yield reduced[:r - 1] + (n,) + reduced[r - 1:]


def _parities(n, r, shift=0):
    """``_perm_parities`` of S_n, or of its pos_n slice at r: the slice's is
    S_(n-1)'s shifted by n - r, since n at position r inverts with the n - r
    letters after it."""
    return (_perm_parities(n, shift) if r is None
            else _perm_parities(n - 1, n - r + shift))


def _signed_windows(letters, negs_parity=None, prefix=()):
    """``prefix`` followed by each signed window over ``letters``, in
    lexicographic order.

    ``negs_parity`` (0 or 1) keeps only the windows with that parity of
    negative entries; each negated letter flips the parity still wanted.
    """
    letters = frozenset(letters)
    if not letters:
        if not negs_parity:
            yield prefix
        return
    flipped = None if negs_parity is None else 1 - negs_parity
    order = sorted(letters)
    for v in reversed(order):
        yield from _signed_windows(letters - {v}, flipped, prefix + (-v,))
    for v in order:
        yield from _signed_windows(letters - {v}, negs_parity, prefix + (v,))


def _kept_classes(spec):
    """Per inv(p) mod 2, the classes of p's windows (their parities of
    negated entries) the signed spec keeps: its kind's, and on a half those
    whose length parity, inv(p) + moves * class (``KINDS``), is the half's."""
    kept, moves = KINDS[spec.kind]
    return [tuple(q for q in kept if spec.parity == "all"
                  or (bit + moves * q) % 2 == (spec.parity == "odd")) for bit in (0, 1)]


def _signed_windows_by_permutation(spec):
    """The spec's signed windows, p by p in lexicographic order: the classes
    of p that ``_kept_classes`` keeps, even first, each masked from
    ``product(*zip(p, -p))`` by ``in_class`` and chained in C, so no Python
    frame runs per window; the masks are built on the first pull."""
    def blocks():
        classes, in_class = _kept_classes(spec), [
            [sum(negated) % 2 == q for negated in product((0, 1), repeat=spec.n)]
            for q in (0, 1)]
        for p, length in zip(_perm_windows(spec.n), _perm_parities(spec.n)):
            for q in classes[length]:
                yield compress(product(*zip(p, map(neg, p))), in_class[q])
    return chain.from_iterable(blocks())


def _class_windows(spec):
    """The spec's cycle type class (none if the type fixes another parity or
    fixed point count), the least free letter's cycle taking each length left."""
    lam, window = CycleType(spec.cycle_type), [0] * spec.n
    def windows(free, parts):
        after = {k: parts[:i] + parts[i + 1:] for i, k in enumerate(parts)}
        for k, left in after.items():
            for others in _itertools_permutations(free[1:], k - 1):
                cycle = (free[0], *others)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    window[a - 1] = b
                if left:
                    yield from windows([v for v in free if v not in cycle], left)
                else:
                    yield tuple(window)
    if spec.fixed_points in (None, lam.fixed_points) and spec.parity in (
            "all", "even" if lam.sign > 0 else "odd"):
        yield from windows(range(1, spec.n + 1), lam.parts)


def iterate(spec, budget=DEFAULT_BUDGET, *, by_permutation=False):
    """An iterator over the spec's domain, each element once.

    By default the elements come in lexicographic window order, as ``Perm``
    or ``SignedPerm``, one ``map`` over bare windows.  With ``by_permutation``
    they stay bare, one permutation p of [n] at a time: on a signed group in
    blocks of 2^(n-1) windows (the one empty window at n = 0), each one
    class of p (the parity of its negated-entry count); one window per p on
    kind S, where a cycle type's class is generated and every other spec
    keeps the lexicographic order.  Raises BudgetExceeded when called,
    before any window, if the scan is too large.
    """
    if budget is not None and enumeration_cost(spec) > budget:
        raise BudgetExceeded(f"enumerating {spec} visits {enumeration_cost(spec)}"
                             f" windows, over the budget of {budget}")
    if by_permutation and spec.kind != "S":
        windows = _signed_windows_by_permutation(spec)
    elif by_permutation and spec.cycle_type and spec.pos_n is None:
        windows = _class_windows(spec)
    else:
        windows = _lexicographic(spec)
    element = Perm if spec.kind == "S" else SignedPerm
    return windows if by_permutation else map(element._trusted, windows)


def _lexicographic(spec):
    """``iterate``'s bare windows in lexicographic order: a half of S_n or of
    a pos_n slice ``compress``-ed by ``_parities``, then one loop for the
    filters left (fixed points, cycle type, a signed half's length), if any."""
    n, r, (kept, moves) = spec.n, spec.pos_n, KINDS[spec.kind]
    want = ("all", "even", "odd").index(spec.parity)  # want - 1: the parity kept
    fixed, lam, length = spec.fixed_points, spec.cycle_type, None
    if spec.kind != "S":
        stream = _signed_windows(range(1, n + 1), kept[0] if len(kept) == 1 else None)
        length = (inv_b if moves else inv_d) if want else None
    else:
        stream = _perm_windows(n) if r is None else _perm_windows_pos_n(n, r)
        if want:
            stream = compress(stream, _parities(n, r, want))
    if fixed is lam is length is None:
        return stream
    return (w for w in stream if (fixed is None or fixed_points(w) == fixed)
            and (lam is None or _cycle_lengths(w) == lam)
            and (length is None or length(w) % 2 == want - 1))


def cardinality(spec, budget=DEFAULT_BUDGET):
    """Count the elements of the spec's domain by enumeration."""
    return sum(1 for _ in iterate(spec, budget=budget))
