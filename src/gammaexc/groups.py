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
``SignedPerm._trusted`` over it.  The oracle's fused kernel reads the bare
windows one permutation of [n] at a time: ``itertools.permutations`` on
S_n, ``compress``-ed to a parity half by its inv parities,
``_perm_parities``; a cycle type's class, generated; on a signed group one
``compress`` block per permutation and kept class.  Elsewhere, as for a
fixed-point count or a parity half of a pos_n slice, ``_lexicographic``
filters.  The per-element functions over ``iterate``'s lexicographic
elements are the reference for its sums.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress, product, starmap
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
        return not self == other

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
    """The cycle lengths of a window, weakly decreasing."""
    return tuple(sorted(map(len, _cycles(w)), reverse=True))


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
    return sum(1 for v in w if v < 0)


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
        given = tuple(sorted(given, reverse=True))
        if any(p < 1 for p in given):
            raise InvalidSpec(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", given)

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


def partitions(n):
    """Partitions of n as CycleTypes, in reverse lexicographic order."""
    if n < 0:
        raise InvalidSpec("n must be non-negative")
    return (CycleType(parts) for parts in _parts_desc(n, n))


# -- group enumeration ---------------------------------------------------------


# kind -> (the parities of the negated-entry count it keeps, how far one
# negated entry moves its even/odd length split mod 2, or None: no split).
# inv_B = inv_D + negs moves by 1; inv_D = inv(|w|) mod 2 and inv do not.
KINDS = {"S": ((0,), 0), "B": ((0, 1), 1), "D": ((0,), 0), "B-D": ((1,), None)}


@dataclass(frozen=True)
class GroupSpec:
    """One of the summation domains: a group, coset side, or refined subset.

    kind: a key of ``KINDS``: "S" (permutations), "B" (signed), "D" (even
    negatives), "B-D" (odd negatives).  parity restricts to even/odd length
    elements (inv for S, inv_B for B, inv_D for D; not available for B-D).
    The remaining filters apply to kind "S" only.
    """

    kind: str
    n: int
    parity: str = "all"
    pos_n: int | None = None
    fixed_points: int | None = None
    cycle_type: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        if self.n < 0:
            raise InvalidSpec("n must be non-negative")
        if self.parity not in ("all", "even", "odd"):
            raise InvalidSpec(f"parity must be all/even/odd, got {self.parity!r}")
        if self.parity != "all" and KINDS[self.kind][1] is None:
            raise InvalidSpec(f"{self.kind} carries no even/odd length split here")
        if self.kind != "S" and (self.pos_n is not None
                                 or self.fixed_points is not None
                                 or self.cycle_type is not None):
            raise InvalidSpec("pos_n/fixed_points/cycle_type apply to kind S only")
        if self.pos_n is not None and not 1 <= self.pos_n <= self.n:
            raise InvalidSpec(f"pos_n={self.pos_n} outside 1..{self.n}")
        if self.fixed_points is not None and not 0 <= self.fixed_points <= self.n:
            raise InvalidSpec(f"fixed_points={self.fixed_points} outside 0..{self.n}")
        if self.cycle_type is not None:
            lam = CycleType(tuple(self.cycle_type))
            if lam.n != self.n:
                raise InvalidSpec(f"{lam} is not a partition of {self.n}")
            object.__setattr__(self, "cycle_type", lam.parts)

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
    """(inv(w) + shift) % 2 for each window w of ``_perm_windows(n)``, as
    bytes: S_m's is S_(m-1)'s once per first letter, flipped under an even
    one, because inv(w) sums the Lehmer digits of w's lexicographic rank."""
    parities = b"\0", b"\1"  # S_1's, and flipped
    for m in range(2, n + 1):
        parities = [(a + b) * (m // 2) + a * (m % 2)
                    for a, b in (parities, parities[::-1])]
    return parities[shift % 2]


def _perm_windows_pos_n(n, r):
    """Windows of S_n with letter n at position r, in lexicographic order."""
    for reduced in _perm_windows(n - 1):
        yield reduced[:r - 1] + (n,) + reduced[r - 1:]


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


def _signed_windows_by_permutation(spec):
    """The spec's signed windows, one permutation p of [n] at a time.

    The permutations come in lexicographic order; each is followed by its
    kept windows, those with an even number of negated entries first.  The
    even/odd filter picks whole parity classes of negated entries, because
    inv_D is congruent to inv(p) and inv_B = inv_D + negs.  ``in_class[q]``
    masks the windows of ``product(*zip(p, -p))`` in class q.  The blocks
    are chained in C, so no Python frame runs per window.
    """
    in_class = [[sum(negated) % 2 == q
                 for negated in product((0, 1), repeat=spec.n)] for q in (0, 1)]
    kept, moves = KINDS[spec.kind]
    want = None if spec.parity == "all" else ("even", "odd").index(spec.parity)
    return chain.from_iterable(
        compress(product(*zip(p, map(neg, p))), in_class[q])
        for p, length in zip(_perm_windows(spec.n), _perm_parities(spec.n))
        for q in kept if want is None or (length + moves * q) % 2 == want)


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
    kind S, where a class is generated and a half of S_n ``compress``-ed.  A
    whole S_n is ``itertools.permutations`` either way.  Raises BudgetExceeded
    when called, before any window, if the scan is too large.
    """
    if budget is not None and enumeration_cost(spec) > budget:
        raise BudgetExceeded(f"enumerating {spec} visits {enumeration_cost(spec)}"
                             f" windows, over the budget of {budget}")
    n, r, want = spec.n, spec.pos_n, ("all", "even", "odd").index(spec.parity)
    if spec == GroupSpec("S", n):  # no filter
        windows = _perm_windows(n)
    elif by_permutation and spec.kind != "S":
        windows = _signed_windows_by_permutation(spec)
    elif by_permutation and spec.cycle_type and r is None:
        windows = _class_windows(spec)
    elif by_permutation and want and spec.fixed_points is spec.cycle_type is r is None:
        windows = compress(_perm_windows(n), _perm_parities(n, want))
    else:
        windows = _lexicographic(spec)
    element = Perm if spec.kind == "S" else SignedPerm
    return windows if by_permutation else map(element._trusted, windows)


def _lexicographic(spec):
    """``iterate``'s filter loop: bare windows in lexicographic order."""
    kept, moves = KINDS[spec.kind]
    if spec.kind == "S":
        stream = (_perm_windows(spec.n) if spec.pos_n is None
                  else _perm_windows_pos_n(spec.n, spec.pos_n))
        length = inv
    else:
        stream = _signed_windows(range(1, spec.n + 1),
                                 kept[0] if len(kept) == 1 else None)
        length = inv_b if moves else inv_d
    # the S-only filters are None on a signed spec
    fixed, lam = spec.fixed_points, spec.cycle_type
    want = None if spec.parity == "all" else ("even", "odd").index(spec.parity)
    for w in stream:
        if fixed is not None and fixed_points(w) != fixed:
            continue
        if lam is not None and _cycle_lengths(w) != lam:
            continue
        if want is not None and length(w) % 2 != want:
            continue
        yield w


def cardinality(spec, budget=DEFAULT_BUDGET):
    """Count the elements of the spec's domain by enumeration."""
    return sum(1 for _ in iterate(spec, budget=budget))
