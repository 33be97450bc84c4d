"""Brute-force generating functions over the classical Weyl groups.

``dist_poly`` sums a monomial weight over any enumerable domain and is the
ground truth that every closed form and recurrence in this library is tested
against.  A weight assigns each polynomial variable a statistic and an
integer offset (the type-A families use s^(nexc-1) while the signed families
use s^nexc; the offset makes that visible in one place), plus an optional
sign statistic contributing (-1)^stat.

Every weighted sum runs through one fused kernel, behind ``dist_poly`` and
``length_halves``.  It reads each exponent as a base statistic plus an
offset, with a sign: a complement is a constant minus its base
(``_COMPLEMENTS``: nexc = n - exc, asc = max(n - 1, 0) - des).  A tally
counts only the distinct base values, with inv(p) mod 2 (on S_n or a pos_n
slice, ``groups._parities``) and the class; the kernel folds each entry into
a weight once.  On kind S the tally pulls ``groups.iterate``'s bare windows
and runs in C: each base reads a ``tee`` copy of the stream by its stream
form (``_A_STREAMS``: nested maps, tested against the per-element functions)
or by one ``map``, and ``Counter(zip(...))`` counts them.  A signed base has
a kernel form, affine in the sign indicators: p gives (c, w), and the window
negating the positions in N has c + sum(w[j] for j in N).  A signed domain
is each p in the classes (the parity of |N|) ``groups._kept_classes`` keeps
for inv(p) mod 2, so the tally counts p's signatures (c, the sorted w,
inv(p) mod 2), whose values it builds once by doubling over positions.  The
length and the sign are inv(p) mod 2, moved by the class for the type-B
length and the inv_b sign, so one tally gives the even- and odd-length
halves apart (``length_halves``).  Tests compare the kernel against the
reference sum ``_weighted_sum``, which reads the per-element functions of
``groups``.

A run, a ``kernel_memo`` block (``checks.run_suite`` opens one), walks a
tally once per (spec, budget, base names, parity carried) and folds it for
each weight that reads it.  It counts the signatures over S_n once per n and
set of forms and reads every signed domain off the count, with no window.
On kind S it holds each statistic over a spec as a column, read by the
checks streaming exc too (``_column``).  A bare call holds neither and pulls
its windows through ``iterate``.  The memo is a ``ContextVar``, per run and
context (another thread sees none); it keeps only tallies that completed.

``family_poly`` names the standard distributions: type-A/B/D excedance
polynomials and their even/odd-length halves, descent polynomials, signed
sums, derangement and conjugacy-class restrictions, and the q-refinements.
Each is one ``Family`` record in ``FAMILIES``, which pairs its enumeration
domain with its closed engine; ``closed_family`` and the CLI read the same
table.  The derangement and conjugacy-class families are univariate in t,
matching their closed product forms; bivariate variants remain one
``dist_poly`` call away.
"""

from collections import Counter, deque
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, combinations, groupby, islice, repeat, starmap, tee
from operator import eq, getitem, gt, lt, sub

from . import closedforms
from .groups import (
    DEFAULT_BUDGET,
    GroupSpec,
    InvalidSpec,
    KINDS,
    _kept_classes,
    _parities,
    _perm_windows,
    asc,
    asc_b,
    cyc,
    des,
    des_b,
    exc,
    exc_b,
    exc_d,
    fixed_points,
    inv,
    inv_b,
    inv_d,
    iterate,
    negs,
    nexc,
    nexc_b,
    nexc_d,
    pos_n,
    wkexc_b,
    wkexc_d,
)
from .poly import BIVARIATE, Poly, Q_COEFFICIENTS, Record, UNIVARIATE, _VAR_RANK


class UndefinedStatistic(ValueError):
    """The weight references a statistic the domain's elements do not carry."""


class UnsupportedClass(ValueError):
    """The family does not define the requested even/odd restriction."""


A_STATISTICS = {
    "exc": exc,
    "nexc": nexc,
    "des": des,
    "asc": asc,
    "inv": inv,
    "cyc": cyc,
    "fixed_points": fixed_points,
    "pos_n": pos_n,
}

SIGNED_STATISTICS = {
    "exc_b": exc_b,
    "nexc_b": nexc_b,
    "wkexc_b": wkexc_b,
    "des_b": des_b,
    "asc_b": asc_b,
    "inv_b": inv_b,
    "negs": negs,
    "pos_n": pos_n,
    "exc_d": exc_d,
    "nexc_d": nexc_d,
    "wkexc_d": wkexc_d,
    "inv_d": inv_d,
}

SIGN_STATISTICS = {"inv": inv, "inv_b": inv_b, "inv_d": inv_d}


class WeightSpec(Record):
    """Monomial weight: (variable, statistic, offset) triples plus a sign stat."""

    __slots__ = ("exponents", "sign_stat")

    def __init__(self, exponents, sign_stat=None):
        exps = tuple((v, stat, off) for v, stat, off in exponents)
        names = [v for v, _, _ in exps]
        if len(set(names)) != len(names):
            raise InvalidSpec(f"variable assigned twice in {exps}")
        for v, _, off in exps:
            if v not in _VAR_RANK:
                raise InvalidSpec(f"unknown variable {v!r}")
            if type(off) is not int:  # bool and float are not offsets
                raise InvalidSpec(f"offset {off!r} of {v!r} is not an int")
        if sign_stat is not None and sign_stat not in SIGN_STATISTICS:
            raise InvalidSpec(f"sign statistic must be one of {sorted(SIGN_STATISTICS)}")
        super().__init__(tuple(sorted(exps, key=lambda e: _VAR_RANK[e[0]])),
                         sign_stat)

    @property
    def variables(self):
        return tuple(v for v, _, _ in self.exponents)


def _resolve(weight, kind):
    """The names of the weight's exponent statistics.

    Raises UndefinedStatistic for a statistic, or a sign statistic,
    kind-``kind`` elements lack.
    """
    table = A_STATISTICS if kind == "S" else SIGNED_STATISTICS
    names = [stat for _, stat, _ in weight.exponents]
    for label, stat in [*(("statistic", name) for name in names),
                        ("sign statistic", weight.sign_stat)]:
        if stat is not None and stat not in table:
            raise UndefinedStatistic(
                f"{label} {stat!r} is not defined on {kind}-type elements")
    return names


def _weighted_sum(windows, weight, kind):
    """Reference sum: the weight monomial over windows, one at a time (a
    ``Perm`` is one).

    Reads every statistic through its per-element function in ``groups``.
    ``dist_poly`` does not run it; tests compare the kernel against it, and
    the kernel calls it to name the first window whose exponent goes
    negative.
    """
    table = A_STATISTICS if kind == "S" else SIGNED_STATISTICS
    funcs = [table[stat] for stat in _resolve(weight, kind)]
    sign_func = table.get(weight.sign_stat)
    acc = {}
    for w in windows:
        key = []
        for func, (_, _, off) in zip(funcs, weight.exponents):
            e = func(w) + off
            if e < 0:
                raise InvalidSpec(
                    f"offset drives exponent negative on {','.join(map(str, w))} "
                    f"(statistic value {func(w)}, offset {off})"
                )
            key.append(e)
        value = 1 if sign_func is None else (1 if sign_func(w) % 2 == 0 else -1)
        key = tuple(key)
        acc[key] = acc.get(key, 0) + value
    return Poly(weight.variables, acc)


# -- the fused kernel ----------------------------------------------------------

# Each complement statistic is a constant minus its base statistic: name ->
# (base name, the constant at rank n).  The kernel computes only bases.
_COMPLEMENTS = {
    "nexc": ("exc", lambda n: n),
    "asc": ("des", lambda n: max(n - 1, 0)),
    "nexc_b": ("exc_b", lambda n: n),
    "asc_b": ("des_b", lambda n: n),
    "nexc_d": ("exc_d", lambda n: n),
}


def _signed_kernel(n):
    """Kernel forms of the signed base statistics: permutation -> (c, w).

    A signed window is a permutation p of [n] with the entries at a set N of
    positions negated.  Every signed statistic is affine in the sign
    indicators: on that window it equals c + sum(w[j] for j in N), with j
    0-based.  The complements are not here: ``_COMPLEMENTS`` reads them off
    their bases.
    """

    def des_b(p):
        # negating p_j adds the descent into j (from p_{j-1}, or from the
        # prepended 0) unless p has it, and removes p's descent out of j
        into = map(lt, (0,) + p, p)
        out = [*map(gt, p, p[1:]), False]
        return sum(out), list(map(sub, into, out))

    def excedances(weak):
        # Let U hold the positions i with p_{p_i} > p_i, and also the fixed
        # points when weak.  Position i counts iff i is in U and position
        # p_i is positive, or i is negated and not in U.  So negating j adds
        # [j not in U] and takes away [j = p_i for some i in U].
        def form(p):
            up = [p[v - 1] > v or weak and v == i for i, v in enumerate(p, 1)]
            hit = [False] * n
            for v, counted in zip(p, up):
                if counted:
                    hit[v - 1] = True
            return sum(up), [(not u) - h for u, h in zip(up, hit)]
        return form

    def inversions(negs_weight):
        # inv_D = inv(p) + 2 * sum over j in N of #{i < j: p_i < p_j};
        # inv_B = inv_D + negs
        return lambda p: (inv(p), [2 * sum(a < v for a in p[:j]) + negs_weight
                                   for j, v in enumerate(p)])

    exc_b, wkexc_b = excedances(False), excedances(True)
    return {
        "exc_b": exc_b,
        "wkexc_b": wkexc_b,
        "des_b": des_b,
        "inv_b": inversions(1),
        "negs": lambda p: (0, [1] * n),
        "pos_n": lambda p: (pos_n(p), [0] * n),
        "exc_d": exc_b,
        "wkexc_d": wkexc_b,
        "inv_d": inversions(0),
    }


def _des_stream(ws, n):
    ws, tails = tee(ws)
    return map(sum, map(map, repeat(gt), ws,
                        map(getitem, tails, repeat(slice(1, None)))))


# kind-S base statistic -> its values over a stream of windows of [n], as
# nested maps that run no Python frame per window.  The keys are the
# functions imported above, so a patched statistic is no key and is mapped
# as it is.
_A_STREAMS = {
    exc: lambda ws, n: map(sum, map(map, repeat(gt), ws, repeat(range(1, n + 1)))),
    fixed_points: lambda ws, n: map(sum, map(map, repeat(eq), ws,
                                             repeat(range(1, n + 1)))),
    des: _des_stream,
    inv: lambda ws, n: map(sum, map(starmap, repeat(gt),
                                    map(combinations, ws, repeat(2)))),
}


def stream(stat, windows, n):
    """The kind-S statistic ``stat`` over a stream of windows of [n]: by its
    stream form in ``_A_STREAMS``, else by ``map``."""
    form = _A_STREAMS.get(stat)
    return map(stat, windows) if form is None else form(windows, n)


def _parity_is_free(spec):
    """Whether the tally reads inv(p) mod 2 at no cost: once per p on a signed
    group, and off the parity string on S_n or its pos_n slice."""
    return spec.kind != "S" or (spec.parity, spec.fixed_points,
                                spec.cycle_type) == ("all", None, None)


def _columns(spec, stats, windows):
    """The kind-S ``stats`` over the spec's windows, in ``iterate``'s order: a
    bare call streams each over a ``tee`` copy, a run holds each as a byte per
    window (below 256 at any enumerable n), the lacking ones filled in step
    from one pass (one by one, ``tee`` would buffer every window)."""
    if (memo := _MEMO.get()) is None:
        return [*map(stream, stats, tee(windows, len(stats)), repeat(spec.n))]
    held = memo.setdefault(spec, {})
    if missing := [*dict.fromkeys(stat for stat in stats if stat not in held)]:
        filled = [bytearray() for _ in missing]
        streams = map(stream, missing, tee(windows, len(missing)), repeat(spec.n))
        deque(zip(*map(map, [col.append for col in filled], streams)), maxlen=0)
        held.update(zip(missing, filled))
    return [held[stat] for stat in stats]


def _column(spec, stat, budget=DEFAULT_BUDGET):
    """``_columns`` of one statistic, after ``iterate``'s budget check."""
    return _columns(spec, [stat], iterate(spec, budget=budget, by_permutation=True))[0]


def _type_a_tally(spec, bases, windows, parity):
    """Kind S: (inv mod 2, class 0, base values, count) per distinct entry.

    ``bases`` maps base names to statistics.  With ``parity``, inv mod 2 is
    ``groups._parities``'s where ``iterate`` streams all of S_n or of a pos_n
    slice in lexicographic order; where a filter drops windows, an ``inv``
    column's.  Without, it reads 0.  The statistics are ``_columns``: held
    by a run, streamed by a bare call.
    """
    n = spec.n
    # some column must pull every window, also for a weight with no statistic
    stats, bits = [*bases.values()] or [len], []
    if parity and not _parity_is_free(spec):
        stats.append(inv)
    elif parity:
        bits = [_parities(n, spec.pos_n)]
    for values, count in Counter(zip(*_columns(spec, stats, windows), *bits)).items():
        yield parity and values[-1] % 2, 0, values, count  # parity comes last


def _signed_tally(spec, bases, windows, parity):
    """Types B and D: (inv(p) mod 2, class, base values, count) per distinct
    entry; the parity is always carried.

    ``bases`` maps base names to kernel forms.  p's signature is (c, the
    sorted w, inv(p) mod 2), its forms packed in base ``radix``, first one
    most significant; packing is linear, so the window negating N has packed
    values c + sum(w[j] for j in N).  A run counts the signatures over S_n
    once per n and set of forms, and reads off each the classes that
    ``_kept_classes`` keeps; a bare call reads p and the class off each
    block's first window."""
    n = spec.n
    radix = n * n + 1  # above every statistic's largest value (inv_b: n^2)
    forms = tuple(bases.values())

    def signature(p):
        c, weights = forms[0](p) if forms else (0, [0] * n)
        for base in forms[1:]:
            base_c, base_w = base(p)
            c = c * radix + base_c
            weights = [x * radix + y for x, y in zip(weights, base_w)]
        return c, tuple(sorted(weights)), inv(p) % 2
    if (memo := _MEMO.get()) is None:  # p's blocks are adjacent
        firsts = islice(windows, 0, None, 2 ** max(n - 1, 0))  # 0 or 1 negated: the class
        signatures = Counter(chain.from_iterable(  # (signature, class) -> blocks
            zip(repeat(signature(p)), map(negs, blocks))
            for p, blocks in groupby(firsts, lambda w: tuple(map(abs, w))))).items()
    else:
        if (counts := memo.get(held := (n, forms))) is None:
            counts = memo[held] = Counter(map(signature, _perm_windows(n)))
        classes = _kept_classes(spec)
        signatures = (((found, cls), perms) for found, perms in counts.items()
                      for cls in classes[found[2]])
    tally = Counter()  # (inv(p) mod 2, class, packed values) -> count
    for ((c, weights, bit), cls), blocks in signatures:
        even, odd = [c], []
        for x in weights:
            even, odd = even + [k + x for k in odd], odd + [k + x for k in even]
        for packed in (even, odd)[cls]:
            tally[bit, cls, packed] += blocks
    places = [radix ** i for i in reversed(range(len(bases)))]
    for (bit, cls, packed), count in tally.items():
        yield bit, cls, [packed // place % radix for place in places], count


_MEMO = ContextVar("kernel_memo", default=None)  # tallies, columns; forms, signatures


@contextmanager
def kernel_memo():
    """A run: in the block and this context, ``_kernel`` walks each tally
    once, ``_signed_tally`` counts the signatures once per set of forms and
    ``_columns`` holds kind-S statistics; a call outside holds none."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _kernel(spec, weight, budget, split):
    """The fused kernel: (whole,), or (even, odd) by length when ``split``.

    Each exponent reads a base statistic by name, an offset and a sign: a
    complement (``_COMPLEMENTS``) is its constant plus the offset minus its
    base.  Each tally entry is keyed, checked and signed once.  First comes
    UndefinedStatistic, then BudgetExceeded by ``iterate``'s rule, before
    any window.  In a run, a repeat of (spec, budget, base names, parity
    carried) refolds its stored tally; a bare call stores none."""
    memo = _MEMO.get({})  # a bare call's, dropped on return
    signs = weight.sign_stat is not None
    reads = []  # (base name, offset, sign) per exponent
    for stat, (_, _, off) in zip(_resolve(weight, spec.kind), weight.exponents):
        base, constant = _COMPLEMENTS.get(stat, (stat, None))
        reads.append((base, off, 1) if constant is None
                     else (base, constant(spec.n) + off, -1))
    names = tuple(dict.fromkeys(base for base, _, _ in reads))
    places = [(names.index(base), off, sign) for base, off, sign in reads]
    parity = split or signs or _parity_is_free(spec)
    entries = memo.get(inputs := (spec, budget, names, parity))
    if entries is None:
        forms, tally = A_STATISTICS, _type_a_tally
        if spec.kind != "S":  # one set of forms per run and n: D_n reads B_n's
            tally, forms = _signed_tally, memo.get(spec.n) or memo.setdefault(
                spec.n, _signed_kernel(spec.n))  # and their signature counts
        windows = iterate(spec, budget=budget, by_permutation=True)
        entries = tally(spec, {name: forms[name] for name in names}, windows, parity)
        entries = memo[inputs] = [*entries]
    length_moves, sign_moves = KINDS[spec.kind][1], weight.sign_stat == "inv_b"
    halves = ({}, {})
    for bit, cls, values, count in entries:
        key = tuple(off + sign * values[i] for i, off, sign in places)
        if key and min(key) < 0:
            raise _offset_error(spec, weight)
        terms = halves[split and (bit + length_moves * cls) % 2]
        negative = signs and (bit + sign_moves * cls) % 2
        terms[key] = terms.get(key, 0) + (-count if negative else count)
    return tuple(Poly(weight.variables, terms) for terms in halves[:1 + split])


def dist_poly(spec, weight, *, budget=DEFAULT_BUDGET):
    """Exact sum of the weight monomial over the spec's domain, in one pass;
    on a half spec, ``iterate``'s filter pulls only that half's windows."""
    return _kernel(spec, weight, budget, split=False)[0]


def length_halves(spec, weight, *, budget=DEFAULT_BUDGET):
    """(even, odd): ``dist_poly`` on the spec's even and odd halves, from one
    pass over the whole domain.  The spec must be a whole S, B or D."""
    if spec.parity != "all" or KINDS[spec.kind][1] is None:
        raise InvalidSpec(f"length_halves needs a whole S, B or D domain, got {spec}")
    return _kernel(spec, weight, budget, split=True)


def _offset_error(spec, weight):
    """The reference sum's error, naming the first window gone negative."""
    try:
        _weighted_sum(iterate(spec, budget=None), weight, spec.kind)
    except InvalidSpec as exc:
        return exc
    raise AssertionError(f"the reference sum over {spec} has no negative "
                         f"exponent where the kernel found one")


# -- named families ------------------------------------------------------------


class FamilySpec(Record):
    """A named distribution: family name, rank n, class in {all, plus, minus}.

    ``fixed`` selects permutations with exactly that many fixed points (the
    derangement families), ``lam`` a conjugacy class, ``stat`` the refining
    statistic of the q-families.  The family must be in ``FAMILIES``, split
    into plus/minus if the class asks for it, n at least its lowest rank,
    and a refinement is allowed only on the family that reads it, with
    ``fixed`` in 0..n.
    """

    __slots__ = ("family", "n", "cls", "fixed", "lam", "stat")

    def __init__(self, family, n, cls="all", fixed=None, lam=None, stat=None):
        if not isinstance(family, str):
            raise InvalidSpec(f"family {family!r} is not a str")
        if cls not in ("all", "plus", "minus"):
            raise InvalidSpec(f"class must be all/plus/minus, got {cls!r}")
        super().__init__(family.lower(), n, cls, fixed,
                         None if lam is None else tuple(lam), stat)
        record = FAMILIES.get(self.family)
        if record is None:
            raise InvalidSpec(f"unknown family {self.family!r}; "
                              f"known: {tuple(FAMILIES)}")
        if self.cls != "all" and not record.split:
            raise UnsupportedClass(f"{self.family} has no plus/minus split")
        if type(self.n) is not int:  # bool and float are not ranks
            raise InvalidSpec(f"rank {self.n!r} is not an int")
        if self.n < record.min_n:
            raise InvalidSpec(f"{self.family} needs n >= {record.min_n}, "
                              f"got n = {self.n}")
        for name, label in _REFINEMENTS.items():
            if getattr(self, name) is not None and name != record.refinement:
                raise InvalidSpec(f"{self.family} takes no {label}")
        if self.fixed is not None and type(self.fixed) is not int:
            raise InvalidSpec(f"fixed-point count {self.fixed!r} is not an int")
        if self.fixed is not None and not 0 <= self.fixed <= self.n:
            raise InvalidSpec(f"fixed-point count {self.fixed} outside 0..{self.n}")


class Family(Record):
    """Everything the library knows about one named family.

    ``domain`` maps a FamilySpec to the (GroupSpec, WeightSpec) pair the
    oracle sums over; every family has one.  ``closed`` maps a FamilySpec to
    its closed-engine polynomial where it has no row (sgnb_des_u, whose
    answer involves u).  ``split``: the family has plus/minus halves.
    ``mode``: the default gamma mode, or None when the polynomial involves u
    and so has no gamma expansion.  ``min_n``: the lowest valid rank.
    ``refinement``: the one FamilySpec refinement field the family reads.
    ``gamma``: maps a FamilySpec to its closed gamma expansion, None to defer.
    ``row``: maps a FamilySpec to its closed engine's dense row, in (s, t), or
    in t where the mode is univariate.  A family with neither row nor
    ``closed`` is enumeration-only.

    Closed engines are looked up on the ``closedforms`` module at call time,
    never captured, so a patched engine is the one that runs.
    """

    __slots__ = ("domain", "closed", "split", "mode", "min_n", "refinement", "gamma",
                 "row")
    _defaults = dict(closed=None, split=False, mode=BIVARIATE, min_n=0,
                     refinement=None, gamma=None, row=None)


_REFINEMENTS = {"fixed": "fixed-point count", "lam": "cycle type",
                "stat": "refining statistic"}


_PARITY = {"all": "all", "plus": "even", "minus": "odd"}

AEXC_WEIGHT = WeightSpec((("t", "exc", 0), ("s", "nexc", -1)))
ADES_WEIGHT = WeightSpec((("t", "des", 0), ("s", "asc", 0)))
BEXC_WEIGHT = WeightSpec((("t", "exc_b", 0), ("s", "nexc_b", 0)))
BDES_WEIGHT = WeightSpec((("t", "des_b", 0), ("s", "asc_b", 0)))
DEXC_WEIGHT = WeightSpec((("t", "exc_d", 0), ("s", "nexc_d", 0)))
T_EXC_WEIGHT = WeightSpec((("t", "exc", 0),))
SGNB_WEIGHT = WeightSpec((("s", "asc_b", 0), ("t", "des_b", 0),
                          ("u", "pos_n", 0)), sign_stat="inv_b")


def _group(kind, weight, sign_stat=None):
    """Domain builder: the group of that kind, or its even/odd half."""
    if sign_stat is not None:
        weight = WeightSpec(weight.exponents, sign_stat=sign_stat)
    return lambda fs: (GroupSpec(kind, fs.n, parity=_PARITY[fs.cls]), weight)


def _derangements(fs):
    fixed = 0 if fs.fixed is None else fs.fixed
    spec = GroupSpec("S", fs.n, parity=_PARITY[fs.cls], fixed_points=fixed)
    return spec, T_EXC_WEIGHT


def _class_spec(fs):
    """conjexc's class; ``GroupSpec`` rejects a lam that does not partition n."""
    if fs.lam is None:
        raise InvalidSpec("conjexc needs a cycle type")
    return GroupSpec("S", fs.n, cycle_type=fs.lam)


def _q_refined(fs):
    if fs.stat not in ("inv", "cyc"):
        raise InvalidSpec("qrefined needs stat inv or cyc")
    spec = GroupSpec("S", fs.n, parity=_PARITY[fs.cls], fixed_points=0)
    return spec, WeightSpec((("t", "exc", 0), ("q", fs.stat, 0)))


def _gamma_and_row(family, cls=None):
    return dict(gamma=lambda fs: closedforms.gamma_closed(family, fs.n, cls or fs.cls),
                row=lambda fs: closedforms._class_row(family, fs.n, cls or fs.cls))


FAMILIES = {
    "a_des": Family(_group("S", ADES_WEIGHT), **_gamma_and_row("aexc")),
    "aexc": Family(_group("S", AEXC_WEIGHT), split=True, min_n=1,
                   **_gamma_and_row("aexc")),
    "aderexc": Family(
        _derangements, split=True, mode=UNIVARIATE, refinement="fixed",
        row=lambda fs: closedforms._derangement_row(fs.n, fs.cls, fs.fixed)),
    "conjexc": Family(
        lambda fs: (_class_spec(fs), T_EXC_WEIGHT), mode=UNIVARIATE,
        refinement="lam",
        row=lambda fs: closedforms._conj_exc_row(_class_spec(fs).cycle_type)),
    "b_des": Family(_group("B", BDES_WEIGHT), split=True, **_gamma_and_row("bexc")),
    "bexc": Family(_group("B", BEXC_WEIGHT), split=True, **_gamma_and_row("bexc")),
    "dexc": Family(_group("D", DEXC_WEIGHT), split=True, **_gamma_and_row("dexc")),
    "bdexc": Family(_group("B-D", DEXC_WEIGHT),  # the bridge (B_n - (s-t)^n) / 2
                    **_gamma_and_row("bexc", "minus")),
    "sgn_aexc": Family(_group("S", AEXC_WEIGHT, "inv"), min_n=1,
                       row=lambda fs: closedforms._signed(fs.n - 1)),
    "sgn_bexc": Family(_group("B", BEXC_WEIGHT, "inv_b"),
                       row=lambda fs: closedforms._signed(fs.n)),
    "sgn_dexc": Family(_group("D", DEXC_WEIGHT, "inv_d"),
                       row=lambda fs: closedforms._sgn_dexc_row(fs.n)),
    "sgnb_des_u": Family(_group("B", SGNB_WEIGHT), mode=None,
                         closed=lambda fs: closedforms.sgnb_des_u_closed(fs.n)),
    "qrefined": Family(_q_refined, split=True, mode=Q_COEFFICIENTS,
                       refinement="stat"),
}


def family_domain(fs):
    """The (GroupSpec, WeightSpec) pair a family sums over."""
    return FAMILIES[fs.family].domain(fs)


def family_poly(fs, *, budget=DEFAULT_BUDGET):
    """Enumerate the named family's distribution polynomial."""
    return dist_poly(*family_domain(fs), budget=budget)


def closed_family(fs):
    """Closed-form engine for a FamilySpec, as listed in the family table: its
    row as a Poly in its mode's variables, or its ``closed`` polynomial."""
    family = FAMILIES[fs.family]
    if family.row:
        return closedforms._poly(family.row(fs), family.mode)
    if family.closed is None:
        # qrefined is the one family without a closed engine
        raise closedforms.NoClosedForm("the q-refined family is enumeration-only")
    return family.closed(fs)


def q_refined(n, stat, cls="all", *, budget=DEFAULT_BUDGET):
    """Sum q^stat t^exc over the even/odd/all derangements of [n]."""
    return family_poly(FamilySpec("qrefined", n, cls, stat=stat), budget=budget)


def sgnb_des_u(n, *, budget=DEFAULT_BUDGET):
    """Signed descent-ascent-position sum over B_n.

    Sums (-1)^inv_B t^des_B s^asc_B u^pos over all signed windows, where pos
    is the position of the largest letter (ignoring its sign).  The weight
    reads only how the signed entries compare with each other and with 0,
    so the signed windows of any n distinct positive letters give this sum.
    """
    return dist_poly(GroupSpec("B", n), SGNB_WEIGHT, budget=budget)
