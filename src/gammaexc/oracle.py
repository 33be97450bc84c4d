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
(``_COMPLEMENTS``: nexc = n - exc, asc = max(n - 1, 0) - des).  It pulls
``groups.iterate``'s bare windows one permutation p of [n] at a time into a
tally that only counts the distinct base values, and keys each tally entry
once.  On kind S the tally runs in C: each base is one ``map`` over a
``tee`` copy of the stream, and ``Counter(zip(...))`` counts them with the
length parity.  A signed base has a kernel form, affine in the sign
indicators: p gives (c, w), and on the window that negates the positions in
N it is c + sum(w[j] for j in N).  A signed group comes in blocks of 2^(n-1)
windows, each one class (the parity of |N|) of one p.  The blocks are
counted per signature (c, the sorted w, inv(p) mod 2, the class), and each
signature's values are built once, by doubling over the positions.  The
length and the sign are parities of inv(p), moved by the class for the
type-B length and the inv_b sign, so one pass tallies the even- and
odd-length halves apart (``length_halves``).  The reference is
``_weighted_sum`` over ``iterate``'s lexicographic windows with the
per-element functions of ``groups``; tests compare the kernel against it.

``family_poly`` names the standard distributions: type-A/B/D excedance
polynomials and their even/odd-length halves, descent polynomials, signed
sums, derangement and conjugacy-class restrictions, and the q-refinements.
Each is one ``Family`` record in ``FAMILIES``, which pairs its enumeration
domain with its closed engine; ``closed_family`` and the CLI read the same
table.  The derangement and conjugacy-class families are univariate in t,
matching their closed product forms; bivariate variants remain one
``dist_poly`` call away.
"""

from collections import Counter
from itertools import islice, tee
from operator import gt, lt, sub

from . import closedforms
from .groups import (
    DEFAULT_BUDGET,
    GroupSpec,
    InvalidSpec,
    KINDS,
    _perm_parities,
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
        exps = tuple((v, stat, int(off)) for v, stat, off in exponents)
        names = [v for v, _, _ in exps]
        if len(set(names)) != len(names):
            raise InvalidSpec(f"variable assigned twice in {exps}")
        for v, _, _ in exps:
            if v not in _VAR_RANK:
                raise InvalidSpec(f"unknown variable {v!r}")
        object.__setattr__(self, "exponents",
                           tuple(sorted(exps, key=lambda e: _VAR_RANK[e[0]])))
        object.__setattr__(self, "sign_stat", sign_stat)
        if sign_stat is not None and sign_stat not in SIGN_STATISTICS:
            raise InvalidSpec(f"sign statistic must be one of {sorted(SIGN_STATISTICS)}")

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


def _type_a_tally(spec, weight, bases, windows, split):
    """Kind S: (length, negative, base values, count) per distinct entry.

    The length parity (inv mod 2, and the sign) comes from the parity
    string where ``iterate`` generates the windows in lexicographic order:
    S_n's, or the S_(n-1)'s under its ``pos_n`` slice (n at position r adds
    n - r inversions).  Where a filter drops windows, it is inv itself.
    """
    n, signs = spec.n, weight.sign_stat is not None
    # some column must pull every window, also for a weight with no statistic
    columns = bases or [len]
    if not (split or signs):
        parity = []
    elif (spec.parity, spec.fixed_points, spec.cycle_type) != ("all", None, None):
        parity, columns = [], columns + [inv]  # a filter drops windows
    else:
        parity = [_perm_parities(n) if spec.pos_n is None
                  else _perm_parities(n - 1, n - spec.pos_n)]
    columns = [*map(map, columns, tee(windows, len(columns))), *parity]
    for values, count in Counter(zip(*columns)).items():
        bit = values[-1] % 2  # the bases lead; a parity column is last
        yield split and bit, signs and bit, values, count


def _signed_tally(spec, weight, bases, windows, split):
    """Types B and D: (length, negative, base values, count) per distinct entry.

    ``iterate`` streams blocks of 2^(n-1) windows, each one class (the
    parity of the negated-entry count) of one permutation p, read from the
    block's first window.  Each base form is computed once per p and packed
    in base ``radix``, first one most significant.  Packing is linear, so
    the window negating N has packed values c + sum(w[j] for j in N).
    Blocks are counted per signature (c, sorted w, inv(p) mod 2, class),
    and each signature's packed values are built once, by doubling over the
    positions.  Length and sign are inv(p) mod 2, moved by the class for
    the type-B length and an inv_b sign.
    """
    n = spec.n
    radix = n * n + 1  # above every statistic's largest value (inv_b: n^2)
    signs, sign_moves = weight.sign_stat is not None, weight.sign_stat == "inv_b"
    length_moves = KINDS[spec.kind][1]
    signatures, last = Counter(), None
    for w in islice(windows, 0, None, 2 ** max(n - 1, 0)):
        p, cls = tuple(map(abs, w)), negs(w) % 2
        if p != last:  # B streams both classes of p one after the other
            last, c, weights = p, 0, [0] * n
            for base in bases:
                base_c, base_w = base(p)
                c = c * radix + base_c
                weights = [x * radix + y for x, y in zip(weights, base_w)]
            weights, parity = tuple(sorted(weights)), (split or signs) and inv(p) % 2
        signatures[c, weights, parity, cls] += 1
    tally = Counter()  # (length parity, negative, packed values) -> count
    for (c, weights, parity, cls), blocks in signatures.items():
        even, odd = [c], []
        for x in weights:
            even, odd = even + [k + x for k in odd], odd + [k + x for k in even]
        length = split and (parity + length_moves * cls) % 2
        negative = signs and (parity + sign_moves * cls) % 2
        for packed in (even, odd)[cls]:
            tally[length, negative, packed] += blocks
    places = [radix ** i for i in reversed(range(len(bases)))]
    for (length, negative, packed), count in tally.items():
        yield length, negative, [packed // place % radix for place in places], count


def _kernel(spec, weight, budget, split):
    """The fused kernel: [whole], or [even, odd] by length when ``split``.

    Each exponent reads one base form, an offset and a sign: a complement
    (``_COMPLEMENTS``) is its constant plus the offset minus its base.
    Bases are shared by identity, and the tallies only count their values;
    each distinct tally entry is keyed, checked and signed once here.
    UndefinedStatistic comes first, then BudgetExceeded, by ``iterate``'s
    rule, before any window."""
    forms, tally = ((A_STATISTICS, _type_a_tally) if spec.kind == "S"
                    else (_signed_kernel(spec.n), _signed_tally))
    reads = []  # (base form, offset, sign) per exponent
    for stat, (_, _, off) in zip(_resolve(weight, spec.kind), weight.exponents):
        base, constant = _COMPLEMENTS.get(stat, (stat, None))
        reads.append((forms[base], off, 1) if constant is None
                     else (forms[base], constant(spec.n) + off, -1))
    bases = [*dict.fromkeys(form for form, _, _ in reads)]
    places = [(bases.index(form), off, sign) for form, off, sign in reads]
    windows = iterate(spec, budget=budget, by_permutation=True)
    halves = ({}, {})
    for length, negative, values, count in tally(spec, weight, bases, windows, split):
        key = tuple(off + sign * values[i] for i, off, sign in places)
        if key and min(key) < 0:
            raise _offset_error(spec, weight)
        terms = halves[length]
        terms[key] = terms.get(key, 0) + (-count if negative else count)
    return [Poly(weight.variables, terms) for terms in halves[:1 + split]]


def dist_poly(spec, weight, *, budget=DEFAULT_BUDGET):
    """Exact sum of the weight monomial over the spec's domain, in one pass;
    on a half spec, ``iterate``'s filter pulls only that half's windows."""
    return _kernel(spec, weight, budget, split=False)[0]


def length_halves(spec, weight, *, budget=DEFAULT_BUDGET):
    """(even, odd): ``dist_poly`` on the spec's even and odd halves, from one
    pass over the whole domain.  The spec must be a whole S, B or D."""
    if spec.parity != "all" or KINDS[spec.kind][1] is None:
        raise InvalidSpec(f"length_halves needs a whole S, B or D domain, got {spec}")
    return tuple(_kernel(spec, weight, budget, split=True))


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
        object.__setattr__(self, "family", family.lower())
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "stat", stat)
        if cls not in ("all", "plus", "minus"):
            raise InvalidSpec(f"class must be all/plus/minus, got {cls!r}")
        object.__setattr__(self, "lam", None if lam is None else tuple(lam))
        record = FAMILIES.get(self.family)
        if record is None:
            raise InvalidSpec(f"unknown family {self.family!r}; "
                              f"known: {tuple(FAMILIES)}")
        if self.cls != "all" and not record.split:
            raise UnsupportedClass(f"{self.family} has no plus/minus split")
        if self.n < record.min_n:
            raise InvalidSpec(f"{self.family} needs n >= {record.min_n}, "
                              f"got n = {self.n}")
        for name, label in _REFINEMENTS.items():
            if getattr(self, name) is not None and name != record.refinement:
                raise InvalidSpec(f"{self.family} takes no {label}")
        if self.fixed is not None and not 0 <= self.fixed <= self.n:
            raise InvalidSpec(f"fixed-point count {self.fixed} outside "
                              f"0..{self.n}")


class Family(Record):
    """Everything the library knows about one named family.

    ``domain`` maps a FamilySpec to the (GroupSpec, WeightSpec) pair the
    oracle sums over; every family has one.  ``closed`` maps a FamilySpec to
    its closed-engine polynomial, or is None when the family is
    enumeration-only.  ``split``: the family has plus/minus halves.
    ``mode``: the default gamma mode, or None when the polynomial involves u
    and so has no gamma expansion.  ``min_n``: the lowest valid rank.
    ``refinement``: the one FamilySpec refinement field the family reads.

    Closed engines are looked up on the ``closedforms`` module at call time,
    never captured, so a patched engine is the one that runs.
    """

    __slots__ = ("domain", "closed", "split", "mode", "min_n", "refinement")

    def __init__(self, domain, closed, split=False, mode=BIVARIATE, min_n=0,
                 refinement=None):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "min_n", min_n)
        object.__setattr__(self, "refinement", refinement)


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


def _eulerian_or_half(kind, half_family):
    return lambda fs: (
        closedforms.eulerian(kind, fs.n) if fs.cls == "all"
        else closedforms.half_sum_closed(half_family, fs.n, fs.cls))


FAMILIES = {
    "a_des": Family(_group("S", ADES_WEIGHT),
                    lambda fs: closedforms.eulerian("A", fs.n)),
    "aexc": Family(_group("S", AEXC_WEIGHT), _eulerian_or_half("A", "aexc"),
                   split=True, min_n=1),
    "aderexc": Family(
        _derangements,
        lambda fs: closedforms.derangement_closed(fs.n, fs.cls, fs.fixed),
        split=True, mode=UNIVARIATE, refinement="fixed"),
    "conjexc": Family(
        lambda fs: (_class_spec(fs), T_EXC_WEIGHT),
        lambda fs: closedforms.conj_exc_closed(_class_spec(fs).cycle_type),
        mode=UNIVARIATE, refinement="lam"),
    "b_des": Family(_group("B", BDES_WEIGHT), _eulerian_or_half("B", "bexc"),
                    split=True),
    "bexc": Family(_group("B", BEXC_WEIGHT), _eulerian_or_half("B", "bexc"),
                   split=True),
    "dexc": Family(_group("D", DEXC_WEIGHT),
                   lambda fs: closedforms.step_recurrence("dexc", fs.n, fs.cls),
                   split=True),
    "bdexc": Family(_group("B-D", DEXC_WEIGHT),
                    lambda fs: closedforms.step_recurrence("bdexc", fs.n)),
    "sgn_aexc": Family(_group("S", AEXC_WEIGHT, "inv"),
                       lambda fs: closedforms.sgn_aexc_closed(fs.n), min_n=1),
    "sgn_bexc": Family(_group("B", BEXC_WEIGHT, "inv_b"),
                       lambda fs: closedforms.sgn_bexc_closed(fs.n)),
    "sgn_dexc": Family(_group("D", DEXC_WEIGHT, "inv_d"),
                       lambda fs: closedforms.sgn_dexc_closed(fs.n)),
    "sgnb_des_u": Family(_group("B", SGNB_WEIGHT),
                         lambda fs: closedforms.sgnb_des_u_closed(fs.n),
                         mode=None),
    "qrefined": Family(_q_refined, None, split=True, mode=Q_COEFFICIENTS,
                       refinement="stat"),
}


def family_domain(fs):
    """The (GroupSpec, WeightSpec) pair a family sums over."""
    return FAMILIES[fs.family].domain(fs)


def family_poly(fs, *, budget=DEFAULT_BUDGET):
    """Enumerate the named family's distribution polynomial."""
    return dist_poly(*family_domain(fs), budget=budget)


def closed_family(fs):
    """Closed-form engine for a FamilySpec, as listed in the family table."""
    engine = FAMILIES[fs.family].closed
    if engine is None:
        # qrefined is the one family without a closed engine
        raise closedforms.NoClosedForm("the q-refined family is enumeration-only")
    return engine(fs)


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
