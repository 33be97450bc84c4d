"""Brute-force generating functions over the classical Weyl groups.

``dist_poly`` sums a monomial weight over any enumerable domain and is the
ground truth that every closed form and recurrence in this library is tested
against.  A weight assigns each polynomial variable a statistic and an
integer offset (the type-A families use s^(nexc-1) while the signed families
use s^nexc; the offset makes that visible in one place), plus an optional
sign statistic contributing (-1)^stat.

Every weighted sum, ``dist_poly`` over a ``GroupSpec`` and ``sgnb_des_u``
over signed windows on arbitrary letters, runs through one accumulation
loop, and every statistic it reads is the single function ``groups``
defines for it.

``family_poly`` names the standard distributions: type-A/B/D excedance
polynomials and their even/odd-length halves, descent polynomials, signed
sums, derangement and conjugacy-class restrictions, and the q-refinements.
Each is one ``Family`` record in ``FAMILIES``, which pairs its enumeration
domain with its closed engine; ``closed_family`` and the CLI read the same
table.  The derangement and conjugacy-class families are univariate in t,
matching their closed product forms; bivariate variants remain one
``dist_poly`` call away.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter

from . import closedforms
from .groups import (
    CycleType,
    DEFAULT_BUDGET,
    GroupSpec,
    InvalidSpec,
    _signed_windows,
    asc,
    asc_b,
    check_budget,
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
from .poly import BIVARIATE, Poly, Q_COEFFICIENTS, UNIVARIATE, _VAR_RANK


class UndefinedStatistic(ValueError):
    """The weight references a statistic the domain's elements do not carry."""


class UnsupportedClass(ValueError):
    """The family does not define the requested even/odd restriction."""


class NonIncreasingLetters(ValueError):
    """Letter sets must be strictly increasing positive integers."""


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


@dataclass(frozen=True)
class WeightSpec:
    """Monomial weight: (variable, statistic, offset) triples plus a sign stat."""

    exponents: tuple
    sign_stat: str | None = None

    def __post_init__(self):
        exps = tuple((v, stat, int(off)) for v, stat, off in self.exponents)
        names = [v for v, _, _ in exps]
        if len(set(names)) != len(names):
            raise InvalidSpec(f"variable assigned twice in {exps}")
        for v, _, _ in exps:
            if v not in _VAR_RANK:
                raise InvalidSpec(f"unknown variable {v!r}")
        exps = tuple(sorted(exps, key=lambda e: _VAR_RANK[e[0]]))
        object.__setattr__(self, "exponents", exps)
        if self.sign_stat is not None and self.sign_stat not in SIGN_STATISTICS:
            raise InvalidSpec(f"sign statistic must be one of {sorted(SIGN_STATISTICS)}")

    @property
    def variables(self):
        return tuple(v for v, _, _ in self.exponents)


def _resolve(weight, kind):
    table = A_STATISTICS if kind == "S" else SIGNED_STATISTICS
    funcs = []
    for v, stat, off in weight.exponents:
        if stat not in table:
            raise UndefinedStatistic(
                f"statistic {stat!r} is not defined on {kind}-type elements"
            )
        funcs.append((table[stat], off))
    sign_func = None
    if weight.sign_stat is not None:
        if weight.sign_stat not in table:
            raise UndefinedStatistic(
                f"sign statistic {weight.sign_stat!r} is not defined on "
                f"{kind}-type elements"
            )
        sign_func = table[weight.sign_stat]
    return funcs, sign_func


def _weighted_sum(windows, weight, kind):
    """Sum the weight monomial over raw windows of a kind-``kind`` domain."""
    funcs, sign_func = _resolve(weight, kind)
    acc = {}
    for w in windows:
        key = []
        for func, off in funcs:
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


def dist_poly(spec, weight, *, budget=DEFAULT_BUDGET):
    """Exact sum of the weight monomial over the domain's stream."""
    windows = map(attrgetter("window"), iterate(spec, budget=budget))
    return _weighted_sum(windows, weight, spec.kind)


# -- named families ------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """A named distribution: family name, rank n, class in {all, plus, minus}.

    ``fixed`` selects permutations with exactly that many fixed points (the
    derangement families), ``lam`` a conjugacy class, ``stat`` the refining
    statistic of the q-families.  The family must be in ``FAMILIES``, split
    into plus/minus if the class asks for it, and n at least its lowest rank.
    """

    family: str
    n: int
    cls: str = "all"
    fixed: int | None = None
    lam: tuple | None = None
    stat: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", self.family.lower())
        if self.cls not in ("all", "plus", "minus"):
            raise InvalidSpec(f"class must be all/plus/minus, got {self.cls!r}")
        if self.lam is not None:
            object.__setattr__(self, "lam", tuple(self.lam))
        record = FAMILIES.get(self.family)
        if record is None:
            raise InvalidSpec(f"unknown family {self.family!r}; "
                              f"known: {tuple(FAMILIES)}")
        if self.cls != "all" and not record.split:
            raise UnsupportedClass(f"{self.family} has no plus/minus split")
        if self.n < record.min_n:
            raise InvalidSpec(f"{self.family} needs n >= {record.min_n}, "
                              f"got n = {self.n}")

    def __str__(self):
        bits = [self.family, f"n={self.n}"]
        if self.cls != "all":
            bits.append(self.cls)
        if self.fixed is not None:
            bits.append(f"fixed={self.fixed}")
        if self.lam is not None:
            bits.append("lambda=" + ",".join(map(str, self.lam)))
        if self.stat is not None:
            bits.append(f"stat={self.stat}")
        return " ".join(bits)


@dataclass(frozen=True)
class Family:
    """Everything the library knows about one named family.

    ``domain`` maps a FamilySpec to the (GroupSpec, WeightSpec) pair the
    oracle sums over; every family has one.  ``closed`` maps a FamilySpec to
    its closed-engine polynomial, or is None when the family is
    enumeration-only.  ``split``: the family has plus/minus halves.
    ``mode``: the default gamma mode.  ``min_n``: the lowest valid rank.
    ``by_rank``: n alone fixes the domain, so ``table`` can sweep it.

    Closed engines are looked up on the ``closedforms`` module at call time,
    never captured, so a patched engine is the one that runs.
    """

    domain: Callable
    closed: Callable | None
    split: bool = False
    mode: str = BIVARIATE
    min_n: int = 0
    by_rank: bool = True


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


def _cycle_type(fs):
    if fs.lam is None:
        raise InvalidSpec("conjexc needs a cycle type")
    lam = CycleType(fs.lam)
    if lam.n != fs.n:
        raise InvalidSpec(f"{lam} is not a partition of {fs.n}")
    return lam


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
        split=True, mode=UNIVARIATE),
    "conjexc": Family(
        lambda fs: (GroupSpec("S", fs.n, cycle_type=_cycle_type(fs)),
                    T_EXC_WEIGHT),
        lambda fs: closedforms.conj_exc_closed(_cycle_type(fs)),
        mode=UNIVARIATE, by_rank=False),
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
                         lambda fs: closedforms.sgnb_des_u_closed(fs.n)),
    "qrefined": Family(_q_refined, None, split=True, mode=Q_COEFFICIENTS),
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


def sgnb_des_u(n, letters=None, *, positions="all", budget=DEFAULT_BUDGET):
    """Signed descent-ascent-position sum over the signed group on ``letters``.

    Sums (-1)^inv_B t^des_B s^asc_B u^pos over all signed windows, where pos
    is the position of the largest letter (ignoring its sign).  ``positions``
    may restrict the sum to windows whose largest letter sits at the last
    position ("max_last", the u^n part) or anywhere else ("max_not_last").
    The budget rule is the one ``iterate`` applies to B_n.
    """
    if letters is None:
        letters = tuple(range(1, n + 1))
    letters = tuple(letters)
    if len(letters) != n:
        raise NonIncreasingLetters(f"expected {n} letters, got {len(letters)}")
    if any(a <= 0 for a in letters) or any(
        a >= b for a, b in zip(letters, letters[1:])
    ):
        raise NonIncreasingLetters(
            f"letters must be strictly increasing positive integers: {letters}"
        )
    if positions not in ("all", "max_last", "max_not_last"):
        raise InvalidSpec("positions must be all/max_last/max_not_last")
    check_budget(GroupSpec("B", n), budget)
    full = _weighted_sum(_signed_windows(letters), SGNB_WEIGHT, "B")
    if positions == "all":
        return full
    last = full.coefficient("u", n) * Poly.variable("u") ** n
    return last if positions == "max_last" else full - last
