"""Recurrence engines and closed forms, independent of any enumeration.

Bivariate Eulerian polynomials by the insertion recurrences

    A_{n+1} = (s+t) A_n + st D A_n          (descent/ascent over S_n)
    B_{n+1} = (s+t) B_n + 2 st D B_n        (type-B descent/ascent)

with A_1 = 1 and B_1 = s+t; both engines are certified against the
enumeration oracle in the test suite.  On top of these: the half-sum closed
forms for the even/odd-length halves, the one-step plus/minus recurrences,
the coefficient-triangle recurrences, the four-step jump via the fixed L/R
tables, the conjugacy-class product formula and the derangement cycle
recurrence.  Every /2 in a formula is a theorem about integrality, so the
division is exact and raises OddCoefficient if it ever is not.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .groups import CycleType
from .poly import D, Poly, half

_S = Poly.variable("s")
_T = Poly.variable("t")


class MissingBase(ValueError):
    """The jump engine has no seed data for the requested level."""


class NoClosedForm(ValueError):
    """The family is defined by enumeration only."""


class RankOutOfRange(NoClosedForm):
    """The closed engine starts above the requested rank; the oracle may not."""


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def _require_rank(condition, message):
    if not condition:
        raise RankOutOfRange(message)


# -- Eulerian engines ----------------------------------------------------------

_EULERIAN_A = [None, Poly.const(1, ("s", "t"))]
_EULERIAN_B = [None, _S + _T]
# Extending a memo reads its last entry and appends the next; two threads
# doing that at once would store a rank at the wrong index.  Ranks already
# stored never change, so reading them needs no lock.
_EULERIAN_LOCK = threading.Lock()


def eulerian(kind, n):
    """Bivariate Eulerian polynomial of S_n (kind "A") or B_n (kind "B")."""
    _require(kind in ("A", "B"), f"kind must be A or B, got {kind!r}")
    _require_rank(n >= 1, "n must be at least 1")
    cache = _EULERIAN_A if kind == "A" else _EULERIAN_B
    if len(cache) <= n:
        scale = 1 if kind == "A" else 2
        with _EULERIAN_LOCK:
            while len(cache) <= n:
                prev = cache[-1]
                cache.append((_S + _T) * prev + scale * _S * _T * D(prev))
    return cache[n]


def eulerian_t(kind, n):
    """Univariate Eulerian polynomial (set s = 1)."""
    return eulerian(kind, n).substitute_one("s")


# -- half-sum closed forms ------------------------------------------------------


def sgn_aexc_closed(n):
    """Signed type-A excedance sum: (s-t)^(n-1)."""
    _require_rank(n >= 1, "n must be at least 1")
    return (_S - _T) ** (n - 1)


def sgn_bexc_closed(n):
    """Signed type-B excedance sum: (s-t)^n."""
    _require_rank(n >= 1, "n must be at least 1")
    return (_S - _T) ** n


def sgn_dexc_closed(n):
    """Signed type-D excedance sum: (s-t)^n for even n, s(s-t)^(n-1) for odd."""
    _require_rank(n >= 1, "n must be at least 1")
    if n % 2 == 0:
        return (_S - _T) ** n
    return _S * (_S - _T) ** (n - 1)


def sgnb_des_u_closed(n):
    """Signed descent-ascent-position sum: (s-t)^n u^n."""
    _require_rank(n >= 1, "n must be at least 1")
    return (_S - _T) ** n * Poly.variable("u") ** n


# family -> (Eulerian kind, lowest rank, signed closed form)
_HALF_SUMS = {"aexc": ("A", 2, sgn_aexc_closed), "bexc": ("B", 1, sgn_bexc_closed)}


def half_sum_closed(family, n, cls):
    """The even/odd-length half of an Eulerian distribution.

    aexc: (A_n +- (s-t)^(n-1)) / 2 for n >= 2;
    bexc: (B_n +- (s-t)^n) / 2 for n >= 1.  Divisions are exact.
    """
    _require(cls in ("plus", "minus"), f"cls must be plus/minus, got {cls!r}")
    _require(family in _HALF_SUMS, f"half-sum covers aexc and bexc, not {family!r}")
    kind, low, signed = _HALF_SUMS[family]
    _require_rank(n >= low, f"{family} half-sum needs n >= {low}")
    sign = 1 if cls == "plus" else -1
    return half(eulerian(kind, n) + sign * signed(n))


# -- one-step recurrences --------------------------------------------------------


def _grow_a(m):
    return half(_S * _T * D(eulerian("A", m - 1)))


def _grow_b(m):
    return _S * _T * D(eulerian("B", m - 1))


def _halves(pair, n, cls):
    return pair[0] + pair[1] if cls == "all" else pair[("plus", "minus").index(cls)]


def _dexc_view(pair, n, cls):
    if cls == "all":
        return pair[0]
    return half(pair[0] + (1 if cls == "plus" else -1) * sgn_dexc_closed(n))


def _bdexc_view(pair, n, cls):
    _require(cls == "all", "bdexc has no plus/minus split")
    return pair[1]


_DEXC_PAIRS = {2: (_S ** 2 + 2 * _S * _T + _T ** 2, 4 * _S * _T)}

# family -> (memo: level -> pair (X, Y), growth term at level m, what the
# family reads off the pair).  Every engine steps the same coupled shape.
_STEPS = {
    "aexc": ({2: (_S, _T)}, _grow_a, _halves),
    "bexc": ({1: (_S, _T)}, _grow_b, _halves),
    "dexc": (_DEXC_PAIRS, _grow_b, _dexc_view),
    "bdexc": (_DEXC_PAIRS, _grow_b, _bdexc_view),
}


def step_recurrence(family, n, cls="all"):
    """One-step recurrence engines for the excedance families.

    Each steps a pair X_n = s X_{n-1} + t Y_{n-1} + g_n,
    Y_n = t X_{n-1} + s Y_{n-1} + g_n.  aexc (n >= 2): the plus/minus halves,
    g_n = st D A_{n-1} / 2, seeded with (s, t) at n = 2.  bexc (n >= 1): same
    with g_n = st D B_{n-1} and seeds (s, t) at n = 1.  dexc/bdexc (n >= 2):
    the pair (D_n, (B-D)_n) with g_n = st D B_{n-1}, seeded at n = 2; the
    plus/minus halves of dexc come from the signed closed form.
    """
    _require(family in _STEPS, f"unknown family {family!r}")
    memo, grow, view = _STEPS[family]
    low = min(memo)
    _require_rank(n >= low, f"{family} step recurrence starts at n = {low}")
    for m in range(max(memo) + 1, n + 1):
        x, y = memo[m - 1]
        g = grow(m)
        memo[m] = (_S * x + _T * y + g, _T * x + _S * y + g)
    return view(memo[n], n, cls)


# -- coefficient triangles -------------------------------------------------------


@dataclass(frozen=True)
class CoeffTable:
    """Triangles a+_{n,k}, a-_{n,k} of the even/odd excedance counts.

    Row n holds the coefficients of t^0..t^(n-1); rows run 2..n_max.  Built
    by the coupled recurrences
        a+_{n,k} = k a-_{n-1,k} + (n-k) a-_{n-1,k-1} + a+_{n-1,k}
        a-_{n,k} = k a+_{n-1,k} + (n-k) a+_{n-1,k-1} + a-_{n-1,k}
    from row 2 = (1,0) / (0,1).
    """

    n_max: int
    plus: tuple
    minus: tuple

    def row(self, n, cls):
        if not 2 <= n <= self.n_max:
            raise ValueError(f"row {n} outside 2..{self.n_max}")
        rows = self.plus if cls == "plus" else self.minus
        return rows[n - 2]

    def value(self, n, k, cls):
        row = self.row(n, cls)
        return row[k] if 0 <= k < len(row) else 0


def coeff_tables(n_max):
    _require(n_max >= 2, "need n_max >= 2")
    plus_rows = [(1, 0)]
    minus_rows = [(0, 1)]
    for n in range(3, n_max + 1):
        prev_p, prev_m = plus_rows[-1], minus_rows[-1]

        def at(row, k):
            return row[k] if 0 <= k < len(row) else 0

        plus_rows.append(tuple(
            k * at(prev_m, k) + (n - k) * at(prev_m, k - 1) + at(prev_p, k)
            for k in range(n)
        ))
        minus_rows.append(tuple(
            k * at(prev_p, k) + (n - k) * at(prev_p, k - 1) + at(prev_m, k)
            for k in range(n)
        ))
    return CoeffTable(n_max, tuple(plus_rows), tuple(minus_rows))


# -- the four-step jump ----------------------------------------------------------

_ST = _S * _T
_SPT = _S + _T


@functools.cache
def _jump_table():
    """The thirteen fixed jump polynomials, built on first use."""
    return {
        "L1": (_SPT ** 4 + 7 * _ST * _SPT ** 2 + 16 * _ST ** 2, Fraction(2)),
        "L2": (15 * _ST * _SPT ** 2, Fraction(2)),
        "L3": (3 * (5 * _S ** 2 + 30 * _ST + 5 * _T ** 2) * _ST * _SPT,
               Fraction(5, 2)),
        "L4": (25 * _ST ** 2 * _SPT ** 2 + 20 * _ST ** 3, Fraction(3)),
        "L5": (10 * _ST ** 3 * _SPT, Fraction(7, 2)),
        "L6": (_ST ** 4, Fraction(4)),
        "R1": (_SPT ** 4 + 8 * _ST * _SPT ** 2 + 16 * _ST ** 2, Fraction(2)),
        "R2": (16 * _ST * _SPT ** 2, Fraction(2)),
        "R3": (4 * _ST * _SPT ** 3 + 32 * _ST ** 2 * _SPT, Fraction(5, 2)),
        "R4": (2 * _ST ** 2 * _SPT ** 2 + 8 * _ST ** 3, Fraction(3)),
        "R5": (12 * _ST * _SPT ** 2, Fraction(2)),
        "R6": (8 * _ST ** 2 * _SPT, Fraction(5, 2)),
        "R7": (2 * _ST ** 2, Fraction(2)),
    }


def jump_tables():
    """The thirteen fixed jump polynomials with their centers of symmetry.

    A fresh dict each call, so a caller's edits never reach the jump engine.
    """
    return dict(_jump_table())


def _iterated_d(f, k):
    for _ in range(k):
        f = D(f)
    return f


# seed values for the jump engine, from the displayed base polynomials
_AEXC_JUMP_BASE = {
    5: {
        "plus": _SPT ** 4 + 7 * _ST * _SPT ** 2 + 16 * _ST ** 2,
        "minus": 15 * _ST * _SPT ** 2,
    },
    7: {
        "plus": _SPT ** 6 + 51 * _ST * _SPT ** 4 + 384 * _ST ** 2 * _SPT ** 2
        + 104 * _ST ** 3,
        "minus": 63 * _ST * _SPT ** 4 + 336 * _ST ** 2 * _SPT ** 2
        + 168 * _ST ** 3,
    },
}

_DEXC_JUMP_BASE = {
    4: {
        "plus": _SPT ** 4 + 12 * _ST * _SPT ** 2 + 32 * _ST ** 2,
        "minus": 20 * _ST * _SPT ** 2 + 16 * _ST ** 2,
    },
    6: {
        "plus": _SPT ** 6 + 170 * _ST * _SPT ** 4 + 1952 * _ST ** 2 * _SPT ** 2
        + 928 * _ST ** 3,
        "minus": 182 * _ST * _SPT ** 4 + 1904 * _ST ** 2 * _SPT ** 2
        + 992 * _ST ** 3,
    },
}


def dexc_jump_tail(n):
    """The class-independent summand of the type-D four-step jump.

    At even ranks it is gamma positive with center (n+4)/2 and every gamma
    coefficient is even, which is what makes the halved plus/minus jump
    integral; the jump engine only ever evaluates it at even ranks.
    """
    _require(n >= 2, "tail defined for n >= 2")
    tab = _jump_table()
    b_n, b_n1, b_n2 = eulerian("B", n), eulerian("B", n + 1), eulerian("B", n + 2)
    bd_n = half_sum_closed("bexc", n, "minus")
    return (tab["R2"][0] * bd_n
            + tab["R3"][0] * D(b_n) + tab["R4"][0] * _iterated_d(b_n, 2)
            + tab["R5"][0] * D(b_n1) + tab["R6"][0] * _iterated_d(b_n1, 2)
            + tab["R7"][0] * _iterated_d(b_n2, 2))


def _aexc_jump(prev, low):
    tab = _jump_table()
    out = {}
    for cls, other in (("plus", "minus"), ("minus", "plus")):
        P, M = prev[cls], prev[other]
        out[cls] = (tab["L1"][0] * P + tab["L2"][0] * M
                    + tab["L3"][0] * D(P)
                    + tab["L4"][0] * _iterated_d(P, 2)
                    + tab["L5"][0] * _iterated_d(P, 3)
                    + tab["L6"][0] * _iterated_d(P, 4))
    return out


def _dexc_jump(prev, low):
    r1 = _jump_table()["R1"][0]
    swing = (_S - _T) ** 4
    tail = dexc_jump_tail(low)
    out = {}
    for cls, other in (("plus", "minus"), ("minus", "plus")):
        out[cls] = half((r1 + swing) * prev[cls] + (r1 - swing) * prev[other]
                        + tail)
    return out


# family -> (seed levels, the four-step jump from level-low data)
_JUMPS = {"aexc": (_AEXC_JUMP_BASE, _aexc_jump),
          "dexc": (_DEXC_JUMP_BASE, _dexc_jump)}


def _jump_level(family, n):
    """Level-n plus/minus pair computed through the jump engine only."""
    base, jump = _JUMPS[family]
    if n in base:
        return dict(base[n])
    low = n - 4
    if low < min(base):
        raise MissingBase(f"no jump seed at or below level {n} for {family}")
    return jump(_jump_level(family, low), low)


def jump4(family, n, cls):
    """The level-(n+4) polynomial from level-n data via the L/R tables.

    Seeds: aexc at levels 5 and 7, dexc at levels 4 and 6; any other level
    must be reachable from a seed in steps of four (MissingBase otherwise).
    Cross-checked against four applications of ``step_recurrence``.
    """
    _require(family in _JUMPS, "jump is defined for aexc and dexc")
    _require(cls in ("plus", "minus"), f"cls must be plus/minus, got {cls!r}")
    base = _JUMPS[family][0]
    if n < min(base):
        raise MissingBase(f"no level-{n} data for {family}")
    if (n - min(base)) % 2:
        raise MissingBase(
            f"level {n} is not reachable from the {family} seeds "
            f"{sorted(base)} in steps of four"
        )
    return _jump_level(family, n + 4)[cls]


# -- conjugacy classes and derangements -------------------------------------------


def set_partition_count(lam):
    """Number of set partitions of [n] with block sizes lam: n!/(prod lam_i! prod m_i!)."""
    lam = lam if isinstance(lam, CycleType) else CycleType(tuple(lam))
    count = math.factorial(lam.n)
    for part in lam.parts:
        count //= math.factorial(part)
    for m in lam.multiplicities().values():
        count //= math.factorial(m)
    return count


def conj_exc_closed(lam):
    """Excedance polynomial of the conjugacy class with cycle type lam.

    set_partition_count(lam) * prod over parts j >= 2 of t A_{j-1}(t); the
    fixed points only enter through the counting factor.  Gamma positive
    with center (n - m_1)/2.
    """
    lam = lam if isinstance(lam, CycleType) else CycleType(tuple(lam))
    product = Poly.const(1, ("t",))
    for part in lam.parts:
        if part >= 2:
            product = product * (_T * eulerian_t("A", part - 1))
    return set_partition_count(lam) * product


def _derangements_by_cycles(m, q):
    """d_m(q, t), the sum of q^cyc t^exc over the derangements of [m].

    d_0 = 1, d_1 = 0, d_k = (k-1) t d_{k-1} + t(1-t) d'_{k-1} + (k-1) q t d_{k-2}:
    k joins a cycle of a derangement of [k-1], or a new 2-cycle.  Run on
    coefficient rows, so t^j of d_k is j a_j + (k-j) a_{j-1} + (k-1) q b_{j-1}.
    """
    older, row = [], [1]  # the rows of d_{k-2} and d_{k-1}
    for k in range(1, m + 1):
        a, b = [0] + row + [0], [0] + older + [0] * k
        older, row = row, [j * a[j + 1] + (k - j) * a[j] + (k - 1) * q * b[j]
                           for j in range(k + 1)]
    return Poly(("t",), {(j,): c for j, c in enumerate(row)})


def derangement_closed(n, cls="all", fixed=None):
    """Excedance polynomial over permutations with a given fixed-point count.

    ``fixed=None`` means none; cls keeps the even (plus) or odd (minus) ones.
    With i fixed points the rest is a derangement of m = n - i letters, of sign
    (-1)^(m - cyc): C(n, i) times d_m(1, t) or (d_m(1, t) +- (-1)^m d_m(-1, t))/2.
    """
    _require_rank(n >= 0, "n must be non-negative")
    i = 0 if fixed is None else fixed
    _require(0 <= i <= n, f"fixed={i} outside 0..{n}")
    _require(cls in ("all", "plus", "minus"),
             f"cls must be all/plus/minus, got {cls!r}")
    sign = {"all": 0, "plus": 1, "minus": -1}[cls] * (-1) ** (n - i)
    d = _derangements_by_cycles(n - i, 1)
    if sign:
        d = half(d + sign * _derangements_by_cycles(n - i, -1))
    return math.comb(n, i) * d
