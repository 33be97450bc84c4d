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

The engines compute on rows: a homogeneous polynomial of degree d in (s, t)
is the list r with r[k] the coefficient of s^(d-k) t^k, so s*f is r + [0] and
t*f is [0] + r.  A row becomes a Poly once, where it leaves the engine, and
is never mutated once built.  The four-step jump stays on Poly, and
conj_exc_closed and sgnb_des_u_closed multiply Polys too.
"""

import functools
import math
import threading
from fractions import Fraction

from .groups import CycleType
from .poly import BIVARIATE, D, GammaExpansion, OddCoefficient, Poly, Record, half

_S = Poly.variable("s")
_T = Poly.variable("t")


class MissingBase(ValueError):
    """The jump engine has no seed data for the requested level."""


class NoClosedForm(ValueError):
    """The family is defined by enumeration only."""


class RankOutOfRange(NoClosedForm):
    """The closed engine starts above the requested rank; the oracle may not."""


def _require(condition, message, error=ValueError):
    if not condition:
        raise error(message)


# -- rows ------------------------------------------------------------------------


def _poly(row, vars=("s", "t")):
    """The Poly of a row: over ("t",) entry k is the coefficient of t^k."""
    d = len(row) - 1
    if vars == ("t",):
        return Poly._trusted(vars, {(k,): c for k, c in enumerate(row)})
    return Poly._trusted(vars, {(d - k, k): c for k, c in enumerate(row)})


def _add(a, b, sign=1):
    return [x + sign * y for x, y in zip(a, b)]


def _half(row):
    """Exact halving; raises OddCoefficient when not integral."""
    for k, c in enumerate(row):
        if c % 2:
            raise OddCoefficient(f"coefficient {c} at t^{k} is odd")
    return [c // 2 for c in row]


def _st_d(row):
    """st D f: t^j gets j r[j] + (d - j + 1) r[j-1]."""
    d = len(row) - 1
    return [j * a + (d - j + 1) * b
            for j, (a, b) in enumerate(zip(row + [0], [0] + row))]


def _signed(m):
    """(s-t)^m: the signed binomial row."""
    return [(-1) ** k * math.comb(m, k) for k in range(m + 1)]


# -- Eulerian engines ----------------------------------------------------------

_EULERIAN_A = [None, [1]]
_EULERIAN_B = [None, [1, 1]]
# Extending a memo reads its last entry and appends the next; two threads
# doing that at once would store a rank at the wrong index.  Ranks already
# stored never change, so reading them needs no lock.
_EULERIAN_LOCK = threading.Lock()


def _eulerian_row(kind, n):
    _require(kind in ("A", "B"), f"kind must be A or B, got {kind!r}")
    _require(n >= 1, "n must be at least 1", RankOutOfRange)
    cache = _EULERIAN_A if kind == "A" else _EULERIAN_B
    if len(cache) <= n:
        c = 1 if kind == "A" else 2
        with _EULERIAN_LOCK:
            while len(cache) <= n:
                f = cache[-1]  # (s+t) f + c st D f
                cache.append([a + b + c * g for a, b, g
                              in zip(f + [0], [0] + f, _st_d(f))])
    return cache[n]


def eulerian(kind, n):
    """Bivariate Eulerian polynomial of S_n (kind "A") or B_n (kind "B")."""
    return _poly(_eulerian_row(kind, n))


def eulerian_t(kind, n):
    """Univariate Eulerian polynomial (set s = 1)."""
    return _poly(_eulerian_row(kind, n), ("t",))


# -- half-sum closed forms ------------------------------------------------------


def _sgn_dexc_row(n):
    return _signed(n) if n % 2 == 0 else _signed(n - 1) + [0]


def sgn_aexc_closed(n):
    """Signed type-A excedance sum: (s-t)^(n-1)."""
    _require(n >= 1, "n must be at least 1", RankOutOfRange)
    return _poly(_signed(n - 1))


def sgn_bexc_closed(n):
    """Signed type-B excedance sum: (s-t)^n."""
    _require(n >= 1, "n must be at least 1", RankOutOfRange)
    return _poly(_signed(n))


def sgn_dexc_closed(n):
    """Signed type-D excedance sum: (s-t)^n for even n, s(s-t)^(n-1) for odd."""
    _require(n >= 1, "n must be at least 1", RankOutOfRange)
    return _poly(_sgn_dexc_row(n))


def sgnb_des_u_closed(n):
    """Signed descent-ascent-position sum: (s-t)^n u^n."""
    _require(n >= 1, "n must be at least 1", RankOutOfRange)
    return _poly(_signed(n)) * Poly.variable("u") ** n


# family -> (Eulerian kind, lowest rank)
_HALF_SUMS = {"aexc": ("A", 2), "bexc": ("B", 1)}


def half_sum_closed(family, n, cls):
    """The even/odd-length half of an Eulerian distribution.

    aexc: (A_n +- (s-t)^(n-1)) / 2 for n >= 2;
    bexc: (B_n +- (s-t)^n) / 2 for n >= 1.  Divisions are exact.
    """
    _require(cls in ("plus", "minus"), f"cls must be plus/minus, got {cls!r}")
    _require(family in _HALF_SUMS, f"half-sum covers aexc and bexc, not {family!r}")
    kind, low = _HALF_SUMS[family]
    _require(n >= low, f"{family} half-sum needs n >= {low}", RankOutOfRange)
    row = _eulerian_row(kind, n)
    return _poly(_half(_add(row, _signed(len(row) - 1),
                            1 if cls == "plus" else -1)))


# -- one-step recurrences --------------------------------------------------------


def _grow_a(m):
    return _half(_st_d(_eulerian_row("A", m - 1)))


def _grow_b(m):
    return _st_d(_eulerian_row("B", m - 1))


def _halves(pair, n, cls):
    return _add(*pair) if cls == "all" else pair[("plus", "minus").index(cls)]


def _dexc_view(pair, n, cls):
    if cls == "all":
        return pair[0]
    return _half(_add(pair[0], _sgn_dexc_row(n), 1 if cls == "plus" else -1))


def _bdexc_view(pair, n, cls):
    _require(cls == "all", "bdexc has no plus/minus split")
    return pair[1]


_B_PAIRS = {1: ([1, 0], [0, 1])}

# family -> (memo: level -> pair of rows (X, Y), growth row at level m, what
# the family reads off the pair, lowest rank).  Every engine steps the same
# coupled shape; dexc and bdexc read bexc's pairs.
_STEPS = {
    "aexc": ({2: ([1, 0], [0, 1])}, _grow_a, _halves, 2),
    "bexc": (_B_PAIRS, _grow_b, _halves, 1),
    "dexc": (_B_PAIRS, _grow_b, _dexc_view, 2),
    "bdexc": (_B_PAIRS, _grow_b, _bdexc_view, 2),
}


def step_recurrence(family, n, cls="all"):
    """One-step recurrence engines for the excedance families.

    Each steps a pair X_n = s X_{n-1} + t Y_{n-1} + g_n,
    Y_n = t X_{n-1} + s Y_{n-1} + g_n.  aexc (n >= 2): the plus/minus halves,
    g_n = st D A_{n-1} / 2, seeded with (s, t) at n = 2.  bexc (n >= 1): same
    with g_n = st D B_{n-1} and seeds (s, t) at n = 1.  dexc/bdexc (n >= 2):
    bexc's pair, which is (D_n, (B-D)_n) from n = 2 on; the plus/minus
    halves of dexc come from the signed closed form.
    """
    _require(family in _STEPS, f"unknown family {family!r}")
    memo, grow, view, low = _STEPS[family]
    _require(n >= low, f"{family} step recurrence starts at n = {low}",
             RankOutOfRange)
    for m in range(max(memo) + 1, n + 1):
        x, y = memo[m - 1]
        g = grow(m)
        memo[m] = ([a + b + c for a, b, c in zip(x + [0], [0] + y, g)],
                   [a + b + c for a, b, c in zip([0] + x, y + [0], g)])
    return _poly(view(memo[n], n, cls))


# -- coefficient triangles -------------------------------------------------------


class CoeffTable(Record):
    """Triangles a+_{n,k}, a-_{n,k} of the even/odd excedance counts.

    Row n holds the coefficients of t^0..t^(n-1); rows run 2..n_max.  Built
    by the coupled recurrences
        a+_{n,k} = k a-_{n-1,k} + (n-k) a-_{n-1,k-1} + a+_{n-1,k}
        a-_{n,k} = k a+_{n-1,k} + (n-k) a+_{n-1,k-1} + a-_{n-1,k}
    from row 2 = (1,0) / (0,1).
    """

    __slots__ = ("n_max", "plus", "minus")

    def __init__(self, n_max, plus, minus):
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def row(self, n, cls):
        _require(cls in ("plus", "minus"), f"cls must be plus/minus, got {cls!r}")
        _require(2 <= n <= self.n_max, f"row {n} outside 2..{self.n_max}")
        rows = self.plus if cls == "plus" else self.minus
        return rows[n - 2]

    def value(self, n, k, cls):
        row = self.row(n, cls)
        return row[k] if 0 <= k < len(row) else 0


def coeff_tables(n_max):
    _require(n_max >= 2, "need n_max >= 2")
    plus, minus = [[1, 0]], [[0, 1]]
    for _ in range(3, n_max + 1):
        # rows n-1 read as homogeneous: a_{n-1,k} is s*a, and
        # k b_{n-1,k} + (n-k) b_{n-1,k-1} is t*b + st D b
        p, m = plus[-1], minus[-1]
        plus.append(_add(_add(p + [0], [0] + m), _st_d(m)))
        minus.append(_add(_add(m + [0], [0] + p), _st_d(p)))
    return CoeffTable(n_max, tuple(map(tuple, plus)), tuple(map(tuple, minus)))


# -- the four-step jump ----------------------------------------------------------

def _from_gammas(d, gammas):
    """sum of gammas[i] (st)^i (s+t)^(d-2i), gamma positive with center d/2."""
    return GammaExpansion(BIVARIATE, 0, d, gammas).recompose()


@functools.cache
def _jump_table():
    """The thirteen fixed jump polynomials, built on first use from their
    degrees and gamma vectors."""
    return {name: (_from_gammas(d, gammas), Fraction(d, 2))
            for name, (d, gammas) in {
                "L1": (4, (1, 7, 16)), "L2": (4, (0, 15, 0)),
                "L3": (5, (0, 15, 60)), "L4": (6, (0, 0, 25, 20)),
                "L5": (7, (0, 0, 0, 10)), "L6": (8, (0, 0, 0, 0, 1)),
                "R1": (4, (1, 8, 16)), "R2": (4, (0, 16, 0)),
                "R3": (5, (0, 4, 32)), "R4": (6, (0, 0, 2, 8)),
                "R5": (4, (0, 12, 0)), "R6": (5, (0, 0, 8)),
                "R7": (4, (0, 0, 2)),
            }.items()}


def jump_tables():
    """The thirteen fixed jump polynomials with their centers of symmetry.

    A fresh dict each call, so a caller's edits never reach the jump engine.
    """
    return dict(_jump_table())


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
            + tab["R3"][0] * D(b_n) + tab["R4"][0] * D(D(b_n))
            + tab["R5"][0] * D(b_n1) + tab["R6"][0] * D(D(b_n1))
            + tab["R7"][0] * D(D(b_n2)))


def _aexc_jump(prev, low):
    tab = _jump_table()
    out = {}
    for cls, other in (("plus", "minus"), ("minus", "plus")):
        P = prev[cls]
        out[cls] = tab["L1"][0] * P + tab["L2"][0] * prev[other]
        for name in ("L3", "L4", "L5", "L6"):  # L_{k+2} D^k P
            P = D(P)
            out[cls] += tab[name][0] * P
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


# family -> (seeds: level -> gamma vectors (g_0, g_1, ...) of the displayed
# plus and minus base polynomials sum g_i (st)^i (s+t)^(d-2i), the four-step
# jump from level-low data)
_JUMPS = {
    "aexc": ({5: ((1, 7, 16), (0, 15, 0)),
              7: ((1, 51, 384, 104), (0, 63, 336, 168))}, _aexc_jump),
    "dexc": ({4: ((1, 12, 32), (0, 20, 16)),
              6: ((1, 170, 1952, 928), (0, 182, 1904, 992))}, _dexc_jump),
}


def _jump_level(family, n):
    """Level-n plus/minus pair computed through the jump engine only; n must
    be a seed's level plus a multiple of four, as ``jump4`` checks."""
    base, jump = _JUMPS[family]
    if n in base:
        return {cls: _from_gammas(2 * len(g) - 2, g)
                for cls, g in zip(("plus", "minus"), base[n])}
    return jump(_jump_level(family, n - 4), n - 4)


def jump4(family, n, cls):
    """The level-(n+4) polynomial from level-n data via the L/R tables.

    Seeds: aexc at levels 5 and 7, dexc at levels 4 and 6; any other level
    must be reachable from a seed in steps of four (MissingBase otherwise).
    Cross-checked against four applications of ``step_recurrence``.
    """
    _require(family in _JUMPS, "jump is defined for aexc and dexc")
    _require(cls in ("plus", "minus"), f"cls must be plus/minus, got {cls!r}")
    base = _JUMPS[family][0]
    if n < min(base) or (n - min(base)) % 2:
        raise MissingBase(f"level {n} is not reachable from the {family} "
                          f"seeds {sorted(base)} in steps of four")
    return _jump_level(family, n + 4)[cls]


# -- conjugacy classes and derangements -------------------------------------------


def set_partition_count(lam):
    """Number of set partitions of [n] with block sizes lam: n!/(prod lam_i! prod m_i!)."""
    lam = CycleType(lam)
    divisor = math.prod(map(math.factorial,
                            (*lam.parts, *lam.multiplicities().values())))
    return math.factorial(lam.n) // divisor


def conj_exc_closed(lam):
    """Excedance polynomial of the conjugacy class with cycle type lam.

    set_partition_count(lam) * prod over parts j >= 2 of t A_{j-1}(t); the
    fixed points only enter through the counting factor.  Gamma positive
    with center (n - m_1)/2.
    """
    lam = CycleType(lam)
    product = Poly.const(1, ("t",))
    for part in lam.parts:
        if part >= 2:
            product = product * (_T * eulerian_t("A", part - 1))
    return set_partition_count(lam) * product


def _derangements_by_cycles(m, q):
    """The t-coefficient row of d_m(q, t) = sum of q^cyc t^exc over the
    derangements of [m].

    d_0 = 1, d_1 = 0, d_k = (k-1) t d_{k-1} + t(1-t) d'_{k-1} + (k-1) q t d_{k-2}:
    k joins a cycle of a derangement of [k-1], or a new 2-cycle.  Run on
    coefficient rows, so t^j of d_k is j a_j + (k-j) a_{j-1} + (k-1) q b_{j-1}.
    """
    older, row = [], [1]  # the rows of d_{k-2} and d_{k-1}
    for k in range(1, m + 1):
        a, b = [0] + row + [0], [0] + older + [0] * k
        older, row = row, [j * a[j + 1] + (k - j) * a[j] + (k - 1) * q * b[j]
                           for j in range(k + 1)]
    return row


def derangement_closed(n, cls="all", fixed=None):
    """Excedance polynomial over permutations with a given fixed-point count.

    ``fixed=None`` means none; cls keeps the even (plus) or odd (minus) ones.
    With i fixed points the rest is a derangement of m = n - i letters, of sign
    (-1)^(m - cyc): C(n, i) times d_m(1, t) or (d_m(1, t) +- (-1)^m d_m(-1, t))/2.
    """
    _require(n >= 0, "n must be non-negative", RankOutOfRange)
    i = 0 if fixed is None else fixed
    _require(0 <= i <= n, f"fixed={i} outside 0..{n}")
    _require(cls in ("all", "plus", "minus"),
             f"cls must be all/plus/minus, got {cls!r}")
    sign = {"all": 0, "plus": 1, "minus": -1}[cls] * (-1) ** (n - i)
    d = _derangements_by_cycles(n - i, 1)
    if sign:
        d = _half(_add(d, _derangements_by_cycles(n - i, -1), sign))
    return _poly([math.comb(n, i) * c for c in d], ("t",))
