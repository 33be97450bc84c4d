"""Recurrence engines and closed forms, independent of any enumeration.

Bivariate Eulerian polynomials by the insertion recurrences

    A_{n+1} = (s+t) A_n + st D A_n          (descent/ascent over S_n)
    B_{n+1} = (s+t) B_n + 2 st D B_n        (type-B descent/ascent)

from A_0 = A_1 = 1 and B_0 = 1; both engines are certified against the
enumeration oracle in the test suite.  On top of these: the half sums, with
type D's halves of B_n, the one-step recurrences that cross-check them, the
coefficient-triangle recurrences, the four-step jump via the fixed L/R
tables, the conjugacy-class product formula and the derangement cycle
recurrence at q = 1.  Every /2 in a formula is a theorem about integrality, so the
division is exact and raises OddCoefficient if it ever is not.

The engines compute on rows: a homogeneous polynomial of degree d in (s, t)
is the list r with r[k] the coefficient of s^(d-k) t^k, so s*f is r + [0] and
t*f is [0] + r; a t-row has r[k] the coefficient of t^k.  A row is never
mutated once built.  Every closed family but sgnb_des_u answers with a row
(``oracle.FAMILIES``), and the exported engines wrap the same rows in a
Poly.  The four-step jump stays on Poly, and so does sgnb_des_u_closed.

A split family's classes follow one rule, ``_class``: "all" is the whole,
and the even (plus) and odd (minus) halves are (whole +- signed) / 2, the
signed sum weighting each element by its sign: a closed row, the
derangements' too, built by a thunk run for a half only, so "all" never pays.

``_EULERIAN`` holds two memos per kind, rank -> list, each with the rank-1 seed
and the ranks asked for: the low halves f[0..d//2] of the palindromic degree-d
rows, mirrored as ``_eulerian_row`` hands one out, and the gamma vectors,
f = sum of g_j (st)^j (s+t)^(d-2j).  A miss steps up from the highest rank held
below, read from a ``list(memo)`` snapshot that another thread's insert cannot
break, and stores that value alone.  No lock: values depend only on the rank.
"""

import functools
import math
from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import add, and_, mul, neg, rshift, sub

from .groups import CycleType
from .poly import (BIVARIATE, D, GammaExpansion, OddCoefficient, Poly, Record,
                   UNIVARIATE, half)

_S = Poly.variable("s")
_T = Poly.variable("t")


class MissingBase(ValueError):
    """The jump engine has no seed data for the requested level."""


class NoClosedForm(ValueError):
    """The family is defined by enumeration only."""


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def _int(value, name="rank"):
    """value, once checked to be an int: bool and float are not ranks."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an int")
    return value


# -- rows ------------------------------------------------------------------------


def _poly(row, mode=BIVARIATE):
    """The Poly of an (s, t) row, or over ("t",) of a t-row in univariate mode."""
    if mode == UNIVARIATE:
        return Poly._trusted(("t",), {(k,): c for k, c in enumerate(row)})
    d = len(row) - 1
    return Poly._trusted(("s", "t"), {(d - k, k): c for k, c in enumerate(row)})


def _add(a, b, sign=1):
    return list(map(add if sign > 0 else sub, a, b))


def _class(cls, classes=("all", "plus", "minus")):
    """Checks cls; returns the function reading it off (whole, signed)."""
    _require(cls in classes, f"cls must be {'/'.join(classes)}, got {cls!r}")
    sign = {"all": 0, "plus": 1, "minus": -1}[cls]
    return lambda whole, signed: (_half(_add(whole, signed(), sign)) if sign
                                  else whole)


def _step(v, a, b):
    """[a_j v_j + b_j v_(j-1)] over j < len(v), with v_(-1) = 0."""
    return list(map(add, map(mul, a, v), map(mul, b, [0] + v)))


def _half(row):
    """Exact halving; raises OddCoefficient when not integral."""
    if any(map(and_, row, repeat(1))):
        k, c = next((k, c) for k, c in enumerate(row) if c % 2)
        raise OddCoefficient(f"coefficient {c} at t^{k} is odd")
    return list(map(rshift, row, repeat(1)))


def _st_d(row):
    """st D f: t^j gets j r[j] + (d - j + 1) r[j-1]."""
    return _step(row + [0], count(0), count(len(row), -1))


def _signed(m):
    """(s-t)^m: the signed binomial row, entry m - k being (-1)^m times entry k."""
    row = list(map(math.comb, repeat(m), range(m // 2 + 1)))
    row[1::2] = map(neg, row[1::2])
    top = row[:m - m // 2][::-1]  # entries m//2 + 1..m, up to the sign
    return row + (list(map(neg, top)) if m % 2 else top)


# -- Eulerian engines ----------------------------------------------------------

# kind -> (half-row memo, gamma memo, c, low): the rank-m row has degree m - low
_EULERIAN = {"A": ({1: [1]}, {1: [1]}, 1, 1), "B": ({1: [1]}, {1: [1]}, 2, 0)}


def _held(memo, n, step):
    """memo[n], else stepped by step(value, m) up from the highest m held below."""
    if n not in memo:
        low = max(filter(n.__gt__, list(memo)))  # one snapshot, scanned in C
        memo[n] = functools.reduce(step, range(low, n), memo[low])
    return memo[n]


def _row_step(h, d, c):
    """The low half of (s+t) f + c st D f from h, the low half of f (degree d):
    f'[j] = (1 + cj) f[j] + (1 + c(d - j + 1)) f[j-1], f[d//2 + 1] mirrored."""
    return _step(h + h[-1:] if d % 2 else h, count(1, c), count(1 + c * (d + 1), -c))


def _gamma_step(g, d, c):
    """The gamma step from degree d: g'_j = (1 + cj) g_j + 2c(d - 2j + 2) g_(j-1)."""
    return _step(g + [0] if d % 2 else g, count(1, c), count(2 * c * (d + 2), -4 * c))


def _eulerian_row(kind, n):
    _require(kind in _EULERIAN, f"kind must be A or B, got {kind!r}")
    _require(_int(n) >= 0, "n must be non-negative")
    if not n:
        return [1]  # rank 0: the one empty window
    rows, _, c, low = _EULERIAN[kind]
    h = _held(rows, n, lambda h, m: _row_step(h, m - low, c))
    return h + h[:n - low + 1 - len(h)][::-1]


def eulerian(kind, n):
    """Bivariate Eulerian polynomial of S_n (kind "A") or B_n (kind "B")."""
    return _poly(_eulerian_row(kind, n))


def eulerian_t(kind, n):
    """Univariate Eulerian polynomial (set s = 1)."""
    return _poly(_eulerian_row(kind, n), UNIVARIATE)


# -- half-sum closed forms ------------------------------------------------------


def _sgn_dexc_row(n):
    return _signed(n) if n % 2 == 0 else _signed(n - 1) + [0]


def sgn_aexc_closed(n):
    """Signed type-A excedance sum: (s-t)^(n-1)."""
    _require(_int(n) >= 1, "n must be at least 1")
    return _poly(_signed(n - 1))


def sgn_bexc_closed(n):
    """Signed type-B excedance sum: (s-t)^n."""
    _require(_int(n) >= 0, "n must be non-negative")
    return _poly(_signed(n))


def sgn_dexc_closed(n):
    """Signed type-D excedance sum: (s-t)^n for even n, s(s-t)^(n-1) for odd."""
    _require(_int(n) >= 0, "n must be non-negative")
    return _poly(_sgn_dexc_row(n))


def sgnb_des_u_closed(n):
    """Signed descent-ascent-position sum: (s-t)^n u^n."""
    _require(_int(n) >= 0, "n must be non-negative")
    return _poly(_signed(n)) * Poly.variable("u") ** n


def half_sum_closed(family, n, cls):
    """The even/odd-length half of an Eulerian distribution.

    aexc: (A_n +- (s-t)^(n-1)) / 2 for n >= 1;
    bexc: (B_n +- (s-t)^n) / 2 for n >= 0.  Divisions are exact.
    """
    _class(cls, ("plus", "minus"))
    _require(family in ("aexc", "bexc"),
             f"half-sum covers aexc and bexc, not {family!r}")
    low = _EULERIAN["A" if family == "aexc" else "B"][3]
    _require(_int(n) >= low, f"{family} half-sum needs n >= {low}")
    return _poly(_class_row(family, n, cls))


def _class_row(family, n, cls):
    """aexc's, bexc's or dexc's closed row by the class rule, with D_n =
    (B_n + (s-t)^n) / 2 and its signed sum ``_sgn_dexc_row``; callers check n."""
    read = _class(cls)
    if family == "dexc":
        return read(_half(_add(_eulerian_row("B", n), _signed(n))),
                    lambda: _sgn_dexc_row(n))
    kind = "A" if family == "aexc" else "B"
    return read(_eulerian_row(kind, n), lambda: _signed(n - _EULERIAN[kind][3]))


def gamma_closed(family, n, cls="all"):
    """The GammaExpansion of aexc's, bexc's or dexc's closed polynomial by the
    class rule on A_n's or B_n's gamma vector, or None where the rule does not
    apply: below rank 1, on a zero vector, or on a signed sum of odd degree."""
    read = _class(cls)
    _require(family in ("aexc", "bexc", "dexc"), f"no gamma vector for {family!r}")
    _, gammas, c, low = _EULERIAN["A" if family == "aexc" else "B"]
    d = n - low
    if n < 1 or (d % 2 and (cls != "all" or family == "dexc")):
        return None

    def signed():  # (s-t)^(2m) = ((s+t)^2 - 4st)^m
        m = d // 2
        return list(map(mul, map(math.comb, repeat(m), range(m + 1)),
                        accumulate(repeat(-4, m), mul, initial=1)))

    whole = _held(gammas, n, lambda g, m: _gamma_step(g, m - low, c))
    if family == "dexc":
        whole = _half(_add(whole, signed()))
    vector = read(whole, signed)
    r = next((i for i, g in enumerate(vector) if g), None)  # leading zeros
    return None if r is None else GammaExpansion(BIVARIATE, r, d, vector[r:])


# -- one-step recurrences --------------------------------------------------------


# family -> (Eulerian kind, whole and signed sum (None: no split) of the
# rank-n pair); the pair starts at the kind's lowest rank
_STEPS = {
    "aexc": ("A", _add, lambda x, y, n: _add(x, y, -1)),
    "bexc": ("B", _add, lambda x, y, n: _add(x, y, -1)),
    "dexc": ("B", lambda x, y: x, lambda x, y, n: _sgn_dexc_row(n)),
    "bdexc": ("B", lambda x, y: y, None),
}


def step_recurrence(family, n, cls="all"):
    """One-step recurrences, a second engine that no family reads: verify
    and the tests check the half sums and dexc's closed row against it.

    Each steps a pair X_n = s X_{n-1} + t Y_{n-1} + g_n, Y_n = t X_{n-1}
    + s Y_{n-1} + g_n, where g_n = c st D E_{n-1} / 2, from (1, 0) at the
    lowest rank of its Eulerian kind E, and stores nothing.  aexc (E = A,
    c = 1, n >= 1): the halves.  bexc (E = B, c = 2, n >= 0): whole X + Y,
    signed X - Y.  dexc/bdexc (n >= 0): bexc's pair is (D_n, (B-D)_n).
    The request is checked before the first step.
    """
    _require(family in _STEPS, f"unknown family {family!r}")
    kind, whole, signed = _STEPS[family]
    _, _, c, low = _EULERIAN[kind]
    _require(_int(n) >= low, f"{family} step recurrence starts at n = {low}")
    _require(signed or cls == "all", f"{family} has no plus/minus split")
    read = _class(cls)
    x, y = [1], [0]
    for m in range(low + 1, n + 1):
        g = _half([c * v for v in _st_d(_eulerian_row(kind, m - 1))])
        x, y = ([a + b + e for a, b, e in zip(x + [0], [0] + y, g)],
                [a + b + e for a, b, e in zip([0] + x, y + [0], g)])
    return _poly(read(whole(x, y), lambda: signed(x, y, n)))


# -- coefficient triangles -------------------------------------------------------


class CoeffTable(Record):
    """Triangles a+_{n,k}, a-_{n,k} of the even/odd excedance counts.

    Row n holds the coefficients of t^0..t^(n-1); rows run 1..n_max.  Built
    by the coupled recurrences
        a+_{n,k} = k a-_{n-1,k} + (n-k) a-_{n-1,k-1} + a+_{n-1,k}
        a-_{n,k} = k a+_{n-1,k} + (n-k) a+_{n-1,k-1} + a-_{n-1,k}
    from row 1 = (1,) / (0,), S_1's identity.
    """

    __slots__ = ("n_max", "plus", "minus")

    def __init__(self, n_max, plus, minus):
        for rows in (plus, minus):
            _require([len(row) for row in rows] == list(range(1, n_max + 1)),
                     f"plus and minus need rows 1..{n_max}, row k of k entries")
        super().__init__(n_max, plus, minus)

    def row(self, n, cls):
        _require(cls in ("plus", "minus"), f"cls must be plus/minus, got {cls!r}")
        _require(1 <= _int(n) <= self.n_max, f"row {n} outside 1..{self.n_max}")
        return getattr(self, cls)[n - 1]  # the class names the field

    def value(self, n, k, cls):
        row = self.row(n, cls)
        return row[k] if 0 <= k < len(row) else 0


def coeff_tables(n_max):
    _require(_int(n_max, "n_max") >= 1, "need n_max >= 1")
    plus, minus = [[1]], [[0]]
    for _ in range(2, n_max + 1):
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
    _require(_int(n) >= 2, "tail defined for n >= 2")
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
    # the class rule on Polys: whole R1 D_n + tail, signed sum times (s-t)^4
    whole = (_jump_table()["R1"][0] * (prev["plus"] + prev["minus"])
             + dexc_jump_tail(low))
    signed = (_S - _T) ** 4 * (prev["plus"] - prev["minus"])
    return {"plus": half(whole + signed), "minus": half(whole - signed)}


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
    if _int(n) < min(base) or (n - min(base)) % 2:
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


def _times(row, factor):
    """The product of two t-rows, one slice of row per entry of factor."""
    out, m = [0] * (len(row) + len(factor) - 1), len(row)
    for k, x in enumerate(factor):
        out[k:k + m] = map(add, out[k:k + m], map(mul, row, repeat(x)))
    return out


def _conj_exc_row(lam):
    """``conj_exc_closed``'s t-row."""
    lam = CycleType(lam)
    row = [1]
    for part in reversed(lam.parts):  # ascending, so each row steps from the last
        if part >= 2:
            row = _times(row, [0] + _eulerian_row("A", part - 1))
    return list(map(mul, row, repeat(set_partition_count(lam))))


def conj_exc_closed(lam):
    """Excedance polynomial of the conjugacy class with cycle type lam.

    set_partition_count(lam) * prod over parts j >= 2 of t A_{j-1}(t); the
    fixed points only enter through the counting factor.  Gamma positive
    with center (n - m_1)/2.
    """
    return _poly(_conj_exc_row(lam), UNIVARIATE)


def _derangements_by_cycles(m):
    """The t-coefficient row of d_m(t) = sum of t^exc over the derangements of [m].

    d_0 = 1, d_1 = 0, d_k = (k-1) t d_{k-1} + t(1-t) d'_{k-1} + (k-1) t d_{k-2}:
    k joins a cycle of a derangement of [k-1], or a new 2-cycle.  Run on
    coefficient rows, so t^j of d_k is j a_j + (k-j) a_{j-1} + (k-1) b_{j-1}.
    """
    older, row = [], [1]  # the rows of d_{k-2} and d_{k-1}
    for k in range(1, m + 1):
        a, b = [0] + row + [0], [0] + older + [0] * k
        older, row = row, [j * a[j + 1] + (k - j) * a[j] + (k - 1) * b[j]
                           for j in range(k + 1)]
    return row


def _derangement_row(n, cls="all", fixed=None):
    """``derangement_closed``'s t-row."""
    _require(_int(n) >= 0, "n must be non-negative")
    i = 0 if fixed is None else fixed
    _require(0 <= _int(i, "fixed-point count") <= n, f"fixed={i} outside 0..{n}")
    read, m = _class(cls), n - i
    d = read(_derangements_by_cycles(m),
             lambda: [0, *repeat((-1) ** (m - 1), m - 1), 0] if m else [1])
    return [math.comb(n, i) * c for c in d]


def derangement_closed(n, cls="all", fixed=None):
    """Excedance polynomial over permutations with a given fixed-point count.

    ``fixed=None`` means none; cls keeps the even (plus) or odd (minus) ones.
    With i fixed points the rest is a derangement of m = n - i letters, of sign
    (-1)^(m - cyc): C(n, i) times d_m(t) or (d_m(t) +- e_m(t))/2, where the
    signed sum e_m(t) is 1 at m = 0 and (-1)^(m-1) (t + ... + t^(m-1)) after.
    """
    return _poly(_derangement_row(n, cls, fixed), UNIVARIATE)
