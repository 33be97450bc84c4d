"""Exact sparse polynomial arithmetic and the gamma-basis toolkit.

A polynomial is an immutable pair: an ordered tuple of variable names drawn
from the fixed alphabet ``s, t, u, q``, and a map from exponent vectors (one
non-negative integer per variable) to nonzero integer coefficients.  All
arithmetic is exact over Python ints, so nothing overflows.  The zero
polynomial has an empty term map.

    s**2 + 2*s*t + t**2   ->   vars ("s", "t"), terms {(2,0):1, (1,1):2, (0,2):1}

Binary operations align variable lists automatically (missing variables get
exponent zero), so ``s + q`` is fine; the merged list keeps the canonical
s < t < u < q order.  Equality on equal variable tuples compares term maps.

Gamma machinery conventions.  A univariate f(t) with support in [r, n] is
*palindromic* when its coefficient sequence is symmetric about (n+r)/2; it
then expands uniquely in the basis t^(r+i) (1+t)^(n-r-2i), and the expansion
coordinates are its gamma vector.  A homogeneous bivariate f(s,t) of total
degree n is palindromic when its t-coefficient sequence a_0..a_n satisfies
a_i = a_{n-i}; it expands in (st)^(r+i) (s+t)^(n-2(r+i)).  Restricting s=1
turns the bivariate expansion into the univariate one with top degree n-r,
so both views share one peel algorithm.  The q-coefficient mode treats a
polynomial in (q, t) as a t-polynomial whose coefficients live in Z[q];
palindromicity and the gamma vector are then coefficient-polynomial valued.

Every mode reads f's terms into int rows of t-coefficients a_0..a_top,
padded to the total degree in bivariate mode: one row, or in q-mode one row
per power of q.  Peeling is linear, so each row peels on its own, over the
lower half of its window only; q-mode gammas and witnesses are dense
q-coefficient tuples.  The peel signs that half, (-1)^k a_k, so that each
division by 1+t is a prefix sum, and works top down from the middle gamma,
which f(-1) gives: additions only, one pass per gamma.  An expansion
recomposes the other way, one t-row per power of q: gamma_i adds
gamma_i C(length-2i, j) at t^(r+i+j), with no Poly product.
"""

import json
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import add, itemgetter, neg

VARIABLES = ("s", "t", "u", "q")
_VAR_RANK = {v: i for i, v in enumerate(VARIABLES)}

UNIVARIATE = "univariate_t"
BIVARIATE = "bivariate_st"
Q_COEFFICIENTS = "q_coefficients"
GAMMA_MODES = (UNIVARIATE, BIVARIATE, Q_COEFFICIENTS)


class UnknownVariable(ValueError):
    """A referenced variable is not declared in the polynomial."""


class NotHomogeneous(ValueError):
    """Bivariate gamma operations need all terms to share one total degree."""


class ZeroPolynomial(ValueError):
    """The zero polynomial has no support, hence no palindrome data."""


class EvenLength(ValueError):
    """Odd-length splitting applied to an even-length polynomial."""


class NotGammaPositive(ValueError):
    """An operation required a non-negative gamma vector."""


class OddCoefficient(ValueError):
    """An exact division by 2 met an odd coefficient (signals a bug upstream)."""


class NotPalindromic(ValueError):
    """Coefficient sequence is not symmetric; carries the first violated pair."""

    def __init__(self, low_index, high_index, low, high):
        self.low_index = low_index
        self.high_index = high_index
        self.low = low
        self.high = high
        super().__init__(
            f"coefficient of t^{low_index} is {low!s} but coefficient of "
            f"t^{high_index} is {high!s}"
        )


class Record:
    """A frozen value whose fields are the ``__slots__`` of the classes that
    declare them, set once by the one ``__init__`` from positional or keyword
    values or ``_defaults``: ``@dataclass(frozen=True)`` without the methods
    it compiles for every class at import."""

    __slots__ = ()
    _fields, _defaults = (), {}

    def __init_subclass__(cls):  # __slots__ = () keeps the inherited fields
        cls._fields += tuple(vars(cls).get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    def _bind(self, args, kwargs):
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in fields[:len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required argument {missing[0]!r}")
        return [values[key] for key in fields]

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):  # field by field, within one class only
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _check_vars(vars):
    vars = tuple(vars)
    for v in vars:
        if v not in _VAR_RANK:
            raise UnknownVariable(f"unknown variable {v!r}; allowed: {VARIABLES}")
    if list(vars) != sorted(vars, key=_VAR_RANK.__getitem__):
        raise ValueError(f"variables must be in canonical s,t,u,q order, got {vars}")
    if len(set(vars)) != len(vars):
        raise ValueError(f"duplicate variable in {vars}")
    return vars


class Poly:
    """Sparse exact polynomial over the integers.

    Instances are immutable and hashable; equality is mathematical (variable
    lists are aligned before comparison, so ``s`` built over ("s",) equals
    ``s`` built over ("s","t")).
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, vars=(), terms=None):
        self._vars = _check_vars(vars)
        clean = {}
        if terms:
            width = len(self._vars)
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != width:
                    raise ValueError(
                        f"exponent vector {exp} does not match variables {self._vars}"
                    )
                if any(type(e) is not int or e < 0 for e in exp):
                    raise ValueError(f"exponents must be non-negative ints: {exp}")
                if type(coeff) is not int:  # bool and float are not coefficients
                    raise ValueError(f"coefficients must be ints, got {coeff!r}")
                if coeff:
                    clean[exp] = coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, vars, terms):
        """A Poly from parts already valid (Poly arithmetic, closed-engine
        rows): vars and exponents go unchecked; zero coefficients are dropped."""
        self = object.__new__(cls)
        self._vars = vars
        self._terms = {exp: coeff for exp, coeff in terms.items() if coeff}
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars=()):
        return cls(vars, {})

    @classmethod
    def const(cls, value, vars=()):
        return cls(vars, {(0,) * len(tuple(vars)): value})

    @classmethod
    def variable(cls, name):
        if name not in _VAR_RANK:
            raise UnknownVariable(f"unknown variable {name!r}")
        return cls((name,), {(1,): 1})

    @classmethod
    def gens(cls, *names):
        """Convenience: ``s, t = Poly.gens("s", "t")``."""
        return tuple(cls.variable(n) for n in names)

    # -- basic queries -----------------------------------------------------

    @property
    def vars(self):
        return self._vars

    @property
    def terms(self):
        return dict(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def _canonical_key(self):
        used = [i for i, _ in enumerate(self._vars)
                if any(exp[i] for exp in self._terms)]
        names = tuple(self._vars[i] for i in used)
        items = tuple(sorted(
            (tuple(exp[i] for i in used), coeff)
            for exp, coeff in self._terms.items()
        ))
        return names, items

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly._trusted((), {(): other})
        if not isinstance(other, Poly):
            return NotImplemented
        if self._vars == other._vars:  # no zero coefficient is ever stored
            return self._terms == other._terms
        return self._canonical_key() == other._canonical_key()

    def __hash__(self):  # a constant hashes as the int it equals
        key = self._canonical_key()
        return hash(key if key[0] else self.at_ones())

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly._trusted(self._vars, {(0,) * len(self._vars): other})
        return None

    def _aligned(self, other):
        if self._vars == other._vars:
            return self._vars, self._terms, other._terms
        merged = tuple(sorted(set(self._vars) | set(other._vars),
                              key=_VAR_RANK.__getitem__))

        def remap(poly):
            idx = [poly._vars.index(v) if v in poly._vars else None for v in merged]
            out = {}
            for exp, coeff in poly._terms.items():
                out[tuple(0 if i is None else exp[i] for i in idx)] = coeff
            return out

        return merged, remap(self), remap(other)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vars, a, b = self._aligned(other)
        out = dict(a)
        for exp, coeff in b.items():
            out[exp] = out.get(exp, 0) + coeff
        return Poly._trusted(vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vars, a, b = self._aligned(other)
        out, b = {}, list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in b:
                exp = tuple(map(add, e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return Poly._trusted(vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly._trusted(self._vars, {(0,) * len(self._vars): 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus and substitution ------------------------------------------

    def _index(self, var):
        if var not in self._vars:
            raise UnknownVariable(f"{var!r} not declared in {self._vars}")
        return self._vars.index(var)

    def substitute_one(self, var):
        """Set ``var`` to 1, summing coefficients of like powers exactly."""
        i = self._index(var)
        vars = self._vars[:i] + self._vars[i + 1:]
        out = {}
        for exp, coeff in self._terms.items():
            key = exp[:i] + exp[i + 1:]
            out[key] = out.get(key, 0) + coeff
        return Poly._trusted(vars, out)

    def derivative(self, var):
        i = self._index(var)
        out = {}
        for exp, coeff in self._terms.items():
            if exp[i] == 0:
                continue
            key = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
            out[key] = out.get(key, 0) + coeff * exp[i]
        return Poly._trusted(self._vars, out)

    def degree(self, var):
        """Largest exponent of ``var``; -1 for the zero polynomial."""
        i = self._index(var)
        return max((exp[i] for exp in self._terms), default=-1)

    def total_degree(self):
        return max((sum(exp) for exp in self._terms), default=-1)

    def coefficient(self, var, power):
        """The coefficient of ``var**power`` as a Poly in the other variables."""
        i = self._index(var)
        vars = self._vars[:i] + self._vars[i + 1:]
        out = {}
        for exp, coeff in self._terms.items():
            if exp[i] == power:
                out[exp[:i] + exp[i + 1:]] = coeff
        return Poly._trusted(vars, out)

    def coefficients(self, var):
        """Dense list of coefficients by power of ``var`` (Polys in the rest)."""
        return [self.coefficient(var, k) for k in range(self.degree(var) + 1)]

    def at_ones(self):
        """Evaluate with every variable set to 1 (the coefficient sum)."""
        return sum(self._terms.values())

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order (lexicographic on exponent vectors)."""
        return sorted(self._terms.items())

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        # ascending in the *last* variable first: prints 1 + 4t + 7t^2 and
        # s^4 + 11 s^3 t + ... the way the tables are usually written.
        for exp, coeff in sorted(self._terms.items(), key=lambda kv: kv[0][::-1]):
            factors = []
            for v, e in zip(self._vars, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self})"

    # -- JSON ----------------------------------------------------------------

    def to_json_dict(self):
        return {
            "vars": list(self._vars),
            "terms": [
                {"exp": list(exp), "coeff": str(coeff)}
                for exp, coeff in self.sorted_terms()
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data):
        vars = tuple(data["vars"])
        terms = {tuple(t["exp"]): _json_int(t["coeff"], "coeff") for t in data["terms"]}
        return cls(vars, terms)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


def _json_int(v, field):
    """An int, or a decimal string, read from JSON; else ValueError."""
    if type(v) is int or type(v) is str and v.removeprefix("-").isdecimal():
        return int(v)
    raise ValueError(f"{field} {v!r} is not an int or a decimal string")


def D(f):
    """The derivation d/ds + d/dt on polynomials declaring both s and t."""
    missing = [v for v in ("s", "t") if v not in f.vars]
    if missing:
        raise UnknownVariable(f"D needs variables s and t; missing {missing}")
    return f.derivative("s") + f.derivative("t")


def half(f):
    """Exact division by 2; raises OddCoefficient when not integral."""
    out = {}
    for exp, coeff in f._terms.items():
        if coeff % 2:
            raise OddCoefficient(f"coefficient {coeff} at {exp} is odd")
        out[exp] = coeff // 2
    return Poly._trusted(f.vars, out)


# -- palindromes and gamma expansions ---------------------------------------


def t_coefficients(f, mode=UNIVARIATE):
    """Dense row of f's t-coefficients, with every other variable set to 1.

    The row ends at the top t-exponent, or at the total degree in bivariate
    mode; the zero polynomial gives an empty row.
    """
    i = f.vars.index("t") if "t" in f.vars else None
    powers = [0 if i is None else exp[i] for exp in f._terms]
    top = f.total_degree() if mode == BIVARIATE else max(powers, default=-1)
    row = [0] * (top + 1)
    for k, coeff in zip(powers, f._terms.values()):
        row[k] += coeff
    return row


# mode -> the variables f may involve, and how an error names them
_MODE_VARIABLES = {
    UNIVARIATE: ({"t"}, "a polynomial in ['t'] only"),
    BIVARIATE: ({"s", "t"}, "s,t only"),
    Q_COEFFICIENTS: ({"q", "t"}, "a polynomial in ['q', 't'] only"),
}


def _symmetry(f, mode):
    """f's t-coefficients as one int row per power of q (a single row outside
    q-mode), their joint support [lo, hi], and the first index pair breaking
    the symmetry a gamma expansion needs (None if there is none).

    A variable the mode does not read is rejected first (a per-term scan
    that runs only if f declares one); column passes read the t- and
    q-exponents and the total degrees, and one loop places each
    coefficient.  f must not be zero nor, in bivariate mode, mix degrees.
    """
    try:
        allowed, expected = _MODE_VARIABLES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no palindrome data")
    vars, terms = f.vars, f._terms
    foreign = [i for i, v in enumerate(vars) if v not in allowed]
    for exp in terms if foreign else ():
        for i in foreign:
            if exp[i]:
                raise ValueError(f"{f} involves {vars[i]}; expected {expected}")
    degrees = set(map(sum, terms))
    ks, es = (list(map(itemgetter(vars.index(v)), terms)) if v in vars
              else [0] * len(terms) for v in ("t", "q"))
    if mode == BIVARIATE and len(degrees) > 1:
        raise NotHomogeneous(f"{f} mixes total degrees")
    lo, hi = min(ks), max(ks)
    # homogeneous symmetry pairs a_i with a_{N-i}; the window must be
    # centered in [0, N] for the gamma basis to exist at all.
    i, j = (0, degrees.pop()) if mode == BIVARIATE else (lo, hi)
    grid = [[0] * (j + 1) for _ in range(1 + max(es))]
    for k, e, coeff in zip(ks, es, terms.values()):
        grid[e][k] = coeff
    return grid, lo, hi, _asymmetry(grid, i, j)


def _asymmetry(grid, i, j):
    """First pair (k, i + j - k) breaking a grid row's symmetry on [i, j], or None."""
    bad = [next(k for k in range(i, j) if row[k] != row[i + j - k])
           for row in grid if row[i:] != row[i:][::-1]]
    return (min(bad), i + j - min(bad)) if bad else None


def _row_coefficients(row):
    """The row without its trailing zeros, the row itself if it has none:
    ``t_coefficients`` of a closed row's Poly, or a q-mode entry's dense
    q-coefficients."""
    top = len(row)
    while top and not row[top - 1]:
        top -= 1
    return row if top == len(row) else row[:top]


def _row_expansion(row, mode):
    """``gamma_decompose`` of a closed row's Poly, read off the row (entry k:
    the coefficient of s^(d-k) t^k in an (s, t) row, of t^k in a t-row) on
    ``_symmetry``'s window: [0, d] in bivariate mode, where a symmetric row's
    support ends at the mirror of its first nonzero, and else the support,
    which a t-row must end at (trimmed by ``_row_coefficients``)."""
    lo = next((k for k, c in enumerate(row) if c), None)
    if lo is None:
        raise ZeroPolynomial("the zero polynomial has no palindrome data")
    d = len(row) - 1
    i, hi = (0, d - lo) if mode == BIVARIATE else (lo, d)
    return _expansion([row], lo, hi, _asymmetry([row], i, d), mode)


class PalindromeInfo(Record):
    """Support window, symmetry verdict and center, in t-exponent terms."""

    __slots__ = ("is_palindromic", "r", "n", "cos")


def palindrome_info(f, mode=UNIVARIATE):
    """Support offset r, top t-exponent n, center (n+r)/2, and symmetry flag.

    In bivariate mode f must be homogeneous in (s, t); the reported n is the
    top *t-exponent*, so for a palindromic homogeneous polynomial the center
    equals half the total degree.  A non-palindromic input still reports the
    center of its support window.
    """
    if mode not in (UNIVARIATE, BIVARIATE):
        raise ValueError(f"palindrome_info supports {UNIVARIATE} and {BIVARIATE}")
    _, lo, hi, bad = _symmetry(f, mode)
    return PalindromeInfo(bad is None, lo, hi, Fraction(lo + hi, 2))


class GammaExpansion(Record):
    """Coordinates of a palindromic polynomial in the gamma basis.

    ``mode`` is one of univariate_t / bivariate_st / q_coefficients; ``r`` and
    ``n`` are ints, ``n`` the top degree in t in the univariate modes and the
    total degree in bivariate.  ``gammas`` holds ints, or dense q-coefficient
    tuples in q-mode; any other entry raises ValueError.  It recomposes exactly.
    """

    __slots__ = ("mode", "r", "n", "gammas")

    def __init__(self, mode, r, n, gammas):
        if mode not in GAMMA_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        for field, value in (("r", r), ("n", n)):
            if type(value) is not int:  # bool and float are not degrees
                raise ValueError(f"{field} {value!r} is not an int")
        if r < 0 or n < r:
            raise ValueError(f"bad support: r={r}, n={n}")
        length = (n - r if mode == BIVARIATE else n) - r  # as self.length reads it
        if length < 0:
            raise ValueError(f"bad support: r={r}, n={n} for mode {mode}")
        if len(gammas) != length // 2 + 1:
            raise ValueError(f"need {length // 2 + 1} gamma entries for mode={mode}, "
                             f"r={r}, n={n}; got {len(gammas)}")
        q = mode == Q_COEFFICIENTS
        if q or {*map(type, gammas)} != {int}:  # a bool is no int
            gammas = [g if type(g) is int and not q else _q_entry(g, q) for g in gammas]
        super().__init__(mode, r, n, tuple(gammas))

    @property
    def center_of_symmetry(self):
        return Fraction(self.length + 2 * self.r, 2)

    @property
    def length(self):
        """len = top t-exponent minus r (odd iff the center is half-integral);
        the top t-exponent is n, or n - r in bivariate mode."""
        return (self.n - self.r if self.mode == BIVARIATE else self.n) - self.r

    def all_gammas_nonnegative(self):
        for g in self.gammas:
            if isinstance(g, int):
                if g < 0:
                    return False
            elif any(c < 0 for c in g):
                return False
        return True

    def recompose(self):
        """The exact polynomial this expansion represents: the sum of
        gamma_i (xt)^(r+i) (x+t)^(length-2i), with x = s in bivariate mode
        and x = 1 otherwise, built as binomial t-rows (see the module notes)."""
        r, length, mode = self.r, self.length, self.mode
        gammas = self.gammas if mode == Q_COEFFICIENTS else [(g,) for g in self.gammas]
        rows = [[0] * (length + 1) for _ in range(max(map(len, gammas)))]
        for i, g in enumerate(gammas):  # rows[e][k]: the coefficient of q^e t^(r+k)
            m = length - 2 * i
            binomials = [comb(m, j) for j in range(m + 1)]
            for row, c in zip(rows, g):
                row[i:i + m + 1] = map(add, row[i:], [c * b for b in binomials])
        vars = {BIVARIATE: ("s", "t"), Q_COEFFICIENTS: ("t", "q")}.get(mode, ("t",))
        return Poly._trusted(vars, {
            (self.n - k, k) if mode == BIVARIATE else (k, e)[:len(vars)]: c
            for e, row in enumerate(rows) for k, c in enumerate(row, r)})

    def to_json_dict(self):
        if self.mode == Q_COEFFICIENTS:
            gammas = [[str(c) for c in g] for g in self.gammas]
        else:
            gammas = [str(g) for g in self.gammas]
        return {"mode": self.mode, "r": self.r, "n": self.n, "gammas": gammas}

    @classmethod
    def from_json_dict(cls, data):
        gammas = [[_json_int(c, "gamma entry") for c in g] if isinstance(g, list)
                  else _json_int(g, "gamma entry")  # the shape is __init__'s check
                  for g in data["gammas"]]
        return cls(data.get("mode", UNIVARIATE), data["r"], data["n"], gammas)

    def __str__(self):
        cos = self.center_of_symmetry
        gam = ", ".join(
            "(" + " ".join(f"{c}*q^{e}" if e else str(c)
                           for e, c in enumerate(g)) + ")"
            if isinstance(g, tuple) else str(g)
            for g in self.gammas
        )
        return f"gamma=[{gam}] r={self.r} n={self.n} cos={cos}"


def _q_entry(g, q):
    """A q-mode gamma entry as a tuple of ints; any other entry is refused."""
    if q and isinstance(g, (tuple, list)) and all(type(c) is int for c in g):
        return tuple(g)
    raise ValueError(f"gamma entry {g!r} is not {'a sequence of ints' if q else 'an int'}")


def _peel(row, lo, hi):
    """Peel gamma coordinates off an int row palindromic on [lo, hi].

    Reads the lower half of the window only, signed: entry k becomes
    F_k = (-1)^k a_k, so dividing by 1+t is a prefix sum.  An odd length
    first divides out one 1+t.  At half-degree k, f(-1) = (-1)^k gamma_k =
    2(F_0 + ... + F_(k-1)) + F_k, and the lower half of
    (f - gamma_k t^k) / (1+t)^2 is the prefix sum of the prefix sums of
    F_0..F_(k-1): top down, one step per gamma, additions only.
    """
    m = (hi - lo) // 2
    signed = row[lo:lo + m + 1]
    signed[1::2] = map(neg, signed[1::2])
    if (hi - lo) % 2:
        signed = list(accumulate(signed))
    gammas = []
    for k in range(m, 0, -1):
        sums = list(accumulate(signed))
        g = sums.pop() + sums[-1]
        gammas.append(-g if k % 2 else g)
        signed = list(accumulate(sums))
    gammas.append(signed[0])
    return gammas[::-1]


def _entry(column, mode):
    """One row index read across the q-power rows: an int, or in q-mode the
    list of its q-coefficients without trailing zeros."""
    return column[0] if mode != Q_COEFFICIENTS else _row_coefficients(list(column))


def gamma_decompose(f, mode=UNIVARIATE):
    """Exact gamma-basis coordinates of a palindromic polynomial.

    Raises NotPalindromic (with the first violated coefficient pair),
    NotHomogeneous (bivariate mode), or ZeroPolynomial.  Gamma positivity is
    a separate query on the result: ``all_gammas_nonnegative()``.
    """
    return _expansion(*_symmetry(f, mode), mode)


def _expansion(grid, lo, hi, bad, mode):
    """gamma_decompose on the int rows, support and verdict of ``_symmetry``."""
    if bad is not None:
        i, j = bad
        raise NotPalindromic(i, j, _entry([r[i] for r in grid], mode),
                             _entry([r[j] for r in grid], mode))
    # peeling is linear, so the row of each power of q peels on its own;
    # the rows end at n: the top t-exponent, or the bivariate total degree
    gammas = zip(*(_peel(row, lo, hi) for row in grid))
    return GammaExpansion(mode, lo, len(grid[0]) - 1,
                          tuple(_entry(g, mode) for g in gammas))


def split_odd_length(expansion):
    """Split an odd-length gamma-positive expansion into two even-length ones.

    Each basis element t^(r+i) (1+t)^(2k+1) splits as
    t^(r+i) (1+t)^(2k) + t^(r+i+1) (1+t)^(2k), so the whole expansion splits
    into the pair with supports [r, n-1] and [r+1, n] carrying the *same*
    gamma vector.  Centers of symmetry come out (n+r-1)/2 and (n+r+1)/2.
    Univariate and q-coefficient modes only.
    """
    if expansion.mode == BIVARIATE:
        raise ValueError("odd-length splitting is defined for univariate modes")
    if expansion.length % 2 == 0:
        raise EvenLength(
            f"length n-r = {expansion.length} is even; nothing to split"
        )
    if not expansion.all_gammas_nonnegative():
        raise NotGammaPositive(f"{expansion} has a negative gamma entry")
    low = GammaExpansion(expansion.mode, expansion.r, expansion.n - 1,
                         expansion.gammas)
    high = GammaExpansion(expansion.mode, expansion.r + 1, expansion.n,
                          expansion.gammas)
    return low, high
