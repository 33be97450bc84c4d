"""Engine-independent output gate for the benchmark.

Every check here uses only the standard library, never ``gammaexc``, so a
wrong polynomial from any engine is caught by arithmetic the program under
test cannot influence:

* the coefficient sum of a family polynomial equals the size of the class
  it sums over (n!, n!/2, 2^n n!, 2^(n-1) n!, d_n, |C_lambda|);
* the signed families equal their binomial expansions exactly;
* a gamma expansion has no negative entry and recomposes to its input;
* ``verify`` passes every check and its report matches a recorded SHA-256.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from fractions import Fraction

VARIABLES = ("s", "t", "u", "q")

# Total (s, t) degree of the homogeneous bivariate families at rank n.
_BIVARIATE_DEGREE = {"aexc": -1, "a_des": -1, "bexc": 0, "b_des": 0,
                     "dexc": 0, "bdexc": 0}

SIGNED_FAMILIES = ("sgn_aexc", "sgn_bexc", "sgn_dexc", "sgnb_des_u")


class GateError(ValueError):
    """An output failed the gate; the message says why."""


def derangements(n):
    d = 1
    for m in range(1, n + 1):
        d = m * d + (-1) ** m
    return d


def conjugacy_class_size(lam):
    """|C_lambda| = n! / prod_i (i^m_i m_i!)."""
    size = math.factorial(sum(lam))
    for part, mult in Counter(lam).items():
        size //= part ** mult * math.factorial(mult)
    return size


def class_size(family, n, cls="all", lam=None):
    """Number of group elements a family polynomial sums over."""
    fact = math.factorial(n)
    if family in ("aexc", "a_des"):
        full, halves = fact, fact // 2
    elif family in ("bexc", "b_des"):
        full, halves = 2 ** n * fact, 2 ** (n - 1) * fact
    elif family == "dexc":
        full, halves = 2 ** (n - 1) * fact, 2 ** (n - 2) * fact
    elif family == "bdexc":
        full, halves = 2 ** (n - 1) * fact, None
    elif family == "aderexc":
        # even minus odd derangements is (-1)^(n-1) (n-1)
        d, diff = derangements(n), (-1) ** (n - 1) * (n - 1)
        full = d
        halves = {"plus": (d + diff) // 2, "minus": (d - diff) // 2}
    elif family == "conjexc":
        return conjugacy_class_size(lam)
    else:
        raise GateError(f"no class size for family {family!r}")
    if cls == "all":
        return full
    if isinstance(halves, dict):
        return halves[cls]
    if halves is None:
        raise GateError(f"{family} has no {cls} class")
    return halves


def poly_terms(text):
    """Parse polynomial JSON into {(s, t, u, q) exponents: coefficient}."""
    data = json.loads(text)
    names = data["vars"]
    terms = {}
    for item in data["terms"]:
        exp = dict(zip(names, item["exp"]))
        key = tuple(exp.get(v, 0) for v in VARIABLES)
        terms[key] = terms.get(key, 0) + int(item["coeff"])
    return {k: c for k, c in terms.items() if c}


def _binomial_terms(m, s_shift=0, u_power=0):
    """Terms of s^s_shift (s - t)^m u^u_power."""
    return {(m - j + s_shift, j, u_power, 0): (-1) ** j * math.comb(m, j)
            for j in range(m + 1)}


def signed_terms(family, n):
    if family == "sgn_aexc":
        return _binomial_terms(n - 1)
    if family == "sgn_bexc":
        return _binomial_terms(n)
    if family == "sgn_dexc":
        return _binomial_terms(n) if n % 2 == 0 else _binomial_terms(n - 1, 1)
    if family == "sgnb_des_u":
        return _binomial_terms(n, u_power=n)
    raise GateError(f"{family!r} is not a signed family")


def _recompose(gamma):
    """Gamma JSON -> {(s, t, u, q) exponents: coefficient}."""
    mode, r, n = gamma["mode"], gamma["r"], gamma["n"]
    terms = Counter()
    for i, text in enumerate(gamma["gammas"]):
        g = int(text)
        if mode == "bivariate_st":
            # (st)^(r+i) (s+t)^(n-2(r+i))
            e = n - 2 * (r + i)
            for j in range(e + 1):
                terms[(r + i + e - j, r + i + j, 0, 0)] += g * math.comb(e, j)
        elif mode == "univariate_t":
            # t^(r+i) (1+t)^(n-r-2i)
            e = n - r - 2 * i
            for j in range(e + 1):
                terms[(0, r + i + j, 0, 0)] += g * math.comb(e, j)
        else:
            raise GateError(f"gate does not recompose mode {mode!r}")
    return {k: c for k, c in terms.items() if c}


def check_compute(family, n, cls, out, lam=None):
    """A ``compute``/``conjugacy --format json`` output."""
    try:
        terms = poly_terms(out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable polynomial JSON: {exc}"
    if family in SIGNED_FAMILIES:
        if terms != signed_terms(family, n):
            return f"{family} n={n} is not its binomial expansion"
        return None
    want = class_size(family, n, cls, lam)
    got = sum(terms.values())
    if got != want:
        return f"{family} n={n} {cls}: coefficient sum {got} != class size {want}"
    return None


def check_gamma(out, input_out):
    """A ``gamma --format json`` output against the polynomial it expands."""
    try:
        gamma = json.loads(out)
    except ValueError as exc:
        return f"unparsable gamma JSON: {exc}"
    if "gammas" not in gamma:
        return f"expected a gamma expansion, got {out.strip()[:120]}"
    if any(int(g) < 0 for g in gamma["gammas"]):
        return "negative gamma entry"
    if _recompose(gamma) != poly_terms(input_out):
        return "gamma expansion does not recompose to its input"
    return None


def _dense(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _is_symmetric(seq):
    return all(seq[i] == seq[-1 - i] for i in range(len(seq) // 2))


def check_table_csv(family, cls, n, out, mode="biv"):
    """One rank of ``table --out csv``: sum, palindromy, gammas, recomposition."""
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0][:3] != ["family", "class", "n"]:
        return "missing CSV header"
    body = rows[1:]
    if not body or any(r[:3] != [family, cls, str(n)] for r in body):
        return f"rows do not all belong to {family} {cls} n={n}"
    coeffs = [int(r[4]) for r in body if r[3] != ""]
    gammas = [int(r[6]) for r in body if r[5] != ""]
    cos_text, positive = body[0][7], body[0][8]
    want = class_size(family, n, cls)
    if sum(coeffs) != want:
        return f"coefficient sum {sum(coeffs)} != class size {want}"
    nonzero = [k for k, c in enumerate(coeffs) if c]
    lo, hi = nonzero[0], nonzero[-1]
    if mode == "uni":
        total = None
        palindromic = _is_symmetric(coeffs[lo:hi + 1])
    else:
        total = n + _BIVARIATE_DEGREE[family]
        padded = coeffs + [0] * (total + 1 - len(coeffs))
        palindromic = len(padded) == total + 1 and _is_symmetric(padded)
    if palindromic != bool(gammas):
        return (f"palindromic={palindromic} but the table "
                f"{'has' if gammas else 'lacks'} a gamma vector")
    if not gammas:
        return None
    if positive != "true" or any(g < 0 for g in gammas):
        return "gamma vector is not non-negative"
    if mode == "uni":
        want_cos = Fraction(lo + hi, 2)
        gamma = {"mode": "univariate_t", "r": lo, "n": hi}
    else:
        want_cos = Fraction(total, 2)
        gamma = {"mode": "bivariate_st", "r": lo, "n": total}
    if Fraction(cos_text) != want_cos:
        return f"center {cos_text} != {want_cos}"
    gamma["gammas"] = gammas
    rebuilt = Counter()
    for (_, t, _, _), c in _recompose(gamma).items():
        rebuilt[t] += c
    if _dense([rebuilt[k] for k in range(max(rebuilt) + 1)]) != _dense(coeffs):
        return "gamma vector does not recompose to the coefficients"
    return None


VERIFY_SUMMARY = "54 passed, 0 failed, 0 skipped"


def check_verify(out, expected_sha256=None, summary=VERIFY_SUMMARY):
    """A timing-free ``verify --suite all`` report."""
    lines = out.splitlines()
    if not lines or lines[-1] != summary:
        return f"verify summary {lines[-1] if lines else '(empty)'!r} != {summary!r}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if expected_sha256 is not None and digest != expected_sha256:
        return f"verify report sha256 {digest} != recorded {expected_sha256}"
    return None
