import json
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gammaexc import closedforms, oracle
from gammaexc.oracle import FamilySpec
from gammaexc.poly import (
    BIVARIATE,
    D,
    EvenLength,
    GAMMA_MODES,
    GammaExpansion,
    NotGammaPositive,
    NotHomogeneous,
    NotPalindromic,
    OddCoefficient,
    Poly,
    Q_COEFFICIENTS,
    UNIVARIATE,
    UnknownVariable,
    VARIABLES,
    ZeroPolynomial,
    _peel,
    gamma_decompose,
    half,
    palindrome_info,
    split_odd_length,
    t_coefficients,
)

s, t, u, q = Poly.gens("s", "t", "u", "q")


@st.composite
def polys(draw, max_exp=4, max_terms=6):
    vars = draw(st.sampled_from([("s",), ("t",), ("s", "t"), ("s", "t", "q")]))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in vars)
        terms[exp] = terms.get(exp, 0) + draw(st.integers(-9, 9))
    return Poly(vars, terms)


class TestArithmetic:
    def test_binomial_square(self):
        assert (s + t) * (s + t) == s ** 2 + 2 * s * t + t ** 2

    def test_binomial_fourth_power(self):
        assert (s - t) ** 4 == (s ** 4 - 4 * s ** 3 * t + 6 * s ** 2 * t ** 2
                                - 4 * s * t ** 3 + t ** 4)

    def test_cycle_product(self):
        # excedance polynomial of a 3-cycle times that of a 2-cycle
        a2 = 1 + t
        a1 = Poly.const(1, ("t",))
        assert (t * a2) * (t * a1) == t ** 2 + t ** 3

    def test_variable_alignment(self):
        assert s + q == Poly(("s", "q"), {(1, 0): 1, (0, 1): 1})
        assert (s * u).vars == ("s", "u")

    def test_int_coercion(self):
        assert 1 + t - 1 == t
        assert 3 * t == t + t + t
        assert t ** 0 == 1

    def test_power_validation(self):
        with pytest.raises(ValueError):
            t ** -1

    def test_zero_polynomial(self):
        zero = Poly.zero(("s", "t"))
        assert zero.is_zero
        assert zero + s == s
        assert zero * s == zero
        assert (s - s).is_zero

    @settings(max_examples=80, deadline=None)
    @given(polys(), polys(), polys())
    def test_ring_laws(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=50, deadline=None)
    @given(polys())
    def test_identities(self, f):
        assert f + 0 == f
        assert f * 1 == f
        assert f - f == Poly.zero(f.vars)

    def test_equality_is_mathematical(self):
        assert Poly(("s",), {(1,): 1}) == Poly(("s", "t"), {(1, 0): 1})
        assert hash(Poly(("s",), {(1,): 1})) == hash(Poly(("s", "t"), {(1, 0): 1}))


def _plain(f):
    """f as a plain dict over the full alphabet s, t, u, q."""
    out = {}
    for exp, coeff in f.terms.items():
        full = dict(zip(f.vars, exp))
        out[tuple(full.get(v, 0) for v in VARIABLES)] = coeff
    return out


def _plain_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _plain_add(a, b, sign=1):
    out = dict(a)
    for exp, coeff in b.items():
        out[exp] = out.get(exp, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


class TestArithmeticAgainstPlainDicts:
    """Arithmetic results come from the trusted constructor, which skips
    validation; a plain-dict reference checks what it builds."""

    @settings(max_examples=120, deadline=None)
    @given(polys(max_exp=3, max_terms=4), polys(max_exp=3, max_terms=4),
           st.integers(0, 4))
    def test_matches_reference(self, f, g, k):
        a, b = _plain(f), _plain(g)
        power = {(0,) * len(VARIABLES): 1}
        for _ in range(k):
            power = _plain_mul(power, a)
        for result, expected in ((f + g, _plain_add(a, b)),
                                 (f - g, _plain_add(a, b, -1)),
                                 (-f, _plain_add({}, a, -1)),
                                 (f * g, _plain_mul(a, b)),
                                 (f ** k, power)):
            assert 0 not in result.terms.values()
            assert _plain(result) == expected
            # the same polynomial over all four variables
            same = Poly(VARIABLES, expected)
            assert result == same and hash(result) == hash(same)

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_equal_results_hash_alike(self, f, g):
        assert hash(f * g) == hash(g * f)
        assert hash(f + g - g) == hash(f)


class TestExactCoefficients:
    @pytest.mark.parametrize("value", [2.7, 1.5, 2.0, Fraction(3, 2),
                                       Fraction(4, 2), "3"])
    def test_const_rejects_non_ints(self, value):
        with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
            Poly.const(value, ("t",))

    @pytest.mark.parametrize("value", [1.5, 2.0, Fraction(3, 2), True])
    def test_init_rejects_non_ints(self, value):
        with pytest.raises(ValueError, match="coefficients must be ints"):
            Poly(("t",), {(1,): value})

    def test_ints_still_accepted(self):
        assert Poly.const(0, ("t",)).is_zero
        assert Poly.const(1) == True  # noqa: E712, equality is not validation
        assert str(Poly(("t",), {(1,): 3, (0,): 0})) == "3*t"
        assert Poly.const(-2, ("s", "t")) == -2

    def test_arithmetic_with_non_ints_is_a_type_error(self):
        with pytest.raises(TypeError):
            t * 1.5
        with pytest.raises(TypeError):
            Fraction(1, 2) + t


class TestValidation:
    """Each check the Poly constructors make, with its message."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda: Poly(("x",)), UnknownVariable,
         "unknown variable 'x'; allowed: ('s', 't', 'u', 'q')"),
        (lambda: Poly(("t", "s")), ValueError,
         "variables must be in canonical s,t,u,q order, got ('t', 's')"),
        (lambda: Poly(("t", "t")), ValueError,
         "duplicate variable in ('t', 't')"),
        (lambda: Poly(("s", "t"), {(1,): 1}), ValueError,
         "exponent vector (1,) does not match variables ('s', 't')"),
        (lambda: Poly(("t",), {(-1,): 1}), ValueError,
         "exponents must be non-negative ints: (-1,)"),
        (lambda: Poly(("t",), {(True,): 1}), ValueError,
         "exponents must be non-negative ints: (True,)"),
        (lambda: Poly(("t",), {("a",): 1}), ValueError,
         "exponents must be non-negative ints: ('a',)"),
        (lambda: Poly(("t",), {(None,): 1}), ValueError,
         "exponents must be non-negative ints: (None,)"),
        (lambda: Poly.from_json('{"vars":["t"],"terms":[{"exp":["1"],"coeff":"1"}]}'),
         ValueError, "exponents must be non-negative ints: ('1',)"),
        # a coefficient reads from an int or a decimal string, as to_json writes it
        (lambda: Poly.from_json('{"vars":["t"],"terms":[{"exp":[1],"coeff":1.5}]}'),
         ValueError, "coeff 1.5 is not an int or a decimal string"),
        (lambda: Poly.from_json('{"vars":["t"],"terms":[{"exp":[1],"coeff":true}]}'),
         ValueError, "coeff True is not an int or a decimal string"),
        (lambda: Poly.from_json('{"vars":["t"],"terms":[{"exp":[1],"coeff":" 2"}]}'),
         ValueError, "coeff ' 2' is not an int or a decimal string"),
        (lambda: Poly.from_json('{"vars":["t"],"terms":[{"exp":[1],"coeff":"1.0"}]}'),
         ValueError, "coeff '1.0' is not an int or a decimal string"),
        (lambda: Poly.variable("x"), UnknownVariable, "unknown variable 'x'"),
    ])
    def test_message(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()


class TestSubstituteAndDerive:
    def test_substitute_one(self):
        assert (s ** 2 + 2 * s * t + t ** 2).substitute_one("s") == 1 + 2 * t + t ** 2

    def test_substitute_aexc5(self):
        f = (s ** 4 + 11 * s ** 3 * t + 36 * s ** 2 * t ** 2
             + 11 * s * t ** 3 + t ** 4)
        assert f.substitute_one("s") == (1 + 11 * t + 36 * t ** 2
                                         + 11 * t ** 3 + t ** 4)

    def test_substitute_zero(self):
        assert Poly.zero(("s", "t")).substitute_one("s") == Poly.zero(("t",))

    def test_substitute_unknown(self):
        with pytest.raises(UnknownVariable):
            t.substitute_one("s")

    def test_d_operator(self):
        assert D(s * t) == s + t
        assert D(s ** 2 + 2 * s * t + t ** 2) == 4 * s + 4 * t

    def test_d_on_halves(self):
        # both rank-2 halves have derivative 1, half the full derivative
        st_poly = Poly(("s", "t"), {(1, 0): 1})
        assert D(st_poly) == 1
        assert D(Poly(("s", "t"), {(0, 1): 1})) == 1
        assert half(D(s + t)) == 1

    def test_d_needs_both_variables(self):
        with pytest.raises(UnknownVariable):
            D(Poly.variable("t"))

    def test_half_exact(self):
        assert half(2 * s + 4 * t) == s + 2 * t
        with pytest.raises(OddCoefficient):
            half(3 * s)


class TestPalindromeInfo:
    def test_not_palindromic(self):
        info = palindrome_info(1 + 4 * t + 7 * t ** 2, UNIVARIATE)
        assert not info.is_palindromic
        info = palindrome_info(s ** 2 + 2 * s * t, BIVARIATE)
        assert (info.is_palindromic, info.r, info.n) == (False, 0, 1)
        assert info.cos == Fraction(1, 2)

    def test_bivariate_window(self):
        info = palindrome_info(15 * s * t * (s + t) ** 2, BIVARIATE)
        assert (info.is_palindromic, info.r, info.n) == (True, 1, 3)
        assert info.cos == 2

    def test_univariate_binomial(self):
        info = palindrome_info((1 + t) ** 5, UNIVARIATE)
        assert (info.is_palindromic, info.r, info.n) == (True, 0, 5)
        assert info.cos == Fraction(5, 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            palindrome_info(Poly.zero(("t",)), UNIVARIATE)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(NotHomogeneous):
            palindrome_info(s + s * t, BIVARIATE)

    def test_q_mode_rejected(self):
        with pytest.raises(ValueError, match=r"^palindrome_info supports "
                           r"univariate_t and bivariate_st$"):
            palindrome_info(q * t, Q_COEFFICIENTS)


class TestGammaDecompose:
    def test_aexc5_plus(self):
        f = (s ** 4 + 11 * s ** 3 * t + 36 * s ** 2 * t ** 2
             + 11 * s * t ** 3 + t ** 4)
        expansion = gamma_decompose(f, BIVARIATE)
        assert expansion.gammas == (1, 7, 16)
        assert expansion.r == 0

    def test_dexc4_minus(self):
        f = 20 * s ** 3 * t + 56 * s ** 2 * t ** 2 + 20 * s * t ** 3
        expansion = gamma_decompose(f, BIVARIATE)
        assert expansion.gammas == (20, 16)
        assert expansion.r == 1

    def test_pure_binomial(self):
        expansion = gamma_decompose((s + t) ** 6, BIVARIATE)
        assert expansion.gammas == (1, 0, 0, 0)
        assert expansion.r == 0

    def test_not_palindromic_witness(self):
        with pytest.raises(NotPalindromic) as err:
            gamma_decompose(1 + 4 * t + 7 * t ** 2, UNIVARIATE)
        assert (err.value.low_index, err.value.high_index) == (0, 2)
        assert (err.value.low, err.value.high) == (1, 7)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            gamma_decompose(Poly.zero(("t",)), UNIVARIATE)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown mode 'bogus'$"):
            gamma_decompose(1 + t, "bogus")

    def test_recompose_examples(self):
        aexc5 = GammaExpansion(BIVARIATE, 0, 4, (1, 7, 16)).recompose()
        assert aexc5 == (s ** 4 + 11 * s ** 3 * t + 36 * s ** 2 * t ** 2
                         + 11 * s * t ** 3 + t ** 4)
        aexc7m = GammaExpansion(BIVARIATE, 1, 6, (63, 336, 168)).recompose()
        assert aexc7m == (63 * s ** 5 * t + 588 * s ** 4 * t ** 2
                          + 1218 * s ** 3 * t ** 3 + 588 * s ** 2 * t ** 4
                          + 63 * s * t ** 5)

    def test_zero_gamma_recomposes_to_zero(self):
        assert GammaExpansion(UNIVARIATE, 2, 2, (0,)).recompose().is_zero

    def test_negative_gammas_allowed(self):
        f = (1 + t) ** 2 - 3 * t  # palindromic but not gamma positive
        expansion = gamma_decompose(f, UNIVARIATE)
        assert expansion.gammas == (1, -3)
        assert not expansion.all_gammas_nonnegative()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3),
           st.lists(st.integers(-6, 6), min_size=1, max_size=4),
           st.sampled_from([UNIVARIATE, BIVARIATE]))
    def test_roundtrip(self, r, extra, gammas, mode):
        if gammas[0] == 0:
            gammas[0] = 1
        count = len(gammas)
        if mode == BIVARIATE:
            n = 2 * r + 2 * (count - 1) + extra % 2
        else:
            n = r + 2 * (count - 1) + extra % 2
        expansion = GammaExpansion(mode, r, n, tuple(gammas))
        assert gamma_decompose(expansion.recompose(), mode) == expansion

    def test_q_mode(self):
        f = q * t + 2 * q * t ** 2 + q * t ** 3 + 5 * t ** 2
        expansion = gamma_decompose(f, Q_COEFFICIENTS)
        assert expansion.mode == Q_COEFFICIENTS
        assert expansion.r == 1 and expansion.n == 3
        # gamma_0 = q, gamma_1 = 5 (after subtracting q t (1+t)^2)
        assert expansion.gammas == ((0, 1), (5,))
        assert expansion.all_gammas_nonnegative()
        assert expansion.recompose() == f

    def test_q_mode_not_palindromic(self):
        with pytest.raises(NotPalindromic):
            gamma_decompose(q * t + t ** 2, Q_COEFFICIENTS)


def _reference_recompose(expansion):
    """The sum of gamma_i (xt)^(r+i) (x+t)^(length-2i) by Poly powers, with
    x = s in bivariate mode and x = 1 otherwise: the loop that binomial rows
    replaced in ``GammaExpansion.recompose``."""
    x = s if expansion.mode == BIVARIATE else 1
    total = Poly.zero()
    for i, g in enumerate(expansion.gammas):
        if isinstance(g, tuple):
            g = sum((c * q ** e for e, c in enumerate(g)), Poly.zero(("q",)))
        total += (g * (x * t) ** (expansion.r + i)
                  * (x + t) ** (expansion.length - 2 * i))
    return total


@st.composite
def expansions(draw):
    """Any valid expansion: every mode, offset and length, gammas with zeros,
    leading zeros and negative or large entries; q-mode entries are tuples,
    empty or with trailing zeros."""
    mode = draw(st.sampled_from(GAMMA_MODES))
    r, length = draw(st.integers(0, 4)), draw(st.integers(0, 9))
    entries = st.just(0) | st.integers(-9, 9) | st.integers(-10 ** 30, 10 ** 30)
    if mode == Q_COEFFICIENTS:
        entries = st.lists(entries, max_size=4).map(tuple)
    count = length // 2 + 1
    gammas = draw(st.lists(entries, min_size=count, max_size=count))
    zeros = draw(st.integers(0, count))
    gammas[:zeros] = [() if mode == Q_COEFFICIENTS else 0] * zeros
    n = r + length + (r if mode == BIVARIATE else 0)
    return GammaExpansion(mode, r, n, gammas)


class TestRecomposeByBinomialRows:
    @settings(max_examples=300, deadline=None)
    @given(expansions())
    def test_matches_the_sum_of_poly_powers(self, expansion):
        got, want = expansion.recompose(), _reference_recompose(expansion)
        assert got.vars == want.vars
        assert got.to_json() == want.to_json()
        assert got == want


def _agrees_with_canonical_key(f, g):
    """f == g, g == f and hash agree with comparing canonical keys."""
    if isinstance(g, int):
        same = f._canonical_key() == Poly.const(g)._canonical_key()
    else:
        same = f._canonical_key() == g._canonical_key()
        assert (g == f) is same and (g != f) is not same
    assert (f == g) is same and (f != g) is not same
    if same:
        assert hash(f) == hash(g)
    return same


class TestEqualityByTermMaps:
    @settings(max_examples=300, deadline=None)
    @given(polys(), polys(), st.integers(-2, 2))
    def test_random_pairs(self, f, g, c):
        _agrees_with_canonical_key(f, g)
        _agrees_with_canonical_key(f, c)

    @settings(max_examples=200, deadline=None)
    @given(polys(), st.sampled_from([(), ("s",), ("t", "u"), ("s", "t", "u", "q")]))
    def test_equal_polynomials_over_equal_and_other_tuples(self, f, vars):
        copy = Poly(f.vars, f.terms)  # the same tuple, a new term map
        widened = f + Poly.zero(vars)  # the merged tuple
        assert _agrees_with_canonical_key(f, copy)
        assert _agrees_with_canonical_key(f, widened)
        assert _agrees_with_canonical_key(copy, widened)

    def test_zero_and_constants_over_any_tuple(self):
        zeros = [Poly.zero(vars) for vars in ((), ("s",), ("t", "q"))]
        for f in zeros:
            for g in [*zeros, 0]:
                assert _agrees_with_canonical_key(f, g)
            assert not _agrees_with_canonical_key(f, 1)
        assert _agrees_with_canonical_key(Poly.const(3, ("s", "t")), 3)
        assert _agrees_with_canonical_key(Poly.const(3, ("s", "t")),
                                          Poly.const(3, ("q",)))

    def test_same_terms_over_other_tuples_differ(self):
        assert not _agrees_with_canonical_key(
            Poly(("s",), {(1,): 1}), Poly(("t",), {(1,): 1}))
        assert not _agrees_with_canonical_key(s * t, t * q)


class TestOneRowForEveryMode:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([UNIVARIATE, BIVARIATE]), st.integers(0, 3),
           st.integers(0, 3), st.lists(st.integers(-2, 2), min_size=1,
                                       max_size=6), st.booleans())
    def test_palindromic_iff_decomposable(self, mode, r, extra, row, mirror):
        if mirror:
            row = [row[min(k, len(row) - 1 - k)] for k in range(len(row))]
        if not any(row):
            row[-1] = 1
        # bivariate: total degree N, so t^(r+k) pairs with s^(N-r-k) and the
        # top t-exponent falls short of N whenever extra > 0
        total = r + len(row) - 1 + extra
        if mode == BIVARIATE:
            f = Poly(("s", "t"), {(total - r - k, r + k): a
                                  for k, a in enumerate(row)})
        else:
            f = Poly(("t",), {(r + k,): a for k, a in enumerate(row)})
        info = palindrome_info(f, mode)
        try:
            expansion = gamma_decompose(f, mode)
        except NotPalindromic:
            assert not info.is_palindromic
        else:
            assert info.is_palindromic
            assert (expansion.r, expansion.center_of_symmetry) \
                == (info.r, info.cos)

    def test_q_mode_values(self):
        assert gamma_decompose((1 + t) ** 2, Q_COEFFICIENTS).gammas \
            == ((1,), ())
        assert gamma_decompose(q * (1 + t ** 2), Q_COEFFICIENTS).gammas \
            == ((0, 1), (0, -2))
        assert gamma_decompose((q - 1) * (1 + t) ** 2, Q_COEFFICIENTS).gammas \
            == ((-1, 1), ())

    def test_q_mode_witness_is_dense(self):
        with pytest.raises(NotPalindromic) as err:
            gamma_decompose((1 + q) + t * (2 + q), Q_COEFFICIENTS)
        assert (err.value.low_index, err.value.high_index) == (0, 1)
        assert (err.value.low, err.value.high) == ([1, 1], [2, 1])


def _reference_peel(row, lo, hi):
    """The plain full-row peel: subtract gamma_i t^(lo+i) (1+t)^(hi-lo-2i)
    over the whole window with math.comb and require a zero remainder.
    Entries may be ints or Polys in q."""
    work = list(row)
    gammas = []
    for i in range((hi - lo) // 2 + 1):
        g = work[lo + i]
        gammas.append(g)
        e = hi - lo - 2 * i
        for j in range(e + 1):
            work[lo + i + j] -= comb(e, j) * g
    assert not any(work)
    return gammas


@st.composite
def palindromic_rows(draw, entries=st.integers(-10 ** 30, 10 ** 30), zero=0,
                     max_half=12):
    """(row, lo, hi): r leading zeros, then a palindrome of odd or even
    length, at most 2 max_half entries, whose outer entries are nonzero."""
    r = draw(st.integers(0, 4))
    left = draw(st.lists(entries, min_size=1, max_size=max_half)
                .filter(lambda h: h[0]))
    body = left + left[::-1][draw(st.booleans()):]
    return [zero] * r + body, r, r + len(body) - 1


def _bivariate_window(f):
    """(row, lo, hi) of a nonzero palindromic f homogeneous in (s, t): its
    t-row up to the total degree, and its support."""
    row = t_coefficients(f, BIVARIATE)
    assert row == row[::-1]
    lo = next(k for k, c in enumerate(row) if c)
    return row, lo, len(row) - 1 - lo


def _eulerian_windows(n):
    """The rows of A_n and B_n, and the nonzero class halves that are
    palindromic at n: aexc's at odd n, bexc's at even n."""
    for kind in ("A", "B"):
        row = closedforms._eulerian_row(kind, n)
        yield row, 0, len(row) - 1
    family = "aexc" if n % 2 else "bexc"
    for cls in ("plus", "minus"):
        f = closedforms.half_sum_closed(family, n, cls)
        if not f.is_zero:
            yield _bivariate_window(f)


q_entries = st.lists(st.integers(-50, 50), min_size=1, max_size=3).map(
    lambda cs: Poly(("q",), {(e,): c for e, c in enumerate(cs)}))


class TestHalfWindowPeel:
    @settings(max_examples=300, deadline=None)
    @given(palindromic_rows())
    def test_int_rows_match_reference(self, case):
        row, lo, hi = case
        assert _peel(row, lo, hi) == _reference_peel(row, lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(palindromic_rows(max_half=40))
    def test_long_int_rows_match_reference(self, case):
        row, lo, hi = case
        assert _peel(row, lo, hi) == _reference_peel(row, lo, hi)

    @pytest.mark.parametrize("n", [*range(61), 250, 251])
    def test_eulerian_rows_and_halves_match_reference(self, n):
        for row, lo, hi in _eulerian_windows(n):
            assert _peel(row, lo, hi) == _reference_peel(row, lo, hi)

    @pytest.mark.parametrize("k", range(10))
    def test_rows_with_zero_gammas(self, k):
        # t^(r+j) (1+t)^(k-2j) on the window [r, r+k]: gamma_j = 1 alone
        for r in range(3):
            for j in range(k // 2 + 1):
                row = ([0] * (r + j) + [comb(k - 2 * j, i)
                                        for i in range(k - 2 * j + 1)]
                       + [0] * j)
                expected = [0] * j + [1] + [0] * (k // 2 - j)
                assert _peel(row, r, r + k) == expected
                assert _reference_peel(row, r, r + k) == expected

    @pytest.mark.parametrize("length", (0, 1))
    def test_shortest_windows(self, length):
        for r in range(3):
            for c in (0, 1, -7, 10 ** 40):
                row = [0] * r + [c] * (length + 1)
                assert _peel(row, r, r + length) \
                    == _reference_peel(row, r, r + length) == [c]

    @settings(max_examples=150, deadline=None)
    @given(palindromic_rows(q_entries, zero=Poly.zero(("q",))))
    def test_q_rows_match_reference(self, case):
        row, lo, hi = case
        f = sum((entry * t ** k for k, entry in enumerate(row)),
                Poly.zero(("t", "q")))
        expected = tuple(tuple(c.at_ones() for c in g.coefficients("q"))
                         for g in _reference_peel(row, lo, hi))
        expansion = gamma_decompose(f, Q_COEFFICIENTS)
        assert (expansion.r, expansion.n, expansion.gammas) \
            == (lo, hi, expected)

    @pytest.mark.parametrize("family, cls, n", [
        ("aexc", "plus", 121), ("aexc", "minus", 121),
        ("bexc", "plus", 120), ("bexc", "minus", 120),
        ("dexc", "plus", 120), ("dexc", "minus", 120),
        ("bdexc", "all", 120),
    ])
    def test_closed_families_round_trip_at_large_rank(self, family, cls, n):
        f = oracle.closed_family(FamilySpec(family, n, cls))
        assert gamma_decompose(f, BIVARIATE).recompose() == f


class TestSplitOddLength:
    def test_cube(self):
        expansion = gamma_decompose((1 + t) ** 3, UNIVARIATE)
        low, high = split_odd_length(expansion)
        assert low.recompose() == (1 + t) ** 2
        assert high.recompose() == t * (1 + t) ** 2

    def test_even_length_rejected(self):
        expansion = gamma_decompose(t + 4 * t ** 2 + t ** 3, UNIVARIATE)
        assert expansion.length == 2
        with pytest.raises(EvenLength):
            split_odd_length(expansion)

    def test_not_gamma_positive_rejected(self):
        expansion = gamma_decompose((1 + t) ** 3 - t * (1 + t), UNIVARIATE)
        assert not expansion.all_gammas_nonnegative()
        with pytest.raises(NotGammaPositive):
            split_odd_length(expansion)

    def test_bivariate_rejected(self):
        with pytest.raises(ValueError):
            split_odd_length(gamma_decompose(s * t * (s + t), BIVARIATE))

    def test_centers_and_parity(self):
        f = 3 * t + 10 * t ** 2 + 10 * t ** 3 + 3 * t ** 4
        expansion = gamma_decompose(f, UNIVARIATE)
        low, high = split_odd_length(expansion)
        assert low.recompose() + high.recompose() == f
        assert high.center_of_symmetry - low.center_of_symmetry == 1
        assert low.length % 2 == 0 and high.length % 2 == 0
        assert low.all_gammas_nonnegative() and high.all_gammas_nonnegative()


class TestJson:
    def test_poly_schema(self):
        f = s ** 4 + 20 * s ** 3 * t
        data = f.to_json_dict()
        assert data["vars"] == ["s", "t"]
        assert data["terms"] == [{"exp": [3, 1], "coeff": "20"},
                                 {"exp": [4, 0], "coeff": "1"}]
        assert Poly.from_json(f.to_json()) == f

    def test_big_coefficients_as_strings(self):
        f = Poly(("t",), {(1,): 2 ** 100})
        blob = json.loads(f.to_json())
        assert blob["terms"][0]["coeff"] == str(2 ** 100)
        assert Poly.from_json(f.to_json()) == f

    def test_gamma_schema(self):
        expansion = GammaExpansion(BIVARIATE, 1, 4, (20, 16))
        data = expansion.to_json_dict()
        assert data["r"] == 1 and data["n"] == 4
        assert data["gammas"] == ["20", "16"]
        assert GammaExpansion.from_json_dict(data) == expansion

    def test_gamma_q_schema(self):
        expansion = GammaExpansion(Q_COEFFICIENTS, 1, 1, ((0, 1),))
        data = expansion.to_json_dict()
        assert data["gammas"] == [["0", "1"]]
        assert GammaExpansion.from_json_dict(data) == expansion

    @settings(max_examples=40, deadline=None)
    @given(polys())
    def test_json_roundtrip(self, f):
        assert Poly.from_json(f.to_json()) == f


class TestGammaExpansionValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match=r"^unknown mode 'cubic'$"):
            GammaExpansion("cubic", 0, 2, (1, 0))

    def test_bad_support(self):
        with pytest.raises(ValueError, match=r"^bad support: r=3, n=2$"):
            GammaExpansion(UNIVARIATE, 3, 2, (1,))
        # r <= n, but the bivariate top t-exponent n - r lies below r
        with pytest.raises(ValueError, match=r"^bad support: r=3, n=4 for "
                                             r"mode bivariate_st$"):
            GammaExpansion(BIVARIATE, 3, 4, (1,))

    def test_wrong_gamma_count(self):
        with pytest.raises(ValueError, match=r"^need 3 gamma entries for "
                                             r"mode=univariate_t, r=0, n=4; "
                                             r"got 2$"):
            GammaExpansion(UNIVARIATE, 0, 4, (1, 2))
        with pytest.raises(ValueError, match=r"^need 2 gamma entries for "
                                             r"mode=bivariate_st, r=1, n=4; "
                                             r"got 3$"):
            GammaExpansion(BIVARIATE, 1, 4, (1, 2, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3),
           st.lists(st.integers(0, 7), min_size=1, max_size=4))
    def test_split_properties(self, r, gammas):
        if gammas[0] == 0:
            gammas[0] = 1
        n = r + 2 * (len(gammas) - 1) + 1  # odd length n - r
        expansion = GammaExpansion(UNIVARIATE, r, n, tuple(gammas))
        low, high = split_odd_length(expansion)
        source = expansion.recompose()
        assert low.recompose() + high.recompose() == source
        assert low.center_of_symmetry == expansion.center_of_symmetry \
            - Fraction(1, 2)
        assert high.center_of_symmetry == expansion.center_of_symmetry \
            + Fraction(1, 2)
        assert low.length % 2 == 0 and high.length % 2 == 0
        assert low.all_gammas_nonnegative() and high.all_gammas_nonnegative()


class TestUtilities:
    def test_at_ones_and_constant(self):
        f = 3 * s * t + 2
        assert f.at_ones() == 5
        assert Poly.const(9).at_ones() == 9
        assert Poly.zero(("s",)).at_ones() == 0

    def test_degrees(self):
        f = s ** 3 * t + t ** 2
        assert f.degree("s") == 3
        assert f.degree("t") == 2
        assert f.total_degree() == 4
        assert Poly.zero(("t",)).degree("t") == -1
        with pytest.raises(UnknownVariable):
            f.degree("u")

    def test_str_forms(self):
        assert str(Poly.zero(("t",))) == "0"
        assert str(1 - t) == "1 - t"
        assert str(-2 * t) == "-2*t"
        assert str(s ** 4 + 11 * s ** 3 * t) == "s^4 + 11*s^3*t"
