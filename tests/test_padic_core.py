"""Valuations, absolute values, digit windows, and Cauchy gap profiles.

Oracles: the valuation is checked against its defining property (the
cofactor after stripping p**v must be a p-unit), digit windows against
the approximation order they promise, and the geometric-series limit
against a hand-derived closed form.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicmetrics import (
    DigitWindow,
    NotPrimeError,
    OrdOfZeroError,
    PAdicAbs,
    TooLargeError,
    TooShortError,
    as_fraction,
    cauchy_profile,
    digit_window,
    is_prime,
    padic_abs,
    padic_distance,
    require_prime,
    valuation,
)
from padicmetrics.padic import MAX_DIGITS
from support import ref_as_fraction, ref_digit_window, ref_padic_distance

PRIMES = (2, 3, 5, 7, 11)

nonzero_fractions = st.fractions(
    min_value=Fraction(-10_000), max_value=Fraction(10_000), max_denominator=10_000
).filter(lambda x: x != 0)


def test_abs_table_for_25_18():
    x = Fraction(25, 18)
    expected = {2: Fraction(2), 3: Fraction(9), 5: Fraction(1, 25), 7: Fraction(1)}
    for p, want in expected.items():
        assert padic_abs(x, p).as_fraction() == want


def test_valuation_examples():
    assert valuation(8, 2) == 3
    assert valuation(Fraction(25, 18), 3) == -2
    assert valuation(Fraction(25, 18), 5) == 2
    assert valuation(Fraction(-9, 4), 3) == 2


@given(x=nonzero_fractions, p=st.sampled_from(PRIMES))
def test_valuation_defining_property(x, p):
    v = valuation(x, p)
    unit = x / Fraction(p) ** v
    assert unit.numerator % p != 0
    assert unit.denominator % p != 0


@given(x=nonzero_fractions, y=nonzero_fractions, p=st.sampled_from(PRIMES))
def test_valuation_additive_and_abs_multiplicative(x, y, p):
    assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
    prod = padic_abs(x * y, p).as_fraction()
    assert prod == padic_abs(x, p).as_fraction() * padic_abs(y, p).as_fraction()


@given(x=nonzero_fractions, y=nonzero_fractions, p=st.sampled_from(PRIMES))
def test_strong_triangle_with_equality_case(x, y, p):
    ax = padic_abs(x, p).as_fraction()
    ay = padic_abs(y, p).as_fraction()
    asum = padic_abs(x + y, p).as_fraction()
    assert asum <= max(ax, ay)
    if ax != ay:
        assert asum == max(ax, ay)


@given(
    exps=st.lists(st.integers(min_value=-6, max_value=6), min_size=5, max_size=5),
    sign=st.sampled_from((1, -1)),
)
def test_product_formula(exps, sign):
    # for x built from known primes, |x| * prod_p |x|_p == 1
    primes = (2, 3, 5, 7, 11)
    x = Fraction(sign)
    for p, e in zip(primes, exps):
        x *= Fraction(p) ** e
    total = abs(x)
    for p in primes:
        total *= padic_abs(x, p).as_fraction()
    assert total == 1


def test_abs_of_zero_and_ord_of_zero():
    assert padic_abs(0, 5).as_fraction() == 0
    assert padic_abs(0, 5).is_zero
    with pytest.raises(OrdOfZeroError):
        valuation(0, 5)


def test_rejects_non_primes():
    for bad in (1, 4, 6, 9, 15, -3, 0):
        with pytest.raises(NotPrimeError):
            valuation(1, bad)
    # twice each: the certificate cache stores answers, never exceptions,
    # and the bool is refused before the cache is consulted
    for _ in range(2):
        with pytest.raises(NotPrimeError):
            require_prime(True)
        with pytest.raises(NotPrimeError):
            is_prime(2**64)


def test_is_prime_spot_values():
    for _ in range(2):  # computed, then cached
        assert is_prime(2) and is_prime(97) and is_prime(2**61 - 1)
        assert not is_prime(1) and not is_prime(91) and not is_prime(2**32)


def test_prime_certificate_is_cached_per_value_and_type():
    p = 2**61 - 1
    require_prime(p)
    before = is_prime.cache_info()
    require_prime(p)
    after = is_prime.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # typed: a float never reads an int's entry
    is_prime(5)
    before = is_prime.cache_info()
    assert is_prime(5.0)
    assert is_prime.cache_info().misses == before.misses + 1


def test_symbolic_exponent_avoids_huge_integers():
    # holding |x|_p = p**(-10**6) must not materialize the power itself
    big = 10**6
    a = PAdicAbs(3, -big)
    assert a.exponent == -big and not a.is_zero
    assert PAdicAbs(3, big) != a
    # the extraction path is exercised at a size that stays cheap
    k = 10**4
    assert padic_abs(Fraction(3) ** k, 3).exponent == -k
    assert padic_abs(Fraction(1, 3) ** k, 3).exponent == k


def test_floats_and_bools_are_refused():
    with pytest.raises(TypeError):
        padic_distance(0.5, 0.25, 2)
    with pytest.raises(TypeError):
        as_fraction(True)
    assert as_fraction("1/10") == Fraction(1, 10) and as_fraction(3) == 3
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction("1/0")


def _fraction_of_text(text):
    # as_fraction before its int reading: Fraction(str), a zero denominator
    # reported as ValueError
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _outcome(read, text):
    try:
        value = read(text)
    except ValueError as err:
        return "ValueError", str(err)
    return type(value), value


@settings(max_examples=500)
@given(text=st.text(alphabet="0123456789-/+_. e\u0663", max_size=12))
@example(text="007/010")
@example(text="-0")
@example(text="1/0")
@example(text="0/0")
@example(text="--1")
@example(text="1/-2")
@example(text="-")
@example(text="/")
@example(text="1/")
@example(text="/2")
@example(text="")
@example(text=" 3")
@example(text="+3")
@example(text="1_000")
@example(text="1.5")
@example(text="1e3")
@example(text="\u0663")
@example(text="5" * 5000)  # over the int-from-text digit limit
@example(text="-1/" + "7" * 5000)
def test_as_fraction_reads_text_as_fraction_does(text):
    assert _outcome(as_fraction, text) == _outcome(_fraction_of_text, text)


class _Text(str):
    pass


class _Ratio(Fraction):
    pass


def _read_outcome(read, x):
    try:
        value = read(x)
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return type(value), value, value is x


@pytest.mark.parametrize(
    "x",
    [
        "-0", "-7", "0/5", "1/0", "+1", " 1", "1_0", "\u0663", "-12/8", "3", "1/", "1.5",
        _Text("3/4"), _Text("-0"), _Text("1/0"), _Ratio(3, 4), True, False, 1.5, 7, -7,
        Fraction(6, 4), None,
    ],
    ids=repr,
)
def test_as_fraction_reads_every_type_as_the_isinstance_chain(x):
    assert _read_outcome(as_fraction, x) == _read_outcome(ref_as_fraction, x)


_DISTANCE_PRIMES = (2, 3, 257, 2**61 - 1)


@st.composite
def _distance_cases(draw):
    # (x, y, p): rationals scaled by powers of p, often equal or near-equal
    p = draw(st.sampled_from(_DISTANCE_PRIMES))

    def point():
        x = Fraction(draw(st.integers(-(10**12), 10**12)), draw(st.integers(1, 10**6)))
        return x * Fraction(p) ** draw(st.integers(-5, 5))

    x = point()
    y = draw(st.sampled_from(("same", "near", "other")))
    if y == "same":
        y = Fraction(x.numerator, x.denominator)
    elif y == "near":
        y = x + Fraction(p) ** draw(st.integers(-8, 8)) * draw(st.integers(-3, 3))
    else:
        y = point()
    return x, y, p


@settings(max_examples=400)
@given(case=_distance_cases())
@example(case=(Fraction(5), Fraction(5), 7))
@example(case=(Fraction(-1, 3), Fraction(-1, 3), 2**61 - 1))
@example(case=(Fraction(-25, 18), Fraction(-7, 2), 3))
@example(case=(Fraction(-1, 257**3), Fraction(1, 257**3), 257))
@example(case=(Fraction(2**100), Fraction(-(2**100)), 2))
@example(case=(Fraction(0), Fraction(-(3**40), 2), 3))
def test_padic_distance_matches_the_fraction_difference(case):
    x, y, p = case
    got = padic_distance(x, y, p)
    assert type(got) is Fraction
    assert got == ref_padic_distance(x, y, p)
    assert padic_abs(x - y, p).as_fraction() == got


def test_distance_coerces_its_points_before_checking_p():
    with pytest.raises(TypeError, match="got the float 1.5"):
        padic_distance(1.5, 1, 4)
    with pytest.raises(ValueError, match="zero denominator"):
        padic_distance(1, "1/0", 4)
    with pytest.raises(NotPrimeError):
        padic_distance("3/2", 1, 4)


def test_distance_examples():
    assert padic_distance(Fraction(1, 2), Fraction(1, 3), 3) == 3
    assert padic_distance(Fraction(1, 3), Fraction(1, 4), 3) == 3
    assert padic_distance(Fraction(1, 2), Fraction(1, 4), 3) == 1
    assert padic_distance(5, 5, 7) == 0


def test_digit_pins():
    assert digit_window(17, 3, 2).digits == (2, 2, 1)
    assert digit_window(-1, 3, 11).digits == (2,) * 12
    w = digit_window(Fraction(1, 2), 3, 11)
    assert w.digits == (2,) + (1,) * 11
    assert w.low == 0


def test_digit_window_starts_at_valuation_when_negative():
    w = digit_window(Fraction(25, 18), 3, 2)
    assert w.low == -2
    assert w.high == 2
    assert len(w.digits) == 5


@given(x=nonzero_fractions, p=st.sampled_from(PRIMES), extra=st.integers(0, 6))
def test_digit_window_defining_property(x, p, extra):
    low = min(0, valuation(x, p))
    high = low + extra
    w = digit_window(x, p, high)
    assert w.low == low and w.high == high
    assert all(0 <= d < p for d in w.digits)
    remainder = x - w.partial_sum()
    if remainder != 0:
        assert valuation(remainder, p) >= high + 1


@given(x=nonzero_fractions, p=st.sampled_from(PRIMES), extra=st.integers(0, 4))
def test_digit_window_prefix_stable_under_extension(x, p, extra):
    low = min(0, valuation(x, p))
    short = digit_window(x, p, low + extra)
    long = digit_window(x, p, low + extra + 3)
    assert long.digits[: len(short.digits)] == short.digits


def test_digit_window_rejects_high_below_start():
    with pytest.raises(ValueError):
        digit_window(Fraction(1, 9), 3, -3)


def test_digit_window_cap():
    # 1/9 starts at exponent -2, so high = 1022 gives exactly MAX_DIGITS digits
    assert len(digit_window(Fraction(1, 9), 3, 1022).digits) == MAX_DIGITS == 1025
    assert len(digit_window(17, 3, 1024).digits) == MAX_DIGITS
    with pytest.raises(TooLargeError, match="1026 digits"):
        digit_window(Fraction(1, 9), 3, 1023)
    with pytest.raises(TooLargeError, match="1026 digits"):
        digit_window(17, 3, 1025)


@st.composite
def digit_cases(draw, primes=(2, 3, 5, 7, 257, 2**61 - 1), counts=st.integers(1, 71)):
    # (x, p, high) for a window of a drawn number of digits
    p = draw(st.sampled_from(primes))
    x = Fraction(draw(st.integers(-(10**30), 10**30)), draw(st.integers(1, 10**12)))
    x *= Fraction(p) ** draw(st.integers(-4, 4))
    low = 0 if x == 0 else min(0, valuation(x, p))
    return x, p, low + draw(counts) - 1


@settings(max_examples=400)
@given(case=digit_cases())
@example(case=(Fraction(0), 3, 0))
@example(case=(Fraction(0), 2**61 - 1, 70))
@example(case=(Fraction(-1), 2, 70))
@example(case=(Fraction(-25, 18), 3, 68))
def test_digit_window_matches_the_fraction_loop(case):
    x, p, high = case
    assert digit_window(x, p, high) == ref_digit_window(x, p, high)


def test_digit_window_at_the_cap_matches_the_fraction_loop():
    # -25/18 starts at exponent -2, so high = 1022 gives MAX_DIGITS digits
    x, high = Fraction(-25, 18), MAX_DIGITS - 3
    w = digit_window(x, 3, high)
    assert len(w.digits) == MAX_DIGITS
    assert w == ref_digit_window(x, 3, high)


# Windows around the points where digit_window splits the residue: 64
# digits, 512 bits, and the cap. The 61-bit prime is drawn only below the
# cap, where its Fraction loop takes most of a second; the examples add it.
_split_cases = st.one_of(
    digit_cases(primes=(257, 2**61 - 1), counts=st.sampled_from((63, 64, 65, 66, 128, 129))),
    digit_cases(
        primes=(2, 3, 257),
        counts=st.sampled_from((322, 323, 324, 511, 512, 513, MAX_DIGITS - 1, MAX_DIGITS)),
    ),
)


@settings(max_examples=60, deadline=None)
@given(case=_split_cases)
@example(case=(Fraction(-25, 18), 2**61 - 1, MAX_DIGITS - 3))
@example(case=(Fraction(0), 2**61 - 1, MAX_DIGITS - 1))
def test_split_digit_window_matches_the_fraction_loop(case):
    x, p, high = case
    assert digit_window(x, p, high) == ref_digit_window(x, p, high)


def test_digit_window_json_shape():
    w = DigitWindow(3, 0, (2, 2, 1))
    assert w.to_json_dict() == {"p": 3, "low": 0, "digits": [2, 2, 1]}


def test_geometric_partial_sums_hit_their_limit():
    # sum of p**k for k = 0..n sits at exact distance p**-(n+1) from 1/(1-p)
    for p in (2, 3, 5, 7):
        limit = Fraction(1, 1 - p)
        partial = Fraction(0)
        for n in range(0, 21):
            partial += Fraction(p) ** n
            assert padic_distance(partial, limit, p) == Fraction(p) ** -(n + 1)


def test_cauchy_profile_of_geometric_sums():
    p = 3
    sums = []
    total = Fraction(0)
    for k in range(1, 11):
        total += Fraction(p) ** k
        sums.append(total)
    profile = cauchy_profile(sums, p)
    assert profile == tuple(Fraction(p) ** -(k + 2) for k in range(9))


def test_cauchy_profile_needs_two_terms():
    with pytest.raises(TooShortError):
        cauchy_profile([Fraction(1)], 3)
