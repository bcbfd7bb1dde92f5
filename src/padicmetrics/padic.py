"""Exact p-adic arithmetic over the rationals.

Rationals come in and go out as ``fractions.Fraction``, which Python keeps
in lowest terms with a positive denominator, so equality and ordering are
exact and structural throughout. Valuations, absolute values, distances
and digit windows are computed on the integers of each rational, and a
Fraction is built once, for the result. The p-adic absolute value of a
nonzero rational is always an integer power of p; :class:`PAdicAbs` keeps
that exponent symbolic so extreme valuations never materialize as huge
integers unless explicitly converted. A distance is read off one integer
difference: for x = a/b and y = c/d, |x - y|_p = p**(v_p(b) + v_p(d) -
v_p(ad - cb)). Digit windows take one modular inverse of the scaled
denominator per window, then one ``divmod`` per digit.

Primality of the modulus is certified deterministically for p < 2**64 via
Miller-Rabin with a fixed witness set, once per modulus and process (the
last 64 moduli are cached); larger moduli are rejected.

This module owns both ends of the JSON format: :func:`as_fraction` is the
one reader of a rational, :func:`_text` the one writer of a rational, and
:class:`_Record`, the base of every verdict, witness, space and function
spec, the one writer of a result. It writes a tuple element by element,
each element as a field of its own would be written.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Sequence, Union

from .errors import NotPrimeError, OrdOfZeroError, TooLargeError, TooShortError

RationalLike = Union[Fraction, int, str]

# Witnesses certifying Miller-Rabin for every n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_CERTIFIED_LIMIT = 2**64

# The most digits digit_window returns: high - low + 1.
MAX_DIGITS = 1025

# A Fraction as (numerator, positive denominator), for exact comparisons
# by cross-multiplying integers.
_ratio = attrgetter("numerator", "denominator")


def _exceeds(a: tuple[int, int], b: tuple[int, int], factor: int = 1) -> bool:
    # a > factor * b for (numerator, positive denominator) pairs; its callers
    # compare a few words, where four bit_length calls cost more than a product
    return a[0] * b[1] > factor * b[0] * a[1]


def _exceeds_scaled(a: tuple[int, int], b: tuple[int, int], gap: int, s: int) -> bool:
    # a > 2**s * b for positive pairs whose scales (numerator bit length less
    # denominator bit length) differ by gap = t_a - t_b: a pair of scale t
    # lies strictly between 2**(t - 1) and 2**(t + 1), reduced or not
    lead = gap - s
    if not -2 < lead < 2:
        return lead > 0
    return a[0] * b[1] > (b[0] * a[1] << s)


def _common(pairs: Iterable[tuple[int, int]], den: int = 1) -> tuple[int, list[int]]:
    # (numerator, positive denominator) pairs over one denominator L, a
    # multiple of den: the factor L // den, which takes a point k/den to
    # k * (L // den) over L, and the numerators over L (same order, same
    # sums). Each pair is reduced first, which keeps L, and with it every
    # integer, as small as the values allow.
    reduced = [(n // g, d // g) for n, d in pairs for g in (gcd(n, d),)]
    big = lcm(den, *(d for _, d in reduced))
    return big // den, [n * (big // d) for n, d in reduced]


def _ranks(pairs: list[tuple[int, int]]) -> list[int]:
    """Each (numerator, positive denominator) pair's rank among the values.

    The ranks are the positions 0, 1, ... of the distinct values in
    ascending order, so they keep every order and equality of the values;
    the pairs need not be reduced. No common denominator is taken: over
    many coprime denominators it is huge. Two distinct values n/d differ
    by at least 1 / (d d') > 2^-s, for s twice the bit length of the
    largest denominator, so their multiples by 2^s differ by more than 1
    and the int keys floor(n 2^s / d) keep their order: one sort, on keys
    a few words wide.
    """
    s = 2 * max((d for _, d in pairs), default=1).bit_length()
    keys = [(n << s) // d for n, d in pairs]
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return list(map(rank.__getitem__, keys))


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int or canonical "a/b" string to an exact Fraction.

    An ASCII string of the form ``-?digits(/digits)?`` (the form every
    rational of this package serializes to) is read with ``int``, digits
    and denominator one call each, as ``Fraction(str)`` reads them; any
    other string goes to ``Fraction(str)``, the only path for decimals,
    exponents, whitespace, ``+``, ``_`` and non-ASCII digits. Both give
    the same Fraction or the same error.

    A Fraction, int or str is told by its exact type first: isinstance
    with Fraction, an ABC, is several times slower. A subclass of any of
    them, a float or a bool takes the isinstance checks, and gets what an
    exact type would: a Fraction subclass is returned as is.

    Raises:
        TypeError: for a bool, or for a float, which is already rounded to
            binary (0.1 would become 3602879701896397/36028797018963968).
        ValueError: for a string that is no rational, or whose
            denominator is zero ("1/0").
    """
    t = type(x)
    if t is Fraction:
        return x
    if t is int:
        return Fraction(x)
    if t is not str:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (float, bool)):
            raise TypeError(f"exact rationals only: got the {t.__name__} {x!r}")
    if isinstance(x, str) and x.isascii():
        num, slash, den = x.partition("/")
        negative = num.startswith("-")
        digits = num[1:] if negative else num
        # for ASCII text, isdigit() holds exactly for nonempty runs of 0-9
        if digits.isdigit() and (not slash or den.isdigit()):
            n = -int(digits) if negative else int(digits)
            if not slash:
                return Fraction(n)
            d = int(den)
            if d == 0:
                raise ValueError(f"zero denominator in {x!r}")
            return Fraction(n, d)
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def _text(v: Fraction | int) -> str:
    """A rational as its canonical "a/b" text, denominator omitted when 1.

    This is ``str(v)``, except for an integer with more digits than Python
    writes with ``str`` (4300 by default): that one is written through
    ``decimal``, which has no such limit. Reading keeps the limit.
    """
    try:
        return str(v)
    except ValueError:
        import decimal

        n, d = _ratio(v)
        text = str(decimal.Decimal(n))
        return text if d == 1 else f"{text}/{decimal.Decimal(d)}"


@cache
def _layout(cls: type) -> tuple[tuple[str, bool], ...]:
    # each dataclass field's name, and whether its annotation names Fraction
    return tuple((f.name, "Fraction" in str(f.type)) for f in fields(cls))


def _json_value(v: object, rational: bool) -> object:
    # dispatch on the exact type: a bool is no int here, and isinstance
    # with Fraction, an ABC subclass, is several times slower
    t = type(v)
    if t is tuple:
        return [_json_value(x, rational) for x in v]
    if t is Fraction or (rational and t is int):
        return _text(v)
    if isinstance(v, _Record):
        return v.to_json_dict()
    return v


class _Record:
    """The one JSON writer of the package's verdicts, witnesses and specs.

    ``to_json_dict`` writes each dataclass field under its own name: a
    Fraction as its canonical "a/b" string by ``_text``, which
    ``as_fraction`` reads back; a tuple as a list; a nested record by
    its own ``to_json_dict``; a bool, int, str or None as is. An int in a
    field whose annotation names Fraction is a rational held as an int, and
    is written as a string too. The field layout is read once per class.
    A subclass whose JSON is more than its fields writes its own.

    Raises:
        TypeError: for a subclass that is not a dataclass.
    """

    def to_json_dict(self) -> dict:
        return {
            name: _json_value(getattr(self, name), rational)
            for name, rational in _layout(type(self))
        }


@lru_cache(maxsize=64, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic primality test, certified for n < 2**64.

    Answers are cached per process, keyed by value and type, so a 61-bit
    modulus pays for Miller-Rabin once. Exceptions are not cached.

    Returns False for n < 2 and for composites below 2**64.

    Raises:
        NotPrimeError: for n >= 2**64, whose primality the fixed witness
            set cannot certify.
    """
    if n >= _CERTIFIED_LIMIT:
        raise NotPrimeError(f"cannot certify primality of {n}: not below 2**64")
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise NotPrimeError unless p is a certified prime."""
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise NotPrimeError(f"p must be a prime below 2**64, got {p!r}")


def _multiplicity(n: int, p: int) -> int:
    # n != 0; count how many times p divides n
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def _power_pair(p: int, k: int) -> tuple[int, int]:
    # p**k as (numerator, denominator)
    return (p**k, 1) if k >= 0 else (1, p**-k)


def _order(x: Fraction, p: int) -> int:
    # x != 0 and p already certified by the public caller
    return _multiplicity(x.numerator, p) - _multiplicity(x.denominator, p)


def valuation(x: RationalLike, p: int) -> int:
    """The p-adic order of a nonzero rational.

    For x = a/b in lowest terms this is the multiplicity of p in a minus
    the multiplicity of p in b.

    Examples:
        valuation(8, 2) == 3
        valuation(Fraction(25, 18), 3) == -2
    """
    require_prime(p)
    x = as_fraction(x)
    if x == 0:
        raise OrdOfZeroError("the p-adic order of 0 is undefined")
    return _order(x, p)


@dataclass(frozen=True)
class PAdicAbs:
    """The value |x|_p, either zero or an exact power p**exponent.

    The exponent is stored symbolically; ``exponent is None`` encodes the
    value 0 (which is not a power of p).
    """

    p: int
    exponent: int | None

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def as_fraction(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return Fraction(*_power_pair(self.p, self.exponent))


def padic_abs(x: RationalLike, p: int) -> PAdicAbs:
    """The p-adic absolute value |x|_p = p**(-valuation(x, p)), with |0|_p = 0.

    Examples:
        padic_abs(Fraction(25, 18), 3).as_fraction() == 9
        padic_abs(Fraction(25, 18), 5).as_fraction() == Fraction(1, 25)
    """
    require_prime(p)
    x = as_fraction(x)
    if x == 0:
        return PAdicAbs(p, None)
    return PAdicAbs(p, -_order(x, p))


def padic_distance(x: RationalLike, y: RationalLike, p: int) -> Fraction:
    """The exact p-adic distance |x - y|_p as a Fraction.

    For x = a/b and y = c/d it is p**(v_p(b) + v_p(d) - v_p(ad - cb)), or
    0 when ad = cb: x - y = (ad - cb) / (bd), reduced or not. Both points
    are coerced before p is checked.
    """
    a, b = _ratio(as_fraction(x))
    c, d = _ratio(as_fraction(y))
    require_prime(p)
    diff = a * d - c * b
    if diff == 0:
        return Fraction(0)
    e = _multiplicity(b, p) + _multiplicity(d, p) - _multiplicity(diff, p)
    return Fraction(*_power_pair(p, e))


@dataclass(frozen=True)
class DigitWindow(_Record):
    """Base-p digits of a rational on a contiguous exponent window.

    ``digits[i]`` is the coefficient of p**(low + i). The window always
    starts at min(0, valuation(x, p)), so integer parts are fully covered
    and negative valuations pull the window below zero.
    """

    p: int
    low: int
    digits: tuple[int, ...]

    @property
    def high(self) -> int:
        return self.low + len(self.digits) - 1

    def partial_sum(self) -> Fraction:
        base = Fraction(self.p)
        return sum((d * base ** (self.low + i) for i, d in enumerate(self.digits)),
                   Fraction(0))


def digit_window(x: RationalLike, p: int, high: int) -> DigitWindow:
    """Base-p digit expansion of a rational up to exponent ``high``.

    Digits are produced so that x minus the returned partial sum has
    p-adic order at least high + 1. Rationals whose denominator is
    divisible by p start below exponent zero; negative rationals come out
    with the usual repeating high digits.

    For a window of ``count`` digits from ``low``, x / p**low = a / b with
    p not dividing b, and the digits are the base-p digits of
    a * b**-1 mod p**count: one modular inverse, then one ``divmod`` per
    digit.

    Examples:
        digit_window(17, 3, 2).digits == (2, 2, 1)        # 17 = "122" base 3
        digit_window(-1, 3, 3).digits == (2, 2, 2, 2)     # ...2222

    Raises:
        ValueError: if high is below the window start.
        TooLargeError: if the window holds more than MAX_DIGITS digits;
            nothing is allocated before the check.
    """
    require_prime(p)
    x = as_fraction(x)
    low = 0 if x == 0 else min(0, _order(x, p))
    if high < low:
        raise ValueError(f"high must be at least the window start {low}, got {high}")
    count = high - low + 1
    if count > MAX_DIGITS:
        raise TooLargeError(
            f"digit window [{low}, {high}] holds {count} digits, "
            f"more than the {MAX_DIGITS} accepted"
        )
    a, b = x.numerator, x.denominator
    if low < 0:
        b //= p**-low
    modulus = p**count
    r = a * pow(b, -1, modulus) % modulus
    digits: list[int] = []
    for _ in range(count):
        r, digit = divmod(r, p)
        digits.append(digit)
    return DigitWindow(p, low, tuple(digits))


def cauchy_profile(prefix: Sequence[RationalLike], p: int) -> tuple[Fraction, ...]:
    """Consecutive-gap profile |a_n - a_{n+1}|_p of a finite sequence prefix.

    Only the profile is computed; no convergence verdict is attached, since
    a finite prefix can never certify the limit behaviour by itself. In an
    ultrametric the vanishing of these gaps is what convergence of the
    sequence of partial differences turns on.
    """
    terms = [as_fraction(a) for a in prefix]
    if len(terms) < 2:
        raise TooShortError("need at least two terms to form a profile")
    return tuple(padic_distance(a, b, p) for a, b in zip(terms, terms[1:]))
