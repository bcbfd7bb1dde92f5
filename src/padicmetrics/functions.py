"""Exactly evaluable function shapes on the nonnegative rationals.

Every variant maps a nonnegative Fraction to a nonnegative Fraction with no
rounding anywhere. Specs are small frozen dataclasses, are callable, and
round-trip through JSON dicts via their ``to_json_dict`` method and
:func:`spec_from_json_dict`. A spec's JSON is its ``kind`` and its fields,
as ``padic._Record`` writes them: rationals as canonical "a/b" strings
(denominator omitted when 1).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress, pairwise
from typing import Iterable, NoReturn

from .errors import (
    BelowFloorError,
    DomainMissError,
    NegativeInputError,
    TooLargeError,
)
from .padic import (
    RationalLike,
    _Record,
    _common,
    _exceeds,
    _ratio,
    _text,
    as_fraction,
    require_prime,
)

TAIL_CONSTANT = "constant"
TAIL_LINEAR = "linear"

# The largest PrimeShift sieve bound accepted: ten times the default.
MAX_SIEVE_BOUND = 10_000_000

# The most power_step layers one spec may nest. Every layer adds frames to
# each evaluation, and a few hundred layers overflow the interpreter stack.
MAX_POWER_STEP_DEPTH = 64


def _floor_power(n: int, d: int, base: int) -> tuple[int, int, int]:
    """The largest integer m with base**m <= n/d, for n > 0 and d > 0, and
    the two sides of that comparison, computed exactly.

    base**m <= n/d is lo <= hi on integers: lo = base**m * d and hi = n
    for m >= 0, lo = d and hi = n * base**-m for m < 0, so n/d need not be
    in lowest terms. One power is taken, at the estimate from the bit
    lengths of n and d; from there m moves a step or two, each step one
    exact multiplication or division of a side by base. Returns (m, lo,
    hi), so a caller reads base**m off the sides instead of raising it.
    """
    if n <= 0:
        raise ValueError("x must be positive")
    m = math.floor((n.bit_length() - d.bit_length()) / math.log2(base))
    lo, hi = (base**m * d, n) if m >= 0 else (d, n * base**-m)
    while lo > hi:  # base**m > n/d: one power down
        lo, hi, m = (lo // base, hi, m - 1) if m > 0 else (lo, hi * base, m - 1)
    while (up := (lo * base, hi) if m >= 0 else (lo, hi // base))[0] <= up[1]:
        (lo, hi), m = up, m + 1  # one power up is still at most n/d
    return m, lo, hi


def _ascending(ratios: list[tuple[int, int]]) -> bool:
    # whether the (numerator, positive denominator) pairs ascend strictly
    return all(n0 * d1 < n1 * d0 for (n0, d0), (n1, d1) in pairwise(ratios))


def _segments(
    xs: list[Fraction], ys: list[Fraction]
) -> tuple[int, list[int], list[tuple[int, ...]]]:
    # A polyline through (xs, ys) over the common denominator D of xs (see
    # _common): D, the integer breakpoints X = x * D, and per segment
    # (X0, base, rise, under) with f(x) = (base + (x*D - X0) * rise) / under
    # from X0 to the next X
    scale, big_xs = _common(map(_ratio, xs))
    segments = []
    for (x0, (n0, d0)), (x1, (n1, d1)) in pairwise(zip(big_xs, map(_ratio, ys))):
        width = x1 - x0
        segments.append((x0, n0 * d1 * width, n1 * d0 - n0 * d1, d0 * d1 * width))
    return scale, big_xs, segments


def _refuse_inexact(rows: Iterable[tuple]) -> None:
    # A float or bool field raises the TypeError of as_fraction: a float is
    # already rounded to binary. A str field raises a TypeError too: the
    # constructors take numbers, and spec_from_json_dict coerces its strings
    # first. The types of the fields are gathered in one pass in C, and the
    # rows are walked for the first such field only when there is one.
    types = set(map(type, chain.from_iterable(rows)))
    if any(issubclass(t, (float, bool, str)) for t in types):
        for v in chain.from_iterable(rows):
            if isinstance(v, str):
                raise TypeError(f"exact rationals only: got the str {v!r}")
            if isinstance(v, (float, bool)):
                as_fraction(v)


def _refuse_negative(k: int, den: int) -> NoReturn:
    # the error of every spec at a point k/den < 0
    raise NegativeInputError(f"function domain is x >= 0, got {_text(Fraction(k, den))}")


class FunctionSpec(_Record):
    """Base class for exactly evaluable maps f: [0, oo) -> [0, oo).

    One definition, in ``ratio_at``; custom specs define ``_value``.
    ``f.ratio_at(k, den)`` gives f(k/den), for integers k and den > 0, as
    a pair of integers (num, d) with d > 0, not necessarily in lowest
    terms, and raises NegativeInputError at k < 0. ``f(x)`` is that pair
    as a Fraction, with x coerced by ``as_fraction``. The checks read every
    image through ratio_at, once per point, and build a Fraction only for
    an image that goes into a witness or into JSON.

    The default ratio_at reads ``_value(Fraction(k, den))``, a custom
    spec's value at a nonnegative Fraction, and coerces it with
    ``as_fraction``, so a float or bool image raises TypeError. A subclass
    that redefines ``_value`` without its own ``ratio_at`` gets this
    default back, so the value it defines is never passed over. A
    redefined ``__call__`` is read by no check.

    ``to_json_dict`` writes the ``kind`` and then the dataclass fields, as
    ``padic._Record`` writes them; a spec that is not a dataclass gets a
    TypeError.
    """

    kind: str = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "_value" in own and "ratio_at" not in own:
            cls.ratio_at = FunctionSpec.ratio_at

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        return Fraction(*self.ratio_at(x.numerator, x.denominator))

    def _value(self, x: Fraction) -> Fraction:
        raise NotImplementedError

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k < 0:
            _refuse_negative(k, den)
        return _ratio(as_fraction(self._value(Fraction(k, den))))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, **super().to_json_dict()}


@dataclass(frozen=True)
class Tabulated(FunctionSpec):
    """Finite lookup table; evaluation never extrapolates.

    The table must contain the key 0 and only nonnegative values. Points
    outside the table raise DomainMissError. The checks run in one pass
    each, on the integers of the entries: repeated keys first (a table
    whose keys ascend has none, so only another table hashes its keys),
    then the key 0, then the signs. The entries are kept in key order.
    """

    entries: tuple[tuple[Fraction, Fraction], ...]

    kind = "tabulated"

    def __post_init__(self) -> None:
        _refuse_inexact(self.entries)
        ratios = [_ratio(k) for k, _ in self.entries]
        ascending = _ascending(ratios)
        if not ascending and len(set(ratios)) != len(ratios):
            raise ValueError("duplicate table keys")
        if (0, 1) not in ratios:
            raise ValueError("table must contain the key 0")
        if any(n < 0 for n, _ in ratios) or any(v.numerator < 0 for _, v in self.entries):
            raise ValueError("table keys and values must be nonnegative")
        if not ascending:
            object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def from_pairs(cls, pairs) -> "Tabulated":
        """The table of (key, value) pairs, coerced by as_fraction, in key order."""
        return cls(tuple(_parse_pairs(pairs)))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "Tabulated":
        return cls.from_pairs(mapping.items())

    @cached_property
    def _lookup(self) -> dict[tuple[int, int], tuple[int, int]]:
        # the value pairs keyed by (numerator, denominator) in lowest terms
        return {_ratio(k): _ratio(v) for k, v in self.entries}

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k < 0:
            _refuse_negative(k, den)
        g = math.gcd(k, den)
        try:
            return self._lookup[k // g, den // g]
        except KeyError:
            x = _text(Fraction(k, den))
            raise DomainMissError(f"{x} is not a tabulated point") from None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "table": [[_text(k), _text(v)] for k, v in sorted(self.entries)],
        }


@dataclass(frozen=True)
class PiecewiseLinear(FunctionSpec):
    """Polyline through ``points`` with a constant or linear tail.

    Breakpoint abscissas must start at 0 and increase strictly; ordinates
    must be nonnegative. Past the last breakpoint the value either stays at
    the last ordinate or continues along the final segment, whose slope must
    then be nonnegative so outputs never go negative. The checks compare
    the (numerator, denominator) pairs of the fields, never two Fractions.
    Every point k/den is read off one table, built once per spec over the
    abscissas' common denominator D (``_segments``): a bisection on
    k * D // den and one integer pair per read, for any den.
    """

    points: tuple[tuple[Fraction, Fraction], ...]
    tail: str = TAIL_CONSTANT

    kind = "piecewise_linear"

    def __post_init__(self) -> None:
        _refuse_inexact(self.points)
        if not self.points:
            raise ValueError("need at least one breakpoint")
        xs = [_ratio(x) for x, _ in self.points]
        if xs[0][0] != 0:
            raise ValueError("breakpoints must start at x = 0")
        if not _ascending(xs):
            raise ValueError("breakpoint abscissas must increase strictly")
        ys = [_ratio(y) for _, y in self.points]
        if any(n < 0 for n, _ in ys):
            raise ValueError("ordinates must be nonnegative")
        if self.tail not in (TAIL_CONSTANT, TAIL_LINEAR):
            raise ValueError(f"unknown tail mode {self.tail!r}")
        if self.tail == TAIL_LINEAR:
            if len(self.points) < 2:
                raise ValueError("a linear tail needs at least two breakpoints")
            # the abscissas ascend, so the final slope has the sign of its rise
            if _exceeds(ys[-2], ys[-1]):
                raise ValueError("a decreasing linear tail would go negative")

    @classmethod
    def from_pairs(cls, pairs, tail: str = TAIL_CONSTANT) -> "PiecewiseLinear":
        pts = tuple((as_fraction(x), as_fraction(y)) for x, y in pairs)
        return cls(pts, tail)

    def segment_slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(y1 - y0, x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.points, self.points[1:])
        )

    @cached_property
    def _table(self) -> tuple[int, list[int], list[tuple[int, ...]]]:
        return _segments([x for x, _ in self.points], [y for _, y in self.points])

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k < 0:
            _refuse_negative(k, den)
        scale, xs, segments = self._table
        at = k * scale  # x * D = at / den, and X <= at / den just when X <= at // den
        i = bisect.bisect_right(xs, at // den) - 1
        if i == len(segments):  # at or past the last breakpoint
            if at == xs[-1] * den or self.tail == TAIL_CONSTANT:
                return _ratio(self.points[-1][1])
            i -= 1  # the linear tail continues the last segment
        x0, base, rise, under = segments[i]
        return base * den + (at - x0 * den) * rise, under * den

    def to_json_dict(self) -> dict:
        last = self.points[-1][1]
        return {
            "kind": self.kind,
            "points": [[_text(x), _text(y)] for x, y in self.points],
            "tail": {"constant": _text(last)} if self.tail == TAIL_CONSTANT else TAIL_LINEAR,
        }


@dataclass(frozen=True)
class Reciprocal(FunctionSpec):
    """f(0) = 0 and f(x) = 1/x otherwise."""

    kind = "reciprocal"

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k <= 0:
            return (0, 1) if k == 0 else _refuse_negative(k, den)
        return den, k


@dataclass(frozen=True)
class Canonical(FunctionSpec):
    """The bounded remetrization f(x) = x / (1 + x)."""

    kind = "canonical"

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k < 0:
            _refuse_negative(k, den)
        return k, k + den


@dataclass(frozen=True)
class PowerMap(FunctionSpec):
    """Sends p**n to q**n for every integer n, interpolating in between.

    f(0) = 0. For x > 0 the two neighbouring powers p**m <= x <= p**(m+1)
    bracket x and the value is the exact linear interpolation of their
    images q**m and q**(m+1), on the two sides ``_floor_power`` compared:
    no power of p is raised again.
    """

    p: int
    q: int

    kind = "power_map"

    def __post_init__(self) -> None:
        require_prime(self.p)
        require_prime(self.q)

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k <= 0:
            return (0, 1) if k == 0 else _refuse_negative(k, den)
        p, q = self.p, self.q
        # x = p**m * b / a with 1 <= b / a < p, and the line through
        # (p**m, q**m) and (p**(m+1), q**(m+1)) takes at x the value
        # q**m * (1 + (b / a - 1) * (q - 1) / (p - 1)), built from integers
        m, a, b = _floor_power(k, den, p)
        up, down = (q**m, 1) if m >= 0 else (1, q**-m)
        return up * ((p - 1) * a + (q - 1) * (b - a)), down * (p - 1) * a


@lru_cache(maxsize=4)  # an entry holds a byte per odd number to its bound: 0.5 MB at 10**6
def _sieve(bound: int) -> bytes:
    """Primality of the odd numbers up to bound: byte i is 1 when 2i + 1 is prime.

    2 is the one even prime. The primes are read off with ``find`` and
    ``rfind`` (``_next_prime``, ``_prime_at_most``) and ``_primes_to``, so no
    int is made for a prime that is not asked for.
    """
    flags = bytearray([1]) * ((bound + 1) // 2)
    flags[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2  # the odd multiples of p from p*p are p apart
            flags[start::p] = bytes((len(flags) - 1 - start) // p + 1)
    return bytes(flags)


def _primes_to(flags: bytes, n: int) -> tuple[int, ...]:
    # the primes <= n, for 2 <= n <= the sieve bound
    return (2, *compress(range(3, n + 1, 2), flags[1 : (n + 1) // 2]))


def _prime_at_most(flags: bytes, n: int) -> int:
    # the largest prime <= n, for 2 <= n <= the sieve bound
    return 2 * flags.rfind(1, 0, (n + 1) // 2) + 1 if n >= 3 else 2


def _next_prime(flags: bytes, n: int) -> int:
    # the smallest prime > n, for n below the largest sieved prime
    return 2 * flags.find(1, (n + 1) // 2) + 1 if n >= 2 else 2


@dataclass(frozen=True)
class PrimeShift(FunctionSpec):
    """Sends every prime power p_k**n to p_{k+1}**n, interpolating between.

    The defined points are all integer powers of all primes; the image of a
    point replaces its prime with the next prime. Those points accumulate
    at 0 and are unbounded above, so evaluation is certified only inside
    the window set by the sieve bound: an input is accepted when both
    bracketing points (and their images) are provably the true neighbours
    using primes below the bound. Inputs at or below 1/p_last raise
    BelowFloorError, inputs at or beyond p_last raise TooLargeError, where
    p_last is the largest sieved prime.

    Cost: besides the sieve (built once per bound and cached), an
    evaluation makes O(pi(sqrt(L))) integer steps, L = floor(max(x, 1/x)):
    one p-power search (``_floor_power`` on L, which hands over p**m) per
    prime up to isqrt(L), and a few searches of the sieve for the primes
    next to isqrt(L) and L.

    Why that finds the same neighbours as a walk over every prime up to L.
    Write y = max(x, 1/x) >= 1. Every defined point other than 1 is p**k
    or 1/p**k, so for x > 1 the neighbours of x are powers P = p**k near
    y, and for x < 1 they are 1/P for the powers P nearest y on the other
    side; the primes that can contribute are those up to L, as before.
    For p <= isqrt(L), the two powers of p around y come from
    ``_floor_power`` on L, since p**m <= y just when p**m <= L for m >= 0.
    A prime p in (isqrt(L), L] has p <= y < p**2, so its powers next to y
    are p and p**2 (for x itself, m = 1 when x > 1, and m = -2, or -1 at
    x = 1/p, when x < 1). Among those primes the largest p at or below y
    is the largest prime <= L, and the smallest p**2 above y is the square
    of the smallest prime > isqrt(L); no other of them can be nearest. The
    nearest first power above y is the smallest prime > L. All prime
    powers are distinct rationals, so
    the nearest point below and above x, an exact hit, and with them the
    value and every error, are those of the full walk. Points and images
    stay integers, compared by cross-multiplying, and x = k/den need not
    be in lowest terms; a Fraction is built only for an error message.

    Raises:
        TypeError: if sieve_bound is not an int, or is a bool.
        TooLargeError: if sieve_bound exceeds MAX_SIEVE_BOUND; nothing is
            allocated before the check.
        ValueError: if sieve_bound is below 5.
    """

    sieve_bound: int = 1_000_000

    kind = "prime_shift"

    def __post_init__(self) -> None:
        if not isinstance(self.sieve_bound, int) or isinstance(self.sieve_bound, bool):
            raise TypeError(f"sieve bound must be an int, got {self.sieve_bound!r}")
        if self.sieve_bound > MAX_SIEVE_BOUND:
            raise TooLargeError(
                f"sieve bound {self.sieve_bound} is over the {MAX_SIEVE_BOUND} accepted"
            )
        if self.sieve_bound < 5:
            raise ValueError("sieve bound must be at least 5")

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k <= 0:
            return (0, 1) if k == 0 else _refuse_negative(k, den)
        flags = _sieve(self.sieve_bound)
        last = 2 * flags.rfind(1) + 1
        if k * last <= den:
            raise BelowFloorError(
                f"{_text(Fraction(k, den))} is at or below the evaluation floor 1/{last}"
            )
        if k >= last * den:
            x = _text(Fraction(k, den))
            raise TooLargeError(f"{x} is at or beyond the certified ceiling {last}")

        # y = big / small = max(x, 1/x); every candidate is an integer power
        # P with its image Q, P <= y in lows and P > y in highs. 1 is p**0
        # for every prime and always maps to itself. cap < last, so every
        # prime up to cap has a next prime in the sieve.
        big, small = (k, den) if k >= den else (den, k)
        cap = big // small
        after_root = _next_prime(flags, math.isqrt(cap))
        lows, highs = [(1, 1)], []
        for p, q in pairwise(_primes_to(flags, after_root)):
            m, power, _ = _floor_power(cap, 1, p)
            image = q**m
            lows.append((power, image))
            highs.append((power * p, image * q))
            if power * small == big:  # x is a power of p, so the largest of lows
                break
        if after_root <= cap:  # the primes in (isqrt(cap), cap]
            top = _prime_at_most(flags, cap)
            lows.append((top, _next_prime(flags, top)))
            highs.append((after_root**2, _next_prime(flags, after_root) ** 2))
        above = _next_prime(flags, cap)
        if above < last:
            highs.append((above, _next_prime(flags, above)))

        lo, lo_img = max(lows)
        if lo * small == big:
            return (lo_img, 1) if k >= den else (1, lo_img)
        if not highs or min(highs)[0] >= last:
            # the point past y is x's upper neighbour, or for x < 1 its lower one
            x = _text(Fraction(k, den))
            if k >= den:
                raise TooLargeError(f"cannot certify the upper neighbour of {x}")
            raise BelowFloorError(f"cannot certify the lower neighbour of {x}")
        hi, hi_img = min(highs)
        if k >= den:  # lo < x < hi, all integers
            return lo_img * den * (hi - lo) + (k - lo * den) * (hi_img - lo_img), den * (hi - lo)
        # 1/hi < x < 1/lo, with images 1/hi_img and 1/lo_img
        return (
            den * lo_img * (hi - lo) + (k * hi - den) * (hi_img - lo_img) * lo,
            den * hi_img * lo_img * (hi - lo),
        )

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "bound": self.sieve_bound}


@dataclass(frozen=True)
class PowerStep(FunctionSpec):
    """Step profile of ``inner`` on p-power intervals.

    Takes the value inner(p**m) on every interval [p**m, p**(m+1)) and 0 at
    0, so it agrees with ``inner`` on all p-adic distances while flattening
    everything in between.

    Raises:
        TypeError: if ``inner`` is not a FunctionSpec.
        TooLargeError: if power_step layers, this one included, nest more
            than MAX_POWER_STEP_DEPTH deep; nothing is evaluated before the
            check.
    """

    inner: FunctionSpec
    p: int

    kind = "power_step"

    def __post_init__(self) -> None:
        if not isinstance(self.inner, FunctionSpec):
            raise TypeError(f"power_step needs a function spec inside, got {self.inner!r}")
        require_prime(self.p)
        depth, inner = 1, self.inner
        while isinstance(inner, PowerStep):
            depth, inner = depth + 1, inner.inner
        if depth > MAX_POWER_STEP_DEPTH:
            raise TooLargeError(
                f"power_step layers nest {depth} deep, more than the "
                f"{MAX_POWER_STEP_DEPTH} accepted"
            )

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k <= 0:
            return (0, 1) if k == 0 else _refuse_negative(k, den)
        m, lo, hi = _floor_power(k, den, self.p)  # lo = p**m * den, or hi = k * p**-m
        return self.inner.ratio_at(lo // den, 1) if m >= 0 else self.inner.ratio_at(1, hi // k)


@dataclass(frozen=True)
class StepFunction(FunctionSpec):
    """Right-closed step function: 0 at 0, ``below`` on (0, t_1), then
    value v_i on [t_i, t_{i+1}) and v_last from t_last on.

    With no thresholds the function is constant ``below`` on the positives.
    The checks compare the (numerator, denominator) pairs of the fields,
    never two Fractions. A point k/den is placed by one bisection on
    k * D // den among the thresholds times their common denominator D,
    a table built once per spec.
    """

    below: Fraction
    points: tuple[tuple[Fraction, Fraction], ...] = ()

    kind = "step"

    def __post_init__(self) -> None:
        _refuse_inexact(((self.below,), *self.points))
        if self.below.numerator < 0:
            raise ValueError("step values must be nonnegative")
        ts = [_ratio(t) for t, _ in self.points]
        if any(n <= 0 for n, _ in ts):
            raise ValueError("thresholds must be positive")
        if not _ascending(ts):
            raise ValueError("thresholds must increase strictly")
        if any(v.numerator < 0 for _, v in self.points):
            raise ValueError("step values must be nonnegative")

    @classmethod
    def from_pairs(cls, below, pairs) -> "StepFunction":
        pts = tuple((as_fraction(t), as_fraction(v)) for t, v in pairs)
        return cls(as_fraction(below), pts)

    def levels(self) -> tuple[Fraction, ...]:
        """All values taken on the positives, in threshold order."""
        return (self.below, *(v for _, v in self.points))

    @cached_property
    def _table(self) -> tuple[int, list[int], list[tuple[int, int]]]:
        # the common denominator D of the thresholds, the thresholds times D
        # (see _common), and the levels as pairs
        return *_common([_ratio(t) for t, _ in self.points]), list(map(_ratio, self.levels()))

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k <= 0:
            return (0, 1) if k == 0 else _refuse_negative(k, den)
        scale, ts, levels = self._table
        # T <= k * D / den just when T <= k * D // den, for integers T
        return levels[bisect.bisect_right(ts, k * scale // den)]


def _parse_pairs(raw) -> list[tuple[Fraction, Fraction]]:
    return [(as_fraction(a), as_fraction(b)) for a, b in raw]


def _parse_int(raw) -> int:
    value = as_fraction(raw)
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {raw!r}")
    return value.numerator


def spec_from_json_dict(data: dict) -> FunctionSpec:
    """Rebuild a FunctionSpec from its JSON dict form."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("function spec JSON must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "tabulated":
        return Tabulated.from_pairs(data["table"])
    if kind == "piecewise_linear":
        if "tail" not in data:
            raise ValueError("piecewise_linear needs a 'tail' entry")
        tail = data["tail"]
        points = tuple(_parse_pairs(data["points"]))
        if tail == TAIL_LINEAR:
            return PiecewiseLinear(points, TAIL_LINEAR)
        if isinstance(tail, dict) and "constant" in tail:
            f = PiecewiseLinear(points, TAIL_CONSTANT)
            if as_fraction(tail["constant"]) != points[-1][1]:
                raise ValueError("constant tail must equal the last ordinate")
            return f
        raise ValueError(f"unknown tail {tail!r}")
    if kind == "reciprocal":
        return Reciprocal()
    if kind == "canonical":
        return Canonical()
    if kind == "power_map":
        return PowerMap(_parse_int(data["p"]), _parse_int(data["q"]))
    if kind == "prime_shift":
        return PrimeShift(_parse_int(data.get("bound", 1_000_000)))
    if kind == "power_step":
        return PowerStep(spec_from_json_dict(data["inner"]), _parse_int(data["p"]))
    if kind == "step":
        return StepFunction(as_fraction(data["below"]), tuple(_parse_pairs(data["points"])))
    raise ValueError(f"unknown function spec kind {kind!r}")
