"""Window comparisons decided from bit lengths, against cross-multiplication.

A positive pair n/d of scale t = n.bit_length() - d.bit_length() lies
strictly between 2**(t - 1) and 2**(t + 1), so the window checks settle
a > 2**s * b from the scales alone when they differ by 2 or more past s,
and cross-multiply otherwise. Here ``padic._exceeds_scaled`` is checked
against the plain product on pairs of up to about 10 000 bits, the window
checks against their Fraction references on images of thousands of bits
within a factor of 4 of each other, and the checks are shown to take no
product where the scales decide.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicmetrics import (
    ExponentWindow,
    FunctionSpec,
    PadicMetricsError,
    StepFunction,
    check_p_metric_preserving,
    check_p_ultrametric_preserving,
    extend_to_ultrametric_preserving,
)
from padicmetrics.padic import _exceeds_scaled
from padicmetrics.padic_preserving import _band_breaks

from support import (
    brute_check_p_metric_preserving,
    ref_check_p_ultrametric_preserving,
    ref_extend_to_ultrametric_preserving,
)

F = Fraction
BIG = 2**3000


def _scale(pair: tuple[int, int]) -> int:
    return pair[0].bit_length() - pair[1].bit_length()


def _plain(a: tuple[int, int], b: tuple[int, int], s: int) -> bool:
    return a[0] * b[1] > 2**s * b[0] * a[1]


# ----------------------------------------------------------- the helper --

sizes = st.integers(1, 2**10000)


@st.composite
def pair_cases(draw):
    # b at random, and a either at random or a near multiple of b: the ratio
    # a/b is 2**j / 2**i, one unit above or below it, or equal, so every
    # scale gap near the thresholds occurs on both sides of its ratio
    b = (draw(sizes), draw(sizes))
    if draw(st.booleans()):
        a = (draw(sizes), draw(sizes))
    else:
        up, down = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        a = (max(1, (b[0] << up) + draw(st.sampled_from((-1, 0, 0, 1)))), b[1] << down)
    # the same values, not in lowest terms
    g, h = draw(st.sampled_from((1, 1, 3, 2**64 + 1, 7**2000))), draw(st.sampled_from((1, 5)))
    return (a[0] * g, a[1] * g), (b[0] * h, b[1] * h), draw(st.sampled_from((0, 1)))


@settings(max_examples=600)
@given(case=pair_cases())
def test_scaled_comparison_matches_cross_multiplication(case):
    a, b, s = case
    assert _exceeds_scaled(a, b, _scale(a) - _scale(b), s) == _plain(a, b, s)


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize(
    "a, b",
    [
        ((3, 1), (3, 1)),
        ((6, 2), (3, 1)),
        ((BIG, 3), (BIG * 5, 15)),
        ((2 * BIG, 1), (BIG, 1)),
        ((4 * BIG, 1), (BIG, 1)),
        ((2 * BIG + 1, 1), (BIG, 1)),
        ((2 * BIG - 1, 1), (BIG, 1)),
        ((4 * BIG + 1, 1), (BIG, 1)),
        ((4 * BIG - 1, 1), (BIG, 1)),
        ((BIG, 1), (2 * BIG, 1)),
        ((BIG * 7, 7 * 2**5000), (BIG * 3, 3 * 2**5000)),
    ],
)
def test_scaled_comparison_at_exact_ratios(a, b, s):
    # ratios 1, 2 and 4, one unit off them, and unreduced equal values
    for x, y in ((a, b), (b, a)):
        assert _exceeds_scaled(x, y, _scale(x) - _scale(y), s) == _plain(x, y, s)


@pytest.mark.parametrize(
    "gap, s", [(gap, s) for s in (0, 1) for gap in range(-6, 8) if abs(gap - s) > 1]
)
def test_scales_two_past_s_decide_without_reading_the_pairs(gap, s):
    assert _exceeds_scaled(None, None, gap, s) is (gap > s)


# --------------------------------------------------- windows, large images --


@dataclass(frozen=True)
class Unreduced(FunctionSpec):
    """``inner`` with both integers of each image multiplied by ``g``."""

    inner: FunctionSpec
    g: int

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        n, d = self.inner.ratio_at(k, den)
        return n * self.g, d * self.g


# Level ratios in [2, 8], so any two lie within a factor of 4, with ties,
# exact doubles and quadruples, and numerators and denominators of varied
# bit lengths: two values a scale apart can still fall either way.
RATIOS = tuple(
    map(F, "2 2 9/4 5/2 8/3 11/4 3 13/4 7/2 11/3 15/4 4 4 9/2 5 11/2 6 13/2 7 15/2 8 8".split())
)


@st.composite
def large_level_cases(draw):
    # step levels r * 7**1100 / den for r in RATIOS: every image has
    # thousands of bits and lies within a factor of 4 of every other
    p = draw(st.sampled_from((2, 3, 5, 257)))
    lo = draw(st.integers(-12, 8))
    window = ExponentWindow(lo, lo + draw(st.integers(0, 16)))
    den = draw(st.sampled_from((1, 3**700)))
    levels = st.sampled_from(RATIOS).map(lambda r: r * 7**1100 / den)
    ks = sorted(draw(st.sets(st.integers(window.lo - 2, window.hi + 2), min_size=1, max_size=6)))
    f = StepFunction(draw(levels), tuple((F(p) ** k, draw(levels)) for k in ks))
    g = draw(st.sampled_from((1, 1, 2**1000 + 1)))
    return p, (f if g == 1 else Unreduced(f, g)), window


def _outcome(run, *args):
    try:
        out = run(*args)
    except PadicMetricsError as err:
        return type(err).__name__, str(err)
    return out.to_json_dict()


def _matches_the_references(f, p, window):
    for check, ref in (
        (check_p_metric_preserving, brute_check_p_metric_preserving),
        (check_p_ultrametric_preserving, ref_check_p_ultrametric_preserving),
        (extend_to_ultrametric_preserving, ref_extend_to_ultrametric_preserving),
    ):
        assert _outcome(check, f, p, window) == _outcome(ref, f, p, window)


@settings(max_examples=300)
@given(case=large_level_cases())
def test_window_checks_on_large_close_images_match_the_references(case):
    _matches_the_references(*case)


@dataclass(frozen=True)
class PowerTable(FunctionSpec):
    """f(0) = 0 and f(2**j) = images[j - lo], as given, for lo <= j."""

    lo: int
    images: tuple[tuple[int, int], ...]

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        if k == 0:
            return 0, 1
        j = k.bit_length() - 1 if den == 1 else 1 - den.bit_length()
        return self.images[j - self.lo]


# integers of about 3000 bits at the ends of their bit lengths: a pair of
# them lies near either end of the range its scale allows
edges = st.builds(lambda a, e: (1 << a) + e, st.integers(3000, 3002), st.sampled_from((-1, 0, 1)))


def _above(a: int, b: int) -> tuple[int, int]:
    # just above 2**(a - b), at the low end of scale a - b + 1
    return 1 << a, (1 << b) - 1


def _below(a: int, b: int) -> tuple[int, int]:
    # just below 2**(a - b), at the high end of scale a - b - 1
    return (1 << a) - 1, 1 << b


@settings(max_examples=300)
@given(pairs=st.lists(st.tuples(edges, edges), min_size=1, max_size=20), lo=st.integers(-10, 0))
# scales 0, -1 and no drop; scales 0, 1 and a drop
@example(pairs=[_above(3000, 3001), _below(3001, 3001)], lo=0)
@example(pairs=[_below(3001, 3000), _above(3000, 3000)], lo=0)
# scales 0, 1 with no new maximum, then a break at scale -1
@example(pairs=[_below(3001, 3000), _above(3000, 3000), _below(3000, 3000)], lo=-1)
# scales 1, -1 with no break
@example(pairs=[_above(3000, 3000), _below(3000, 3000)], lo=0)
def test_window_checks_on_images_at_the_ends_of_their_scales(pairs, lo):
    window = ExponentWindow(lo, lo + len(pairs) - 1)
    _matches_the_references(PowerTable(lo, tuple(pairs)), 2, window)


# ------------------------------------------------- no product past the slack --


class Loud(int):
    """An int that refuses to be multiplied."""

    def __mul__(self, other):
        raise AssertionError("a product was taken where the scales decide")

    __rmul__ = __mul__


def _loud(num: int, den: int) -> tuple[Loud, Loud]:
    return Loud(num), Loud(den)


class LoudTable(PowerTable):
    """A PowerTable whose images are pairs of Loud ints."""

    def ratio_at(self, k: int, den: int) -> tuple[int, int]:
        return _loud(*super().ratio_at(k, den))


def test_band_sweep_takes_no_product_past_the_slack():
    # scales 0, 2, -1, 4, 1: against the running maximum, gaps of -2 (a new
    # maximum) and 3 (a break), the nearest the scales decide alone
    pairs = [(1, 1), (4, 1), (1, 2), (16, 1), (2, 1)]
    window = ExponentWindow(-2, 2)
    loud = dict(zip(range(-2, 3), (_loud(*x) for x in pairs)))
    assert _band_breaks(loud, window) == {0, 2}
    assert _band_breaks(dict(zip(range(-2, 3), pairs)), window) == {0, 2}


def test_adjacent_scan_takes_no_product_past_the_slack():
    # scales rising by exactly 2 pass, and one falling by exactly 2 is the drop
    rising = LoudTable(-1, ((1, 2), (2, 1), (8, 1), (BIG, BIG >> 5)))
    window = ExponentWindow(-1, 2)
    assert check_p_ultrametric_preserving(rising, 2, window).passed
    assert check_p_metric_preserving(rising, 2, window).passed
    assert extend_to_ultrametric_preserving(rising, 2, window).points[-1][1] == 32
    falling = LoudTable(-1, ((1, 2), (2, 1), (1, 2), (2, 1)))
    verdict = check_p_ultrametric_preserving(falling, 2, window)
    assert (verdict.reason, verdict.witness.m, verdict.witness.n) == ("adjacent", 0, 1)
