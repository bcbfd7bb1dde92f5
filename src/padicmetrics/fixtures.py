"""Named worked examples, runnable as one batch.

Each fixture re-derives one concrete published-style claim from scratch
and reports (passed, detail) instead of raising, so the whole battery can
run to completion and the CLI can print a line per fixture. The builders
for the recurring objects (the four-point space, the level-swapping map,
the zigzag map) live here too so tests and examples stay in sync.

Each builder returns a new object on every call. One ``run_all`` builds
each of those three shared examples once, when a fixture first reads
it, and hands that object to every fixture that reads it; nothing is
kept from one run to the next. Every image, verdict, family and order is
still derived inside its own fixture: each family fixture builds its own
``SpaceFamily`` around the shared space, so it computes its own order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import pairwise
from typing import Callable

from .errors import NotPreservingError
from .families import (
    SpaceFamily,
    check_family_preserving,
    counterexample_function,
    distance_values,
    family_poset,
)
from .functions import PiecewiseLinear, PowerMap, PrimeShift, Reciprocal
from .padic import (
    _Record,
    _power_pair,
    cauchy_profile,
    digit_window,
    padic_abs,
    padic_distance,
    valuation,
)
from .padic_preserving import (
    ExponentWindow,
    check_p_metric_preserving,
    check_p_ultrametric_preserving,
    extend_to_ultrametric_preserving,
    witness_triple,
)
from .preserving import (
    check_euclid_preserving_grid,
    check_ultrametric_preserving,
    is_strong_triplet,
    is_triangle_triplet,
)
from .spaces import (
    FiniteUltrametricSpace,
    apply_function,
    embedding_dimension,
    gram_rank,
    is_isometry,
    isometry_search,
    validate_ultrametric,
)

F = Fraction


def four_point_space() -> FiniteUltrametricSpace:
    """Points x1..x4 with d(x1,x3) = 1, d(x2,x4) = 2, everything else 3."""
    return FiniteUltrametricSpace.from_rows(
        ("x1", "x2", "x3", "x4"),
        (
            (0, 3, 1, 3),
            (3, 0, 3, 2),
            (1, 3, 0, 3),
            (3, 2, 3, 0),
        ),
    )


def four_point_family() -> SpaceFamily:
    return SpaceFamily((four_point_space(),))


def legs_three_space() -> FiniteUltrametricSpace:
    """Points y1..y4 with d(y1,y2) = 2, d(y3,y4) = 1, everything else 3."""
    return FiniteUltrametricSpace.from_rows(
        ("y1", "y2", "y3", "y4"),
        (
            (0, 2, 3, 3),
            (2, 0, 3, 3),
            (3, 3, 0, 1),
            (3, 3, 1, 0),
        ),
    )


def level_swap_map() -> PiecewiseLinear:
    """Piecewise-linear map with f(1) = 2 and f(2) = 1, constant past 3."""
    return PiecewiseLinear.from_pairs(
        ((0, 0), (1, 2), (2, 1), (3, 3)), tail="constant"
    )


def zigzag_map() -> PiecewiseLinear:
    """Oscillating map with f(1) = 1, f(3) = 1/8, constant 1/2 past 7/2.

    It does not preserve the Euclidean metric: the 1/8 grid check fails at
    (3/4, 23/8, 29/8), whose images are (3/4, 7/32, 1/2). It is kept as a
    pinned regression; damped_zigzag_map() carries the Euclidean-vs-3-adic
    contrast.
    """
    return PiecewiseLinear.from_pairs(
        (
            (0, 0),
            (1, 1),
            (F(3, 2), F(1, 2)),
            (2, F(7, 8)),
            (3, F(1, 8)),
            (F(7, 2), F(1, 2)),
        ),
        tail="constant",
    )


def damped_zigzag_map() -> PiecewiseLinear:
    """Map with f(1) = 1 and f(3) = 1/8 that preserves the Euclidean metric.

    The swings shrink until the map settles at 1/2 from 12 on, which the
    triple (3, a, a + 3) demands: |f(a + 3) - f(a)| <= f(3) forces f(4) >= 7/8.
    Its images (1/8, 1/8, 1) of the 3-adic distances of (1/2, 1/3, 1/4) are
    no triangle, so it does not preserve the 3-adic metric.
    """
    return PiecewiseLinear.from_pairs(
        (
            (0, 0),
            (1, 1),
            (2, F(7, 8)),
            (3, F(1, 8)),
            (4, F(7, 8)),
            (5, F(3, 4)),
            (6, F(1, 4)),
            (7, F(3, 4)),
            (8, F(5, 8)),
            (9, F(3, 8)),
            (10, F(5, 8)),
            (12, F(1, 2)),
        ),
        tail="constant",
    )


def identity_map() -> PiecewiseLinear:
    return PiecewiseLinear.from_pairs(((0, 0), (1, 1)), tail="linear")


@dataclass(frozen=True)
class FixtureResult(_Record):
    name: str
    passed: bool
    detail: str


class _Examples:
    """The shared examples of one ``run_all``, each built when first read.

    A builder that raises stores nothing, so every fixture that reads
    that example calls it again and fails on its own.
    """

    @cached_property
    def four_point_space(self) -> FiniteUltrametricSpace:
        return four_point_space()

    @cached_property
    def level_swap_map(self) -> PiecewiseLinear:
        return level_swap_map()

    @cached_property
    def zigzag_map(self) -> PiecewiseLinear:
        return zigzag_map()


Check = Callable[[_Examples], tuple[bool, str]]


def _order_values(ex: _Examples) -> tuple[bool, str]:
    x = F(25, 18)
    got = (valuation(x, 3), valuation(x, 7), valuation(8, 2))
    return got == (-2, 0, 3), f"orders (3, 7 | 8 base 2) = {got}"


def _abs_values(ex: _Examples) -> tuple[bool, str]:
    x = F(25, 18)
    got = tuple(padic_abs(x, p).as_fraction() for p in (2, 3, 5, 7))
    return got == (2, 9, F(1, 25), 1), f"|25/18| at 2,3,5,7 = {got}"


def _three_adic_distances(ex: _Examples) -> tuple[bool, str]:
    got = (padic_distance(F(1, 2), F(1, 3), 3), padic_distance(F(1, 2), F(1, 4), 3))
    return got == (3, 1), f"d3(1/2,1/3), d3(1/2,1/4) = {got}"


def _digits_seventeen(ex: _Examples) -> tuple[bool, str]:
    w = digit_window(17, 3, 4)
    ok = w.low == 0 and w.digits == (2, 2, 1, 0, 0)
    return ok, f"17 base 3: low={w.low}, digits={list(w.digits)}"


def _digits_minus_one(ex: _Examples) -> tuple[bool, str]:
    w = digit_window(-1, 3, 11)
    ok = w.low == 0 and w.digits == (2,) * 12
    return ok, f"-1 base 3: digits={list(w.digits)}"


def _digits_one_half(ex: _Examples) -> tuple[bool, str]:
    w = digit_window(F(1, 2), 3, 11)
    ok = w.low == 0 and w.digits == (2,) + (1,) * 11
    return ok, f"1/2 base 3: digits={list(w.digits)}"


def _cauchy_tenths(ex: _Examples) -> tuple[bool, str]:
    prefix = [F(1, 10**n) for n in range(1, 6)]
    profile = cauchy_profile(prefix, 7)
    ok = all(term >= F(1, 9) for term in profile)
    return ok, f"7-adic gaps of 10**-n: {[str(t) for t in profile]}"


def _cauchy_powers_of_three(ex: _Examples) -> tuple[bool, str]:
    sums, total = [], 0
    for k in range(1, 6):
        total += 3**k
        sums.append(total)
    profile = cauchy_profile(sums, 3)
    want = tuple(F(1, 3 ** (n + 1)) for n in range(1, 5))
    return profile == want, f"3-adic gaps: {[str(t) for t in profile]}"


def _geometric_limit(ex: _Examples) -> tuple[bool, str]:
    for p in (2, 3, 5, 7):
        limit = F(1, 1 - p)
        total, power = 0, 1  # 1 + p + ... + p**n and p**(n + 1)
        for n in range(0, 11):
            total += power
            power *= p
            if padic_distance(total, limit, p) != F(1, power):
                return False, f"p={p}, n={n}: gap is not p**-(n+1)"
    return True, "partial sums of 1 + p + ... + p**n approach 1/(1-p)"


def _zigzag_values(ex: _Examples) -> tuple[bool, str]:
    f = ex.zigzag_map
    got = (f(3), f(1), f(F(1, 3)))
    return got == (F(1, 8), 1, F(1, 3)), f"zigzag at 3, 1, 1/3 = {got}"


def _triplet_calls(ex: _Examples) -> tuple[bool, str]:
    checks = (
        not is_triangle_triplet(1, 1, 4),
        not is_triangle_triplet(F(1, 8), F(1, 8), 1),
        is_strong_triplet(1, 3, 3),
        not is_strong_triplet(1, 1, 4),
        is_triangle_triplet(0, 0, 0),
    )
    return all(checks), f"membership bits = {checks}"


def _zigzag_euclid_grid(ex: _Examples) -> tuple[bool, str]:
    verdict = check_euclid_preserving_grid(ex.zigzag_map, F(1, 8), 8)
    if verdict.passed:
        return True, "all pairs on the 1/8 grid up to 8 map into the triangle family"
    w = verdict.witness
    return False, (
        f"pair sums on the 1/8 grid leave the triangle family: points "
        f"{tuple(str(v) for v in w.points)} map to {tuple(str(v) for v in w.images)}"
    )


def _level_swap_not_increasing(ex: _Examples) -> tuple[bool, str]:
    verdict = check_ultrametric_preserving(ex.level_swap_map, (0, 1, 2, 3))
    w = verdict.witness
    ok = (
        not verdict.passed
        and w is not None
        and w.kind == "pair"
        and w.points == (1, 2)
        and w.images == (2, 1)
    )
    return ok, f"witness = {None if w is None else w.to_json_dict()}"


def _reciprocal_band_failure(ex: _Examples) -> tuple[bool, str]:
    f = Reciprocal()
    window = ExponentWindow(-16, 16)
    # f at 2**n for n in [lo - 1, hi], each read once, then neighbours compared
    images = [f(F(*_power_pair(2, n))) for n in range(window.lo - 1, window.hi + 1)]
    adjacent_ok = all(a <= 2 * b for a, b in pairwise(images))
    verdict = check_p_metric_preserving(f, 2, window)
    w = verdict.witness
    ok = (
        adjacent_ok
        and not verdict.passed
        and w is not None
        and w.images == (1, 1, 4)
        and (w.m, w.n) == (-2, 0)
    )
    return ok, (
        f"adjacent band holds = {adjacent_ok}; two-sided witness = "
        f"{None if w is None else w.to_json_dict()}"
    )


def _witness_triple_examples(ex: _Examples) -> tuple[bool, str]:
    t1 = witness_triple(3, 0, -1)
    t2 = witness_triple(2, 0, -1)
    t3 = witness_triple(5, 2, 0)
    d3 = tuple(
        padic_distance(a, b, 5) for a, b in ((t3[0], t3[2]), (t3[2], t3[1]), (t3[0], t3[1]))
    )
    ok = t1 == (3, -3, 1) and t2 == (1, -1, 0) and d3 == (25, 25, 1)
    return ok, f"triples {t1}, {t2}; third has distances {d3}"


def _zigzag_three_adic_failure(ex: _Examples) -> tuple[bool, str]:
    f = ex.zigzag_map
    band = check_p_metric_preserving(f, 3)
    adjacent = check_p_ultrametric_preserving(f, 3, ExponentWindow(-2, 2))
    want = (F(1, 8), F(1, 8), 1)
    points = (F(1, 2), F(1, 3), F(1, 4))
    dists = (
        padic_distance(points[0], points[1], 3),
        padic_distance(points[1], points[2], 3),
        padic_distance(points[0], points[2], 3),
    )
    images = tuple(f(d) for d in dists)
    ok = (
        not band.passed
        and band.witness.images == want
        and (band.witness.m, band.witness.n) == (0, 1)
        and not adjacent.passed
        and adjacent.witness.images == want
        and dists == (3, 3, 1)
        and images == want
        and not is_triangle_triplet(*images)
    )
    return ok, (
        f"band witness {band.witness.to_json_dict()}; points (1/2, 1/3, 1/4) "
        f"give distance images {tuple(str(v) for v in images)}"
    )


def _prime_swap_values(ex: _Examples) -> tuple[bool, str]:
    f = PowerMap(2, 3)
    got = (f(4), f(3), f(1))
    return got == (9, 6, 1), f"2->3 swap at 4, 3, 1 = {got}"


def _prime_shift_values(ex: _Examples) -> tuple[bool, str]:
    f = PrimeShift()
    got = (f(4), f(5), f(1), f(6))
    return got == (9, 7, 1, 9), f"shift at 4, 5, 1, 6 = {got}"


def _zigzag_extension_rejected(ex: _Examples) -> tuple[bool, str]:
    try:
        extend_to_ultrametric_preserving(ex.zigzag_map, 3, ExponentWindow(-2, 2))
    except NotPreservingError as err:
        return True, f"rejected as expected: {err}"
    return False, "the non-monotone map was extended anyway"


def _four_point_valid(ex: _Examples) -> tuple[bool, str]:
    space = ex.four_point_space
    image = validate_ultrametric(apply_function(space, ex.level_swap_map))
    if not isinstance(image, FiniteUltrametricSpace):
        return False, f"image is not ultrametric: {image.to_json_dict()}"
    values = sorted({v for row in image.dist for v in row})
    return True, f"image distance values = {[str(v) for v in values]}"


def _four_point_isometry(ex: _Examples) -> tuple[bool, str]:
    space = ex.four_point_space
    image = validate_ultrametric(apply_function(space, ex.level_swap_map))
    found = isometry_search(space, image)
    cyclic = (1, 2, 3, 0)
    ok = (
        found is not None
        and is_isometry(space, image, found)
        and is_isometry(space, image, cyclic)
    )
    return ok, f"search found {found}; cyclic shift {cyclic} also preserves distances"


def _four_point_embedding(ex: _Examples) -> tuple[bool, str]:
    space = ex.four_point_space
    dim = embedding_dimension(space)
    rank = gram_rank(space)
    ok = dim == 3 and rank == 3
    return ok, f"dimension {dim}, gram rank {rank}: too big for the plane"


def _legs_three_relabeling(ex: _Examples) -> tuple[bool, str]:
    a, b = ex.four_point_space, legs_three_space()
    found = isometry_search(a, b)
    ok = found is not None and is_isometry(a, b, found)
    return ok, f"search found {found}"


def _four_point_distance_order(ex: _Examples) -> tuple[bool, str]:
    family = SpaceFamily((ex.four_point_space,))
    poset = family_poset(family)
    want_pairs = [(F(0), F(1)), (F(0), F(2)), (F(0), F(3)), (F(1), F(3)), (F(2), F(3))]
    ok = (
        distance_values(family) == (0, 1, 2, 3)
        and poset.nonreflexive_pairs() == want_pairs
        and not poset.is_total()
    )
    return ok, f"strict pairs = {[(str(a), str(b)) for a, b in poset.nonreflexive_pairs()]}"


def _four_point_counterexample(ex: _Examples) -> tuple[bool, str]:
    fn = counterexample_function(SpaceFamily((ex.four_point_space,)))
    got = {str(k): str(v) for k, v in fn.entries}
    ok = got == {"0": "0", "1": "2", "2": "1", "3": "2"}
    return ok, f"tabulation = {got}"


def _level_swap_preserving(ex: _Examples) -> tuple[bool, str]:
    f = ex.level_swap_map
    report = check_family_preserving(f, SpaceFamily((ex.four_point_space,)))
    ok = report.passed and f(1) > f(2)
    return ok, f"preserves the family although f(1)={f(1)} > f(2)={f(2)}"


FIXTURES: tuple[tuple[str, Check], ...] = (
    ("order-of-twenty-five-eighteenths", _order_values),
    ("absolute-value-table", _abs_values),
    ("three-adic-distances", _three_adic_distances),
    ("digits-of-seventeen", _digits_seventeen),
    ("digits-of-minus-one", _digits_minus_one),
    ("digits-of-one-half", _digits_one_half),
    ("cauchy-profile-of-tenths", _cauchy_tenths),
    ("cauchy-powers-of-three", _cauchy_powers_of_three),
    ("geometric-series-limit", _geometric_limit),
    ("zigzag-values", _zigzag_values),
    ("triangle-triplet-membership", _triplet_calls),
    ("zigzag-euclid-grid", _zigzag_euclid_grid),
    ("level-swap-not-increasing", _level_swap_not_increasing),
    ("reciprocal-band-failure", _reciprocal_band_failure),
    ("witness-triple-examples", _witness_triple_examples),
    ("zigzag-three-adic-failure", _zigzag_three_adic_failure),
    ("prime-swap-values", _prime_swap_values),
    ("prime-shift-values", _prime_shift_values),
    ("zigzag-extension-rejected", _zigzag_extension_rejected),
    ("four-point-space-valid", _four_point_valid),
    ("four-point-isometry", _four_point_isometry),
    ("four-point-embedding", _four_point_embedding),
    ("legs-three-relabeling", _legs_three_relabeling),
    ("four-point-distance-order", _four_point_distance_order),
    ("four-point-counterexample", _four_point_counterexample),
    ("level-swap-preserving", _level_swap_preserving),
)


def run_all() -> list[FixtureResult]:
    ex, results = _Examples(), []
    for name, check in FIXTURES:
        try:
            passed, detail = check(ex)
        except Exception as err:  # a crashed fixture is a failed fixture
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(FixtureResult(name, passed, detail))
    return results
