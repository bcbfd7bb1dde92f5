"""Function shapes, their JSON forms, and the sampled triplet checks.

The two-route checks (direct inspection vs full triplet scan) are
exercised on randomized inputs: any disagreement between the routes
raises inside the library, so a quiet pass here certifies both.
"""

import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicmetrics import (
    BelowFloorError,
    Canonical,
    DomainMissError,
    FunctionSpec,
    NegativeInputError,
    PadicMetricsError,
    PiecewiseLinear,
    PowerMap,
    PowerStep,
    PrimeShift,
    Reciprocal,
    SpaceFamily,
    StepFunction,
    Tabulated,
    TooLargeError,
    as_fraction,
    build_extension,
    check_euclid_preserving_grid,
    check_euclid_preserving_sampled,
    check_family_preserving,
    check_metric_preserving_sampled,
    check_p_metric_preserving,
    check_p_ultrametric_preserving,
    check_ultra_to_metric,
    check_ultrametric_preserving,
    default_samples,
    extend_to_ultrametric_preserving,
    is_strong_triplet,
    is_triangle_triplet,
    pairs_from_grid,
    samples_digest,
    spec_from_json_dict,
    sufficient_conditions,
)
from padicmetrics import functions
from padicmetrics.fixtures import four_point_family, identity_map, level_swap_map, zigzag_map
from padicmetrics.functions import (
    MAX_POWER_STEP_DEPTH,
    MAX_SIEVE_BOUND,
    _floor_power,
    _next_prime,
    _prime_at_most,
    _primes_to,
    _sieve,
)
from padicmetrics.padic_preserving import MAX_EXPONENT
from padicmetrics.preserving import (
    MAX_GRID_POINTS,
    _first_bad_triple,
    _grid,
    _halving_witness,
    _monotone_witness,
    _sample_keys,
)
from support import (
    COPRIME_DENOMINATORS,
    amenability_witness,
    brute_triple_scan,
    comb_space,
    ref_check_euclid_preserving_sampled,
    ref_check_metric_preserving_sampled,
    ref_check_ultra_to_metric,
    ref_check_ultrametric_preserving,
    ref_floor_power_index,
    ref_polyline_check,
    ref_power_map_value,
    ref_prime_shift_value,
    ref_samples_digest,
    ref_spec_value,
    ref_step_check,
    ref_sufficient_conditions,
    ref_tabulated_entries,
    sorted_triple_scan,
)

F = Fraction
PRIMES = (2, 3, 5, 7)

small_fractions = st.fractions(
    min_value=F(0), max_value=F(20), max_denominator=64
)


# ----------------------------------------------------------- evaluation --


def test_piecewise_linear_values():
    f = level_swap_map()
    assert [f(x) for x in (0, F(1, 2), 1, F(3, 2), 2, F(5, 2), 3, 10)] == [
        F(0), F(1), F(2), F(3, 2), F(1), F(2), F(3), F(3),
    ]


def test_zigzag_values():
    f = zigzag_map()
    table = {
        F(0): F(0), F(1, 2): F(1, 2), F(1): F(1), F(3, 2): F(1, 2),
        F(2): F(7, 8), F(3): F(1, 8), F(7, 2): F(1, 2), F(100): F(1, 2),
    }
    for x, y in table.items():
        assert f(x) == y


def test_linear_tail_extends_last_segment():
    f = identity_map()
    assert f(F(41, 7)) == F(41, 7)


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear.from_pairs([(1, 1)])
    with pytest.raises(ValueError):
        PiecewiseLinear.from_pairs([(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        PiecewiseLinear.from_pairs([(0, 0), (1, -1)])
    with pytest.raises(ValueError):
        PiecewiseLinear.from_pairs([(0, 1), (1, 0)], tail="linear")
    with pytest.raises(ValueError):
        PiecewiseLinear.from_pairs([(0, 0), (1, 1)], tail="bogus")


def test_reciprocal_and_canonical():
    r = Reciprocal()
    assert r(0) == 0 and r(F(1, 4)) == 4 and r(8) == F(1, 8)
    c = Canonical()
    assert c(0) == 0 and c(1) == F(1, 2) and c(F(1, 3)) == F(1, 4)


@given(
    x=st.fractions(min_value=F(0), max_denominator=10**9),
    k=st.integers(-MAX_EXPONENT, MAX_EXPONENT),
)
@example(x=F(0), k=MAX_EXPONENT)
@example(x=F(0), k=-MAX_EXPONENT)
def test_canonical_matches_the_fraction_formula(x, k):
    # x, and the power (2**61 - 1)**k, built here: its repr is too long to print
    for point in (x, F(2**61 - 1) ** k):
        value = Canonical()(point)
        assert type(value) is Fraction
        assert value == point / (1 + point)


def test_power_map_interpolates_between_powers():
    f = PowerMap(2, 3)
    assert f(0) == 0
    assert f(4) == 9 and f(F(1, 4)) == F(1, 9)
    assert f(3) == 6
    assert f(12) == 54


def test_prime_shift_values():
    f = PrimeShift(sieve_bound=1000)
    assert f(0) == 0 and f(1) == 1
    assert f(4) == 9        # 2**2 -> 3**2
    assert f(5) == 7        # next prime
    assert f(F(1, 2)) == F(1, 3)
    assert f(9) == 25       # 3**2 -> 5**2
    assert f(6) == 9        # between 5 -> 7 and 7 -> 11


def test_prime_shift_certification_window():
    f = PrimeShift(sieve_bound=1000)
    with pytest.raises(BelowFloorError):
        f(F(1, 997))
    with pytest.raises(TooLargeError):
        f(997)


# a point with more digits than int-to-str writes (4300 by default), and
# its decimal text, built without that conversion
HUGE = 10**4400
HUGE_TEXT = "1" + "0" * 4400


@pytest.mark.parametrize(
    "f, x, error, message",
    [
        (Tabulated.from_mapping({0: 0, 1: 1}), F(1, 3), DomainMissError,
         "1/3 is not a tabulated point"),
        (PrimeShift(12), F(-1, 2), NegativeInputError, "function domain is x >= 0, got -1/2"),
        (PrimeShift(12), F(1, 11), BelowFloorError,
         "1/11 is at or below the evaluation floor 1/11"),
        (PrimeShift(12), F(11), TooLargeError, "11 is at or beyond the certified ceiling 11"),
        (PrimeShift(12), F(21, 2), TooLargeError, "cannot certify the upper neighbour of 21/2"),
        (PrimeShift(12), F(2, 21), BelowFloorError, "cannot certify the lower neighbour of 2/21"),
        (Tabulated.from_mapping({0: 0, 1: 1}), F(HUGE), DomainMissError,
         f"{HUGE_TEXT} is not a tabulated point"),
        (PrimeShift(12), F(-1, HUGE), NegativeInputError,
         f"function domain is x >= 0, got -1/{HUGE_TEXT}"),
        (PrimeShift(12), F(1, HUGE), BelowFloorError,
         f"1/{HUGE_TEXT} is at or below the evaluation floor 1/11"),
        (PrimeShift(12), F(HUGE), TooLargeError,
         f"{HUGE_TEXT} is at or beyond the certified ceiling 11"),
    ],
)
def test_spec_errors_quote_the_point_at_any_size(f, x, error, message):
    # the messages of small points are those str writes; a point past the
    # str limit is written through decimal, so the error raised is the one
    # reported and not a ValueError of its formatting
    with pytest.raises(error) as info:
        f(x)
    assert str(info.value) == message


def test_prime_shift_sieve_bound_cap():
    # the bound is checked at construction, before any sieve is built
    assert PrimeShift(MAX_SIEVE_BOUND).sieve_bound == MAX_SIEVE_BOUND == 10_000_000
    at_cap = {"kind": "prime_shift", "bound": MAX_SIEVE_BOUND}
    assert spec_from_json_dict(at_cap) == PrimeShift(MAX_SIEVE_BOUND)
    with pytest.raises(TooLargeError, match="10000001"):
        PrimeShift(MAX_SIEVE_BOUND + 1)
    with pytest.raises(TooLargeError, match="10000001"):
        spec_from_json_dict({"kind": "prime_shift", "bound": MAX_SIEVE_BOUND + 1})


def test_prime_shift_refuses_a_sieve_bound_below_5():
    # when constructed, so no such spec is serialized or evaluated at 0
    assert PrimeShift(5)(2) == 3
    for bound in (4, 3, 0, -7):
        with pytest.raises(ValueError, match="^sieve bound must be at least 5$"):
            PrimeShift(bound)
        with pytest.raises(ValueError, match="^sieve bound must be at least 5$"):
            spec_from_json_dict({"kind": "prime_shift", "bound": bound})


@pytest.mark.parametrize("bound", [1e6, F(10**6), True, "1000000"])
def test_prime_shift_refuses_a_sieve_bound_that_is_not_an_int(bound):
    # when constructed: a float bound used to build, serialize as a float
    # and fail only inside the sieve at the first evaluation
    with pytest.raises(TypeError, match="^sieve bound must be an int, got "):
        PrimeShift(bound)


DEFAULT_SIEVE_BOUND = PrimeShift().sieve_bound
# below 5000 the Fraction walk of the reference takes milliseconds; past it,
# up to 2 s at the default bound, so only the named points go there
SHIFT_REACH = 5000


def _read_outcome(read):
    try:
        value = read()
    except PadicMetricsError as err:
        return type(err), str(err)
    return type(value), value


@cache  # the named points at the default bound cost the reference ~2 s each
def _ref_prime_shift_outcome(bound, x):
    return _read_outcome(lambda: ref_prime_shift_value(bound, x))


@st.composite
def prime_shift_points(draw):
    bound = draw(st.sampled_from((7, 12, 30, 1000, DEFAULT_SIEVE_BOUND)))
    primes = _primes_to(_sieve(bound), bound)
    last = primes[-1]
    reach = min(2 * last, SHIFT_REACH)
    b = primes[draw(st.integers(0, len(primes) - 1))]
    shape = draw(st.sampled_from(("power", "square", "ratio", "named")))
    if shape == "power":
        x = F(b) ** draw(st.integers(-4, 4))
    elif shape == "square":
        x = F(b * b + draw(st.sampled_from((-1, 1))))
        x = 1 / x if draw(st.booleans()) else x
    elif shape == "ratio":
        x = F(draw(st.integers(1, reach)), draw(st.integers(1, reach)))
    else:
        x = draw(st.sampled_from((
            F(0), F(1), F(1, last), F(last), F(last - 1), F(1, last - 1), F(last + 1, last)
        )))
    if shape != "named":
        assume(max(x, 1 / x) <= reach or not F(1, last) < x < last)
    return bound, x


@settings(max_examples=400, deadline=None)
@given(point=prime_shift_points())
@example(point=(DEFAULT_SIEVE_BOUND, F(999_982)))
@example(point=(DEFAULT_SIEVE_BOUND, F(1, 999_982)))
# at bound 7 the first power 5, next to the last prime 7, is the neighbour
@example(point=(7, F(9, 2)))
@example(point=(7, F(2, 9)))
def test_prime_shift_matches_the_walk_over_every_prime(point):
    bound, x = point
    assert _read_outcome(lambda: PrimeShift(bound)(x)) == _ref_prime_shift_outcome(bound, x)


def test_prime_shift_walks_only_the_primes_up_to_the_root(monkeypatch):
    # pi(isqrt(500001)) = pi(707) = 126; a walk over every prime up to x
    # makes 41 538 p-power searches
    calls = []
    search = functions._floor_power

    def counted(n, d, base):
        calls.append(base)
        return search(n, d, base)

    monkeypatch.setattr(functions, "_floor_power", counted)
    f = PrimeShift()
    for x, value in (
        (F(500_001), F(1_500_071, 3)),
        (F(1, 500_001), F(750_022_999_691, 375_029_250_448_500_783)),
    ):
        calls.clear()
        assert f(x) == value
        assert 0 < len(calls) <= 126, x


def test_sieve_cache_is_bounded():
    # every distinct bound would otherwise keep its flags for good
    cap = _sieve.cache_info().maxsize
    assert cap is not None
    for bound in range(20, 20 + cap + 2):
        assert PrimeShift(bound)(2) == 3
    assert _sieve.cache_info().currsize <= cap


def test_sieve_matches_trial_division():
    def trial_primes(bound):
        return tuple(
            n for n in range(2, bound + 1)
            if all(n % d for d in range(2, int(n**0.5) + 1))
        )

    for bound in range(5, 301):
        assert _primes_to(_sieve(bound), bound) == trial_primes(bound), bound
    # the readers PrimeShift uses, at every n they may be asked about
    for bound in (5, 6, 7, 8, 30, 300):
        flags, primes = _sieve(bound), trial_primes(bound)
        for n in range(2, bound + 1):
            below = tuple(p for p in primes if p <= n)
            assert _primes_to(flags, n) == below
            assert _prime_at_most(flags, n) == below[-1]
            if n < primes[-1]:
                assert _next_prime(flags, n) == primes[len(below)]
    primes = _primes_to(_sieve(10**6), 10**6)
    assert len(primes) == 78_498 and primes[-1] == 999_983


def test_tabulated_lookup_and_misses():
    f = Tabulated.from_mapping({0: 0, 1: 2, 2: 1})
    assert f(1) == 2
    with pytest.raises(DomainMissError):
        f(3)
    with pytest.raises(ValueError):
        Tabulated.from_mapping({1: 1})


def test_step_function_evaluation_and_levels():
    g = StepFunction.from_pairs(F(1, 2), [(1, 1), (2, 3)])
    assert g(0) == 0
    assert g(F(1, 4)) == F(1, 2)
    assert g(1) == 1 and g(F(3, 2)) == 1
    assert g(2) == 3 and g(100) == 3
    assert g.levels() == (F(1, 2), F(1), F(3))
    with pytest.raises(ValueError):
        StepFunction.from_pairs(1, [(2, 1), (1, 1)])


def test_power_step_agrees_on_powers_and_flattens_between():
    f = PowerStep(Reciprocal(), 2)
    assert f(0) == 0
    for m in range(-5, 6):
        assert f(F(2) ** m) == F(2) ** -m
    assert f(3) == f(2) == F(1, 2)


def test_power_step_refuses_an_inner_that_is_not_a_spec():
    # a plain callable has no ratio_at or to_json_dict to read
    for inner in (lambda x: x, Fraction, "canonical", {"kind": "canonical"}):
        with pytest.raises(TypeError, match="power_step needs a function spec inside"):
            PowerStep(inner, 2)


def test_power_step_nesting_is_capped():
    f = Canonical()
    for _ in range(MAX_POWER_STEP_DEPTH):
        f = PowerStep(f, 3)
    assert f(2) == F(1, 2)
    with pytest.raises(TooLargeError):
        PowerStep(f, 3)
    data = {"kind": "power_step", "p": 2, "inner": f.to_json_dict()}
    with pytest.raises(TooLargeError):
        spec_from_json_dict(data)


@st.composite
def power_map_points(draw):
    # exact powers p**m, points just below and just above them, points over
    # powers of p, and plain fractions
    p, q = draw(st.sampled_from(PRIMES)), draw(st.sampled_from(PRIMES))
    power = F(p) ** draw(st.integers(-40, 40))
    x = draw(
        st.one_of(
            st.just(power),
            st.builds(
                lambda k, side: power * (1 + F(side, k)),
                st.integers(2, 10**12),
                st.sampled_from((-1, 1)),
            ),
            st.builds(lambda k, e: F(k, p**e), st.integers(1, 10**9), st.integers(0, 40)),
            st.fractions(min_value=F(0), max_value=F(10**6), max_denominator=10**6),
        )
    )
    return p, q, x


@settings(max_examples=500)
@given(point=power_map_points())
def test_integer_power_path_matches_the_fraction_path(point):
    p, q, x = point
    if x > 0:
        n, d = x.numerator, x.denominator
        assert _floor_power(n, d, p)[0] == ref_floor_power_index(x, p)
        assert _floor_power(3 * n, 3 * d, q)[0] == ref_floor_power_index(x, q)
    value = PowerMap(p, q)(x)
    assert type(value) is Fraction
    assert str(value) == str(ref_power_map_value(p, q, x))


@st.composite
def floor_power_points(draw):
    # an exact power base**m, with |m| up to 40 or next to MAX_EXPONENT and
    # bases up to 61 bits, or a point one off it, as n/d unreduced by a
    # common factor
    base = draw(st.sampled_from((2, 3, 5, 257, 2**31 - 1, 2**61 - 1)))
    near_cap = st.integers(MAX_EXPONENT - 2, MAX_EXPONENT)
    m = draw(st.integers(-40, 40) | near_cap | near_cap.map(lambda e: -e))
    n, d = (base**m, 1) if m >= 0 else (1, base**-m)
    n, d = draw(st.sampled_from(((n, d), (2 * n + 1, 2 * d), (2 * n - 1, 2 * d))))
    factor = draw(st.integers(1, 10**6))
    return base, n * factor, d * factor


@settings(max_examples=300, deadline=None)
@given(point=floor_power_points())
@example(point=(2, 1, 1))
@example(point=(2**61 - 1, (2**61 - 1) ** MAX_EXPONENT * 6, 6))
@example(point=(2**61 - 1, 10, 10 * (2**61 - 1) ** MAX_EXPONENT))
@example(point=(3, 26, 9 * 3**MAX_EXPONENT))
def test_floor_power_matches_the_fraction_powers(point):
    # m is the reference's, and the sides are the two sides of base**m <= n/d
    base, n, d = point
    m, lo, hi = _floor_power(n, d, base)
    assert m == ref_floor_power_index(F(n, d), base)
    assert (lo, hi) == ((base**m * d, n) if m >= 0 else (d, n * base**-m))
    assert lo <= hi


def test_floor_power_index_refuses_nonpositive_input():
    for x in (F(0), F(-3, 2)):
        with pytest.raises(ValueError):
            _floor_power(x.numerator, x.denominator, 3)
        with pytest.raises(ValueError):
            ref_floor_power_index(x, 3)


def test_negative_inputs_rejected():
    for f in (Reciprocal(), Canonical(), level_swap_map()):
        with pytest.raises(NegativeInputError):
            f(F(-1))


# ----------------------------------------------------------------- JSON --


ALL_SPECS = (
    level_swap_map(),
    zigzag_map(),
    identity_map(),
    Reciprocal(),
    Canonical(),
    PowerMap(2, 3),
    PrimeShift(sieve_bound=1000),
    PowerStep(Reciprocal(), 2),
    StepFunction.from_pairs(F(1, 2), [(1, 1), (2, 3)]),
    Tabulated.from_mapping({0: 0, 1: 2, 2: 1}),
)


@pytest.mark.parametrize("f", ALL_SPECS, ids=lambda f: f.kind)
def test_json_roundtrip(f):
    data = f.to_json_dict()
    assert data["kind"] == f.kind
    assert spec_from_json_dict(data) == f


_TABLE_TEXTS = ("0", "0/3", "1/2", "2/4", "1", "3/2", "7", "-1/2", "-3", "1/0", "x", 0.5, True, 2)


@settings(max_examples=300)
@given(
    table=st.lists(
        st.tuples(st.sampled_from(_TABLE_TEXTS), st.sampled_from(_TABLE_TEXTS)), max_size=8
    ),
    order=st.sampled_from(("sorted", "sorted", "as drawn", "reversed")),
)
def test_tabulated_json_gives_the_sorted_parse(table, order):
    # sorted, unsorted and invalid tables: the entries, or the (error type,
    # message), of the parse that sorted every table; repeated keys come
    # first, then a missing key 0, then a negative key or value
    def key(pair):
        try:
            return as_fraction(pair[0])
        except (TypeError, ValueError):
            return F(0)

    if order != "as drawn":
        table = sorted(table, key=key, reverse=order == "reversed")
    want = _ratio_outcome(lambda: ref_tabulated_entries(table))
    got = _ratio_outcome(lambda: spec_from_json_dict({"kind": "tabulated", "table": table}))
    if got[0] == "value":
        got = "value", got[1].entries
        assert Tabulated.from_mapping(dict(table)).entries == got[1]
    assert got == want


def test_spec_json_rejects_garbage():
    with pytest.raises(ValueError):
        spec_from_json_dict({"points": []})
    with pytest.raises(ValueError):
        spec_from_json_dict({"kind": "nope"})
    with pytest.raises(ValueError):
        spec_from_json_dict({"kind": "piecewise_linear", "points": [["0", "0"]]})


# -------------------------------------------------------------- triplets --


@given(a=small_fractions, b=small_fractions, c=small_fractions)
def test_triplet_predicates_are_permutation_invariant(a, b, c):
    perms = [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
    assert len({is_triangle_triplet(*t) for t in perms}) == 1
    assert len({is_strong_triplet(*t) for t in perms}) == 1


@given(a=small_fractions, b=small_fractions, c=small_fractions)
def test_strong_triplets_are_triangle_triplets(a, b, c):
    if is_strong_triplet(a, b, c):
        assert is_triangle_triplet(a, b, c)
    top = sorted((a, b, c))
    assert is_strong_triplet(a, b, c) == (top[1] == top[2])


def test_triplet_predicates_reject_negatives():
    with pytest.raises(NegativeInputError):
        is_triangle_triplet(1, -1, 1)
    with pytest.raises(NegativeInputError):
        is_strong_triplet(F(-1, 2), 1, 1)


# -------------------------------------------------------- sampled checks --


def test_metric_check_passes_identity_and_canonical():
    samples = default_samples(Canonical())
    assert check_metric_preserving_sampled(identity_map(), samples).passed
    assert check_metric_preserving_sampled(Canonical(), samples).passed


def test_metric_check_level_swap_witness():
    verdict = check_metric_preserving_sampled(level_swap_map(), default_samples(level_swap_map()))
    assert not verdict.passed
    w = verdict.witness
    assert w.kind == "triple"
    assert w.points == (F(3, 2), F(2), F(3))
    assert w.images == (F(3, 2), F(1), F(3))
    # the witness re-verifies on its own
    assert is_triangle_triplet(*w.points)
    assert not is_triangle_triplet(*w.images)


def test_metric_check_requires_zero_sample():
    with pytest.raises(ValueError):
        check_metric_preserving_sampled(identity_map(), [1, 2])


def test_amenability_gate():
    shifted = Tabulated.from_mapping({0: 1, 1: 1})
    verdict = check_metric_preserving_sampled(shifted, [0, 1])
    assert not verdict.passed and verdict.witness.kind == "origin"

    collapses = Tabulated.from_mapping({0: 0, 1: 0})
    verdict = check_ultrametric_preserving(collapses, [0, 1])
    assert not verdict.passed and verdict.witness.kind == "vanishes"
    assert verdict.witness.points == (F(1),)


def test_ultra_check_monotone_pass_and_decreasing_fail():
    g = StepFunction.from_pairs(F(1, 2), [(1, 1), (2, 3)])
    assert check_ultrametric_preserving(g, [0, 1, 2, 3]).passed

    verdict = check_ultrametric_preserving(Reciprocal(), [0, 1, 2])
    assert not verdict.passed
    assert verdict.witness.kind == "pair"
    assert verdict.witness.points == (F(1), F(2))
    assert verdict.witness.images == (F(1), F(1, 2))


def test_ultra_check_sees_dips_between_plain_samples():
    # the kink refinement catches a dip that the raw grid {0,1,2,3} misses
    verdict = check_ultrametric_preserving(zigzag_map(), [0, 1, 2, 3])
    assert not verdict.passed
    assert verdict.witness.points == (F(1), F(3, 2))
    assert verdict.witness.images == (F(1), F(1, 2))


def test_ultra_check_level_swap_witness():
    verdict = check_ultrametric_preserving(level_swap_map(), default_samples(level_swap_map()))
    assert not verdict.passed
    assert verdict.witness.points == (F(1), F(3, 2))
    assert verdict.witness.images == (F(2), F(3, 2))


def test_ultra_to_metric_reciprocal_witness():
    verdict = check_ultra_to_metric(Reciprocal(), [0, F(1, 4), 1, 4])
    assert not verdict.passed
    assert verdict.witness.kind == "pair"
    assert verdict.witness.points == (F(1, 4), F(1))
    assert verdict.witness.images == (F(4), F(1))


def test_ultra_to_metric_tolerates_ordered_halving():
    # decreasing is fine as long as no later value drops below half an
    # earlier one: the level swap map stays inside that band
    f = level_swap_map()
    verdict = check_ultra_to_metric(f, default_samples(f))
    assert verdict.passed


@given(
    levels=st.lists(
        st.fractions(min_value=F(1), max_value=F(2), max_denominator=16),
        min_size=1,
        max_size=4,
    )
)
def test_ultra_to_metric_passes_inside_half_band(levels):
    # any positive function with values in [a, 2a] maps strong triplets to
    # triangle triplets, whatever the ordering of the levels
    thresholds = [F(k + 1) for k in range(len(levels))]
    g = StepFunction.from_pairs(levels[0], list(zip(thresholds, levels)))
    samples = [F(0), F(1, 2)] + thresholds + [t + F(1, 2) for t in thresholds]
    assert check_ultra_to_metric(g, samples).passed


@given(
    ys=st.lists(
        st.fractions(min_value=F(0), max_value=F(8), max_denominator=8),
        min_size=1,
        max_size=5,
    ),
    tail=st.sampled_from(("constant", "linear")),
)
def test_two_route_checks_agree_on_random_polylines(ys, tail):
    # both checks run their two internal routes on every call and raise on
    # any disagreement, so this is a pure consistency sweep
    points = [(F(0), F(0))] + [(F(i + 1), y) for i, y in enumerate(ys)]
    if tail == "linear" and points[-1][1] < points[-2][1]:
        tail = "constant"  # a sinking linear tail is rejected by the shape
    f = PiecewiseLinear.from_pairs(points, tail=tail)
    samples = default_samples(f)
    check_ultrametric_preserving(f, samples)
    check_ultra_to_metric(f, samples)
    check_metric_preserving_sampled(f, samples)


TABLE_KEYS = (F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(3), F(4), F(6))
TABLE_VALUES = (F(0), F(1, 2), F(1), F(3, 2), F(2), F(3))


def _outcome(check, f, samples, *scan):
    try:
        return check(f, samples, *scan).to_json_dict()
    except (PadicMetricsError, ValueError) as err:
        return type(err).__name__, str(err)


# the sweep that decides each strong-sample family, with the Fraction
# scans' image test: strong images for check_ultrametric_preserving,
# triangle images for check_ultra_to_metric
STRONG_SWEEPS = (
    (_monotone_witness, is_strong_triplet),
    (_halving_witness, is_triangle_triplet),
)


@settings(max_examples=300)
@given(
    origin=st.sampled_from((F(0), F(0), F(0), F(1))),
    table=st.dictionaries(
        st.sampled_from(TABLE_KEYS), st.sampled_from(TABLE_VALUES), min_size=2
    ),
    drop=st.sets(st.sampled_from((F(0), *TABLE_KEYS)), max_size=2),
    stray=st.sampled_from((None, None, None, F(5, 2))),
)
def test_sorted_scan_matches_ordered_brute_force(origin, table, drop, stray):
    # random tabulations, amenable or not, passing or failing: every check
    # gives the verdict, samples hash and witness of its definition over
    # the ordered brute-force scan, or the same error for a sample set
    # without 0 or with an untabulated point, and so does its definition
    # over the sorted scan
    f = Tabulated.from_mapping({F(0): origin, **table})
    xs = [k for k, _ in f.entries if k not in drop]
    samples = xs if stray is None else [*xs, stray]
    for check, ref in (
        (check_metric_preserving_sampled, ref_check_metric_preserving_sampled),
        (check_ultrametric_preserving, ref_check_ultrametric_preserving),
        (check_ultra_to_metric, ref_check_ultra_to_metric),
    ):
        want = _outcome(ref, f, samples, brute_triple_scan)
        assert _outcome(check, f, samples) == want
        assert _outcome(ref, f, samples, sorted_triple_scan) == want
    # the ultrametric verdicts report the sweep's witness, so compare the
    # scans' own witnesses too: on amenable images the sweep finds a pair
    # exactly when the strong-sample scans find a triple
    den, keys = _sample_keys(xs)
    images = [f.ratio_at(k, den) for k in keys]
    want = brute_triple_scan(f, xs, is_triangle_triplet, is_triangle_triplet)
    assert sorted_triple_scan(f, xs, is_triangle_triplet, is_triangle_triplet) == want
    assert _first_bad_triple(den, keys, images) == want
    amenable = amenability_witness(f, xs) is None
    for sweep, image_ok in STRONG_SWEEPS:
        want = brute_triple_scan(f, xs, is_strong_triplet, image_ok)
        assert sorted_triple_scan(f, xs, is_strong_triplet, image_ok) == want
        if amenable:
            assert (sweep(den, keys, images) is None) == (want is None)


@st.composite
def scan_inputs(draw):
    # up to 40 distinct keys over den, with integer or rational images that
    # tie often; a flat image row passes every family, so one image redrawn
    # at one of the first two or the last two keys puts the failure, if
    # any, in the first or the last rows of the scan
    den = draw(st.sampled_from((1, 2, 3, 8)))
    keys = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=40)))
    ratios = st.tuples(st.integers(0, 12), st.sampled_from((1, 1, 2, 3)))
    if draw(st.booleans()):
        images = draw(st.lists(ratios, min_size=len(keys), max_size=len(keys)))
    else:
        images = [draw(ratios)] * len(keys)
        images[draw(st.sampled_from((0, 1, -2, -1))) % len(keys)] = draw(ratios)
    return den, keys, images


@settings(max_examples=400, deadline=None)
@given(scan=scan_inputs())
def test_scan_families_match_the_sorted_scan(scan):
    # the triangle scan gives the witness of the sorted Fraction scan,
    # passing or failing; on strong samples the sweep that decides each
    # check finds a pair exactly when the sorted scan finds a triple, on
    # every drawn input that passes the amenability gate
    den, keys, images = scan
    xs = [F(k, den) for k in keys]
    fs = dict(zip(xs, (F(*y) for y in images)))
    want = sorted_triple_scan(fs.__getitem__, xs, is_triangle_triplet, is_triangle_triplet)
    assert _first_bad_triple(den, keys, images) == want
    if all((k == 0) == (n == 0) for k, (n, _) in zip(keys, images)):
        for sweep, image_ok in STRONG_SWEEPS:
            want = sorted_triple_scan(fs.__getitem__, xs, is_strong_triplet, image_ok)
            assert (sweep(den, keys, images) is None) == (want is None)


slopes = st.fractions(min_value=F(0), max_value=F(3), max_denominator=4)
steps = st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4)
levels = st.sampled_from((F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(3), F(4)))


@st.composite
def piecewise_linear_specs(draw, concave: bool):
    # concave: falling nonnegative slopes; otherwise arbitrary ordinates
    points = [(F(0), F(0))]
    rises = sorted(draw(st.lists(slopes, min_size=1, max_size=4)), reverse=True)
    for rise in rises:
        x, y = points[-1]
        dx = draw(steps)
        points.append((x + dx, y + rise * dx if concave else draw(levels)))
    tail = draw(st.sampled_from(("constant", "linear")))
    if tail == "linear" and points[-1][1] < points[-2][1]:
        tail = "constant"  # a sinking linear tail is rejected by the shape
    return PiecewiseLinear.from_pairs(points, tail=tail)


@st.composite
def step_specs(draw):
    thresholds = sorted(draw(st.sets(steps, max_size=4)))
    return StepFunction.from_pairs(draw(levels), [(t, draw(levels)) for t in thresholds])


sampled_specs = st.one_of(
    st.just(Canonical()),
    st.builds(PowerMap, st.sampled_from(PRIMES), st.sampled_from(PRIMES)),
    piecewise_linear_specs(concave=True),
    piecewise_linear_specs(concave=False),
    step_specs(),
    # a small sieve, so that samples fall below its floor and beyond it
    st.builds(PrimeShift, st.sampled_from((7, 12, 30))),
)


@settings(max_examples=400, deadline=None)
@given(
    f=sampled_specs,
    xs=st.lists(
        st.one_of(
            st.fractions(min_value=F(0), max_value=F(12), max_denominator=8),
            st.sampled_from((F(1, 40), F(1, 9), F(31), F(40))),
            # pairwise coprime denominators up to 2^61 - 1, so that the
            # common denominator of the samples is huge
            st.sampled_from(COPRIME_DENOMINATORS).flatmap(
                lambda d: st.builds(F, st.integers(0, 12 * d), st.just(d))
            ),
        ),
        min_size=3,
        max_size=12,
    ),
    origin=st.sampled_from((True, True, True, False)),
)
def test_sampled_checks_match_the_sorted_scan(f, xs, origin):
    # every public sampled check gives the verdict, witness and error of its
    # definition, with f called afresh at every read and the triplet checks
    # over the sorted Fraction scan
    samples = [F(0), *xs] if origin else xs
    pairs = list(zip(samples, reversed(samples)))
    for check, ref, arg in (
        (check_metric_preserving_sampled, ref_check_metric_preserving_sampled, samples),
        (check_ultrametric_preserving, ref_check_ultrametric_preserving, samples),
        (check_ultra_to_metric, ref_check_ultra_to_metric, samples),
        (sufficient_conditions, ref_sufficient_conditions, samples),
        (check_euclid_preserving_sampled, ref_check_euclid_preserving_sampled, pairs),
    ):
        assert _outcome(check, f, arg) == _outcome(ref, f, arg)


class _Counting(FunctionSpec):
    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def _value(self, x):
        self.calls.append(x)
        return self.inner(x)


@dataclass(frozen=True)
class _CountingPolyline(PiecewiseLinear):
    calls: list = field(default_factory=list, compare=False)

    def ratio_at(self, k, den):
        self.calls.append(F(k, den))
        return super().ratio_at(k, den)


def test_sampled_checks_call_f_once_per_point():
    xs = sorted({F(0), *default_samples(Canonical()), F(5, 3), F(7)})
    for check in (
        check_metric_preserving_sampled,
        check_ultrametric_preserving,
        check_ultra_to_metric,
    ):
        f = _Counting(Canonical())
        assert check(f, reversed(xs)).passed
        assert f.calls == xs

    f = _Counting(Canonical())
    assert sufficient_conditions(f, xs).subadditive_on_samples
    sums = [x for i, a in enumerate(xs) for b in xs[i:] for x in (a + b, a, b)]
    assert f.calls == list(dict.fromkeys([*xs[1:], xs[0], *sums]))

    # a convex polyline is not subadditive: f(1/8 + 1) > f(1/8) + f(1), so the
    # scan stops at that pair. Before it, the secants read f(0) through the
    # wrapper, and the slopes of the polyline itself read nothing.
    convex = [(0, 0), (1, F(1, 2)), (2, 2)]
    ordered_pairs = [(a, b) for i, a in enumerate(xs) for b in xs[i:]]
    first_bad = ordered_pairs.index((F(1, 8), F(1)))
    sums = [x for a, b in ordered_pairs[: first_bad + 1] for x in (a + b, a, b)]
    for make, concavity_reads in (
        (lambda: _Counting(PiecewiseLinear.from_pairs(convex, "linear")), [xs[0]]),
        (lambda: _CountingPolyline.from_pairs(convex, "linear"), []),
    ):
        f, g = make(), make()
        report = sufficient_conditions(f, xs)
        assert report == ref_sufficient_conditions(g, xs)
        assert not report.subadditive_on_samples
        assert f.calls == list(dict.fromkeys(g.calls))
        assert f.calls == list(dict.fromkeys([*xs[1:], *concavity_reads, *sums]))

    f = _Counting(Canonical())
    pairs = pairs_from_grid(F(1, 4), 3)
    assert check_euclid_preserving_sampled(f, pairs).passed
    assert f.calls == list(dict.fromkeys(x for a, b in pairs for x in (a, b, a + b)))

    f = _Counting(Canonical())
    assert check_euclid_preserving_grid(f, F(1, 4), 3).passed
    assert f.calls == list(dict.fromkeys(x for a, b in pairs for x in (a, b, a + b)))

    # the zigzag map fails at (3/4, 23/8), pair 392 of 2145 on its grid; the
    # grid route reads f up to that pair and no further
    f = _Counting(zigzag_map())
    pairs = pairs_from_grid(F(1, 8), 8)
    read = pairs[: pairs.index((F(3, 4), F(23, 8))) + 1]
    assert not check_euclid_preserving_grid(f, F(1, 8), 8).passed
    assert f.calls == list(dict.fromkeys(x for a, b in read for x in (a, b, a + b)))


# --------------------------------------------------------- integer images --


def _ratio_outcome(read):
    try:
        return "value", read()
    except (PadicMetricsError, TypeError, ValueError) as err:
        return type(err).__name__, str(err)


def _assert_ratio_at_matches_the_call(f, k, den):
    # ratio_at(k, den) is the Fraction reference's f(k/den) as a rational
    # with a positive denominator, and the call f(k/den) is it as a
    # Fraction; or both raise the reference's (error type, message)
    want = _ratio_outcome(lambda: ref_spec_value(f, F(k, den)))
    got = _ratio_outcome(lambda: f.ratio_at(k, den))
    called = _ratio_outcome(lambda: f(F(k, den)))
    if want[0] == "value":
        assert got[0] == called[0] == "value", (got, called, want)
        num, d = got[1]
        assert type(num) is int and type(d) is int and d > 0
        assert F(num, d) == want[1]
        assert type(called[1]) is Fraction and called[1] == want[1]
    else:
        assert got == called == want


@st.composite
def ratio_keys(draw, points=()):
    # (k, den) with den > 0: a point of interest over a multiple of its
    # denominator, or one step off it, or any k, negative ones included
    if points and draw(st.booleans()):
        x = as_fraction(draw(st.sampled_from(points)))
        scale = draw(st.integers(1, 4))
        k = x.numerator * scale + draw(st.sampled_from((0, 0, -1, 1)))
        return k, x.denominator * scale
    return draw(st.integers(-3, 80)), draw(st.integers(1, 12))


@given(key=ratio_keys((0, 1)))
def test_canonical_ratio_at_matches_the_call(key):
    _assert_ratio_at_matches_the_call(Canonical(), *key)


@given(key=ratio_keys((0, 1)))
def test_reciprocal_ratio_at_matches_the_call(key):
    _assert_ratio_at_matches_the_call(Reciprocal(), *key)


@given(
    p=st.sampled_from(PRIMES),
    q=st.sampled_from(PRIMES),
    key=ratio_keys(tuple(F(p) ** m for p in PRIMES for m in range(-3, 4))),
)
def test_power_map_ratio_at_matches_the_call(p, q, key):
    _assert_ratio_at_matches_the_call(PowerMap(p, q), *key)


@given(f=st.one_of(piecewise_linear_specs(True), piecewise_linear_specs(False)), data=st.data())
def test_piecewise_linear_ratio_at_matches_the_call(f, data):
    key = data.draw(ratio_keys(tuple(x for x, _ in f.points)))
    _assert_ratio_at_matches_the_call(f, *key)


@given(f=step_specs(), data=st.data())
def test_step_ratio_at_matches_the_call(f, data):
    key = data.draw(ratio_keys((0, *(t for t, _ in f.points))))
    _assert_ratio_at_matches_the_call(f, *key)


@given(
    f=st.one_of(piecewise_linear_specs(True), piecewise_linear_specs(False), step_specs()),
    k=st.integers(0, 10**9),
    den=st.integers(1, 10**9),
    factor=st.integers(1, 10**6),
)
def test_kink_tables_read_unreduced_points(f, k, den, factor):
    # one table over the kinks' own denominator serves every k/den
    _assert_ratio_at_matches_the_call(f, k * factor, den * factor)


@pytest.mark.parametrize("p", (2, 3, 257, 2**61 - 1))
def test_kink_tables_read_along_a_power_window(p):
    # kinks at powers of p inside -40..40, read at every p**k of -48..48,
    # reduced and unreduced, and one step off each power: every negative
    # exponent is a new denominator
    kinks = [F(p) ** k for k in (-40, -17, -3, 0, 5, 31)]
    specs = [
        PiecewiseLinear(((F(0), F(0)), *((x, F(i + 1, 3)) for i, x in enumerate(kinks))), tail)
        for tail in ("constant", "linear")
    ]
    specs.append(StepFunction(F(1, 5), tuple((x, F(i + 1, 7)) for i, x in enumerate(kinks))))
    for f in specs:
        for k in range(-48, 49):
            n, d = (p**k, 1) if k >= 0 else (1, p**-k)
            for key in ((n, d), (6 * n, 6 * d), (2 * n - 1, 2 * d), (2 * n + 1, 2 * d)):
                _assert_ratio_at_matches_the_call(f, *key)


def _prime_shift_edges(bound):
    # the floor 1/p_last and the ceiling p_last, their neighbours, and powers
    last = _primes_to(_sieve(bound), bound)[-1]
    edges = (F(1, last), F(last), F(1, last - 1), F(last - 1), F(last + 1, last))
    return (0, 1, *edges, *(F(b) ** e for b in (2, 3, 5) for e in (-2, -1, 2)))


@given(bound=st.sampled_from((7, 12, 30, 1000)), data=st.data())
def test_prime_shift_ratio_at_matches_the_call(bound, data):
    key = data.draw(ratio_keys(_prime_shift_edges(bound)))
    _assert_ratio_at_matches_the_call(PrimeShift(bound), *key)


@given(
    bound=st.sampled_from((7, 12, 30)),
    p=st.sampled_from(PRIMES),
    layers=st.integers(1, 2),
    data=st.data(),
)
def test_power_step_ratio_at_matches_the_call(bound, p, layers, data):
    # over PrimeShift, so that powers of p fall below its floor and beyond
    # its ceiling, and over a polyline read at powers of p
    inner = data.draw(st.sampled_from((PrimeShift(bound), level_swap_map())))
    f = inner
    for _ in range(layers):
        f = PowerStep(f, p)
    points = (*_prime_shift_edges(bound), *(F(p) ** m for m in range(-4, 5)))
    _assert_ratio_at_matches_the_call(f, *data.draw(ratio_keys(points)))


@given(
    table=st.dictionaries(st.sampled_from(TABLE_KEYS), st.sampled_from(TABLE_VALUES)),
    data=st.data(),
)
def test_tabulated_ratio_at_matches_the_call(table, data):
    # keys in the table and next to it, so misses are read too
    f = Tabulated.from_mapping({F(0): F(0), **table})
    _assert_ratio_at_matches_the_call(f, *data.draw(ratio_keys((0, *TABLE_KEYS))))


class _FloatHalves(FunctionSpec):
    def _value(self, x):
        return float(x) / 2


@given(key=ratio_keys((0, F(1, 2), 1)))
def test_custom_float_spec_ratio_at_raises_type_error(key):
    k, den = key
    f = _FloatHalves()
    got = _ratio_outcome(lambda: f.ratio_at(k, den))
    if k < 0:
        assert got == _ratio_outcome(lambda: f(F(k, den)))
    else:
        image = float(F(k, den)) / 2
        assert got == ("TypeError", f"exact rationals only: got the float {image!r}")


def test_float_images_are_refused_by_every_sampled_check():
    # at the first image read: f(0) for the gated checks and the pair scan,
    # the least positive sample for sufficient_conditions
    samples = [F(0), F(1, 2), F(1), F(2)]
    for check, first in (
        (check_metric_preserving_sampled, 0.0),
        (check_ultrametric_preserving, 0.0),
        (check_ultra_to_metric, 0.0),
        (sufficient_conditions, 0.25),
        (lambda f, xs: check_euclid_preserving_grid(f, F(1, 2), 2), 0.0),
    ):
        with pytest.raises(TypeError) as raised:
            check(_FloatHalves(), samples)
        assert str(raised.value) == f"exact rationals only: got the float {first!r}"


@pytest.mark.parametrize(
    "cls, args, bad",
    [
        (Tabulated, (((F(0), 0.0),),), 0.0),
        (Tabulated, (((F(0), F(0)), (True, F(1))),), True),
        (PiecewiseLinear, (((F(0), 0.0), (F(1), 0.5)),), 0.0),
        (PiecewiseLinear, (((F(0), F(0)), (1.0, F(1))), "linear"), 1.0),
        (StepFunction, (0.5, ((F(1), 1.5),)), 0.5),
        (StepFunction, (True, ((F(1), F(1)),)), True),
        (StepFunction, (F(1), ((F(1), F(3, 2)), (F(2), 2.5))), 2.5),
        (Tabulated, (((F(0), "1"),),), "1"),
        (Tabulated, (((F(0), F(0)), ("1/2", F(1))),), "1/2"),
        (PiecewiseLinear, (((F(0), F(0)), (F(1), "1")),), "1"),
        (StepFunction, ("1/2", ((F(1), F(1)),)), "1/2"),
        (StepFunction, (F(1), ((F(1), F(1)), (F(2), 2.5), ("3", F(3)))), 2.5),
    ],
)
def test_spec_constructors_refuse_float_and_bool_fields(cls, args, bad):
    # with the TypeError of as_fraction, before any other check of the
    # fields; a str field is refused the same way, the first in reading order
    with pytest.raises(TypeError) as raised:
        cls(*args)
    assert str(raised.value) == f"exact rationals only: got the {type(bad).__name__} {bad!r}"


# Field values for the constructor checks: ints and Fractions, equal values
# of both types, negatives, and twins 2**-70 apart.
_field_values = st.sampled_from(
    (0, F(0), 1, F(1), -1, F(-1, 3), F(1, 3), F(1, 3) + F(1, 2**70), 2, F(5, 2), 10**20)
)
_field_points = st.lists(st.tuples(_field_values, _field_values), max_size=5).map(tuple)


def _field_error(build, *args):
    try:
        build(*args)
    except ValueError as err:
        return str(err)
    return None


@settings(max_examples=500)
@given(below=_field_values, points=_field_points)
@example(below=-1, points=((0, -1), (0, 1)))
@example(below=0, points=((F(1, 3) + F(1, 2**70), 1), (F(1, 3), -1)))
@example(below=0, points=((1, 2), (1, -1)))
def test_step_checks_give_the_fraction_comparisons_errors(below, points):
    # the same ValueError, or none, as Fraction comparisons of the fields
    assert _field_error(StepFunction, below, points) == _field_error(
        ref_step_check, below, points
    )


@settings(max_examples=500)
@given(points=_field_points, tail=st.sampled_from(("constant", "linear", "cubic")))
@example(points=((F(0), 1), (10**20, 0)), tail="linear")
@example(points=((0, -1), (0, 1)), tail="cubic")
@example(points=((0, 1), (F(1, 3), F(1, 3) + F(1, 2**70)), (1, F(1, 3))), tail="linear")
def test_polyline_checks_give_the_fraction_comparisons_errors(points, tail):
    assert _field_error(PiecewiseLinear, points, tail) == _field_error(
        ref_polyline_check, points, tail
    )


# Int fields are exact, so every slope and midpoint built from them must be
# a Fraction: a true division of two ints is a rounded float.


def test_int_polyline_refuses_a_tail_whose_slope_rounds_to_zero():
    # the slope -1/10**400 is -0.0 as a float, and the tail would go negative
    with pytest.raises(ValueError, match="decreasing linear tail"):
        PiecewiseLinear(((0, 1), (10**400, 0)), "linear")
    with pytest.raises(ValueError, match="decreasing linear tail"):
        PiecewiseLinear.from_pairs(((0, 1), (10**400, 0)), "linear")


def test_int_polyline_concavity_compares_exact_slopes():
    # the slopes 10**17 and 10**17 + 1 are one float
    f = PiecewiseLinear(((0, 0), (1, 10**17), (2, 2 * 10**17 + 1)))
    assert f.segment_slopes() == (10**17, 10**17 + 1)
    assert not sufficient_conditions(f, [0, 1, 2]).concave


def test_int_step_kinks_refine_the_ultrametric_check():
    # the kink 1/2 below the first threshold is a Fraction, not 0.5
    verdict = check_ultrametric_preserving(StepFunction(2, ((1, 1),)), [0, 1, 2])
    assert verdict.to_json_dict()["witness"] == {
        "kind": "pair",
        "points": ["1/2", "1"],
        "images": ["2", "1"],
    }


@pytest.mark.parametrize(
    "f",
    [PiecewiseLinear(((0, 0), (1, 2), (3, 3))), StepFunction(1, ((1, 2), (3, 3)))],
    ids=("piecewise_linear", "step"),
)
def test_default_samples_of_int_fields_are_exact(f):
    xs = default_samples(f)
    assert not any(isinstance(x, float) for x in xs)
    assert F(1, 2) in xs and F(2) in xs
    twin = spec_from_json_dict(f.to_json_dict())
    assert xs == default_samples(twin)
    assert check_metric_preserving_sampled(f, xs) == check_metric_preserving_sampled(twin, xs)


def _no_call(cls):
    # cls with a __call__ that fails the test but its own ratio_at, so a
    # check that evaluates f other than through ratio_at is caught
    def refuse(self, x):
        pytest.fail(f"a check called f({x!r}) instead of reading f.ratio_at")

    return type(f"NoCall{cls.__name__}", (cls,), {"__call__": refuse, "ratio_at": cls.ratio_at})


def _check_outcome(check, f):
    # the JSON and whether it passed, or the error type and message
    try:
        out = check(f)
    except PadicMetricsError as err:
        return (type(err).__name__, str(err)), False
    passed = getattr(out, "passed", getattr(out, "subadditive_on_samples", True))
    return out.to_json_dict(), passed


def test_no_check_calls_f_other_than_through_ratio_at():
    samples = [F(k, 4) for k in range(13)]
    chain = SpaceFamily((comb_space([F(1), F(2), F(3)]),))
    checks = (
        lambda f: check_metric_preserving_sampled(f, samples),
        lambda f: check_ultrametric_preserving(f, samples),
        lambda f: check_ultra_to_metric(f, samples),
        lambda f: sufficient_conditions(f, samples),
        lambda f: check_euclid_preserving_sampled(f, pairs_from_grid(F(1, 4), 3)),
        lambda f: check_euclid_preserving_grid(f, F(1, 4), 3),
        lambda f: check_p_metric_preserving(f, 2),
        lambda f: check_p_ultrametric_preserving(f, 2),
        lambda f: extend_to_ultrametric_preserving(f, 2),
        lambda f: check_family_preserving(f, four_point_family()),
        lambda f: build_extension(f, chain),
    )
    specs = (
        (Canonical, ()),
        (StepFunction, (F(1), ((F(1), F(2)), (F(3), F(3))))),
        (StepFunction, (F(3), ((F(1), F(1)),))),
        (PiecewiseLinear, (((F(0), F(0)), (F(1), F(1, 2)), (F(2), F(2))), "linear")),
        (PiecewiseLinear, (((F(0), F(0)), (F(1), F(2)), (F(2), F(1))),)),
        (Tabulated, (tuple((x, min(x, F(1))) for x in samples),)),
        (Reciprocal, ()),
        (PowerMap, (2, 3)),
        # the inner spec is guarded too, so a layer that calls it is caught
        (PowerStep, (_no_call(Canonical)(), 2)),
        (PrimeShift, (30,)),
    )
    for check in checks:
        verdicts = set()
        for cls, args in specs:
            guarded = _check_outcome(check, _no_call(cls)(*args))
            assert guarded == _check_outcome(check, cls(*args))
            verdicts.add(guarded[1])
        assert verdicts == {True, False}


def test_subclasses_that_redefine_a_read_get_the_default_ratio_at():
    class Plain(Canonical):
        pass

    class Own(Canonical):
        def _value(self, x):
            return x

        def ratio_at(self, k, den):
            return k, k + den

    class Halved(PiecewiseLinear):
        def _value(self, x):
            return x / 2

    assert Plain.ratio_at is Canonical.ratio_at
    assert Own.__dict__["ratio_at"] is not FunctionSpec.ratio_at
    for cls in (_Counting, _Drawn, Halved):
        assert cls.ratio_at is FunctionSpec.ratio_at
    # the polyline's own pair is passed over for the value Halved defines
    f = Halved.from_pairs([(0, 0), (1, 1)])
    assert f.ratio_at(3, 2) == (3, 4) and f(F(3, 2)) == F(3, 4)


_TRIPLET_CHECKS = (
    check_metric_preserving_sampled,
    check_ultrametric_preserving,
    check_ultra_to_metric,
)


@settings(max_examples=200, deadline=None)
@given(
    f=st.one_of(
        sampled_specs,
        st.builds(
            lambda table: Tabulated.from_mapping({F(0): F(0), **table}),
            st.dictionaries(
                st.sampled_from(TABLE_KEYS), st.sampled_from(TABLE_VALUES), min_size=2
            ),
        ),
    ),
    data=st.data(),
)
def test_witness_images_are_fractions_of_f_at_the_witness_points(f, data):
    # every witness image is a Fraction, built from the image pair, that
    # equals f at its witness point: f(0) for an origin witness
    if isinstance(f, Tabulated):
        xs = [k for k, _ in f.entries]
    else:
        xs = data.draw(st.lists(st.sampled_from(TABLE_KEYS), min_size=2, max_size=8))
    samples = [F(0), *xs]
    witnesses = []
    for check in _TRIPLET_CHECKS:
        try:
            witnesses.append(check(f, samples).witness)
        except (PadicMetricsError, ValueError):
            pass
    for run in (
        lambda: check_euclid_preserving_sampled(f, list(zip(samples, reversed(samples)))),
        lambda: check_euclid_preserving_grid(f, F(1, 4), 3),
    ):
        try:
            witnesses.append(run().witness)
        except (PadicMetricsError, ValueError):
            pass
    for w in witnesses:
        if w is None:
            continue
        assert all(type(y) is Fraction for y in w.images)
        if w.kind == "vanishes":
            assert w.images == (F(0),) and f(w.points[0]) == 0
        else:
            assert w.images == tuple(f(x) for x in w.points)


# ------------------------------------------------------------ euclid grid --


def test_euclid_check_passes_identity():
    pairs = pairs_from_grid(F(1, 2), 4)
    assert check_euclid_preserving_sampled(identity_map(), pairs).passed


def test_euclid_check_zigzag_grid_witness():
    # the zigzag map fails the pair-sum check on its own grid; this pins
    # the least failing pair so the behaviour cannot drift silently
    pairs = pairs_from_grid(F(1, 8), 8)
    verdict = check_euclid_preserving_sampled(zigzag_map(), pairs)
    assert not verdict.passed
    w = verdict.witness
    assert w.points == (F(3, 4), F(23, 8), F(29, 8))
    assert w.images == (F(3, 4), F(7, 32), F(1, 2))
    assert not is_triangle_triplet(*w.images)


def test_pairs_from_grid_counts_and_validation():
    pairs = pairs_from_grid(1, 3)
    assert len(pairs) == 10  # 4 grid points, unordered pairs with repeats
    assert (F(0), F(0)) in pairs and (F(3), F(3)) in pairs
    with pytest.raises(ValueError):
        pairs_from_grid(0, 3)
    with pytest.raises(ValueError):
        pairs_from_grid(2, 1)


def test_pairs_from_grid_is_capped():
    # the point count is read from step and stop before any list is built,
    # so the refused grids below cost nothing
    assert _grid(1, MAX_GRID_POINTS - 1) == (F(1), MAX_GRID_POINTS)
    assert _grid(F(1, 1024), 1) == (F(1, 1024), MAX_GRID_POINTS)
    assert _grid(F(1, 1024), F(1025, 1024) - F(1, 10**6)) == (F(1, 1024), MAX_GRID_POINTS)
    with pytest.raises(TooLargeError, match="1026 points"):
        pairs_from_grid(1, MAX_GRID_POINTS)
    with pytest.raises(TooLargeError, match="1026 points"):
        pairs_from_grid(F(1, 1024), F(1025, 1024))
    with pytest.raises(TooLargeError):
        pairs_from_grid(F(1, 100000), 8)


# entries with denominators 1, 3, 6 and 8, as Fractions, "a/b" strings or ints
_entry_values = st.builds(F, st.integers(0, 24), st.sampled_from((1, 3, 6, 8)))


def _forms(x):
    # x as a Fraction, as an "a/b" string, or as an int when it is whole
    whole = x.numerator if x.denominator == 1 else x
    return st.sampled_from((x, f"{x.numerator}/{x.denominator}", whole))


_euclid_entries = _entry_values.flatmap(_forms)


class _Drawn(FunctionSpec):
    # images from a cycle of drawn levels, keyed by the point's numerator and
    # denominator, with per-point overrides; an override None is a domain miss
    def __init__(self, levels, overrides):
        self.levels = levels
        self.overrides = overrides

    def _value(self, x):
        key = (x.numerator + x.denominator) % len(self.levels)
        y = self.overrides.get(x, self.levels[key])
        if y is None:
            raise DomainMissError(f"no image at {x}")
        return y


def _euclid_outcome(check, f, pairs):
    # as _outcome, and a float entry is refused with TypeError
    try:
        return check(f, pairs).to_json_dict()
    except (PadicMetricsError, TypeError) as err:
        return type(err).__name__, str(err)


@settings(max_examples=300, deadline=None)
@given(
    base=st.lists(st.tuples(_euclid_entries, _euclid_entries), min_size=1, max_size=12),
    levels=st.lists(
        st.sampled_from((0, 1, 2, 3, F(1, 2), F(3, 2), F(5, 3), F(7, 8))),
        min_size=1,
        max_size=5,
    ),
    trap=st.sampled_from((None, None, "negative b", "negative b, miss a+b", "miss a+b")),
    float_pair=st.sampled_from((None,) * 7 + ((0.5, 1), (F(1), 0.25))),
    data=st.data(),
)
def test_euclid_grid_check_matches_the_fraction_scan(base, levels, trap, float_pair, data):
    # independent pairs, repeated and swapped, in any order; the integer
    # route must give the JSON, or the error type and message, of the
    # Fraction scan that calls f afresh at every read
    pairs = list(base)
    for a, b in data.draw(st.lists(st.sampled_from(base), max_size=4)):
        pairs.append(data.draw(st.sampled_from(((a, b), (b, a)))))
    pairs = data.draw(st.permutations(pairs))
    overrides = {F(0): 0}
    if trap is not None:
        a, b = map(as_fraction, data.draw(st.sampled_from(pairs)))
        if "negative" in trap:
            overrides[b] = data.draw(st.sampled_from((-1, F(-1, 2))))
        if "miss" in trap:
            overrides[a + b] = None
    if float_pair is not None:
        pairs.insert(len(pairs) // 2, float_pair)
    f = _Drawn(levels, overrides)
    want = _euclid_outcome(ref_check_euclid_preserving_sampled, f, pairs)
    assert _euclid_outcome(check_euclid_preserving_sampled, f, pairs) == want
    if float_pair is not None:
        assert want[0] == "TypeError"


_grid_steps = st.sampled_from(
    (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 8), F(1), F(3, 2))
)


@st.composite
def _grid_bounds(draw):
    # (step, stop) as arguments, and step as a Fraction: grids whose stop is
    # a grid point or lies past the last one, stop == step among them, and
    # the refused cases: step <= 0, stop < step, "1/0" and a grid over the cap
    case = draw(st.sampled_from(("grid",) * 8 + ("step <= 0", "stop < step", "1/0", "cap")))
    step = draw(st.sampled_from((F(0), F(-1, 2))) if case == "step <= 0" else _grid_steps)
    gaps = {"grid": draw(st.integers(1, 14)), "stop < step": 0, "cap": MAX_GRID_POINTS}
    stop = step * (gaps.get(case, 2) + draw(st.sampled_from((0, 0, F(1, 2), F(6, 7)))))
    step_arg = "1/0" if case == "1/0" else draw(_forms(step))
    return step_arg, draw(_forms(stop)), step


@settings(max_examples=300, deadline=None)
@given(
    bounds=_grid_bounds(),
    shape=st.one_of(
        piecewise_linear_specs(concave=True),
        piecewise_linear_specs(concave=False),
        step_specs(),
        st.just(None),
    ),
    levels=st.lists(
        st.sampled_from((0, 1, 2, 3, F(1, 2), F(3, 2), F(7, 8))), min_size=1, max_size=5
    ),
    trap=st.sampled_from((None, None, None, "miss", "float", "negative")),
    data=st.data(),
)
def test_euclid_grid_route_matches_the_pair_list(bounds, shape, levels, trap, data):
    # the grid route gives the JSON, or the error type and message, the pair
    # count and the reads of f of the pair route over pairs_from_grid
    step, stop, fraction_step = bounds
    f = shape
    if f is None:
        overrides = {F(0): 0}
        if trap is not None:
            x = fraction_step * data.draw(st.integers(1, 30))
            overrides[x] = {"miss": None, "float": 0.5, "negative": F(-1, 2)}[trap]
        f = _Drawn(levels, overrides)

    def by_grid(g):
        count = _grid(step, stop)[1]
        return check_euclid_preserving_grid(g, step, stop), count * (count + 1) // 2

    def by_pairs(g):
        pairs = pairs_from_grid(step, stop)
        return check_euclid_preserving_sampled(g, pairs), len(pairs)

    outcomes = []
    for route in (by_grid, by_pairs):
        g = _Counting(f)
        try:
            verdict, pair_count = route(g)
            outcomes.append((verdict.to_json_dict(), pair_count, g.calls))
        except (PadicMetricsError, TypeError, ValueError) as err:
            outcomes.append((type(err).__name__, str(err), g.calls))
    assert outcomes[0] == outcomes[1]


def test_euclid_grid_route_allocates_per_point_not_per_pair():
    # 513 points and 131841 pairs: the peak traced allocation stays under
    # 1 MB, where the pair list of the pair route alone takes about 36 MB
    tracemalloc.start()
    try:
        verdict = check_euclid_preserving_grid(Canonical(), F(1, 64), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.to_json_dict() == {
        "passed": True,
        "samples_hash": "d9bf1b3f0e1e55f4",
        "witness": None,
    }
    assert peak < 1_000_000


# ------------------------------------------------- sufficient conditions --


def test_sufficient_conditions_canonical():
    f = Canonical()
    report = sufficient_conditions(f, default_samples(f))
    assert not report.band
    assert report.concave
    assert report.subadditive_on_samples


def test_sufficient_conditions_reciprocal():
    f = Reciprocal()
    report = sufficient_conditions(f, default_samples(f))
    assert not report.band
    assert not report.concave
    assert report.subadditive_on_samples


def test_sufficient_conditions_banded_step():
    g = StepFunction.from_pairs(F(3, 2), [(1, 1), (2, 2)])
    report = sufficient_conditions(g, default_samples(g))
    assert report.band


def test_default_samples_cover_shape_features():
    f = level_swap_map()
    xs = default_samples(f)
    assert F(0) in xs
    assert all(bp in xs for bp in (F(0), F(1), F(2), F(3)))
    assert F(3, 2) in xs

    g = StepFunction.from_pairs(F(1, 2), [(1, 1), (2, 3)])
    ys = default_samples(g)
    assert F(1, 2) in ys and F(4) in ys

    zs = default_samples(Reciprocal())
    assert F(0) in zs and len(zs) >= 5


def test_samples_digest_is_order_insensitive():
    a = samples_digest([F(1), F(2), F(1, 2)])
    b = samples_digest([F(2), F(1, 2), F(1), F(1)])
    assert a == b
    assert len(a) == 16
    assert a != samples_digest([F(1), F(2)])
    assert samples_digest([F(2), F(1, 2), F(0), F(5, 3), F(1), F(2)]) == "ac837beb71453ebd"


@given(xs=st.lists(small_fractions, max_size=12), data=st.data())
def test_digest_of_a_canonical_list_matches_samples_digest(xs, data):
    noisy = data.draw(st.permutations(xs + xs[: len(xs) // 2]))
    assert samples_digest(noisy) == ref_samples_digest(xs)


@pytest.mark.parametrize(
    "samples", [["0", "1/3", "1/2"], [0, "1/2"], [F(0), 2, "4/2", "1/3", F(1, 3)]]
)
def test_samples_digest_is_the_samples_hash_of_every_check(samples):
    # the samples are read as the checks read them: coerced first, so strs
    # and ints hash as the Fractions they stand for
    f = Canonical()
    want = samples_digest(samples)
    for check in (
        check_metric_preserving_sampled,
        check_ultrametric_preserving,
        check_ultra_to_metric,
    ):
        assert check(f, samples).samples_hash == want
    pairs = list(zip(samples, samples))
    assert check_euclid_preserving_sampled(f, pairs).samples_hash == want
    assert samples_digest(["0", "1/3", "1/2"]) == "ee6d3d19e8b8368c"


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (0.5, TypeError, "^exact rationals only: got the float 0.5$"),
        (True, TypeError, "^exact rationals only: got the bool True$"),
        ("-1/2", NegativeInputError, "^samples must be nonnegative$"),
    ],
)
def test_samples_digest_refuses_what_the_checks_refuse(bad, error, message):
    for read in (samples_digest, lambda xs: check_ultra_to_metric(Canonical(), xs)):
        with pytest.raises(error, match=message):
            read([0, bad])


def test_sampled_checks_refuse_more_samples_than_the_cap_before_reading_f():
    # distinct samples are counted, before the ultrametric check adds kinks
    at_cap = [F(k, 1024) for k in range(MAX_GRID_POINTS)]
    over = [*at_cap, F(2)]
    f = _Counting(Canonical())
    for check, arg in (
        (check_metric_preserving_sampled, over),
        (check_ultrametric_preserving, over),
        (check_ultra_to_metric, over),
        (sufficient_conditions, over),
        (check_euclid_preserving_sampled, list(zip(over, reversed(over)))),
    ):
        with pytest.raises(TooLargeError, match="^1026 distinct samples, over the 1025 accepted$"):
            check(f, arg)
    assert f.calls == []
    # the pair route counts distinct values, not distinct entry objects
    assert check_euclid_preserving_sampled(Canonical(), [(x, str(x)) for x in at_cap]).passed
    assert samples_digest(at_cap + at_cap) == ref_samples_digest(at_cap)
    with pytest.raises(TooLargeError):
        samples_digest(over)
    assert len(_sample_keys(at_cap, [F(3), F(5)])[1]) == MAX_GRID_POINTS + 2
