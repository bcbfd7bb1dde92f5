"""Power-window checks, witness triples, and the step extension."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicmetrics import (
    BadOrderError,
    Canonical,
    ExponentWindow,
    FunctionSpec,
    NotPreservingError,
    NotPrimeError,
    PadicMetricsError,
    PiecewiseLinear,
    PowerMap,
    PowerStep,
    Reciprocal,
    StepFunction,
    Tabulated,
    TooLargeError,
    check_p_metric_preserving,
    check_p_ultrametric_preserving,
    check_ultra_to_metric,
    check_ultrametric_preserving,
    closed_form_note,
    extend_to_ultrametric_preserving,
    padic_distance,
    parse_window,
    witness_triple,
)
from padicmetrics.fixtures import identity_map, zigzag_map
from padicmetrics.padic_preserving import (
    DEFAULT_WINDOW,
    MAX_EXPONENT,
    MAX_WINDOW_EXPONENTS,
)
from support import (
    brute_check_p_metric_preserving,
    ref_check_p_ultrametric_preserving,
    ref_extend_to_ultrametric_preserving,
    ref_floor_power_index,
    ref_witness_triple,
)

F = Fraction


# ---------------------------------------------------------------- window --


def test_window_validation_and_parsing():
    with pytest.raises(ValueError):
        ExponentWindow(3, 1)
    assert parse_window("-16:16") == DEFAULT_WINDOW
    assert parse_window("0:4") == ExponentWindow(0, 4)
    for bad in ("4", "a:b", "5:1", ""):
        with pytest.raises(ValueError):
            parse_window(bad)


def test_window_cap_by_construction_only():
    # the cap itself and one exponent over it; no check runs on either
    for lo, hi in ((-512, 512), (-1024, 0)):
        w = ExponentWindow(lo, hi)
        assert w.hi - w.lo + 1 == MAX_WINDOW_EXPONENTS == 1025
    for lo, hi in ((-513, 512), (-512, 513), (-1024, 1)):
        with pytest.raises(TooLargeError):
            ExponentWindow(lo, hi)
    with pytest.raises(TooLargeError):
        parse_window("-513:512")


def test_exponent_magnitude_cap():
    # narrow windows and witness triples at the cap build; one over is
    # refused before any power of p is built
    assert MAX_EXPONENT == 1024
    for lo, hi in ((-1024, -1024), (1024, 1024), (-1024, -1000), (1000, 1024)):
        assert ExponentWindow(lo, hi).to_json_dict() == {"lo": lo, "hi": hi}
    for lo, hi in ((-1025, -1025), (1025, 1025), (-1025, -1000), (1000, 1025), (3072, 4096)):
        with pytest.raises(TooLargeError):
            ExponentWindow(lo, hi)
    with pytest.raises(TooLargeError):
        parse_window("1000:1025")
    p = 2**61 - 1
    x, y, z = witness_triple(p, 1024, -1024)
    assert padic_distance(x, y, p) == F(p) ** -1024
    assert padic_distance(x, z, p) == F(p) ** 1024
    for m, n in ((1025, 0), (0, -1025), (300000, 0)):
        with pytest.raises(TooLargeError):
            witness_triple(3, m, n)


def test_window_json_shape():
    assert ExponentWindow(-2, 3).to_json_dict() == {"lo": -2, "hi": 3}


# -------------------------------------------------------- witness triples --


def test_witness_triple_spot_values():
    assert witness_triple(3, 0, -1) == (F(3), F(-3), F(1))
    assert witness_triple(2, 0, -1) == (F(1), F(-1), F(0))
    x, y, z = witness_triple(5, 2, 0)
    assert padic_distance(x, z, 5) == 25
    assert padic_distance(z, y, 5) == 25
    assert padic_distance(x, y, 5) == 1


def test_witness_triple_realizes_the_claimed_distances():
    for p in (2, 3):
        for n in range(-3, 3):
            for m in range(n + 1, 4):
                x, y, z = witness_triple(p, m, n)
                assert padic_distance(x, z, p) == F(p) ** m
                assert padic_distance(z, y, p) == F(p) ** m
                assert padic_distance(x, y, p) == F(p) ** n


@st.composite
def _witness_exponents(draw):
    # (p, m, n) with n < m, anywhere in the exponent caps
    n = draw(st.integers(-MAX_EXPONENT, MAX_EXPONENT - 1))
    m = draw(st.one_of(st.integers(n + 1, min(n + 4, MAX_EXPONENT)),
                       st.integers(n + 1, MAX_EXPONENT)))
    return draw(st.sampled_from((2, 3))), m, n


@settings(max_examples=200, deadline=None)
@given(case=_witness_exponents())
@example(case=(2, 1, 0))
@example(case=(2, MAX_EXPONENT, -MAX_EXPONENT))
@example(case=(3, MAX_EXPONENT, -MAX_EXPONENT))
@example(case=(2, -MAX_EXPONENT + 1, -MAX_EXPONENT))
@example(case=(2**61 - 1, 7, -300))
def test_witness_triple_matches_the_fraction_powers(case):
    assert witness_triple(*case) == ref_witness_triple(*case)


def test_witness_triple_rejects_bad_order():
    with pytest.raises(BadOrderError):
        witness_triple(3, 0, 0)
    with pytest.raises(BadOrderError):
        witness_triple(3, -1, 2)


# ------------------------------------------------------------ band check --


def test_band_check_reciprocal_witness():
    verdict = check_p_metric_preserving(Reciprocal(), 2)
    assert not verdict.passed
    assert verdict.reason == "band"
    w = verdict.witness
    assert (w.m, w.n) == (-2, 0)
    assert w.triple == (F(2), F(-2), F(1))
    assert w.images == (F(1), F(1), F(4))


def test_band_check_passes_identity_and_prime_swap():
    assert check_p_metric_preserving(identity_map(), 2).passed
    assert check_p_metric_preserving(PowerMap(2, 3), 2).passed


def test_band_check_zigzag_three_adic():
    verdict = check_p_metric_preserving(zigzag_map(), 3, ExponentWindow(-2, 2))
    assert not verdict.passed
    w = verdict.witness
    assert (w.m, w.n) == (0, 1)
    assert w.triple == (F(1), F(-1), F(1, 3))
    assert w.images == (F(1, 8), F(1, 8), F(1))


def test_band_check_tied_rank_reaches_m_zero():
    # f(2**k) = 2, 3, 1, 1/2 on [0, 3]: the break at n = 2 gives (1, 2) of
    # rank 3; the break at n = 3 has |n| equal to that rank and gives
    # (0, 3), also of rank 3 and less on m, so it is the witness
    f = StepFunction(F(2), ((F(1), F(2)), (F(2), F(3)), (F(4), F(1)), (F(8), F(1, 2))))
    verdict = check_p_metric_preserving(f, 2, ExponentWindow(0, 3))
    w = verdict.witness
    assert (w.m, w.n) == (0, 3)
    assert w.triple == (F(1, 2), F(-1, 2), F(1, 8))
    assert w.images == (F(1, 2), F(1, 2), F(2))


def test_band_check_window_dependence():
    # no pair in [0,1] is far enough apart for the reciprocal to fail
    assert check_p_metric_preserving(Reciprocal(), 2, ExponentWindow(0, 1)).passed
    assert not check_p_metric_preserving(Reciprocal(), 2, ExponentWindow(-2, 2)).passed
    assert check_p_metric_preserving(zigzag_map(), 3, ExponentWindow(-1, 0)).passed


LEVELS = (F(1), F(4), F(1, 2), F(2), F(3), F(1), F(0))


@dataclass(frozen=True)
class IntegerLevels(FunctionSpec):
    """f(0) = 0 and f(x) = levels[m % len(levels)] for p**m <= x < p**(m+1), as ints."""

    p: int
    levels: tuple[int, ...]

    def _value(self, x):
        if x == 0:
            return 0
        return self.levels[ref_floor_power_index(x, self.p) % len(self.levels)]


@st.composite
def window_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 257)))
    shape = draw(st.sampled_from(("straddle", "above", "below", "single", "edges")))
    if shape == "single":
        lo = hi = draw(st.integers(-20, 20) | st.sampled_from((-512, 512)))
    elif shape == "straddle":
        lo, hi = draw(st.integers(-20, -1)), draw(st.integers(0, 20))
    elif shape == "edges":
        # windows reaching -512 or 512, the ends of the widest window
        lo, hi = draw(st.sampled_from(((-512, -490), (490, 512), (-512, -500), (500, 512))))
    else:
        side = st.integers(1, 20) if shape == "above" else st.integers(-20, -1)
        lo, hi = sorted(draw(st.lists(side, min_size=2, max_size=2, unique=True)))
    window = ExponentWindow(lo, hi)
    kinds = ("step",) * 4 + ("canonical", "reciprocal", "power_map", "piecewise", "integer")
    kind = draw(st.sampled_from(kinds))
    # thresholds in or next to the window, so both verdicts occur
    exps = st.integers(lo - 2, hi + 2)
    level = st.sampled_from(LEVELS)
    if kind == "step":
        ks = sorted(draw(st.sets(exps, min_size=1, max_size=5)))
        f = StepFunction(draw(level), tuple((F(p) ** k, draw(level)) for k in ks))
    elif kind == "piecewise":
        ks = sorted(draw(st.sets(exps, min_size=1, max_size=5)))
        # mostly through the origin, so the sweeps run
        ys = [draw(st.sampled_from((F(0),) * 3 + (F(1),)))] + [draw(level) for _ in ks]
        pts = ((F(0), ys[0]),) + tuple((F(p) ** k, y) for k, y in zip(ks, ys[1:]))
        tail = "linear" if ys[-1] >= ys[-2] and draw(st.booleans()) else "constant"
        f = PiecewiseLinear(pts, tail)
    elif kind == "power_map":
        f = PowerMap(draw(st.sampled_from((2, 3, 5))), draw(st.sampled_from((2, 3, 5))))
    elif kind == "integer":
        levels = st.lists(st.sampled_from((0, 1, 2, 3, 5, 8)), min_size=1, max_size=4)
        f = IntegerLevels(draw(st.sampled_from((2, 3))), tuple(draw(levels)))
    else:
        f = Canonical() if kind == "canonical" else Reciprocal()
    return p, f, window


def _band_outcome(check, f, p, window):
    try:
        return check(f, p, window).to_json_dict()
    except PadicMetricsError as err:
        return type(err).__name__, str(err)


def _extension_outcome(f, extend, p, window):
    try:
        g = extend(f, p, window)
    except PadicMetricsError as err:
        return type(err).__name__, str(err)
    return g, g.to_json_dict()


@settings(max_examples=400)
@given(case=window_cases())
def test_band_sweep_matches_the_sorted_pair_scan(case):
    # and the adjacent walk and the extension match their Fraction references
    p, f, window = case
    assert _band_outcome(check_p_metric_preserving, f, p, window) == _band_outcome(
        brute_check_p_metric_preserving, f, p, window
    )
    assert _band_outcome(check_p_ultrametric_preserving, f, p, window) == _band_outcome(
        ref_check_p_ultrametric_preserving, f, p, window
    )
    assert _extension_outcome(f, extend_to_ultrametric_preserving, p, window) == (
        _extension_outcome(f, ref_extend_to_ultrametric_preserving, p, window)
    )


@pytest.mark.parametrize(
    "f",
    [PowerMap(3, 5), Reciprocal(), IntegerLevels(3, (4,)), IntegerLevels(3, (1, 2, 3))],
    ids=["power_map", "reciprocal", "constant_int", "cycling_int"],
)
def test_widest_window_matches_the_fraction_references(f):
    # the band reference sorts ~w**2/2 pairs, too slow at w = 1025; the
    # band sweep meets the ends +-512 in the random cases above
    window = ExponentWindow(-512, 512)
    assert _band_outcome(check_p_ultrametric_preserving, f, 3, window) == _band_outcome(
        ref_check_p_ultrametric_preserving, f, 3, window
    )
    assert _extension_outcome(f, extend_to_ultrametric_preserving, 3, window) == (
        _extension_outcome(f, ref_extend_to_ultrametric_preserving, 3, window)
    )


@pytest.mark.parametrize(
    "p, band_triple, adjacent_triple",
    [
        (2, (F(1, 2), F(-1, 2), F(1, 2**510)), (F(1, 2**510), F(-1, 2**510), F(0))),
        (3, (F(1), F(-1), F(1, 3**510)), (F(1, 3**509), F(-1, 3**509), F(1, 3**510))),
    ],
)
def test_widest_window_late_witness(p, band_triple, adjacent_triple):
    # f(p**k) is 3 below k = 510 and 1 from there on: every pair m < n with
    # n >= 510 breaks the band, the least being (0, 510); the one drop is
    # at (509, 510); the band reference is too slow here to compare with
    f = StepFunction(F(3), ((F(p) ** 510, F(1)),))
    window = ExponentWindow(-512, 512)
    for check, pair, triple in (
        (check_p_metric_preserving, (0, 510), band_triple),
        (check_p_ultrametric_preserving, (509, 510), adjacent_triple),
    ):
        verdict = check(f, p, window)
        assert not verdict.passed
        w = verdict.witness
        assert (w.m, w.n) == pair
        assert w.triple == triple
        assert w.images == (F(1), F(1), F(3))
        x, y, z = w.triple
        assert padic_distance(x, z, p) == padic_distance(z, y, p) == F(p) ** w.n
        assert padic_distance(x, y, p) == F(p) ** w.m


@settings(max_examples=300, deadline=None)
@given(case=window_cases().filter(lambda case: case[2].hi - case[2].lo < 33))
def test_window_checks_match_the_sampled_checks_on_powers(case):
    # f o d_p is an ultrametric (a metric) on Q_p exactly when f(0) = 0 and
    # f preserves ultrametrics (carries them to metrics) on {0} u {p**k};
    # on a window that is the sampled check of PowerStep(f, p) on its powers
    p, f, window = case
    samples = [F(0)] + [F(p) ** k for k in range(window.lo, window.hi + 1)]
    g = PowerStep(f, p)
    origin = f(F(0)) == 0
    assert check_p_ultrametric_preserving(f, p, window).passed == (
        origin and check_ultrametric_preserving(g, samples).passed
    )
    assert check_p_metric_preserving(f, p, window).passed == (
        origin and check_ultra_to_metric(g, samples).passed
    )


def test_window_checks_refuse_float_images():
    class Halves(FunctionSpec):
        def _value(self, x):
            return 0 if x == 0 else float(x) / 2

    for check in (check_p_metric_preserving, check_p_ultrametric_preserving):
        with pytest.raises(TypeError, match="exact rationals only"):
            check(Halves(), 2, ExponentWindow(-2, 2))


def test_shared_gate_origin_and_vanishes():
    small = ExponentWindow(0, 1)
    shifted = Tabulated.from_mapping({0: 1, 1: 1, 2: 1})
    verdict = check_p_metric_preserving(shifted, 2, small)
    assert not verdict.passed and verdict.witness.kind == "origin"

    collapsing = Tabulated.from_mapping({0: 0, 1: 0, 2: 1})
    verdict = check_p_ultrametric_preserving(collapsing, 2, small)
    assert not verdict.passed
    assert verdict.witness.kind == "vanishes"
    assert verdict.witness.m == 0


# -------------------------------------------------------- adjacent check --


def test_adjacent_check_reciprocal_witness():
    verdict = check_p_ultrametric_preserving(Reciprocal(), 2)
    assert not verdict.passed
    assert verdict.reason == "adjacent"
    w = verdict.witness
    assert (w.m, w.n) == (0, 1)
    assert w.triple == (F(1, 2), F(-1, 2), F(0))
    assert w.images == (F(1, 2), F(1, 2), F(1))


def test_adjacent_check_passes_increasing_shapes():
    assert check_p_ultrametric_preserving(PowerMap(2, 3), 2).passed
    assert check_p_ultrametric_preserving(identity_map(), 5).passed


# ------------------------------------------------------------- psi / step --


@given(
    k=st.integers(min_value=-12, max_value=12),
    p=st.sampled_from((2, 3)),
    num=st.integers(min_value=1, max_value=600),
    den=st.integers(min_value=1, max_value=600),
)
def test_power_step_agreement(k, p, num, den):
    f = Canonical()
    psi = PowerStep(f, p)
    # exact agreement on every power of p, hence on every p-adic distance
    assert psi(F(p) ** k) == f(F(p) ** k)
    x = F(num, den)
    assert psi(x) == f(F(p) ** ref_floor_power_index(x, p))
    assert psi(0) == 0


def test_extension_contract_for_prime_swap():
    window = ExponentWindow(-4, 4)
    g = extend_to_ultrametric_preserving(PowerMap(2, 3), 2, window)
    assert isinstance(g, StepFunction)
    assert g(0) == 0
    for k in range(-4, 5):
        assert g(F(2) ** k) == F(3) ** k
    assert g(3) == 3  # constant on [2, 4)
    assert g(F(1, 64)) == F(3) ** -4  # clamped below the window
    levels = g.levels()
    assert all(a <= b for a, b in zip(levels, levels[1:]))
    assert check_p_ultrametric_preserving(g, 2, window).passed
    assert check_p_ultrametric_preserving(g, 2, ExponentWindow(-8, 8)).passed


def test_extension_requires_a_preserving_input():
    with pytest.raises(
        NotPreservingError,
        match=r"^f is not 2-adic ultrametric preserving on \[-2, 2\]: adjacent$",
    ):
        extend_to_ultrametric_preserving(Reciprocal(), 2, ExponentWindow(-2, 2))


def test_extension_calls_f_once_per_power():
    window = ExponentWindow(-4, 4)
    calls = []

    class Counting(FunctionSpec):
        def _value(self, x):
            calls.append(x)
            return PowerMap(2, 3)(x)

    g = extend_to_ultrametric_preserving(Counting(), 2, window)
    assert calls == [F(2) ** k for k in range(-4, 5)] + [0]
    assert g == extend_to_ultrametric_preserving(PowerMap(2, 3), 2, window)


@pytest.mark.parametrize(
    "p, lo, hi",
    [(2, -40, 40), (3, -30, -3), (257, 5, 37), (2**61 - 1, -20, 20), (3, 7, 7)],
)
def test_window_checks_read_each_power_once_in_order(p, lo, hi):
    # both checks read f at (p**k, 1) or (1, p**-k) for k = lo..hi, once
    # each and in that order, and then at the origin
    class Counting(FunctionSpec):
        def __init__(self):
            self.reads = []

        def ratio_at(self, k, den):
            self.reads.append((k, den))
            return PowerMap(3, 5).ratio_at(k, den)

    want = [(p**k, 1) if k >= 0 else (1, p**-k) for k in range(lo, hi + 1)] + [(0, 1)]
    for check in (check_p_metric_preserving, check_p_ultrametric_preserving):
        f = Counting()
        check(f, p, ExponentWindow(lo, hi))
        assert f.reads == want


# ------------------------------------------------------------- factories --


def test_factories_and_note():
    with pytest.raises(NotPrimeError):
        PowerMap(4, 3)
    assert closed_form_note(PowerMap(2, 3)) is not None
    assert closed_form_note(Reciprocal()) is None
