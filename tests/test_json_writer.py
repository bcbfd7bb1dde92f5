"""The one JSON writer, ``padic._Record``, on every class that uses it as is.

Each row is a result or spec and its ``to_json_dict()``, written out by
hand. They are compared as the command line prints them (``json.dumps``
with sorted keys), so a rational written as a number, or a bool as an int,
fails. Rationals held as ints, as a matrix or a spec built from ints holds
them, are written as strings like every other rational.
"""

import json
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from padicmetrics import (
    Canonical,
    DistanceMatrixCandidate,
    ExponentWindow,
    FunctionSpec,
    PowerMap,
    PowerStep,
    PreservationVerdict,
    Reciprocal,
    SpaceFamily,
    StepFunction,
    SufficientConditions,
    Tabulated,
    TripletVerdict,
    Witness,
    check_family_preserving,
    check_metric_preserving_sampled,
    check_p_ultrametric_preserving,
    digit_window,
    validate_ultrametric,
)
from padicmetrics.families import OrderWitness, PreservationReport
from padicmetrics.fixtures import FixtureResult
from padicmetrics.padic import _json_value
from padicmetrics.padic_preserving import WindowWitness

# a valid space and a strong-triangle failure, both built from int entries
INT_SPACE = validate_ultrametric(
    DistanceMatrixCandidate(("a", "b", "c"), ((0, 2, 2), (2, 0, 1), (2, 1, 0)))
)
INT_SPACE_JSON = {
    "points": ["a", "b", "c"],
    "d": [["0", "2", "2"], ["2", "0", "1"], ["2", "1", "0"]],
}
INT_VIOLATION = DistanceMatrixCandidate(("a", "b", "c"), ((0, 2, 1), (2, 0, 1), (1, 1, 0)))
SWAP = Tabulated.from_mapping({0: 0, 1: 2, 2: 1})

CASES = {
    "witness": (
        lambda: Witness("triple", (F(1, 2), 1, F(3, 2)), (F(1), F(1, 3), 2)),
        {"kind": "triple", "points": ["1/2", "1", "3/2"], "images": ["1", "1/3", "2"]},
    ),
    "triplet_verdict": (
        lambda: check_metric_preserving_sampled(Reciprocal(), [0, 1, 2, 3]),
        {
            "passed": False,
            "samples_hash": "84deff01f1994516",
            "witness": {"kind": "triple", "points": ["1", "2", "3"], "images": ["1", "1/2", "1/3"]},
        },
    ),
    "triplet_verdict_passed": (
        lambda: TripletVerdict(True, "0123456789abcdef"),
        {"passed": True, "samples_hash": "0123456789abcdef", "witness": None},
    ),
    "sufficient_conditions": (
        lambda: SufficientConditions(True, False, True),
        {"band": True, "concave": False, "subadditive_on_samples": True},
    ),
    "exponent_window": (lambda: ExponentWindow(-2, 3), {"lo": -2, "hi": 3}),
    "preservation_verdict": (
        lambda: check_p_ultrametric_preserving(Reciprocal(), 2, ExponentWindow(-1, 1)),
        {
            "passed": False,
            "window": {"lo": -1, "hi": 1},
            "reason": "adjacent",
            "witness": {
                "m": 0,
                "n": 1,
                "triple": ["1/2", "-1/2", "0"],
                "images": ["1/2", "1/2", "1"],
            },
        },
    ),
    "preservation_verdict_origin": (
        lambda: PreservationVerdict(
            False, ExponentWindow(0, 0), "origin", WindowWitness("origin", images=(1,))
        ),
        {
            "passed": False,
            "window": {"lo": 0, "hi": 0},
            "reason": "origin",
            "witness": {"point": "0", "value": "1"},
        },
    ),
    "digit_window": (
        lambda: digit_window(F(17, 6), 3, 2),
        {"p": 3, "low": -1, "digits": [1, 1, 2, 1]},
    ),
    "triangle_violation": (
        lambda: validate_ultrametric(INT_VIOLATION),
        {"i": 0, "j": 1, "k": 2, "sides": ["2", "1", "1"]},
    ),
    "space_family": (lambda: SpaceFamily((INT_SPACE,)), {"spaces": [INT_SPACE_JSON]}),
    "order_witness": (
        lambda: check_family_preserving(SWAP, SpaceFamily((INT_SPACE,))).order_witness,
        {"kind": "pair", "points": ["1", "2"], "values": ["2", "1"]},
    ),
    "preservation_report": (
        lambda: check_family_preserving(SWAP, SpaceFamily((INT_SPACE,))),
        {
            "passed": False,
            "space_witness": {"space": 0, "kind": "strong_triangle", "triple": [1, 2, 0]},
            "order_witness": {"kind": "pair", "points": ["1", "2"], "values": ["2", "1"]},
        },
    ),
    "preservation_report_passed": (
        lambda: check_family_preserving(Canonical(), SpaceFamily((INT_SPACE,))),
        {"passed": True, "space_witness": None, "order_witness": None},
    ),
    "fixture_result": (
        lambda: FixtureResult("name", True, "detail"),
        {"name": "name", "passed": True, "detail": "detail"},
    ),
    "reciprocal": (Reciprocal, {"kind": "reciprocal"}),
    "canonical": (Canonical, {"kind": "canonical"}),
    "power_map": (lambda: PowerMap(2, 3), {"kind": "power_map", "p": 2, "q": 3}),
    "power_step": (
        lambda: PowerStep(PowerStep(PowerMap(2, 3), 5), 3),
        {
            "kind": "power_step",
            "p": 3,
            "inner": {"kind": "power_step", "p": 5, "inner": {"kind": "power_map", "p": 2, "q": 3}},
        },
    ),
    "step": (
        lambda: StepFunction(2, ((1, 1), (F(5, 2), F(3, 4)))),
        {"kind": "step", "below": "2", "points": [["1", "1"], ["5/2", "3/4"]]},
    ),
    "step_without_thresholds": (
        lambda: StepFunction(F(1, 3)),
        {"kind": "step", "below": "1/3", "points": []},
    ),
}


def _printed(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("make, want", CASES.values(), ids=list(CASES))
def test_to_json_dict_writes_every_field(make, want):
    assert _printed(make().to_json_dict()) == _printed(want)


def test_every_record_class_is_in_the_table():
    classes = {type(make()) for make, _ in CASES.values()}
    assert classes >= {
        Witness,
        TripletVerdict,
        SufficientConditions,
        ExponentWindow,
        PreservationVerdict,
        type(digit_window(1, 2, 0)),
        type(validate_ultrametric(INT_VIOLATION)),
        SpaceFamily,
        OrderWitness,
        PreservationReport,
        FixtureResult,
        Reciprocal,
        Canonical,
        PowerMap,
        PowerStep,
        StepFunction,
    }


def test_a_custom_dataclass_spec_writes_its_kind_and_fields():
    @dataclass(frozen=True)
    class Scaled(FunctionSpec):
        factor: F
        shift: int

        kind = "scaled"

        def _value(self, x):
            return self.factor * x + self.shift

    assert Scaled(F(3), 1).to_json_dict() == {"kind": "scaled", "factor": "3", "shift": 1}
    assert Scaled(2, 1).to_json_dict() == {"kind": "scaled", "factor": "2", "shift": 1}


def test_a_custom_spec_that_is_no_dataclass_has_no_json():
    class Doubled(FunctionSpec):
        def _value(self, x):
            return 2 * x

    assert Doubled()(3) == 6
    with pytest.raises(TypeError):
        Doubled().to_json_dict()


class _Half(F):
    """A Fraction subclass: written as is, like any object of no known type."""


HUGE = 10**5000  # past the 4300 digits str writes by default
HUGE_TEXT = "1" + "0" * 5000
TRIPLE = Witness("triple", (1, 2, 3), (1, 2, 3))
TRIPLE_JSON = {"kind": "triple", "points": ["1", "2", "3"], "images": ["1", "2", "3"]}
# each tuple, and what it is written as in a plain field and in a field
# whose annotation names Fraction, where an int is a rational
ODD_TUPLES = {
    "empty": ((), [], []),
    "fractions": ((F(1, 2), F(-3), F(7, 9)), ["1/2", "-3", "7/9"], ["1/2", "-3", "7/9"]),
    "ints": ((0, -4, 12), [0, -4, 12], ["0", "-4", "12"]),
    "mixed": ((F(1, 2), 3, F(4)), ["1/2", 3, "4"], ["1/2", "3", "4"]),
    "huge_int": ((1, HUGE), [1, HUGE], ["1", HUGE_TEXT]),
    "huge_fraction": (
        (F(HUGE, 7), F(1, 3)), [HUGE_TEXT + "/7", "1/3"], [HUGE_TEXT + "/7", "1/3"]
    ),
    "bools": ((True, 1, False), [True, 1, False], [True, "1", False]),
    "subclass": ((F(1, 2), _Half(1, 2)), ["1/2", _Half(1, 2)], ["1/2", _Half(1, 2)]),
    "strings_and_none": (("a", None, F(1)), ["a", None, "1"], ["a", None, "1"]),
    "rows": (
        ((F(1), F(1, 2)), (2, F(3, 4))),
        [["1", "1/2"], [2, "3/4"]],
        [["1", "1/2"], ["2", "3/4"]],
    ),
    "huge_rows": (
        ((F(1), HUGE), (2, F(3, 4))),
        [["1", HUGE], [2, "3/4"]],
        [["1", HUGE_TEXT], ["2", "3/4"]],
    ),
    "uneven_rows": (((F(1), F(1, 2)), (F(3),)), [["1", "1/2"], ["3"]], [["1", "1/2"], ["3"]]),
    "empty_rows": (((), ()), [[], []], [[], []]),
    "int_rows": (((1, 2), (3, 4)), [[1, 2], [3, 4]], [["1", "2"], ["3", "4"]]),
    "rows_and_records": (
        ((F(1), 2), TRIPLE), [["1", 2], TRIPLE_JSON], [["1", "2"], TRIPLE_JSON]
    ),
    "nested_rows": (
        (((F(1),), (F(2),)), ((F(3),), (F(4),))),
        [[["1"], ["2"]], [["3"], ["4"]]],
        [[["1"], ["2"]], [["3"], ["4"]]],
    ),
}


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("case", ODD_TUPLES.values(), ids=list(ODD_TUPLES))
def test_one_pass_tuples_write_what_element_by_element_writes(case, rational):
    # every tuple is written element by element: bools stay bools, a
    # subclass stays itself, and past the digit limit an integer is still
    # written through decimal
    def typed(x):
        return [typed(y) for y in x] if type(x) is list else (type(x), x)

    value, plain, as_rational = case
    got = _json_value(value, rational)
    assert typed(got) == typed(as_rational if rational else plain)
