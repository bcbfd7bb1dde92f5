"""Command line surface: golden payloads, exit codes, determinism."""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

import padicmetrics
from padicmetrics import (
    Canonical,
    EquivalenceBreachError,
    ExponentWindow,
    SelfCheckError,
    cli,
    families,
    fixtures,
    extend_to_ultrametric_preserving,
    witness_triple,
)
from padicmetrics.cli import main
from padicmetrics.fixtures import four_point_space, legs_three_space

ZIGZAG = json.dumps(
    {
        "kind": "piecewise_linear",
        "points": [["0", "0"], ["1", "1"], ["3/2", "1/2"], ["2", "7/8"],
                   ["3", "1/8"], ["7/2", "1/2"]],
        "tail": {"constant": "1/2"},
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture()
def space_file(tmp_path):
    path = tmp_path / "four.json"
    path.write_text(json.dumps(four_point_space().to_json_dict()))
    return str(path)


@pytest.fixture()
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"spaces": [four_point_space().to_json_dict()]}))
    return str(path)


@pytest.fixture()
def chain_file(tmp_path):
    rows = [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"spaces": [{"points": ["a", "b", "c"], "d": rows}]}))
    return str(path)


# ----------------------------------------------------------------- golden --

# One call per verb with its exact stdout and exit code, and the flags the
# verb cannot run without. "{space}", "{legs}", "{family}" and "{chain}"
# stand for the files the test writes.
VERB_GOLDENS = json.loads((Path(__file__).parent / "cli_goldens.json").read_text())


@pytest.fixture()
def golden_paths(space_file, family_file, chain_file, tmp_path):
    legs = tmp_path / "legs.json"
    legs.write_text(json.dumps(legs_three_space().to_json_dict()))
    return {"{space}": space_file, "{legs}": str(legs), "{family}": family_file,
            "{chain}": chain_file}


@pytest.mark.parametrize("case", VERB_GOLDENS, ids=lambda case: case["verb"])
def test_verb_golden(capsys, golden_paths, case):
    def argv(leave_out=None):
        flags = [f for f in case["flags"] if f.split("=")[0] != leave_out]
        for key, path in golden_paths.items():
            flags = [f.replace(key, path) for f in flags]
        return [*case["verb"].split(), *flags]

    assert run(capsys, *argv()) == (case["code"], case["stdout"])
    for flag in case["required"]:
        assert main(argv(leave_out=flag)) == 2
        assert f"the following arguments are required: {flag}\n" in capsys.readouterr().err


def test_every_verb_has_a_golden(capsys):
    def choices(*argv):
        code, out = run(capsys, *argv, "--help")
        assert code == 0
        return re.search(r"\{([^}]*)\}", out).group(1).split(",")

    listed = {f"{group} {verb}" for group in choices() for verb in choices(group)}
    assert listed == {case["verb"] for case in VERB_GOLDENS}


def test_one_parser_serves_every_call(capsys, golden_paths):
    # the parser is built on the first call and shared by every later one,
    # so no call may leave anything in it that changes a later call's bytes
    cli.build_parser.cache_clear()
    helps = {}
    for case in [*VERB_GOLDENS, *reversed(VERB_GOLDENS)]:
        flags = case["flags"]
        for key, path in golden_paths.items():
            flags = [f.replace(key, path) for f in flags]
        verb = case["verb"].split()
        assert run(capsys, *verb, *flags) == (case["code"], case["stdout"]), verb
        code, out = run(capsys, *verb, "--help")
        assert code == 0 and out.startswith(f"usage: padicmetrics {case['verb']} ")
        assert helps.setdefault(case["verb"], out) == out
        assert main(["padic", "abs", "--x", "2"]) == 2
        assert "the following arguments are required: --p\n" in capsys.readouterr().err
        code, payload = run_json(capsys, "padic", "abs", "--p", "3", "--x", "1/0")
        assert code == 2 and payload["error"] == "invalid_input"
    assert cli.build_parser() is cli.build_parser()



def test_abs_golden_bytes(capsys):
    code, out = run(capsys, "padic", "abs", "--p", "3", "--x", "25/18")
    assert code == 0
    assert out == '{\n  "value": "9"\n}\n'


def test_ord_is_a_json_integer(capsys):
    code, payload = run_json(capsys, "padic", "ord", "--p", "3", "--x", "25/18")
    assert code == 0
    assert payload == {"value": -2}


def test_dist_and_digits(capsys):
    code, payload = run_json(capsys, "padic", "dist", "--p", "3", "--x=1/2", "--y=1/3")
    assert code == 0 and payload == {"value": "3"}
    code, payload = run_json(capsys, "padic", "digits", "--p", "3", "--x", "17", "--high", "2")
    assert code == 0
    assert payload == {"p": 3, "low": 0, "digits": [2, 2, 1]}


def test_classify_band_verdict_golden(capsys):
    code, payload = run_json(
        capsys, "fn", "classify", "--p", "2", "--spec", '{"kind":"reciprocal"}'
    )
    assert code == 1
    assert payload == {
        "passed": False,
        "reason": "band",
        "window": {"lo": -16, "hi": 16},
        "witness": {
            "m": -2,
            "n": 0,
            "triple": ["2", "-2", "1"],
            "images": ["1", "1", "4"],
        },
    }


def test_classify_is_byte_deterministic(capsys):
    args = ("fn", "classify", "--p", "2", "--spec", '{"kind":"reciprocal"}')
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_classify_survey_mode(capsys):
    code, payload = run_json(capsys, "fn", "classify", "--spec", ZIGZAG)
    assert code == 0
    assert set(payload) == {
        "kind", "samples", "metric", "ultrametric", "ultra_to_metric", "sufficient",
    }
    assert payload["kind"] == "piecewise_linear"
    assert payload["ultrametric"]["passed"] is False


def test_window_flag(capsys):
    code, payload = run_json(
        capsys, "fn", "padic-check", "--spec", ZIGZAG, "--p", "3", "--window=-2:2"
    )
    assert code == 1
    assert payload["window"] == {"lo": -2, "hi": 2}
    assert payload["witness"]["images"] == ["1/8", "1/8", "1"]
    assert payload["witness"]["triple"] == ["1", "-1", "1/3"]


def test_window_over_the_cap_is_refused(capsys):
    code, payload = run_json(
        capsys, "fn", "padic-check", "--spec", ZIGZAG, "--p", "3", "--window=-513:512"
    )
    assert code == 2
    assert payload["error"] == "too_large"


def test_witness_verb(capsys):
    code, payload = run_json(capsys, "fn", "witness", "--p", "3", "--m", "0", "--n=-1")
    assert code == 0
    assert payload == {"triple": ["3", "-3", "1"], "distances": ["1", "1", "1/3"]}


def _read_long(text):
    # an "a/b" of any length: decimal reads digits past the int-from-str limit
    num, _, den = text.partition("/")
    return F(int(Decimal(num)), int(Decimal(den or "1")))


MERSENNE_61 = 2**61 - 1


def test_witness_with_digits_past_the_str_limit(capsys):
    code, payload = run_json(capsys, "fn", "witness", "--p", str(MERSENNE_61), "--m", "300",
                             "--n", "0")
    assert code == 0
    triple = witness_triple(MERSENNE_61, 300, 0)
    # 1/p**300 has a denominator of over 5500 digits, past the default 4300
    assert triple[2] == F(1, MERSENNE_61**300) and MERSENNE_61**300 > 10**4300
    assert list(map(_read_long, payload["triple"])) == list(triple)
    dists = [F(MERSENNE_61) ** 300, F(MERSENNE_61) ** 300, F(1)]
    assert list(map(_read_long, payload["distances"])) == dists


def test_ceiling_error_on_a_point_past_the_str_limit(capsys):
    # p**250 has over 4700 digits: the detail quotes it through decimal, so
    # the call reports too_large, as it does for a window of smaller powers
    spec = '{"kind":"prime_shift"}'
    for window, quoted in (("250:300", MERSENNE_61**250), ("20:30", MERSENNE_61**20)):
        code, payload = run_json(capsys, "fn", "padic-check", "--spec", spec,
                                 "--p", str(MERSENNE_61), f"--window={window}")
        point, _, rest = payload["detail"].partition(" ")
        assert code == 2 and payload["error"] == "too_large"
        assert _read_long(point) == quoted
        assert rest == "is at or beyond the certified ceiling 999983"
    assert MERSENNE_61**250 > 10**4300


def test_grid_cap_error_on_a_count_past_the_str_limit(capsys):
    # step and stop each read within the limit, but the point count has
    # 6001 digits
    big = "1" + "0" * 3000
    code, payload = run_json(capsys, "fn", "euclid", "--spec", '{"kind":"canonical"}',
                             "--step", f"1/{big}", "--stop", big)
    assert code == 2 and payload["error"] == "too_large"
    count = "1" + "0" * 5999 + "1"
    assert payload["detail"] == (
        f"grid 0..{big} by 1/{big} holds {count} points, more than the 1025 accepted"
    )


def test_extend_with_digits_past_the_str_limit(capsys):
    code, payload = run_json(capsys, "fn", "extend", "--spec", '{"kind":"canonical"}',
                             "--p", str(MERSENNE_61), "--window=0:300")
    assert code == 0
    g = extend_to_ultrametric_preserving(Canonical(), MERSENNE_61, ExponentWindow(0, 300))
    assert _read_long(payload["below"]) == g.below
    assert [tuple(map(_read_long, pair)) for pair in payload["points"]] == list(g.points)


def test_dist_with_a_decimal_x_and_p_4_is_not_prime(capsys):
    code, payload = run_json(capsys, "padic", "dist", "--p", "4", "--x", "1.5", "--y", "1")
    assert code == 2
    assert payload == {"detail": "p must be a prime below 2**64, got 4", "error": "not_prime"}


def test_fn_eval_inline_and_file(capsys, tmp_path):
    code, payload = run_json(capsys, "fn", "eval", "--spec", ZIGZAG, "--x", "3")
    assert code == 0 and payload == {"value": "1/8"}
    spec_path = tmp_path / "zig.json"
    spec_path.write_text(ZIGZAG)
    code, payload = run_json(capsys, "fn", "eval", "--spec", str(spec_path), "--x", "2")
    assert code == 0 and payload == {"value": "7/8"}


def test_euclid_exit_code(capsys):
    code, payload = run_json(capsys, "fn", "euclid", "--spec", ZIGZAG)
    assert code == 1
    assert payload["witness"]["points"] == ["3/4", "23/8", "29/8"]


def test_euclid_grid_over_the_cap_is_refused(capsys):
    code, payload = run_json(capsys, "fn", "euclid", "--spec", ZIGZAG, "--step", "1/100000")
    assert code == 2
    assert payload["error"] == "too_large"


def test_euclid_grid_at_the_cap(capsys):
    # 1025 points and 525825 pairs, checked without a pair list
    code, payload = run_json(
        capsys, "fn", "euclid", "--spec", CANONICAL, "--step", "1/128", "--stop", "8"
    )
    assert code == 0
    assert payload == {
        "pair_count": 525825,
        "passed": True,
        "samples_hash": "26e2fcf8def551d6",
        "witness": None,
    }


def test_running_out_of_memory_is_too_large(capsys, monkeypatch):
    # exit 1 means a violated property, so a MemoryError must not end there
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "check_euclid_preserving_grid", exhausted)
    code, payload = run_json(capsys, "fn", "euclid", "--spec", CANONICAL)
    assert code == 2
    assert payload == {
        "error": "too_large",
        "detail": "the input needs more memory than is available",
    }


def test_prime_shift_bound_below_5_is_invalid_input(capsys):
    for argv in (
        ("fn", "prime-shift", "--bound", "3"),
        ("fn", "prime-shift", "--bound=-7", "--x", "0"),
        ("fn", "eval", "--spec", '{"kind": "prime_shift", "bound": 4}', "--x", "2"),
    ):
        code, payload = run_json(capsys, *argv)
        assert code == 2, argv
        assert payload == {"error": "invalid_input", "detail": "sieve bound must be at least 5"}


def test_size_caps_are_refused(capsys):
    # each cap holds at its limit and refuses one over it; nothing is sieved
    code, payload = run_json(capsys, "fn", "prime-shift", "--bound", "10000000")
    assert code == 0 and payload == {"bound": 10_000_000, "kind": "prime_shift"}
    for argv in (
        ("fn", "prime-shift", "--bound", "10000001"),
        ("fn", "prime-shift", "--bound", "10000001", "--x", "2"),
        ("fn", "eval", "--spec", '{"kind": "prime_shift", "bound": 10000001}', "--x", "2"),
        ("padic", "digits", "--p", "3", "--x", "17", "--high", "1025"),
        ("fn", "witness", "--p", "3", "--m", "1025", "--n", "0"),
        ("fn", "witness", "--p", "3", "--m", "0", "--n=-1025"),
        ("fn", "padic-check", "--spec", ZIGZAG, "--p", "3", "--window=1000:1025"),
        ("fn", "padic-ultra-check", "--spec", ZIGZAG, "--p", "3", "--window=-1025:-1000"),
    ):
        code, payload = run_json(capsys, *argv)
        assert code == 2 and payload["error"] == "too_large", argv
    code, payload = run_json(capsys, "padic", "digits", "--p", "3", "--x", "17", "--high", "1024")
    assert code == 0 and len(payload["digits"]) == 1025
    code, payload = run_json(capsys, "fn", "witness", "--p", "3", "--m", "1024", "--n=-1024")
    assert code == 0 and payload["distances"][2] == f"1/{3**1024}"
    for window in ("1000:1024", "-1024:-1000"):
        code, payload = run_json(
            capsys, "fn", "padic-check", "--spec", ZIGZAG, "--p", "3", f"--window={window}"
        )
        assert code in (0, 1) and "error" not in payload, window


def test_prime_shift_without_flags_prints_the_default_bound(capsys):
    code, payload = run_json(capsys, "fn", "prime-shift")
    assert code == 0 and payload == {"bound": 1_000_000, "kind": "prime_shift"}


def test_extend_rejects_non_preserving(capsys):
    code, payload = run_json(capsys, "fn", "extend", "--spec", ZIGZAG, "--p", "3")
    assert code == 2
    assert payload["error"] == "not_preserving"


# ------------------------------------------------------------------ space --


def test_space_validate_ok(capsys, space_file):
    code, payload = run_json(capsys, "space", "validate", "--file", space_file)
    assert code == 0
    assert payload == {"points": 4, "valid": True}


def test_space_validate_violation(capsys, tmp_path):
    rows = [["0", "1", "4"], ["1", "0", "2"], ["4", "2", "0"]]
    path = tmp_path / "metric_only.json"
    path.write_text(json.dumps({"points": ["a", "b", "c"], "d": rows}))
    code, payload = run_json(capsys, "space", "validate", "--file", str(path))
    assert code == 1
    assert payload["valid"] is False
    assert payload["witness"] == {"i": 0, "j": 2, "k": 1, "sides": ["4", "1", "2"]}


def test_space_validate_structural_error(capsys, tmp_path):
    rows = [["0", "1"], ["2", "0"]]
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"points": ["a", "b"], "d": rows}))
    code, payload = run_json(capsys, "space", "validate", "--file", str(path))
    assert code == 2
    assert payload["error"] == "asymmetric"


def test_space_file_from_stdin(capsys, monkeypatch):
    doc = json.dumps(four_point_space().to_json_dict())
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, payload = run_json(capsys, "space", "range", "--file", "-")
    assert code == 0
    assert payload == {"range": ["0", "1", "2", "3"]}


def test_space_isometry(capsys, space_file, tmp_path):
    other = tmp_path / "legs.json"
    other.write_text(json.dumps(legs_three_space().to_json_dict()))
    code, payload = run_json(
        capsys, "space", "isometry", "--file", space_file, "--to", str(other)
    )
    assert code == 0
    assert payload["found"] is True
    assert payload["map"] == [2, 0, 3, 1]
    assert payload["labels"] == {"x1": "y3", "x2": "y1", "x3": "y4", "x4": "y2"}


def test_space_isometry_self_check(capsys, space_file, monkeypatch):
    # a mapping that fails re-verification is an internal defect, raised
    # even under python -O
    monkeypatch.setattr(cli, "is_isometry", lambda a, b, mapping: False)
    with pytest.raises(SelfCheckError):
        main(["space", "isometry", "--file", space_file, "--to", space_file])


def test_class_check_breach_stays_loud(capsys, family_file, monkeypatch):
    # two routes of the family check that disagree are an internal defect:
    # main raises it rather than printing an error and exiting 2
    monkeypatch.setattr(families, "_space_side", lambda image, family, ranked: None)
    with pytest.raises(EquivalenceBreachError):
        main(["class", "check", "--file", family_file, "--spec", ZIGZAG])
    assert capsys.readouterr().out == ""


def test_family_error_details_quote_values_as_text(capsys, chain_file, tmp_path):
    # a broken space's sides and a failing extension's witness are written
    # as the JSON writes rationals, with no Python repr in the detail
    broken = tmp_path / "broken.json"
    rows = [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]]
    broken.write_text(json.dumps({"spaces": [{"points": ["a", "b", "c"], "d": rows}]}))
    code, payload = run_json(capsys, "class", "ran", "--file", str(broken))
    assert code == 2
    assert payload == {
        "error": "invalid_input",
        "detail": "space 0 is not ultrametric: indices (0, 2, 1) with sides (3, 1, 1)",
    }
    code, payload = run_json(
        capsys, "class", "extend", "--file", chain_file, "--spec", '{"kind":"reciprocal"}'
    )
    assert code == 2
    assert payload == {
        "error": "not_preserving",
        "detail": "f does not preserve the family: "
        "{'kind': 'pair', 'points': ['1', '2'], 'values': ['1', '1/2']}",
    }


def test_space_embed_dim(capsys, space_file):
    code, payload = run_json(capsys, "space", "embed-dim", "--file", space_file)
    assert code == 0
    assert payload == {"dimension": 3, "gram_rank": 3}


def test_space_apply_failure_carries_witness(capsys, space_file):
    code, payload = run_json(
        capsys, "space", "apply", "--file", space_file, "--spec", '{"kind":"reciprocal"}'
    )
    assert code == 1
    assert payload["valid"] is False
    assert "witness" in payload


# ------------------------------------------------------------------ class --


def test_class_poset_golden(capsys, family_file):
    code, payload = run_json(capsys, "class", "poset", "--file", family_file)
    assert code == 0
    assert payload == {
        "ground": ["0", "1", "2", "3"],
        "pairs": [["0", "1"], ["0", "2"], ["0", "3"], ["1", "3"], ["2", "3"]],
        "total": False,
    }


def test_class_counterexample_and_chain_rejection(capsys, family_file, chain_file):
    code, payload = run_json(capsys, "class", "counterexample", "--file", family_file)
    assert code == 0
    assert payload == {
        "kind": "tabulated",
        "table": [["0", "0"], ["1", "2"], ["2", "1"], ["3", "2"]],
    }
    code, payload = run_json(capsys, "class", "counterexample", "--file", chain_file)
    assert code == 2
    assert payload["error"] == "totally_ordered"


def test_class_check_exit_codes(capsys, family_file):
    level_swap = json.dumps(
        {
            "kind": "piecewise_linear",
            "points": [["0", "0"], ["1", "2"], ["2", "1"], ["3", "3"]],
            "tail": {"constant": "3"},
        }
    )
    code, payload = run_json(
        capsys, "class", "check", "--file", family_file, "--spec", level_swap
    )
    assert code == 0 and payload["passed"] is True
    code, payload = run_json(
        capsys, "class", "check", "--file", family_file, "--spec", ZIGZAG
    )
    assert code == 1 and payload["passed"] is False
    assert payload["order_witness"]["kind"] == "pair"


# ----------------------------------------------------------------- errors --


def test_malformed_spec_is_an_input_error(capsys):
    code, payload = run_json(capsys, "fn", "eval", "--spec", "{broken", "--x", "1")
    assert code == 2
    assert payload["error"] == "invalid_input"


def _deep_power_step(depth):
    return '{"kind": "power_step", "p": 3, "inner": ' * depth + '{"kind": "canonical"}' + "}" * depth


CANONICAL = '{"kind": "canonical"}'


@pytest.mark.parametrize(
    "argv",
    [
        ("fn", "eval", "--spec", CANONICAL, "--x", "1/0"),
        ("padic", "abs", "--p", "3", "--x", "1/0"),
        ("fn", "sufficient", "--spec", CANONICAL, "--samples", "0,1/0"),
        ("fn", "euclid", "--spec", CANONICAL, "--step", "1/0"),
        ("fn", "eval", "--spec", '{"kind": "step", "below": "1/0", "points": []}', "--x", "1"),
        (
            "fn", "eval", "--x", "1", "--spec",
            '{"kind": "piecewise_linear", "points": [], "tail": {"constant": "0"}}',
        ),
    ],
    ids=["eval-x", "abs-x", "samples", "euclid-step", "step-below", "empty-polyline"],
)
def test_malformed_input_exits_2(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 2 and payload["error"] == "invalid_input"


@pytest.mark.parametrize("depth", [400, 600, 1000, 3000])
@pytest.mark.parametrize(
    "verb",
    [("eval", "--x", "2"), ("classify",), ("padic-check", "--p", "3")],
    ids=lambda verb: verb[0],
)
def test_deep_power_step_is_too_large(capsys, verb, depth):
    # more power_step layers than evaluation can nest; from about 1000 on,
    # more than the parser can nest either, with the same error name
    code, payload = run_json(capsys, "fn", verb[0], "--spec", _deep_power_step(depth), *verb[1:])
    assert code == 2 and payload["error"] == "too_large"


@pytest.mark.parametrize(
    "doc",
    ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000],
    ids=["array", "object"],
)
@pytest.mark.parametrize("verb", ["space validate", "class poset"])
def test_deep_json_file_is_too_large(capsys, monkeypatch, tmp_path, doc, verb):
    # deeper than the JSON parser can nest: an input error, not a traceback
    if verb == "space validate":
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        path = "-"
    else:
        path = tmp_path / "deep.json"
        path.write_text(doc)
    code, payload = run_json(capsys, *verb.split(), "--file", str(path))
    assert code == 2 and payload["error"] == "too_large"


def test_json_floats_are_input_errors(capsys, tmp_path):
    # a float has already been rounded to binary, so it is refused, while
    # the same value as an "a/b" string is read exactly
    step = {"kind": "step", "below": 0.1, "points": []}
    code, payload = run_json(capsys, "fn", "eval", "--spec", json.dumps(step), "--x", "1")
    assert code == 2 and payload["error"] == "invalid_input"
    step["below"] = "1/10"
    code, payload = run_json(capsys, "fn", "eval", "--spec", json.dumps(step), "--x", "1")
    assert code == 0 and payload == {"value": "1/10"}
    path = tmp_path / "float_space.json"
    path.write_text(json.dumps({"points": ["a", "b"], "d": [[0, 0.1], [0.1, 0]]}))
    code, payload = run_json(capsys, "space", "validate", "--file", str(path))
    assert code == 2 and payload["error"] == "invalid_input"
    # integer fields refuse floats and bools instead of truncating them
    canonical = {"kind": "canonical"}
    for spec in (
        {"kind": "power_map", "p": 2.9, "q": 3},
        {"kind": "power_map", "p": True, "q": 3},
        {"kind": "power_map", "p": "5/2", "q": 3},
        {"kind": "power_step", "inner": canonical, "p": 3.5},
        {"kind": "prime_shift", "bound": 100.7},
    ):
        code, payload = run_json(capsys, "fn", "eval", "--spec", json.dumps(spec), "--x", "4")
        assert code == 2 and payload["error"] == "invalid_input", spec
    for spec in ({"kind": "power_map", "p": 2, "q": 3}, {"kind": "power_map", "p": "2", "q": "3"}):
        code, payload = run_json(capsys, "fn", "eval", "--spec", json.dumps(spec), "--x", "4")
        assert code == 0 and payload == {"value": "9"}


def test_non_prime_modulus(capsys):
    code, payload = run_json(capsys, "padic", "abs", "--p", "6", "--x", "2")
    assert code == 2
    assert payload["error"] == "not_prime"


def test_usage_error_exit_code(capsys):
    assert main(["padic", "nope"]) == 2
    assert main([]) == 2
    capsys.readouterr()


# --------------------------------------------------------------- examples --


def test_examples_reproduce_names_the_known_failure(capsys):
    code, payload = run_json(capsys, "examples", "reproduce")
    assert code == 1
    assert payload["total"] == 26
    assert payload["failed"] == 1
    failing = [f["name"] for f in payload["fixtures"] if not f["passed"]]
    assert failing == ["zigzag-euclid-grid"]


SHARED_EXAMPLES = ("four_point_space", "level_swap_map", "zigzag_map")


def test_a_battery_run_builds_each_shared_example_once(monkeypatch):
    # each run builds the shared examples on first use and keeps them for
    # that run only; the public builders still return a new object per call
    calls = Counter()

    def counting(name, build):
        def counted():
            calls[name] += 1
            return build()

        return counted

    for name in SHARED_EXAMPLES:
        build = getattr(fixtures, name)
        assert build() is not build()
        monkeypatch.setattr(fixtures, name, counting(name, build))
    first = [r.to_json_dict() for r in fixtures.run_all()]
    assert calls == {name: 1 for name in SHARED_EXAMPLES}
    second = [r.to_json_dict() for r in fixtures.run_all()]
    assert calls == {name: 2 for name in SHARED_EXAMPLES}
    assert first == second


def test_a_builder_that_raises_fails_only_the_fixtures_that_read_it(monkeypatch):
    clean = fixtures.run_all()
    calls = []

    def boom():
        calls.append(None)
        raise RuntimeError("boom")

    monkeypatch.setattr(fixtures, "zigzag_map", boom)
    readers = {
        "zigzag-values",
        "zigzag-euclid-grid",
        "zigzag-three-adic-failure",
        "zigzag-extension-rejected",
    }
    got = fixtures.run_all()
    assert [r.name for r in got] == [r.name for r in clean]
    for r, before in zip(got, clean):
        if r.name in readers:
            assert (r.passed, r.detail) == (False, "raised RuntimeError: boom")
        else:
            assert r == before
    assert len(calls) == len(readers)  # a failed build is not kept


# ------------------------------------------------------------ entry point --

CONSOLE_ARGS = ("padic", "abs", "--p", "3", "--x", "25/18")


def _run_python(*args: str) -> subprocess.CompletedProcess:
    # the child imports the package from where this session found it, which
    # pytest's pythonpath setting may have put on sys.path without the env
    src = str(Path(padicmetrics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_is_wired():
    # run the entry point the way the generated wrapper does, so the wiring
    # in pyproject.toml is checked from a checkout without an install
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["padicmetrics"]
    module, attr = entry.split(":")
    proc = _run_python(
        "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())", *CONSOLE_ARGS
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"value": "9"}


def test_importing_the_cli_leaves_the_fixtures_unloaded():
    # only examples reproduce needs the fixtures, so no other verb loads them
    proc = _run_python(
        "-c", "import sys, padicmetrics.cli; print('padicmetrics.fixtures' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.skipif(
    shutil.which("padicmetrics") is None, reason="padicmetrics is not installed on PATH"
)
def test_installed_console_script():
    proc = subprocess.run(
        ["padicmetrics", *CONSOLE_ARGS],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": "9"}
