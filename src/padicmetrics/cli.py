"""JSON command line front end.

Exit codes: 0 for a pass or a plain query, 1 when a checked property is
violated (the payload then carries a re-checkable witness), 2 for bad
input or an unmet precondition, and for a verb that runs out of memory
(``too_large``). Output is deterministic: sorted keys, two-space indent,
rationals as canonical strings.

Each verb is declared once, in ``VERBS``: its group, its handler and its
arguments. An argument several verbs share is declared once, in
``_SHARED``, and named there.

``build_parser`` turns that table into one argparse tree, built on the
first ``main`` call (not at import) and shared by every later call in the
process, so an in-process caller pays for the verb's own work only.
Sharing it is safe: each ``parse_args`` fills a new ``Namespace``; usage,
errors and ``--help`` go to ``sys.stdout``/``sys.stderr`` as they are at
call time; and the help formatter, which reads ``COLUMNS``, is made anew
on every call. Handlers are bound when the tree is built. The fixtures
module is imported by ``examples reproduce`` alone, so no other verb pays
for loading it.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .errors import (
    EquivalenceBreachError,
    NonzeroDiagonalError,
    PadicMetricsError,
    SelfCheckError,
    TooLargeError,
    ZeroDistanceError,
)
from .families import (
    SpaceFamily,
    build_extension,
    check_family_preserving,
    compare_families,
    counterexample_function,
    distance_values,
    family_poset,
)
from .functions import FunctionSpec, PowerMap, PowerStep, PrimeShift, spec_from_json_dict
from .padic import _text, as_fraction, digit_window, padic_abs, padic_distance, valuation
from .padic_preserving import (
    DEFAULT_WINDOW,
    check_p_metric_preserving,
    check_p_ultrametric_preserving,
    closed_form_note,
    extend_to_ultrametric_preserving,
    parse_window,
    witness_triple,
)
from .preserving import (
    _grid,
    check_euclid_preserving_grid,
    check_metric_preserving_sampled,
    check_ultra_to_metric,
    check_ultrametric_preserving,
    default_samples,
    is_strong_triplet,
    is_triangle_triplet,
    sufficient_conditions,
)
from .spaces import (
    DistanceMatrixCandidate,
    FiniteUltrametricSpace,
    TriangleViolation,
    apply_function,
    embedding_dimension,
    gram_rank,
    is_isometry,
    isometry_search,
    validate_ultrametric,
)

Result = tuple[int, dict]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _snake(name: str) -> str:
    name = name.removesuffix("Error")
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except RecursionError:
        raise TooLargeError("JSON input is nested too deeply to parse") from None


def _load_spec(value: str) -> FunctionSpec:
    text = value if value.lstrip().startswith("{") else _read_text(value)
    try:
        return spec_from_json_dict(json.loads(text))
    except RecursionError:
        raise TooLargeError("function spec is nested too deeply to parse") from None


def _load_candidate(path: str) -> DistanceMatrixCandidate:
    return DistanceMatrixCandidate.from_json_dict(_load_json(path))


def _require_space(path: str) -> FiniteUltrametricSpace:
    out = validate_ultrametric(_load_candidate(path))
    if isinstance(out, TriangleViolation):
        raise ValueError(
            f"{path}: not an ultrametric space, witness {out.to_json_dict()}"
        )
    return out


def _load_family(path: str) -> SpaceFamily:
    return SpaceFamily.from_json_dict(_load_json(path))


def _samples(args, spec: FunctionSpec) -> tuple[Fraction, ...]:
    if args.samples is None:
        return default_samples(spec)
    return tuple(as_fraction(tok) for tok in args.samples.split(","))


# ---------------------------------------------------------------- padic --


def _cmd_padic_abs(args) -> Result:
    return 0, {"value": _text(padic_abs(as_fraction(args.x), args.p).as_fraction())}


def _cmd_padic_ord(args) -> Result:
    return 0, {"value": valuation(as_fraction(args.x), args.p)}


def _cmd_padic_dist(args) -> Result:
    return 0, {"value": _text(padic_distance(as_fraction(args.x), as_fraction(args.y), args.p))}


def _cmd_padic_digits(args) -> Result:
    return 0, digit_window(as_fraction(args.x), args.p, args.high).to_json_dict()


# ------------------------------------------------------------------- fn --


def _cmd_fn_eval(args) -> Result:
    spec = _load_spec(args.spec)
    return 0, {"value": _text(spec(as_fraction(args.x)))}


def _cmd_fn_triplet(args) -> Result:
    a, b, c = as_fraction(args.a), as_fraction(args.b), as_fraction(args.c)
    return 0, {
        "triangle": is_triangle_triplet(a, b, c),
        "strong": is_strong_triplet(a, b, c),
    }


def _cmd_fn_classify(args) -> Result:
    spec = _load_spec(args.spec)
    if args.p is not None:
        verdict = check_p_metric_preserving(spec, args.p, args.window)
        payload = verdict.to_json_dict()
        note = closed_form_note(spec)
        if note is not None:
            payload["note"] = note
        return (0 if verdict.passed else 1), payload
    samples = _samples(args, spec)
    payload = {
        "kind": spec.kind,
        "samples": list(map(_text, samples)),
        "metric": check_metric_preserving_sampled(spec, samples).to_json_dict(),
        "ultrametric": check_ultrametric_preserving(spec, samples).to_json_dict(),
        "ultra_to_metric": check_ultra_to_metric(spec, samples).to_json_dict(),
        "sufficient": sufficient_conditions(spec, samples).to_json_dict(),
    }
    return 0, payload


def _cmd_fn_euclid(args) -> Result:
    spec = _load_spec(args.spec)
    count = _grid(args.step, args.stop)[1]
    verdict = check_euclid_preserving_grid(spec, args.step, args.stop)
    payload = verdict.to_json_dict()
    payload["pair_count"] = count * (count + 1) // 2
    return (0 if verdict.passed else 1), payload


def _cmd_fn_sufficient(args) -> Result:
    spec = _load_spec(args.spec)
    samples = _samples(args, spec)
    payload = sufficient_conditions(spec, samples).to_json_dict()
    payload["samples"] = list(map(_text, samples))
    return 0, payload


def _cmd_fn_padic_check(args) -> Result:
    verdict = check_p_metric_preserving(_load_spec(args.spec), args.p, args.window)
    return (0 if verdict.passed else 1), verdict.to_json_dict()


def _cmd_fn_padic_ultra_check(args) -> Result:
    verdict = check_p_ultrametric_preserving(_load_spec(args.spec), args.p, args.window)
    return (0 if verdict.passed else 1), verdict.to_json_dict()


def _value_or_spec(f: FunctionSpec, x: str | None) -> Result:
    # fn psi, prime-swap and prime-shift: the value at --x, or else the spec
    if x is not None:
        return 0, {"value": _text(f(as_fraction(x)))}
    return 0, f.to_json_dict()


def _cmd_fn_psi(args) -> Result:
    return _value_or_spec(PowerStep(_load_spec(args.spec), args.p), args.x)


def _cmd_fn_extend(args) -> Result:
    g = extend_to_ultrametric_preserving(_load_spec(args.spec), args.p, args.window)
    return 0, g.to_json_dict()


def _cmd_fn_prime_swap(args) -> Result:
    return _value_or_spec(PowerMap(args.p, args.q), args.x)


def _cmd_fn_prime_shift(args) -> Result:
    return _value_or_spec(PrimeShift(args.bound), args.x)


def _cmd_fn_witness(args) -> Result:
    x, y, z = witness_triple(args.p, args.m, args.n)
    dists = (
        padic_distance(x, z, args.p),
        padic_distance(z, y, args.p),
        padic_distance(x, y, args.p),
    )
    return 0, {
        "triple": list(map(_text, (x, y, z))),
        "distances": list(map(_text, dists)),
    }


# ---------------------------------------------------------------- space --


def _cmd_space_validate(args) -> Result:
    out = validate_ultrametric(_load_candidate(args.file))
    if isinstance(out, TriangleViolation):
        return 1, {"valid": False, "witness": out.to_json_dict()}
    return 0, {"valid": True, "points": out.n}


def _cmd_space_apply(args) -> Result:
    space = _require_space(args.file)
    candidate = apply_function(space, _load_spec(args.spec))
    payload: dict = {"candidate": candidate.to_json_dict()}
    try:
        out = validate_ultrametric(candidate)
    except (NonzeroDiagonalError, ZeroDistanceError) as err:
        payload.update({"valid": False, "witness": {"kind": _snake(type(err).__name__)}})
        return 1, payload
    if isinstance(out, TriangleViolation):
        payload.update({"valid": False, "witness": out.to_json_dict()})
        return 1, payload
    payload["valid"] = True
    return 0, payload


def _cmd_space_range(args) -> Result:
    space = _require_space(args.file)
    return 0, {"range": list(map(_text, distance_values(SpaceFamily((space,)))))}


def _cmd_space_isometry(args) -> Result:
    a = _require_space(args.file)
    b = _require_space(args.to)
    mapping = isometry_search(a, b)
    if mapping is None:
        return 0, {"found": False}
    if not is_isometry(a, b, mapping):
        raise SelfCheckError(f"isometry_search returned {mapping}, not an isometry")
    labels = {a.labels[i]: b.labels[mapping[i]] for i in range(a.n)}
    return 0, {"found": True, "map": list(mapping), "labels": labels}


def _cmd_space_embed_dim(args) -> Result:
    space = _require_space(args.file)
    dim = embedding_dimension(space)
    rank = gram_rank(space) if space.n >= 2 else None
    return 0, {"dimension": dim, "gram_rank": rank}


# ---------------------------------------------------------------- class --


def _cmd_class_ran(args) -> Result:
    family = _load_family(args.file)
    return 0, {"values": list(map(_text, distance_values(family)))}


def _cmd_class_poset(args) -> Result:
    poset = family_poset(_load_family(args.file))
    payload = poset.to_json_dict()
    payload["total"] = poset.is_total()
    return 0, payload


def _cmd_class_check(args) -> Result:
    report = check_family_preserving(_load_spec(args.spec), _load_family(args.file))
    return (0 if report.passed else 1), report.to_json_dict()


def _cmd_class_extend(args) -> Result:
    g = build_extension(_load_spec(args.spec), _load_family(args.file))
    return 0, g.to_json_dict()


def _cmd_class_counterexample(args) -> Result:
    return 0, counterexample_function(_load_family(args.file)).to_json_dict()


def _cmd_class_compare(args) -> Result:
    return 0, compare_families(_load_family(args.file), _load_family(args.to))


# ------------------------------------------------------------- examples --


def _cmd_examples_reproduce(args) -> Result:
    from .fixtures import run_all  # the one verb that needs the fixtures

    results = run_all()
    failed = [r for r in results if not r.passed]
    payload = {
        "fixtures": [r.to_json_dict() for r in results],
        "total": len(results),
        "failed": len(failed),
    }
    return (1 if failed else 0), payload


# ------------------------------------------------------------- plumbing --

_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}

# Arguments that more than one verb takes. A verb's argument list names
# these, or gives (name, add_argument keywords) for one of its own.
_SHARED = {
    "spec": {"required": True, "help": "function spec: inline JSON or a file path"},
    "window": {
        "type": parse_window,
        "default": DEFAULT_WINDOW,
        "help": "exponent window lo:hi (use --window=-16:16 form for negatives)",
    },
    "samples": {"help": "comma-separated rationals, must include 0"},
    "p": _REQUIRED_INT,
    "file": _REQUIRED,
    "to": _REQUIRED,
    "x": _REQUIRED,
}

_OPTIONAL_X = ("x", {})

# group -> (help, {verb -> (handler, arguments in --help order)})
VERBS = {
    "padic": ("valuations, absolute values, digits", {
        "abs": (_cmd_padic_abs, ["p", "x"]),
        "ord": (_cmd_padic_ord, ["p", "x"]),
        "dist": (_cmd_padic_dist, ["p", "x", ("y", _REQUIRED)]),
        "digits": (_cmd_padic_digits, ["p", "x", ("high", _REQUIRED_INT)]),
    }),
    "fn": ("function spec checks", {
        "eval": (_cmd_fn_eval, ["spec", "x"]),
        "triplet": (_cmd_fn_triplet, [(name, _REQUIRED) for name in "abc"]),
        "classify": (_cmd_fn_classify, [
            "spec",
            "samples",
            ("p", {"type": int, "help": "switch to the p-adic window check"}),
            "window",
        ]),
        "euclid": (
            _cmd_fn_euclid, ["spec", ("step", {"default": "1/8"}), ("stop", {"default": "8"})]
        ),
        "sufficient": (_cmd_fn_sufficient, ["spec", "samples"]),
        "padic-check": (_cmd_fn_padic_check, ["spec", "p", "window"]),
        "padic-ultra-check": (_cmd_fn_padic_ultra_check, ["spec", "p", "window"]),
        "psi": (_cmd_fn_psi, ["spec", "p", _OPTIONAL_X]),
        "extend": (_cmd_fn_extend, ["spec", "p", "window"]),
        "prime-swap": (_cmd_fn_prime_swap, ["p", ("q", _REQUIRED_INT), _OPTIONAL_X]),
        "prime-shift": (
            _cmd_fn_prime_shift, [_OPTIONAL_X, ("bound", {"type": int, "default": 1_000_000})]
        ),
        "witness": (_cmd_fn_witness, ["p", ("m", _REQUIRED_INT), ("n", _REQUIRED_INT)]),
    }),
    "space": ("finite ultrametric spaces", {
        "validate": (_cmd_space_validate, ["file"]),
        "apply": (_cmd_space_apply, ["file", "spec"]),
        "range": (_cmd_space_range, ["file"]),
        "isometry": (_cmd_space_isometry, ["file", "to"]),
        "embed-dim": (_cmd_space_embed_dim, ["file"]),
    }),
    "class": ("families of spaces and their order", {
        "ran": (_cmd_class_ran, ["file"]),
        "poset": (_cmd_class_poset, ["file"]),
        "check": (_cmd_class_check, ["file", "spec"]),
        "extend": (_cmd_class_extend, ["file", "spec"]),
        "counterexample": (_cmd_class_counterexample, ["file"]),
        "compare": (_cmd_class_compare, ["file", "to"]),
    }),
    "examples": ("batch worked examples", {
        "reproduce": (_cmd_examples_reproduce, []),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every verb in ``VERBS``, built once per process.

    Every call returns the same parser, which callers must not mutate. It
    holds no state between ``parse_args`` calls: each call makes a new
    ``Namespace`` and copies the subparser defaults (the handler among
    them) into it, writes usage, errors and ``--help`` to ``sys.stdout``
    and ``sys.stderr`` as they are at that moment (so ``redirect_stdout``
    and pytest's ``capsys`` capture them), and creates its help formatter
    anew, so ``COLUMNS`` is still read. The handlers are bound here, once:
    patching a module name that a handler calls (``cli.is_isometry``, say)
    still takes effect, but patching a ``_cmd_*`` function after the first
    call does not. Building the subparsers lazily, per group, would save
    more but change the ``--help`` and usage bytes.
    """
    parser = argparse.ArgumentParser(
        prog="padicmetrics",
        description="Exact rational checks for p-adic and ultrametric preservation.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (help_text, verbs) in VERBS.items():
        group_verbs = groups.add_parser(group, help=help_text).add_subparsers(
            dest="verb", required=True
        )
        for verb, (handler, arguments) in verbs.items():
            command = group_verbs.add_parser(verb)
            for argument in arguments:
                name, options = (
                    (argument, _SHARED[argument]) if isinstance(argument, str) else argument
                )
                command.add_argument(f"--{name}", **options)
            command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # argument types such as parse_window may raise domain errors too
        args = parser.parse_args(argv)
        code, payload = args.handler(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except (SelfCheckError, EquivalenceBreachError):
        raise  # internal defects must stay loud
    except PadicMetricsError as err:
        _emit({"error": _snake(type(err).__name__), "detail": str(err)})
        return 2
    except (ValueError, KeyError, TypeError, OSError) as err:
        _emit({"error": "invalid_input", "detail": str(err)})
        return 2
    except MemoryError:
        # exit 1 would claim a violated property; the input is too large
        _emit({"error": "too_large", "detail": "the input needs more memory than is available"})
        return 2
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
