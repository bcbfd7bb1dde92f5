"""JSON command line front end.

Exit codes: 0 for a pass or a plain query, 1 when a checked property is
violated (the payload then carries a re-checkable witness), 2 for bad
input or an unmet precondition. Output is deterministic: sorted keys,
two-space indent, rationals as canonical strings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import (
    EquivalenceBreachError,
    NonzeroDiagonalError,
    PadicMetricsError,
    SelfCheckError,
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
from .fixtures import run_all
from .functions import FunctionSpec, spec_from_json_dict, spec_to_json_dict
from .padic import as_fraction, digit_window, padic_abs, padic_distance, valuation
from .padic_preserving import (
    DEFAULT_WINDOW,
    check_p_metric_preserving,
    check_p_ultrametric_preserving,
    closed_form_note,
    extend_to_ultrametric_preserving,
    parse_window,
    power_step,
    prime_shift,
    prime_swap,
    witness_triple,
)
from .preserving import (
    check_euclid_preserving_sampled,
    check_metric_preserving_sampled,
    check_ultra_to_metric,
    check_ultrametric_preserving,
    default_samples,
    is_strong_triplet,
    is_triangle_triplet,
    pairs_from_grid,
    sufficient_conditions,
)
from .spaces import (
    DistanceMatrixCandidate,
    FiniteUltrametricSpace,
    TriangleViolation,
    apply_function,
    distance_range,
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
    return json.loads(_read_text(path))


def _load_spec(value: str) -> FunctionSpec:
    text = value if value.lstrip().startswith("{") else _read_text(value)
    return spec_from_json_dict(json.loads(text))


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
    return tuple(as_fraction(Fraction(tok)) for tok in args.samples.split(","))


# ---------------------------------------------------------------- padic --


def _cmd_padic_abs(args) -> Result:
    return 0, {"value": str(padic_abs(Fraction(args.x), args.p).as_fraction())}


def _cmd_padic_ord(args) -> Result:
    return 0, {"value": valuation(Fraction(args.x), args.p)}


def _cmd_padic_dist(args) -> Result:
    return 0, {"value": str(padic_distance(Fraction(args.x), Fraction(args.y), args.p))}


def _cmd_padic_digits(args) -> Result:
    return 0, digit_window(Fraction(args.x), args.p, args.high).to_json_dict()


# ------------------------------------------------------------------- fn --


def _cmd_fn_eval(args) -> Result:
    spec = _load_spec(args.spec)
    return 0, {"value": str(spec(Fraction(args.x)))}


def _cmd_fn_triplet(args) -> Result:
    a, b, c = Fraction(args.a), Fraction(args.b), Fraction(args.c)
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
        "samples": [str(s) for s in samples],
        "metric": check_metric_preserving_sampled(spec, samples).to_json_dict(),
        "ultrametric": check_ultrametric_preserving(spec, samples).to_json_dict(),
        "ultra_to_metric": check_ultra_to_metric(spec, samples).to_json_dict(),
        "sufficient": sufficient_conditions(spec, samples).to_json_dict(),
    }
    return 0, payload


def _cmd_fn_euclid(args) -> Result:
    spec = _load_spec(args.spec)
    pairs = pairs_from_grid(Fraction(args.step), Fraction(args.stop))
    verdict = check_euclid_preserving_sampled(spec, pairs)
    payload = verdict.to_json_dict()
    payload["pair_count"] = len(pairs)
    return (0 if verdict.passed else 1), payload


def _cmd_fn_sufficient(args) -> Result:
    spec = _load_spec(args.spec)
    samples = _samples(args, spec)
    payload = sufficient_conditions(spec, samples).to_json_dict()
    payload["samples"] = [str(s) for s in samples]
    return 0, payload


def _cmd_fn_padic_check(args) -> Result:
    verdict = check_p_metric_preserving(_load_spec(args.spec), args.p, args.window)
    return (0 if verdict.passed else 1), verdict.to_json_dict()


def _cmd_fn_padic_ultra_check(args) -> Result:
    verdict = check_p_ultrametric_preserving(_load_spec(args.spec), args.p, args.window)
    return (0 if verdict.passed else 1), verdict.to_json_dict()


def _cmd_fn_psi(args) -> Result:
    stepped = power_step(_load_spec(args.spec), args.p)
    if args.x is not None:
        return 0, {"value": str(stepped(Fraction(args.x)))}
    return 0, spec_to_json_dict(stepped)


def _cmd_fn_extend(args) -> Result:
    g = extend_to_ultrametric_preserving(_load_spec(args.spec), args.p, args.window)
    return 0, spec_to_json_dict(g)


def _cmd_fn_prime_swap(args) -> Result:
    f = prime_swap(args.p, args.q)
    if args.x is not None:
        return 0, {"value": str(f(Fraction(args.x)))}
    return 0, spec_to_json_dict(f)


def _cmd_fn_prime_shift(args) -> Result:
    f = prime_shift(args.bound)
    if args.x is not None:
        return 0, {"value": str(f(Fraction(args.x)))}
    return 0, spec_to_json_dict(f)


def _cmd_fn_witness(args) -> Result:
    x, y, z = witness_triple(args.p, args.m, args.n)
    dists = (
        padic_distance(x, z, args.p),
        padic_distance(z, y, args.p),
        padic_distance(x, y, args.p),
    )
    return 0, {
        "triple": [str(x), str(y), str(z)],
        "distances": [str(d) for d in dists],
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
    return 0, {"range": [str(v) for v in distance_range(space)]}


def _cmd_space_isometry(args) -> Result:
    a = _require_space(args.file)
    b = _require_space(args.to)
    mapping = isometry_search(a, b)
    if mapping is None:
        return 0, {"found": False}
    assert is_isometry(a, b, mapping)
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
    return 0, {"values": [str(v) for v in distance_values(family)]}


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
    return 0, spec_to_json_dict(g)


def _cmd_class_counterexample(args) -> Result:
    fn = counterexample_function(_load_family(args.file))
    return 0, spec_to_json_dict(fn)


def _cmd_class_compare(args) -> Result:
    return 0, compare_families(_load_family(args.file), _load_family(args.to))


# ------------------------------------------------------------- examples --


def _cmd_examples_reproduce(args) -> Result:
    results = run_all()
    failed = [r for r in results if not r.passed]
    payload = {
        "fixtures": [r.to_json_dict() for r in results],
        "total": len(results),
        "failed": len(failed),
    }
    return (1 if failed else 0), payload


# ------------------------------------------------------------- plumbing --


def _add_spec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec", required=True, help="function spec: inline JSON or a file path"
    )


def _add_window(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window",
        type=parse_window,
        default=DEFAULT_WINDOW,
        help="exponent window lo:hi (use --window=-16:16 form for negatives)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicmetrics",
        description="Exact rational checks for p-adic and ultrametric preservation.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    padic = groups.add_parser("padic", help="valuations, absolute values, digits")
    padic_sub = padic.add_subparsers(dest="verb", required=True)
    p_abs = padic_sub.add_parser("abs")
    p_abs.add_argument("--p", type=int, required=True)
    p_abs.add_argument("--x", required=True)
    p_abs.set_defaults(handler=_cmd_padic_abs)
    p_ord = padic_sub.add_parser("ord")
    p_ord.add_argument("--p", type=int, required=True)
    p_ord.add_argument("--x", required=True)
    p_ord.set_defaults(handler=_cmd_padic_ord)
    p_dist = padic_sub.add_parser("dist")
    p_dist.add_argument("--p", type=int, required=True)
    p_dist.add_argument("--x", required=True)
    p_dist.add_argument("--y", required=True)
    p_dist.set_defaults(handler=_cmd_padic_dist)
    p_dig = padic_sub.add_parser("digits")
    p_dig.add_argument("--p", type=int, required=True)
    p_dig.add_argument("--x", required=True)
    p_dig.add_argument("--high", type=int, required=True)
    p_dig.set_defaults(handler=_cmd_padic_digits)

    fn = groups.add_parser("fn", help="function spec checks")
    fn_sub = fn.add_subparsers(dest="verb", required=True)
    f_eval = fn_sub.add_parser("eval")
    _add_spec(f_eval)
    f_eval.add_argument("--x", required=True)
    f_eval.set_defaults(handler=_cmd_fn_eval)
    f_trip = fn_sub.add_parser("triplet")
    f_trip.add_argument("--a", required=True)
    f_trip.add_argument("--b", required=True)
    f_trip.add_argument("--c", required=True)
    f_trip.set_defaults(handler=_cmd_fn_triplet)
    f_cls = fn_sub.add_parser("classify")
    _add_spec(f_cls)
    f_cls.add_argument("--samples", help="comma-separated rationals, must include 0")
    f_cls.add_argument("--p", type=int, help="switch to the p-adic window check")
    _add_window(f_cls)
    f_cls.set_defaults(handler=_cmd_fn_classify)
    f_euc = fn_sub.add_parser("euclid")
    _add_spec(f_euc)
    f_euc.add_argument("--step", default="1/8")
    f_euc.add_argument("--stop", default="8")
    f_euc.set_defaults(handler=_cmd_fn_euclid)
    f_suf = fn_sub.add_parser("sufficient")
    _add_spec(f_suf)
    f_suf.add_argument("--samples", help="comma-separated rationals, must include 0")
    f_suf.set_defaults(handler=_cmd_fn_sufficient)
    f_pc = fn_sub.add_parser("padic-check")
    _add_spec(f_pc)
    f_pc.add_argument("--p", type=int, required=True)
    _add_window(f_pc)
    f_pc.set_defaults(handler=_cmd_fn_padic_check)
    f_puc = fn_sub.add_parser("padic-ultra-check")
    _add_spec(f_puc)
    f_puc.add_argument("--p", type=int, required=True)
    _add_window(f_puc)
    f_puc.set_defaults(handler=_cmd_fn_padic_ultra_check)
    f_psi = fn_sub.add_parser("psi")
    _add_spec(f_psi)
    f_psi.add_argument("--p", type=int, required=True)
    f_psi.add_argument("--x")
    f_psi.set_defaults(handler=_cmd_fn_psi)
    f_ext = fn_sub.add_parser("extend")
    _add_spec(f_ext)
    f_ext.add_argument("--p", type=int, required=True)
    _add_window(f_ext)
    f_ext.set_defaults(handler=_cmd_fn_extend)
    f_swap = fn_sub.add_parser("prime-swap")
    f_swap.add_argument("--p", type=int, required=True)
    f_swap.add_argument("--q", type=int, required=True)
    f_swap.add_argument("--x")
    f_swap.set_defaults(handler=_cmd_fn_prime_swap)
    f_shift = fn_sub.add_parser("prime-shift")
    f_shift.add_argument("--x")
    f_shift.add_argument("--bound", type=int, default=1_000_000)
    f_shift.set_defaults(handler=_cmd_fn_prime_shift)
    f_wit = fn_sub.add_parser("witness")
    f_wit.add_argument("--p", type=int, required=True)
    f_wit.add_argument("--m", type=int, required=True)
    f_wit.add_argument("--n", type=int, required=True)
    f_wit.set_defaults(handler=_cmd_fn_witness)

    space = groups.add_parser("space", help="finite ultrametric spaces")
    space_sub = space.add_subparsers(dest="verb", required=True)
    s_val = space_sub.add_parser("validate")
    s_val.add_argument("--file", required=True)
    s_val.set_defaults(handler=_cmd_space_validate)
    s_app = space_sub.add_parser("apply")
    s_app.add_argument("--file", required=True)
    _add_spec(s_app)
    s_app.set_defaults(handler=_cmd_space_apply)
    s_rng = space_sub.add_parser("range")
    s_rng.add_argument("--file", required=True)
    s_rng.set_defaults(handler=_cmd_space_range)
    s_iso = space_sub.add_parser("isometry")
    s_iso.add_argument("--file", required=True)
    s_iso.add_argument("--to", required=True)
    s_iso.set_defaults(handler=_cmd_space_isometry)
    s_dim = space_sub.add_parser("embed-dim")
    s_dim.add_argument("--file", required=True)
    s_dim.set_defaults(handler=_cmd_space_embed_dim)

    klass = groups.add_parser("class", help="families of spaces and their order")
    klass_sub = klass.add_subparsers(dest="verb", required=True)
    c_ran = klass_sub.add_parser("ran")
    c_ran.add_argument("--file", required=True)
    c_ran.set_defaults(handler=_cmd_class_ran)
    c_pos = klass_sub.add_parser("poset")
    c_pos.add_argument("--file", required=True)
    c_pos.set_defaults(handler=_cmd_class_poset)
    c_chk = klass_sub.add_parser("check")
    c_chk.add_argument("--file", required=True)
    _add_spec(c_chk)
    c_chk.set_defaults(handler=_cmd_class_check)
    c_ext = klass_sub.add_parser("extend")
    c_ext.add_argument("--file", required=True)
    _add_spec(c_ext)
    c_ext.set_defaults(handler=_cmd_class_extend)
    c_cex = klass_sub.add_parser("counterexample")
    c_cex.add_argument("--file", required=True)
    c_cex.set_defaults(handler=_cmd_class_counterexample)
    c_cmp = klass_sub.add_parser("compare")
    c_cmp.add_argument("--file", required=True)
    c_cmp.add_argument("--to", required=True)
    c_cmp.set_defaults(handler=_cmd_class_compare)

    examples = groups.add_parser("examples", help="batch worked examples")
    examples_sub = examples.add_subparsers(dest="verb", required=True)
    e_rep = examples_sub.add_parser("reproduce")
    e_rep.set_defaults(handler=_cmd_examples_reproduce)

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
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
