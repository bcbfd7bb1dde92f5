"""Preservation checks specific to the p-adic metric.

The p-adic distance only takes values 0 and integer powers of p, so whether
a function respects it is decided entirely by the values f(p**k). The two
checks here scan a finite exponent window of w exponents, evaluating f once
per exponent:

  metric:      f(0) = 0 and 0 < f(p**m) <= 2 f(p**n) for all m < n
  ultrametric: f(0) = 0 and 0 < f(p**n) <= f(p**(n+1)) for all n

Both are decided in O(w). The ultrametric condition is a walk over adjacent
exponents. The metric (band) condition quantifies over ~w**2/2 pairs, but a
pair m < n breaks it exactly when the running maximum of f(p**m) over
m < n exceeds 2 f(p**n), so one sweep from lo to hi decides it. Only when
the sweep finds a failure is the reported pair sought, by a lazy walk over
the pairs in (|m| + |n|, m, n) order that stops at the first failing one;
passing inputs never enumerate pairs. Each image is coerced once by
``as_fraction`` (so a float or bool image is refused, as in the pair-sum
checks) and split into numerator and positive denominator, and every
comparison cross-multiplies those integers: no Fraction pair is compared.

Every failed verdict carries a witness: the offending exponent pair plus a
concrete rational triple whose pairwise p-adic distances are p**m and p**n
and whose distance images violate the triangle (resp. strong triangle)
family. Witness triples are rebuilt from scratch and re-measured before
being returned, so a reported witness is always checkable by hand.

The window is an honest cutoff, not an approximation claim: a passing
verdict certifies the quantifier only on [lo, hi] and says so. Windows are
capped at MAX_WINDOW_EXPONENTS exponents, and windows and witness triples
at exponents of magnitude MAX_EXPONENT.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BadOrderError, NotPreservingError, SelfCheckError, TooLargeError
from .functions import FunctionSpec, PowerMap, StepFunction
from .padic import as_fraction, padic_distance, require_prime
from .preserving import _ratio


# The widest window accepted, in exponents: -512..512 and its shifts.
MAX_WINDOW_EXPONENTS = 1025
# The largest exponent magnitude accepted. The cost of p**k grows with |k|,
# so the width cap alone does not bound a check: for p = 2**61 - 1 the
# window 0:1024 takes about 4 s on Python 3.11, and 3072:4096 over a minute.
MAX_EXPONENT = 1024


def _check_exponents(*exponents: int) -> None:
    # before any power of p is built
    for k in exponents:
        if abs(k) > MAX_EXPONENT:
            raise TooLargeError(
                f"exponent {k} is beyond the {MAX_EXPONENT} accepted in magnitude"
            )


@dataclass(frozen=True)
class ExponentWindow:
    """Inclusive exponent range standing in for "all integers".

    Raises:
        ValueError: if lo > hi.
        TooLargeError: if the window holds more than MAX_WINDOW_EXPONENTS
            exponents, or an exponent beyond MAX_EXPONENT in magnitude;
            nothing is allocated before the check.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")
        width = self.hi - self.lo + 1
        if width > MAX_WINDOW_EXPONENTS:
            raise TooLargeError(
                f"window [{self.lo}, {self.hi}] holds {width} exponents, "
                f"more than the {MAX_WINDOW_EXPONENTS} accepted"
            )
        _check_exponents(self.lo, self.hi)

    def exponents(self) -> list[int]:
        """All exponents, nearest to zero first (ties: negative first)."""
        return _nearest_zero_first(self.lo, self.hi)

    def adjacent(self) -> list[tuple[int, int]]:
        """All pairs (n, n+1), nearest to zero first."""
        return [(n, n + 1) for n in _nearest_zero_first(self.lo, self.hi - 1)]

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}


DEFAULT_WINDOW = ExponentWindow(-16, 16)


def _nearest_zero_first(lo: int, hi: int) -> list[int]:
    # lo..hi in (|k|, k) order, empty if hi < lo; built without a sort
    if lo >= 0:
        return list(range(lo, hi + 1))
    if hi <= 0:
        return list(range(hi, lo - 1, -1))
    # 0, then -r, r while both sides last, then the rest of the longer side
    both = min(-lo, hi)
    out = [0]
    for r in range(1, both + 1):
        out += (-r, r)
    out += range(-both - 1, lo - 1, -1) if -lo > hi else range(both + 1, hi + 1)
    return out


def _spiral_pairs(window: ExponentWindow) -> Iterator[tuple[int, int]]:
    """All pairs m < n, in (|m| + |n|, m, n) order.

    The scan spirals out from the origin so that a failing check reports
    the witness with the most readable exponents, not the one nearest the
    window's lower corner.
    """
    # No list and no sort: for each combined magnitude s, m rises through
    # [max(lo, -s), min(hi, s)] and n = -r, then r, where r = s - |m|.
    lo, hi = window.lo, window.hi
    near = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    far = max(abs(lo), abs(hi))
    for s in range(2 * near, 2 * far + 1):
        for m in range(max(lo, -s), min(hi, s) + 1):
            r = s - abs(m)
            for n in (-r, r) if r else (0,):
                if m < n <= hi:
                    yield m, n


def parse_window(text: str) -> ExponentWindow:
    """Parse "lo:hi" into a window, e.g. "-16:16"."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"window must look like lo:hi, got {text!r}")
    return ExponentWindow(int(lo), int(hi))


@dataclass(frozen=True)
class WindowWitness:
    """Evidence for a failed window check.

    kind "band" or "adjacent" carries the exponent pair (m < n), a rational
    triple whose pairwise distances realize p**m and p**n, and the images
    of those distances in failing order (legs, legs, base). kind "origin"
    means f(0) != 0; kind "vanishes" means f(p**exponent) = 0.
    """

    kind: str
    m: int | None = None
    n: int | None = None
    triple: tuple[Fraction, Fraction, Fraction] | None = None
    images: tuple[Fraction, ...] = ()

    def to_json_dict(self) -> dict:
        if self.kind == "origin":
            return {"point": "0", "value": str(self.images[0])}
        if self.kind == "vanishes":
            return {"exponent": self.m, "value": "0"}
        return {
            "m": self.m,
            "n": self.n,
            "triple": [str(v) for v in self.triple],
            "images": [str(v) for v in self.images],
        }


@dataclass(frozen=True)
class PreservationVerdict:
    passed: bool
    window: ExponentWindow
    reason: str | None = None
    witness: WindowWitness | None = None

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "window": self.window.to_json_dict(),
            "reason": self.reason,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


def witness_triple(p: int, m: int, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Rationals (x, y, z) with d_p(x,z) = d_p(z,y) = p**m and d_p(x,y) = p**n.

    Requires n < m: the equal legs are the long sides and the base is the
    short one, which is the only shape the strong triangle inequality
    allows. Built by scaling a unit-leg triple: for odd p the points
    (p**k, -p**k, 1) with k = m - n have legs 1, 1 and base p**(-k); for
    p = 2 the midpoint halves ((2**(k-1), -2**(k-1), 1), and (1, -1, 0)
    when k = 1). The result is re-measured before being returned.

    Raises:
        TooLargeError: if m or n is beyond MAX_EXPONENT in magnitude;
            no power is built before the check.
    """
    require_prime(p)
    if n >= m:
        raise BadOrderError(f"need n < m, got m={m}, n={n}")
    _check_exponents(m, n)
    k = m - n
    if p == 2:
        base = (1, -1, 0) if k == 1 else (2 ** (k - 1), -(2 ** (k - 1)), 1)
    else:
        base = (p**k, -(p**k), 1)
    scale = Fraction(p) ** (-m)
    x, y, z = (scale * b for b in base)

    legs = Fraction(p) ** m
    short = Fraction(p) ** n
    ok = (
        padic_distance(x, z, p) == legs
        and padic_distance(z, y, p) == legs
        and padic_distance(x, y, p) == short
    )
    if not ok:
        raise SelfCheckError(f"witness triple for p={p}, m={m}, n={n} does not verify")
    return (x, y, z)


def _power_values(
    f: FunctionSpec, p: int, window: ExponentWindow
) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    # the powers p**k of the window, and f read at each from lo to hi
    base = Fraction(p)
    powers = {k: base**k for k in range(window.lo, window.hi + 1)}
    return powers, {k: f(x) for k, x in powers.items()}


def _exact(values: dict[int, Fraction]) -> dict[int, tuple[int, int]]:
    # each image coerced once, so floats and bools are refused, and split
    # into numerator and positive denominator for cross-multiplication
    return {k: _ratio(as_fraction(v)) for k, v in values.items()}


def _shared_gate(
    f: FunctionSpec, p: int, window: ExponentWindow, values: dict[int, Fraction]
) -> PreservationVerdict | None:
    f0 = f(Fraction(0))
    if f0 != 0:
        return PreservationVerdict(
            False, window, "origin", WindowWitness("origin", images=(f0,))
        )
    for k in window.exponents():
        if values[k] == 0:
            return PreservationVerdict(
                False, window, "vanishes", WindowWitness("vanishes", m=k)
            )
    return None


def _band_breaks(exact: dict[int, tuple[int, int]], window: ExponentWindow) -> set[int]:
    # The n at which the largest value before n exceeds 2 values[n]: exactly
    # the n of the failing pairs m < n, since values[m] > 2 values[n] forces
    # the running maximum at n above it too.
    breaks = set()
    top, top_den = exact[window.lo]
    for k in range(window.lo + 1, window.hi + 1):
        v, den = exact[k]
        # both values over the common denominator top_den * den
        top_over, v_over = top * den, v * top_den
        if top_over > 2 * v_over:
            breaks.add(k)
        if v_over > top_over:
            top, top_den = v, den
    return breaks


def check_p_metric_preserving(
    f: FunctionSpec, p: int, window: ExponentWindow = DEFAULT_WINDOW
) -> PreservationVerdict:
    """Decide the two-sided band condition f(p**m) <= 2 f(p**n), m < n.

    One O(w) sweep decides it: the band breaks exactly when, for some n,
    the running maximum of f(p**m) over m < n exceeds 2 f(p**n), and it
    names every such n. Only on failure are the pairs walked, lazily and in
    the (|m| + |n|, m, n) order of :func:`_spiral_pairs`, to the
    first failing one, comparing values only for pairs whose n was named:
    no other pair can fail. The witness is therefore the same pair a scan
    of every pair in that order would report: the walk visits pairs in
    that order and starts only when a failing pair exists.

    On failure the witness pins the offending pair and a rational triple
    realizing the two distances; its distance images (f(p**n), f(p**n),
    f(p**m)) then break the plain triangle inequality.
    """
    require_prime(p)
    values = _power_values(f, p, window)[1]
    early = _shared_gate(f, p, window, values)
    if early is not None:
        return early
    exact = _exact(values)
    breaks = _band_breaks(exact, window)
    if not breaks:
        return PreservationVerdict(True, window)
    for m, n in _spiral_pairs(window):
        if n not in breaks:
            continue
        (vm, dm), (vn, dn) = exact[m], exact[n]
        if vm * dn > 2 * vn * dm:
            triple = witness_triple(p, n, m)
            witness = WindowWitness(
                "band",
                m=m,
                n=n,
                triple=triple,
                images=(values[n], values[n], values[m]),
            )
            return PreservationVerdict(False, window, "band", witness)
    raise SelfCheckError(
        f"the band sweep failed on [{window.lo}, {window.hi}] but no pair breaks it"
    )


def check_p_ultrametric_preserving(
    f: FunctionSpec, p: int, window: ExponentWindow = DEFAULT_WINDOW
) -> PreservationVerdict:
    """Decide monotonicity over consecutive powers: f(p**n) <= f(p**(n+1))."""
    return _ultrametric_verdict(f, p, window)[0]


def _ultrametric_verdict(
    f: FunctionSpec, p: int, window: ExponentWindow
) -> tuple[PreservationVerdict, dict[int, Fraction], dict[int, Fraction]]:
    # the verdict plus the powers and the values it was decided on
    require_prime(p)
    powers, values = _power_values(f, p, window)
    early = _shared_gate(f, p, window, values)
    if early is not None:
        return early, powers, values
    exact = _exact(values)
    for n, n1 in window.adjacent():
        (v, den), (v1, den1) = exact[n], exact[n1]
        if v * den1 > v1 * den:
            triple = witness_triple(p, n1, n)
            witness = WindowWitness(
                "adjacent",
                m=n,
                n=n1,
                triple=triple,
                images=(values[n1], values[n1], values[n]),
            )
            return PreservationVerdict(False, window, "adjacent", witness), powers, values
    return PreservationVerdict(True, window), powers, values


def extend_to_ultrametric_preserving(
    f: FunctionSpec, p: int, window: ExponentWindow = DEFAULT_WINDOW
) -> StepFunction:
    """Monotone step extension agreeing with f at the window's p-powers.

    Clamps to f(p**lo) below the window and to f(p**hi) above it, so the
    output is increasing and amenable on all of the nonnegatives, not just
    near the powers. Requires the window check to pass first.
    """
    verdict, powers, values = _ultrametric_verdict(f, p, window)
    if not verdict.passed:
        raise NotPreservingError(
            f"f is not {p}-adic ultrametric preserving on "
            f"[{window.lo}, {window.hi}]: {verdict.reason}"
        )
    points = tuple(zip(powers.values(), values.values()))
    return StepFunction(below=points[0][1], points=points)


def closed_form_note(f: FunctionSpec) -> str | None:
    """A window-free remark for specs whose power values have a closed form."""
    if isinstance(f, PowerMap):
        return (
            f"values at powers of {f.p} are the powers of {f.q}, which are "
            f"strictly increasing in the exponent, so the adjacent condition "
            f"holds on every window"
        )
    return None
