"""Preservation checks specific to the p-adic metric.

The p-adic distance only takes values 0 and integer powers of p, so whether
a function respects it is decided entirely by the values f(p**k). The two
checks here scan a finite exponent window of w exponents, evaluating f once
per exponent:

  metric:      f(0) = 0 and 0 < f(p**m) <= 2 f(p**n) for all m < n
  ultrametric: f(0) = 0 and 0 < f(p**n) <= f(p**(n+1)) for all n

Both are decided in O(w). The ultrametric condition compares each adjacent
pair of exponents once. The metric (band) condition quantifies over
~w**2/2 pairs, but a pair m < n breaks it exactly when the running maximum
of f(p**m) over m < n exceeds 2 f(p**n), so one sweep from lo to hi
decides it and names every n at which some pair fails.

A failed check reports the failing exponent or pair nearest to zero: the
least one by the key ``_near`` (|k|, k), or by (|m| + |n|, m, n) for a
band pair, taken with ``min`` over the failing candidates; no window is
enumerated in that order, and passing inputs never look at a pair (see
``_band_witness`` for the cost of a band witness). Each image is read
once, as an integer pair by ``FunctionSpec.ratio_at`` at p**k = (p**k, 1)
or (1, p**-k), each power one multiplication past the one before (a
float or bool image is refused, as in the pair-sum checks). Every
comparison is decided on those integers, from their bit lengths first and
by cross-multiplying only where those leave it open (see
``padic._exceeds_scaled``): no Fraction pair is compared, and only a
witness's images become Fractions.

Every failed verdict carries a witness: the offending exponent pair plus a
concrete rational triple whose pairwise p-adic distances are p**m and p**n
and whose distance images violate the triangle (resp. strong triangle)
family. Witness triples are rebuilt from scratch and their distances
re-measured on integers before being returned, so a reported witness is
always checkable by hand.

The window is an honest cutoff, not an approximation claim: a passing
verdict certifies the quantifier only on [lo, hi] and says so. Windows are
capped at MAX_WINDOW_EXPONENTS exponents, and windows and witness triples
at exponents of magnitude MAX_EXPONENT.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat, zip_longest
from operator import mul
from typing import Iterator

from .errors import BadOrderError, NotPreservingError, SelfCheckError, TooLargeError
from .functions import FunctionSpec, PowerMap, StepFunction
from .padic import _Record, _exceeds_scaled, _multiplicity, _power_pair, _text, require_prime


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
class ExponentWindow(_Record):
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


DEFAULT_WINDOW = ExponentWindow(-16, 16)


def _near(k: int) -> tuple[int, int]:
    # the report order: nearest to zero first, the negative side on a tie
    return abs(k), k


def parse_window(text: str) -> ExponentWindow:
    """Parse "lo:hi" into a window, e.g. "-16:16"."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"window must look like lo:hi, got {text!r}")
    return ExponentWindow(int(lo), int(hi))


@dataclass(frozen=True)
class WindowWitness(_Record):
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
            return {"point": "0", "value": _text(self.images[0])}
        if self.kind == "vanishes":
            return {"exponent": self.m, "value": "0"}
        return {
            "m": self.m,
            "n": self.n,
            "triple": list(map(_text, self.triple)),
            "images": list(map(_text, self.images)),
        }


@dataclass(frozen=True)
class PreservationVerdict(_Record):
    passed: bool
    window: ExponentWindow
    reason: str | None = None
    witness: WindowWitness | None = None


def witness_triple(p: int, m: int, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Rationals (x, y, z) with d_p(x,z) = d_p(z,y) = p**m and d_p(x,y) = p**n.

    Requires n < m: the equal legs are the long sides and the base is the
    short one, which is the only shape the strong triangle inequality
    allows. Built by scaling a unit-leg triple: for odd p the points
    (p**k, -p**k, 1) with k = m - n have legs 1, 1 and base p**(-k); for
    p = 2 the midpoint halves ((2**(k-1), -2**(k-1), 1), and (1, -1, 0)
    when k = 1).

    The points are built as integer numerators over one denominator, p**m
    for m >= 0 and 1 otherwise, and re-measured there before they become
    Fractions: v_p of each numerator difference, less v_p of the
    denominator (computed once), must be -m, -m and -n. A difference
    passes when p**(e + v_p(den)) divides it and p**(e + v_p(den) + 1)
    does not, for its e: one division each, where counting the factors of
    p one at a time would take up to 2048 divisions of numbers of 37000
    digits at the exponent caps.

    Raises:
        TooLargeError: if m or n is beyond MAX_EXPONENT in magnitude;
            no power is built before the check.
        SelfCheckError: if the re-measured distances are not the claimed ones.
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
    # the points base * p**-m, as integer numerators over one denominator
    den, scale = _power_pair(p, m)
    x, y, z = (b * scale for b in base)
    shift = _multiplicity(den, p)

    def has_order(diff: int, e: int) -> bool:
        # whether v_p(diff / den) = e; never for diff = 0
        if e + shift < 0:
            return False
        q, r = divmod(diff, p ** (e + shift))
        return r == 0 and q % p != 0

    if not (has_order(x - z, -m) and has_order(z - y, -m) and has_order(x - y, -n)):
        raise SelfCheckError(f"witness triple for p={p}, m={m}, n={n} does not verify")
    return Fraction(x, den), Fraction(y, den), Fraction(z, den)


def _power_images(
    f: FunctionSpec, p: int, window: ExponentWindow
) -> tuple[list[tuple[int, int]], dict[int, tuple[int, int]]]:
    """The powers p**k of the window, from lo to hi, and f read at each.

    A power is the pair (p**k, 1) or (1, p**-k), built by one pow at the
    least |k| of the window and one multiplication for each larger |k|;
    so a spec read the default way gets Fraction(p**k) or
    Fraction(1, p**-k), as it did before pairs. Each image is (numerator,
    positive denominator), for cross-multiplication.
    """
    lo, hi, read = window.lo, window.hi, f.ratio_at
    least, ks = max(lo, -hi, 0), range(lo, hi + 1)
    ladder = list(accumulate(repeat(p, max(-lo, hi) - least), mul, initial=p**least))
    powers = [(ladder[k - least], 1) if k >= 0 else (1, ladder[-k - least]) for k in ks]
    return powers, {k: read(*x) for k, x in zip(ks, powers)}


def _shared_gate(
    f: FunctionSpec, window: ExponentWindow, images: dict[int, tuple[int, int]]
) -> PreservationVerdict | None:
    f0 = f.ratio_at(0, 1)
    if f0[0] != 0:
        return PreservationVerdict(
            False, window, "origin", WindowWitness("origin", images=(Fraction(*f0),))
        )
    zeros = [k for k, (v, _) in images.items() if v == 0]
    if zeros:
        k = min(zeros, key=_near)
        return PreservationVerdict(False, window, "vanishes", WindowWitness("vanishes", m=k))
    return None


def _pair_verdict(
    kind: str,
    p: int,
    window: ExponentWindow,
    images: dict[int, tuple[int, int]],
    m: int,
    n: int,
) -> PreservationVerdict:
    # the failed verdict for m < n, with the images (f(p**n), f(p**n), f(p**m))
    legs, base = Fraction(*images[n]), Fraction(*images[m])
    witness = WindowWitness(kind, m, n, witness_triple(p, n, m), (legs, legs, base))
    return PreservationVerdict(False, window, kind, witness)


def _band_breaks(images: dict[int, tuple[int, int]], window: ExponentWindow) -> set[int]:
    # The n at which the largest value before n exceeds 2 images[n]: exactly
    # the n of the failing pairs m < n, since images[m] > 2 images[n] forces
    # the running maximum at n above it too. The scales decide first (see
    # padic._exceeds_scaled): a gap of -2 or less from the maximum's to n's
    # makes n the maximum, and one of 3 or more breaks the band at n.
    breaks = set()
    values = iter(images.values())
    top, top_den = next(values)
    top_t = top.bit_length() - top_den.bit_length()
    for k, (v, den) in zip(range(window.lo + 1, window.hi + 1), values):
        t = v.bit_length() - den.bit_length()
        gap = top_t - t
        if gap < -1:
            top, top_den, top_t = v, den, t
        elif gap > 2:
            breaks.add(k)
        else:
            # both values over the common denominator top_den * den
            top_over, v_over = top * den, v * top_den
            if top_over > 2 * v_over:
                breaks.add(k)
            if v_over > top_over:
                top, top_den, top_t = v, den, t
    return breaks


def _near_order(ms: range) -> Iterator[int]:
    # the integers of ms in ``_near`` order: its nonnegatives 0, 1, ... and
    # its negatives -1, -2, ... interleaved
    up, down = range(max(ms.start, 0), ms.stop), range(min(ms.stop, 0) - 1, ms.start - 1, -1)
    return (m for m in chain.from_iterable(zip_longest(up, down)) if m is not None)


def _band_witness(
    images: dict[int, tuple[int, int]], window: ExponentWindow, breaks: set[int]
) -> tuple[int, int]:
    """The least failing pair m < n by (|m| + |n|, m, n).

    The breaks are visited in ``_near`` order, and for each break n the
    m < n are tried in ``_near`` order, the first with f(p**m) > 2 f(p**n)
    being the least. This finds
    the least pair: for a fixed n, the order (|m| + |n|, m, n) is the
    order (|m|, m), so the m taken is the best pair with that n; every
    pair with n has rank |m| + |n| at least |n|, so once |n| exceeds the
    rank of the best pair so far no later break can beat it (the test is
    strict, because a pair with m = 0 and a tied rank wins on m); and the
    sweep names every n at which some pair fails, so no other n can hold
    a failing pair. After the first break only |m| <= rank - |n| can tie
    or beat the best pair, so only those m are searched. The first break
    may search its whole range; if no m fails there, the sweep was wrong,
    and SelfCheckError is raised. Each test goes through
    ``padic._exceeds_scaled``.
    """

    def least_m(n: int, ms: range) -> int | None:
        low = images[n]
        t = low[0].bit_length() - low[1].bit_length()
        for m in _near_order(ms):
            a = images[m]
            if _exceeds_scaled(a, low, a[0].bit_length() - a[1].bit_length() - t, 1):
                return m
        return None

    first, *rest = sorted(breaks, key=_near)
    m = least_m(first, range(window.lo, first))
    if m is None:
        raise SelfCheckError(
            f"the band sweep failed on [{window.lo}, {window.hi}] but no pair breaks it"
        )
    best = (abs(m) + abs(first), m, first)
    for n in rest:
        reach = best[0] - abs(n)
        if reach < 0:
            break
        m = least_m(n, range(max(window.lo, -reach), min(n, reach + 1)))
        if m is not None:
            best = min(best, (abs(m) + abs(n), m, n))
    return best[1], best[2]


def check_p_metric_preserving(
    f: FunctionSpec, p: int, window: ExponentWindow = DEFAULT_WINDOW
) -> PreservationVerdict:
    """Decide the two-sided band condition f(p**m) <= 2 f(p**n), m < n.

    One O(w) sweep decides it: the band breaks exactly when, for some n,
    the running maximum of f(p**m) over m < n exceeds 2 f(p**n), and it
    names every such n. Only on failure is the reported pair sought: the
    least failing pair by (|m| + |n|, m, n), found by ``_band_witness``
    with one search for m per break it visits, O(w) for the first and
    bounded by the best rank after it. It is the pair a scan of every
    pair in that order would report first. The sweep compares by bit
    lengths first and multiplies only where those leave the order open.

    On failure the witness pins the offending pair and a rational triple
    realizing the two distances; its distance images (f(p**n), f(p**n),
    f(p**m)) then break the plain triangle inequality.
    """
    require_prime(p)
    images = _power_images(f, p, window)[1]
    early = _shared_gate(f, window, images)
    if early is not None:
        return early
    breaks = _band_breaks(images, window)
    if not breaks:
        return PreservationVerdict(True, window)
    return _pair_verdict("band", p, window, images, *_band_witness(images, window, breaks))


def check_p_ultrametric_preserving(
    f: FunctionSpec, p: int, window: ExponentWindow = DEFAULT_WINDOW
) -> PreservationVerdict:
    """Decide monotonicity over consecutive powers: f(p**n) <= f(p**(n+1)).

    A failure reports the least n by ``_near`` with f(p**n) > f(p**(n+1)).
    A pair whose scales are 2 or more apart is settled without a product.
    """
    return _ultrametric_verdict(f, p, window)[0]


def _ultrametric_verdict(
    f: FunctionSpec, p: int, window: ExponentWindow
) -> tuple[PreservationVerdict, list[tuple[int, int]], dict[int, tuple[int, int]]]:
    # the verdict plus the powers and images it was decided on; scales 2 or
    # more apart settle an adjacent pair either way (padic._exceeds_scaled)
    require_prime(p)
    powers, images = _power_images(f, p, window)
    early = _shared_gate(f, window, images)
    if early is not None:
        return early, powers, images
    drops = []
    values = iter(images.values())
    a, a_den = next(values)
    t_a = a.bit_length() - a_den.bit_length()
    for n, (b, b_den) in zip(range(window.lo, window.hi), values):
        t_b = b.bit_length() - b_den.bit_length()
        if (gap := t_a - t_b) > 1 or gap > -2 and a * b_den > b * a_den:
            drops.append(n)
        a, a_den, t_a = b, b_den, t_b
    if drops:
        n = min(drops, key=_near)
        return _pair_verdict("adjacent", p, window, images, n, n + 1), powers, images
    return PreservationVerdict(True, window), powers, images


def extend_to_ultrametric_preserving(
    f: FunctionSpec, p: int, window: ExponentWindow = DEFAULT_WINDOW
) -> StepFunction:
    """Monotone step extension agreeing with f at the window's p-powers.

    Clamps to f(p**lo) below the window and to f(p**hi) above it, so the
    output is increasing and amenable on all of the nonnegatives, not just
    near the powers. Requires the window check to pass first.
    """
    verdict, powers, images = _ultrametric_verdict(f, p, window)
    if not verdict.passed:
        raise NotPreservingError(
            f"f is not {p}-adic ultrametric preserving on "
            f"[{window.lo}, {window.hi}]: {verdict.reason}"
        )
    points = tuple((Fraction(*x), Fraction(*y)) for x, y in zip(powers, images.values()))
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
