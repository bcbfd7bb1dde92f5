"""Sampled checks for metric-preserving behaviour of a function spec.

A triple (a, b, c) of nonnegative rationals is a triangle triplet when each
entry is at most the sum of the other two; it is a strong triplet when each
entry is at most the maximum of the other two (equivalently, the two largest
entries are equal). A function preserves a metric property on a sample set
exactly when the corresponding triplet images stay in the right family, so
the checks below reduce to finite scans with exact arithmetic. Sorted triples
are enough: both families are closed under permuting the entries, so the
lexicographically least failing ordered triple is itself sorted.

Every verdict carries a short hash of the canonicalized sample set, so a
recorded verdict can be tied back to the inputs that produced it. A passing
sampled verdict certifies the sampled triples only, nothing beyond them.
"""

from __future__ import annotations

import hashlib
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Sequence

from .errors import EquivalenceBreachError, NegativeInputError
from .functions import FunctionSpec, PiecewiseLinear, StepFunction
from .padic import RationalLike, as_fraction


@dataclass(frozen=True)
class Witness:
    """A concrete configuration that violates the checked property.

    kind is one of:
      "triple":   points (a, b, c) whose images leave the target family
      "pair":     points (a, b) with a < b and f(a) > f(b) (or > 2 f(b))
      "origin":   f(0) is nonzero
      "vanishes": a positive point with image 0
    """

    kind: str
    points: tuple[Fraction, ...]
    images: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "points": [str(x) for x in self.points],
            "images": [str(x) for x in self.images],
        }


@dataclass(frozen=True)
class TripletVerdict:
    passed: bool
    samples_hash: str
    witness: Witness | None = None

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "samples_hash": self.samples_hash,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


@dataclass(frozen=True)
class SufficientConditions:
    """Simple sufficient conditions for metric preservation."""

    band: bool
    concave: bool
    subadditive_on_samples: bool

    def to_json_dict(self) -> dict:
        return {
            "band": self.band,
            "concave": self.concave,
            "subadditive_on_samples": self.subadditive_on_samples,
        }


def samples_digest(samples: Iterable[Fraction]) -> str:
    canon = ",".join(str(x) for x in sorted(set(samples)))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _canonical(samples: Iterable[RationalLike]) -> list[Fraction]:
    out = sorted({as_fraction(x) for x in samples})
    if any(x < 0 for x in out):
        raise NegativeInputError("samples must be nonnegative")
    return out


def is_triangle_triplet(a: RationalLike, b: RationalLike, c: RationalLike) -> bool:
    """True when each of a, b, c is at most the sum of the other two."""
    a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
    if a < 0 or b < 0 or c < 0:
        raise NegativeInputError("triplet entries must be nonnegative")
    return a <= b + c and b <= a + c and c <= a + b


def is_strong_triplet(a: RationalLike, b: RationalLike, c: RationalLike) -> bool:
    """True when each entry is at most the max of the other two."""
    a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
    if a < 0 or b < 0 or c < 0:
        raise NegativeInputError("triplet entries must be nonnegative")
    return a <= max(b, c) and b <= max(a, c) and c <= max(a, b)


def _amenability_witness(f: FunctionSpec, samples: Sequence[Fraction]) -> Witness | None:
    # amenable: f(0) = 0 and f strictly positive on the positive samples
    f0 = f(Fraction(0))
    if f0 != 0:
        return Witness("origin", (Fraction(0),), (f0,))
    for x in samples:
        if x > 0 and f(x) == 0:
            return Witness("vanishes", (x,), (Fraction(0),))
    return None


def _first_bad_triple(
    f: FunctionSpec,
    xs: Sequence[Fraction],
    reach: Callable[[Fraction, Fraction], Fraction],
    image_ok: Callable[[Fraction, Fraction, Fraction], bool],
) -> Witness | None:
    # xs ascending and nonnegative. A sorted triple a <= b <= c lies in the
    # scanned family exactly when c <= reach(a, b): a + b for triangles,
    # max(a, b) for strong triplets. Sorted triples are walked in
    # lexicographic order, so the first failure is the least one.
    values = {x: f(x) for x in xs}
    for i, a in enumerate(xs):
        for j, b in enumerate(xs[i:], i):
            for c in xs[j : bisect_right(xs, reach(a, b), j)]:
                fa, fb, fc = values[a], values[b], values[c]
                if not image_ok(fa, fb, fc):
                    return Witness("triple", (a, b, c), (fa, fb, fc))
    return None


def check_metric_preserving_sampled(
    f: FunctionSpec, samples: Iterable[RationalLike]
) -> TripletVerdict:
    """Scan all triangle triplets drawn from the samples through f.

    The sample set must contain 0. Fails with the lexicographically least
    witness: first an amenability breach if any, then the least triple
    (a, b, c) in the triangle family whose image is not.
    """
    xs = _canonical(samples)
    if Fraction(0) not in xs:
        raise ValueError("the sample set must contain 0")
    digest = samples_digest(xs)
    bad = _amenability_witness(f, xs) or _first_bad_triple(
        f, xs, operator.add, is_triangle_triplet
    )
    return TripletVerdict(bad is None, digest, bad)


def _refine(f: FunctionSpec, xs: list[Fraction]) -> list[Fraction]:
    # For shapes with finitely many kinks, fold the kink abscissas into the
    # sample set so the pairwise monotonicity inspection is exact rather
    # than grid-dependent.
    extra: list[Fraction] = []
    if isinstance(f, PiecewiseLinear):
        extra = [x for x, _ in f.points]
    elif isinstance(f, StepFunction) and f.points:
        first = f.points[0][0]
        extra = [t for t, _ in f.points] + [first / 2]
    if not extra:
        return xs
    return sorted(set(xs) | set(extra))


def _monotone_witness(f: FunctionSpec, xs: Sequence[Fraction]) -> Witness | None:
    prev_x: Fraction | None = None
    prev_y: Fraction | None = None
    for x in xs:
        y = f(x)
        if prev_x is not None and prev_y > y:
            return Witness("pair", (prev_x, x), (prev_y, y))
        prev_x, prev_y = x, y
    return None


def check_ultrametric_preserving(
    f: FunctionSpec, samples: Iterable[RationalLike]
) -> TripletVerdict:
    """Decide ultrametric preservation on a sample set, two ways.

    Procedure one checks that f is amenable and nondecreasing; for
    piecewise-linear and step shapes the sample set is refined with the
    kink abscissas first, which makes the pairwise inspection exact.
    Procedure two scans every strong triplet drawn from the (refined)
    samples and requires a strong triplet image. The two procedures are
    provably equivalent on the same point set; a disagreement raises
    EquivalenceBreachError because it can only come from a bug.
    """
    xs = _refine(f, _canonical(samples))
    digest = samples_digest(xs)

    amen = _amenability_witness(f, xs)
    direct = amen or _monotone_witness(f, xs)

    scan = amen or _first_bad_triple(f, xs, max, is_strong_triplet)

    if (direct is None) != (scan is None):
        raise EquivalenceBreachError(
            f"monotonicity inspection and triplet scan disagree: {direct} vs {scan}"
        )
    return TripletVerdict(direct is None, digest, direct)


def check_ultra_to_metric(
    f: FunctionSpec, samples: Iterable[RationalLike]
) -> TripletVerdict:
    """Decide whether f carries ultrametrics into plain metrics, sampled.

    Direct form: f(0) = 0 and 0 < f(a) <= 2 f(b) for all sampled 0 < a < b.
    Cross-check: every sampled strong triplet must map into the triangle
    family. Both run; disagreement raises EquivalenceBreachError.
    """
    xs = _canonical(samples)
    digest = samples_digest(xs)

    amen = _amenability_witness(f, xs)
    direct: Witness | None = amen
    if direct is None:
        positives = [x for x in xs if x > 0]
        for i, a in enumerate(positives):
            for b in positives[i + 1 :]:
                if f(a) > 2 * f(b):
                    direct = Witness("pair", (a, b), (f(a), f(b)))
                    break
            if direct is not None:
                break

    scan = amen or _first_bad_triple(f, xs, max, is_triangle_triplet)

    if (direct is None) != (scan is None):
        raise EquivalenceBreachError(
            f"pair inspection and triplet scan disagree: {direct} vs {scan}"
        )
    return TripletVerdict(direct is None, digest, direct)


def check_euclid_preserving_sampled(
    f: FunctionSpec, pairs: Iterable[tuple[RationalLike, RationalLike]]
) -> TripletVerdict:
    """Check (f(a), f(b), f(a+b)) is a triangle triplet for sampled pairs."""
    canon = sorted({(as_fraction(a), as_fraction(b)) for a, b in pairs})
    if any(a < 0 or b < 0 for a, b in canon):
        raise NegativeInputError("pair entries must be nonnegative")
    digest = samples_digest([x for pair in canon for x in pair])
    for a, b in canon:
        fa, fb, fc = f(a), f(b), f(a + b)
        if not is_triangle_triplet(fa, fb, fc):
            return TripletVerdict(
                False, digest, Witness("triple", (a, b, a + b), (fa, fb, fc))
            )
    return TripletVerdict(True, digest)


def pairs_from_grid(step: RationalLike, stop: RationalLike) -> list[tuple[Fraction, Fraction]]:
    """All unordered pairs from the grid {0, step, 2 step, ..., stop}."""
    step = as_fraction(step)
    stop = as_fraction(stop)
    if step <= 0 or stop < step:
        raise ValueError("need 0 < step <= stop")
    grid = []
    k = 0
    while k * step <= stop:
        grid.append(k * step)
        k += 1
    return list(combinations_with_replacement(grid, 2))


def sufficient_conditions(
    f: FunctionSpec, samples: Iterable[RationalLike]
) -> SufficientConditions:
    """Evaluate three classic sufficient conditions on a sample set.

    band: some a > 0 has a <= f(x) <= 2a across the positive samples.
    concave: exact slope inspection for piecewise-linear shapes, otherwise
        nonincreasing secant slopes through the sampled points.
    subadditive_on_samples: f(a+b) <= f(a) + f(b) for all sampled pairs.
    """
    xs = _canonical(samples)
    positives = [x for x in xs if x > 0]

    band = False
    if positives:
        values = [f(x) for x in positives]
        low, high = min(values), max(values)
        band = low > 0 and high <= 2 * low

    if isinstance(f, PiecewiseLinear):
        slopes = list(f.segment_slopes())
        if f.tail == "constant":
            slopes.append(Fraction(0))
        concave = all(s0 >= s1 for s0, s1 in zip(slopes, slopes[1:]))
    else:
        secants = []
        for a, b in zip(xs, xs[1:]):
            secants.append((f(b) - f(a)) / (b - a))
        concave = all(s0 >= s1 for s0, s1 in zip(secants, secants[1:]))

    subadditive = True
    for i, a in enumerate(xs):
        for b in xs[i:]:
            if f(a + b) > f(a) + f(b):
                subadditive = False
                break
        if not subadditive:
            break

    return SufficientConditions(band, concave, subadditive)


def default_samples(f: FunctionSpec, bound: RationalLike = 8) -> tuple[Fraction, ...]:
    """A reasonable sample grid for a spec: kink-aware when kinks exist."""
    bound = as_fraction(bound)
    base = {Fraction(0)}
    if isinstance(f, PiecewiseLinear):
        xs = [x for x, _ in f.points]
        base.update(xs)
        base.update((a + b) / 2 for a, b in zip(xs, xs[1:]))
        base.update(a + b for a in xs for b in xs if a + b <= max(bound, xs[-1]))
        base.add(xs[-1] + 1)
    elif isinstance(f, StepFunction):
        ts = [t for t, _ in f.points]
        base.update(ts)
        base.update((a + b) / 2 for a, b in zip(ts, ts[1:]))
        if ts:
            base.add(ts[0] / 2)
            base.add(2 * ts[-1])
        else:
            base.update((Fraction(1, 2), Fraction(1), Fraction(2)))
    else:
        base.update(
            Fraction(n, d)
            for n, d in ((1, 8), (1, 4), (1, 2), (1, 1), (3, 2), (2, 1), (3, 1), (4, 1), (8, 1))
            if Fraction(n, d) <= bound
        )
    return tuple(sorted(base))
