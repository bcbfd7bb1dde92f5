"""Sampled checks for metric-preserving behaviour of a function spec.

A triple (a, b, c) of nonnegative rationals is a triangle triplet when each
entry is at most the sum of the other two; it is a strong triplet when each
entry is at most the maximum of the other two (equivalently, the two largest
entries are equal). A function preserves a metric property on a sample set
exactly when the corresponding triplet images stay in the right family, so
the checks below reduce to finite scans with exact arithmetic. Sorted triples
are enough: both families are closed under permuting the entries, so the
lexicographically least failing ordered triple is itself sorted.

Every check holds its samples as ascending integer keys k over one common
denominator L (``_sample_keys``), for k / L: scaling by L > 0 keeps order
and equality, so a sample becomes a Fraction only in a witness or a message.

Every check evaluates f once per distinct point, in the order in which the
points are first needed, so the first error a spec raises does not depend
on how many routes read its value. Each image is read by
``FunctionSpec.ratio_at`` as an integer pair (numerator, positive
denominator), so the specs that compute on integers build no Fraction for
it; only the images in a witness become Fractions. The three triplet checks
run through one routine (``_triplet_verdict``): the amenability gate reads
the images of their samples once, ascending, and one route decides.

On distinct sorted samples a strong triplet is (a, b, b), so the two
ultrametric checks need no triple scan: f preserves the strong triplets
exactly when it is nondecreasing on the samples (``_monotone_witness``),
and carries them to triangle triplets exactly when f(a) <= 2 f(b) for
every sampled 0 < a < b (``_halving_witness``). Both are O(n) sweeps. The
pairwise scans they replace are kept in the tests as the oracle.

The metric check scans the triangle triplets (``_first_bad_triple``). It
visits each sorted pair a <= b once; the images allowed for c form one
interval, the pair's band |f(a) - f(b)| <= f(c) <= f(a) + f(b), computed
inline from the pair's two integer images. The admissible c form the
range b <= c <= a + b, and sparse tables of range minima and maxima bound
its images in O(1) per pair; only a pair whose query fails has its range
walked, upwards, to its least bad c, so n samples cost O(n^2). Pairs go
in lexicographic order and every earlier pair has no bad c at all, so the
witness is the least failing sorted triple.

Every verdict carries a short hash of the distinct sorted samples, so a
recorded verdict can be tied back to the inputs that produced it. A passing
sampled verdict certifies the sampled triples only, nothing beyond them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, pairwise
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import NegativeInputError, SelfCheckError, TooLargeError
from .functions import FunctionSpec, PiecewiseLinear, StepFunction
from .padic import RationalLike, _Record, _common, _exceeds, _ratio, _text, as_fraction

# An image f(x) as (numerator, positive denominator), not always in lowest
# terms: what FunctionSpec.ratio_at returns
Ratio = tuple[int, int]

# The most points accepted in a grid or a sample set, as for exponent windows.
MAX_GRID_POINTS = 1025


@dataclass(frozen=True)
class Witness(_Record):
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


@dataclass(frozen=True)
class TripletVerdict(_Record):
    passed: bool
    samples_hash: str
    witness: Witness | None = None


@dataclass(frozen=True)
class SufficientConditions(_Record):
    """Simple sufficient conditions for metric preservation."""

    band: bool
    concave: bool
    subadditive_on_samples: bool


def _digest(den: int, keys: Iterable[int]) -> str:
    # the hash of ascending distinct keys over den, each written as
    # str(Fraction(k, den)) writes it: in lowest terms, without "/1"
    text = ",".join(f"{k // g}/{den // g}" if g != den else str(k // g)
                    for k in keys for g in (gcd(k, den),))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def samples_digest(samples: Iterable[RationalLike]) -> str:
    """The samples_hash of the sampled checks on these samples, which it refuses as they do."""
    return _digest(*_sample_keys(samples))


def _sample_keys(
    samples: Iterable[RationalLike], extra: Iterable[Fraction] = ()
) -> tuple[int, list[int]]:
    """L and the distinct samples and extra points k / L as ascending keys k.

    Samples are coerced by ``as_fraction`` in the order given; L is the
    common denominator of ``padic._common``. A negative sample raises
    NegativeInputError, and more than MAX_GRID_POINTS distinct samples,
    counted without the extra points, raise TooLargeError.
    """
    points = {_ratio(as_fraction(x)) for x in samples}
    if any(n < 0 for n, _ in points):
        raise NegativeInputError("samples must be nonnegative")
    if len(points) > MAX_GRID_POINTS:
        raise TooLargeError(f"{len(points)} distinct samples, over the {MAX_GRID_POINTS} accepted")
    den, keys = _common(points.union(map(_ratio, extra)))
    return den, sorted(keys)


def is_triangle_triplet(a: RationalLike, b: RationalLike, c: RationalLike) -> bool:
    """True when each of a, b, c is at most the sum of the other two."""
    return not _not_triangle(*map(as_fraction, (a, b, c)))


def is_strong_triplet(a: RationalLike, b: RationalLike, c: RationalLike) -> bool:
    """True when each entry is at most the max of the other two."""
    a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
    if a < 0 or b < 0 or c < 0:
        raise NegativeInputError("triplet entries must be nonnegative")
    return a <= max(b, c) and b <= max(a, c) and c <= max(a, b)


class _Memo(dict):
    # a per-call memo of f: each key is evaluated once, when first read
    def __init__(self, f: Callable) -> None:
        super().__init__()
        self.f = f

    def __missing__(self, key):
        y = self[key] = self.f(key)
        return y


def _amenable_images(
    read: Callable[[int, int], Ratio], points: Iterable[tuple[int, int]]
) -> tuple[list[Ratio], Witness | None]:
    # The images of the nonnegative points k/den as integer pairs, read by
    # ``ratio_at`` in the amenability gate (f(0) = 0, f > 0 on positive
    # points), which stops at its first breach. A family's distances come
    # each over its own denominator: a common one of them all can be huge.
    f0 = read(0, 1)
    if f0[0] != 0:
        return [], Witness("origin", (Fraction(0),), (Fraction(*f0),))
    images = []
    for k, den in points:
        y = f0 if k == 0 else read(k, den)
        if k > 0 and y[0] == 0:
            return [], Witness("vanishes", (Fraction(k, den),), (Fraction(0),))
        images.append(y)
    return images, None


def _fractions(*images: Ratio) -> tuple[Fraction, ...]:
    # a witness's images, built from their pairs
    return tuple(Fraction(n, d) for n, d in images)


def _points(den: int, *keys: int) -> tuple[Fraction, ...]:
    # a witness's points, built from their keys over den
    return tuple(Fraction(k, den) for k in keys)


def _least(a: Ratio, b: Ratio) -> Ratio:
    return b if _exceeds(a, b) else a


def _sparse_table(values: list[int], pick: Callable[[int, int], int]) -> list[list[int]]:
    # rows[k][i] = pick over values[i : i + 2**k]
    rows = [values]
    width = 1
    while 2 * width <= len(values):
        prev = rows[-1]
        rows.append(list(map(pick, prev, prev[width:])))
        width *= 2
    return rows


def _first_bad_triple(den: int, keys: Sequence[int], images: Sequence[Ratio]) -> Witness | None:
    """Least sorted triangle triple of samples whose images are no triangle triplet.

    keys ascend, are distinct and nonnegative and stand for the samples
    k / den; images holds their images as integer pairs, put over one
    common denominator for the bands. For a sorted pair a <= b, the
    admissible c form the range b <= c <= a + b, and f(c) must lie in the
    pair's band |f(a) - f(b)| <= f(c) <= f(a) + f(b), computed inline.

    Pairs are visited in lexicographic order. For a fixed a the end of the
    range grows with b and only moves up, so one pointer finds every end
    in O(n). Two sparse tables, of range minima and maxima, bound the
    images over the range in O(1) (Bender and Farach-Colton, "The LCA
    problem revisited", 2000), so n samples cost O(n log n) to set up and
    O(n^2) to scan. Only a pair whose range strays from its band has the
    range walked, from c = b upwards, to its first bad c. Every earlier
    pair has no bad c, so that triple is the lexicographically least
    failing one; a failed query whose walk finds none raises SelfCheckError.
    """
    n = len(keys)
    yi = _common(images)[1]
    lows, highs = _sparse_table(yi, min), _sparse_table(yi, max)
    for i in range(n):
        xa, ya = keys[i], yi[i]
        end = i
        for j in range(i, n):
            yb = yi[j]
            lo = ya - yb if ya > yb else yb - ya
            hi = ya + yb
            top = xa + keys[j]
            while end < n and keys[end] <= top:
                end += 1
            k = (end - j).bit_length() - 1
            right = end - (1 << k)
            row, high = lows[k], highs[k]
            if lo <= row[j] and lo <= row[right] and high[j] <= hi and high[right] <= hi:
                continue
            for c in range(j, end):
                if not lo <= yi[c] <= hi:
                    points = _points(den, keys[i], keys[j], keys[c])
                    return Witness("triple", points, _fractions(images[i], images[j], images[c]))
            raise SelfCheckError(
                f"the range query failed at ({_text(Fraction(keys[i], den))}, "
                f"{_text(Fraction(keys[j], den))}) "
                f"but no c up to {_text(Fraction(keys[end - 1], den))} breaks it"
            )
    return None


def _monotone_witness(den: int, keys: Sequence[int], images: Sequence[Ratio]) -> Witness | None:
    for k in range(1, len(keys)):
        if _exceeds(images[k - 1], images[k]):
            points = _points(den, keys[k - 1], keys[k])
            return Witness("pair", points, _fractions(images[k - 1], images[k]))
    return None


def _halving_witness(den: int, keys: Sequence[int], images: Sequence[Ratio]) -> Witness | None:
    # the least positive a, then the least later b, with f(a) > 2 f(b): a is
    # the first sample whose image exceeds twice the least later image
    pos = [(x, y) for x, y in zip(keys, images) if x > 0]
    later_min = list(accumulate((y for _, y in reversed(pos)), _least))[::-1]
    for i in range(len(pos) - 1):
        a, ya = pos[i]
        if _exceeds(ya, later_min[i + 1], 2):
            b, yb = next((b, yb) for b, yb in pos[i + 1 :] if _exceeds(ya, yb, 2))
            return Witness("pair", _points(den, a, b), _fractions(ya, yb))
    return None


def _triplet_verdict(
    f: FunctionSpec,
    den: int,
    keys: Sequence[int],
    route: Callable[[int, Sequence[int], Sequence[Ratio]], Witness | None],
) -> TripletVerdict:
    # The gate reads f once per key, ascending; on amenable images the one
    # deciding route (_first_bad_triple, _monotone_witness or
    # _halving_witness) runs, and its witness is the verdict's.
    images, bad = _amenable_images(f.ratio_at, [(k, den) for k in keys])
    if bad is None:
        bad = route(den, keys, images)
    return TripletVerdict(bad is None, _digest(den, keys), bad)


def check_metric_preserving_sampled(
    f: FunctionSpec, samples: Iterable[RationalLike]
) -> TripletVerdict:
    """Scan all triangle triplets drawn from the samples through f.

    The sample set must contain 0. Fails with the lexicographically least
    witness: first an amenability breach if any, then the least triple
    (a, b, c) in the triangle family whose image is not.
    """
    den, keys = _sample_keys(samples)
    if keys[:1] != [0]:
        raise ValueError("the sample set must contain 0")
    return _triplet_verdict(f, den, keys, _first_bad_triple)


def _kinks(f: FunctionSpec) -> list[Fraction]:
    # The kink abscissas of a polyline or step shape: with them among the
    # samples, the pairwise monotonicity inspection is exact.
    if isinstance(f, PiecewiseLinear):
        return [x for x, _ in f.points]
    if isinstance(f, StepFunction) and f.points:
        return [t for t, _ in f.points] + [Fraction(f.points[0][0], 2)]
    return []


def check_ultrametric_preserving(
    f: FunctionSpec, samples: Iterable[RationalLike]
) -> TripletVerdict:
    """Decide ultrametric preservation on a sample set.

    f preserves ultrametrics exactly when it is amenable and nondecreasing
    (Pongsriiam and Termwuttipong, "Remarks on ultrametrics and
    metric-preserving functions", 2014). On distinct sorted samples a
    strong triplet is (a, b, b), whose image is strong exactly when
    f(a) <= f(b), so the check is the amenability gate and one O(n) sweep
    over neighbouring samples, failing with the first pair on which f
    decreases. For piecewise-linear and step shapes the sample set is
    refined with the kink abscissas first, which makes the pairwise
    inspection exact.
    """
    den, keys = _sample_keys(samples, _kinks(f))
    return _triplet_verdict(f, den, keys, _monotone_witness)


def check_ultra_to_metric(
    f: FunctionSpec, samples: Iterable[RationalLike]
) -> TripletVerdict:
    """Decide whether f carries ultrametrics into plain metrics, sampled.

    f(0) = 0 and 0 < f(a) <= 2 f(b) for all sampled 0 < a < b: the image
    (f(a), f(b), f(b)) of each sampled strong triplet (a, b, b) is then a
    triangle triplet. Decided by one O(n) sweep against the suffix minima
    of the images, failing with the least pair 0 < a < b, by a and then b,
    with f(a) > 2 f(b).
    """
    den, keys = _sample_keys(samples)
    return _triplet_verdict(f, den, keys, _halving_witness)


def _first_bad_sum(
    pairs: Iterable[tuple[int, int]],
    value: _Memo,
    breaks: Callable[[int, int, int], bool],
) -> tuple[int, int] | None:
    """First pair (a, b) of integer keys whose images break the caller's test.

    value memoises f by key, as integer pairs read by ``ratio_at``, and is
    read at a, then b, then a + b of each pair. breaks gets f(a), f(b) and
    f(a + b) cross-multiplied onto one positive common denominator, which
    keeps their signs, sums and order. No Fraction is built.
    """
    for ka, kb in pairs:
        (na, da), (nb, db), (nc, dc) = value[ka], value[kb], value[ka + kb]
        if breaks(na * db * dc, nb * da * dc, nc * da * db):
            return ka, kb
    return None


def _not_triangle(ya: int, yb: int, yc: int) -> bool:
    # the one triangle test, on ints over one denominator or on Fractions
    # (is_triangle_triplet), negative entries refused first
    if ya < 0 or yb < 0 or yc < 0:
        raise NegativeInputError("triplet entries must be nonnegative")
    return ya > yb + yc or yb > ya + yc or yc > ya + yb


def _euclid_verdict(
    f: FunctionSpec, den: int, distinct: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> TripletVerdict:
    # The scan and the witness of both Euclid routes. Keys are integers over
    # den: distinct holds every key ascending, for the digest, and pairs
    # come in lexicographic order. f is memoised by key, as integer pairs.
    digest = _digest(den, distinct)
    read = f.ratio_at
    value = _Memo(lambda k: read(k, den))
    bad = _first_bad_sum(pairs, value, _not_triangle)
    if bad is None:
        return TripletVerdict(True, digest)
    ka, kb = bad
    triple = (ka, kb, ka + kb)
    images = _fractions(*map(value.__getitem__, triple))
    return TripletVerdict(False, digest, Witness("triple", _points(den, *triple), images))


def check_euclid_preserving_sampled(
    f: FunctionSpec, pairs: Iterable[tuple[RationalLike, RationalLike]]
) -> TripletVerdict:
    """Check (f(a), f(b), f(a+b)) is a triangle triplet for sampled pairs.

    Fails with the least pair (a, b), in lexicographic order, whose images
    are no triangle triplet. The pairs may be any list: repeated, swapped
    or unordered. For the pairs of a grid {0, step, ..., stop},
    ``check_euclid_preserving_grid`` gives the same verdict without a pair
    list.

    The check runs on integers. Each distinct entry object is coerced
    once, the objects collected by ``id`` in the order of first appearance
    (a grid's pairs hold each point many times), so the first entry that
    cannot be read, in the order given, raises. The values are read as
    samples (``_sample_keys``, so more than MAX_GRID_POINTS distinct values
    are refused), and each is scaled to its key over their L, which keeps
    order. The sorted distinct pairs of keys go through ``_first_bad_sum``,
    the pair-sum scan shared with ``sufficient_conditions``, in the order of
    the sorted Fraction pairs. For N pairs over P distinct points a, b and
    a + b, the cost is one sort of N integer pairs, P reads of f and O(1)
    integer operations per pair.
    """
    flat = [x for a, b in pairs for x in (a, b)]
    # every object stays referenced in flat, so no id is reused meanwhile
    objects = list(dict(zip(map(id, flat), flat)).values())
    entries = list(map(as_fraction, objects))
    ratios = list(map(_ratio, entries))
    firsts = dict(zip(ratios, entries))  # each distinct value once
    if any(n < 0 for n, _ in firsts):
        raise NegativeInputError("pair entries must be nonnegative")
    den, distinct = _sample_keys(firsts.values())
    key = dict(zip(firsts, _common(firsts, den)[1]))
    by_id = dict(zip(map(id, objects), map(key.__getitem__, ratios)))
    keys = list(map(by_id.__getitem__, map(id, flat)))
    return _euclid_verdict(f, den, distinct, sorted(set(zip(keys[::2], keys[1::2]))))


def check_euclid_preserving_grid(
    f: FunctionSpec, step: RationalLike, stop: RationalLike
) -> TripletVerdict:
    """The Euclid check on every pair of the grid {0, step, 2 step, ..., stop}.

    The verdict, digest, witness and reads of f are those of
    ``check_euclid_preserving_sampled(f, pairs_from_grid(step, stop))``,
    and the errors are those of ``pairs_from_grid``, raised before f is
    read.

    No pair list is built. The grid contains step itself, and every point
    k * step has a denominator dividing step's, so the common denominator L
    of the pair route is step.denominator, and point k scales to the
    integer k * step.numerator. These keys ascend, so their pairs a <= b
    come from ``combinations_with_replacement`` in lexicographic order, one
    at a time, and go straight into the shared pair-sum scan. For n points
    the set-up is O(n), with no sort; each pair visited costs O(1) integer
    operations, and f is evaluated once per distinct point a, b or a + b
    read before the first failing pair.

    Raises:
        ValueError: unless 0 < step <= stop.
        TooLargeError: if the grid holds more than MAX_GRID_POINTS points.
    """
    step, count = _grid(step, stop)
    keys = range(0, count * step.numerator, step.numerator)
    return _euclid_verdict(f, step.denominator, keys, combinations_with_replacement(keys, 2))


def _grid(step: RationalLike, stop: RationalLike) -> tuple[Fraction, int]:
    # step as a Fraction, and the point count of {0, step, ..., stop},
    # checked against the cap before anything is built
    step = as_fraction(step)
    stop = as_fraction(stop)
    if step <= 0 or stop < step:
        raise ValueError("need 0 < step <= stop")
    count = stop // step + 1
    if count > MAX_GRID_POINTS:
        raise TooLargeError(
            f"grid 0..{_text(stop)} by {_text(step)} holds {_text(count)} points, "
            f"more than the {MAX_GRID_POINTS} accepted"
        )
    return step, count


def pairs_from_grid(step: RationalLike, stop: RationalLike) -> list[tuple[Fraction, Fraction]]:
    """All unordered pairs from the grid {0, step, 2 step, ..., stop}.

    The pairs (a, b) have a <= b and come in lexicographic order, n(n + 1)/2
    of them for n points, as Fractions. ``check_euclid_preserving_grid``
    checks the same pairs without building this list.

    Raises:
        ValueError: unless 0 < step <= stop.
        TooLargeError: if the grid holds more than MAX_GRID_POINTS points;
            nothing is allocated before the check.
    """
    step, count = _grid(step, stop)
    return list(combinations_with_replacement([k * step for k in range(count)], 2))


def sufficient_conditions(
    f: FunctionSpec, samples: Iterable[RationalLike]
) -> SufficientConditions:
    """Evaluate three classic sufficient conditions on a sample set.

    band: some a > 0 has a <= f(x) <= 2a across the positive samples.
    concave: exact slope inspection for piecewise-linear shapes, otherwise
        nonincreasing secant slopes through the sampled points.
    subadditive_on_samples: f(a+b) <= f(a) + f(b) for all sampled pairs.

    All three run on the samples' integer keys over one L
    (``_sample_keys``), so a pair sum a + b is one integer addition, and f
    is memoised by key, read once per distinct point. Band and secants put
    their images over one common denominator (``_common``); the secant
    slopes are compared by cross-multiplying rises and runs. The
    subadditivity scan is ``_first_bad_sum``. f is read where a scan
    without a memo first reads it: the positive samples ascending for band,
    then the secants, then the sorted pairs in lexicographic order, up to
    the first pair that fails. For n samples whose pairs reach P distinct
    sums, the cost is P reads of f and O(1) integer operations per pair.
    """
    den, keys = _sample_keys(samples)
    read = f.ratio_at
    value = _Memo(lambda k: read(k, den))
    positives = [k for k in keys if k > 0]

    band = False
    if positives:
        ys = _common([value[k] for k in positives])[1]
        low = min(ys)
        band = low > 0 and max(ys) <= 2 * low

    if isinstance(f, PiecewiseLinear):
        slopes = list(f.segment_slopes())
        if f.tail == "constant":
            slopes.append(Fraction(0))
        concave = all(s0 >= s1 for s0, s1 in zip(slopes, slopes[1:]))
    else:
        # every secant's (rise, run), both over a common denominator, which
        # scales every slope by the same positive factor
        ys = _common([value[k] for k in keys])[1] if len(keys) > 1 else []
        secants = [(y1 - y0, k1 - k0) for (k0, y0), (k1, y1) in pairwise(zip(keys, ys))]
        concave = all(r0 * w1 >= r1 * w0 for (r0, w0), (r1, w1) in pairwise(secants))

    pairs = combinations_with_replacement(keys, 2)
    subadditive = _first_bad_sum(pairs, value, lambda ya, yb, yc: yc > ya + yb) is None
    return SufficientConditions(band, concave, subadditive)


def default_samples(f: FunctionSpec) -> tuple[Fraction, ...]:
    """A reasonable sample grid for a spec: kink-aware when kinks exist.

    Sums of kinks are kept up to 8 or the last kink, whichever is larger.
    """
    base = {Fraction(0)}
    if isinstance(f, PiecewiseLinear):
        xs = [x for x, _ in f.points]
        base.update(xs)
        base.update(Fraction(a + b, 2) for a, b in zip(xs, xs[1:]))
        base.update(a + b for a in xs for b in xs if a + b <= max(8, xs[-1]))
        base.add(xs[-1] + 1)
    elif isinstance(f, StepFunction):
        ts = [t for t, _ in f.points]
        base.update(ts)
        base.update(Fraction(a + b, 2) for a, b in zip(ts, ts[1:]))
        if ts:
            base.add(Fraction(ts[0], 2))
            base.add(2 * ts[-1])
        else:
            base.update((Fraction(1, 2), Fraction(1), Fraction(2)))
    else:
        base.update(
            Fraction(n, d)
            for n, d in ((1, 8), (1, 4), (1, 2), (1, 1), (3, 2), (2, 1), (3, 1), (4, 1), (8, 1))
        )
    return tuple(sorted(base))
