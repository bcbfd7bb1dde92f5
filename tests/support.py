"""Shared generators, oracles and faster references for the test suite.

Each claim the package makes is checked against one oracle written from
its definition. Where that oracle cannot reach the sizes a test draws,
one faster reference is checked against the oracle on small inputs and
stands in for it on larger ones. Per claim:

- *Ultrametric spaces.* ``random_ultrametric`` (random dendrograms) and
  ``comb_space`` build matrices that are ultrametric by how they are
  assembled; ``isosceles_check`` is the characterization by isosceles
  triangles. Validation: the oracle ``brute_validate_ultrametric`` scans
  all n^3 triples for the least breach, and ``brute_structural_check``
  runs the structural checks over every ordered pair. ``must_validate``
  asserts that a candidate validates. Isometry: the oracle
  ``brute_isometry`` scans every permutation in lexicographic order for
  the first that carries one space's distances onto the other's.
- *Ranking of distance values.* ``ref_ranked`` reads every entry and keys
  it by its (numerator, denominator) pair.
- *Gram rank.* ``ref_exact_rank``: Gauss-Jordan elimination over
  Fractions.
- *Family distance orders.* ``brute_base_leg_pairs`` collects (d(a, c),
  d(a, b)) over every point triple with d(a, b) = d(b, c);
  ``brute_transitive_closure`` is Warshall's sweep on a boolean matrix;
  ``brute_is_transitive`` tests transitivity pair by pair.
  ``random_family`` draws families of random dendrograms.
- *Sampled triplet checks.* ``ref_check_metric_preserving_sampled``,
  ``ref_check_ultrametric_preserving`` and ``ref_check_ultra_to_metric``
  are the three checks from definitions, each given the triple scan it
  runs. The oracle scan is ``brute_triple_scan``, over every ordered
  triple; the faster reference is ``sorted_triple_scan``, over the sorted
  triples of the family only, for the strategies of up to 40 keys.
  ``amenability_witness``, ``monotone_witness`` and ``halving_witness``
  are the direct routes, which call f afresh at every read.
  ``ref_canonical`` sorts the distinct samples as Fractions,
  ``ref_refine`` adds a spec's kink abscissas, and ``ref_samples_digest``
  hashes the sorted Fractions as printed.
- *Euclid pair check and sufficient conditions.*
  ``ref_check_euclid_preserving_sampled`` and
  ``ref_sufficient_conditions``, on Fractions with f called at every read.
- *p-adic window checks.* ``brute_check_p_metric_preserving`` builds every
  exponent pair (``brute_window_pairs``), sorts them by (|m| + |n|, m, n)
  and compares them one at a time. ``ref_check_p_ultrametric_preserving``
  and ``ref_extend_to_ultrametric_preserving`` walk the adjacent pairs in
  (|n|, n) order. All three read f at Fraction powers (``ref_power_values``),
  compare the images as Fractions, and share the origin and vanishing
  gate ``ref_window_gate`` over ``ref_window_exponents``. Each walks a
  fully sorted order and stops at the first failure.
- *Digit windows.* ``ref_digit_window`` subtracts digit * p**k one digit
  at a time, on Fractions.
- *Spec values.* ``ref_spec_value`` is f(x) for every built-in spec in
  Fraction arithmetic; ``ref_floor_power_index``, ``ref_power_map_value``
  and ``ref_prime_shift_value`` (every prime up to max(x, 1/x) offers its
  two powers around x) serve it.
- *Spec fields and tables.* ``ref_step_check`` and ``ref_polyline_check``
  raise the ValueError a spec's fields call for, from Fraction
  comparisons; ``ref_tabulated_entries`` sorts a JSON table and checks it
  on Fractions.
- *Rationals and p-adic distances.* ``ref_as_fraction`` tells every type
  by isinstance; ``ref_padic_distance`` takes the p-adic order of the
  Fraction x - y, one factor of p at a time; ``ref_witness_triple``
  builds the witness triple from Fraction powers of p and re-measures it
  with that distance.

``adversarial_pool`` and ``mix_ints`` make distance values that are hard
to rank: pairwise coprime denominators up to 2^61 - 1
(``COPRIME_DENOMINATORS``), twins less than 2^-64 apart, and ints next
to Fractions of the same value.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import pairwise, permutations, takewhile
from random import Random

from padicmetrics import (
    AsymmetricError,
    BadOrderError,
    BelowFloorError,
    Canonical,
    DigitWindow,
    DistanceMatrixCandidate,
    DomainMissError,
    EquivalenceBreachError,
    FiniteUltrametricSpace,
    NegativeEntryError,
    NegativeInputError,
    NonzeroDiagonalError,
    NotPreservingError,
    PiecewiseLinear,
    PowerMap,
    PowerStep,
    PrimeShift,
    Reciprocal,
    SelfCheckError,
    SpaceFamily,
    StepFunction,
    SufficientConditions,
    Tabulated,
    TooLargeError,
    TriangleViolation,
    TripletVerdict,
    Witness,
    ZeroDistanceError,
    as_fraction,
    is_strong_triplet,
    is_triangle_triplet,
    require_prime,
    validate_ultrametric,
    valuation,
)
from padicmetrics.functions import _primes_to, _sieve
from padicmetrics.padic import _ranks
from padicmetrics.padic_preserving import (
    PreservationVerdict,
    WindowWitness,
    _check_exponents,
    witness_triple,
)

# a spread of scales, including non-integers, for random distances
SIX_VALUE_POOL = tuple(
    Fraction(n, d) for n, d in ((1, 4), (1, 2), (1, 1), (3, 2), (2, 1), (4, 1))
)


# 1 and six primes, up to the Mersenne prime 2^61 - 1: pairwise coprime
COPRIME_DENOMINATORS = (1, 2, 3, 7, 65537, 1048573, 2**61 - 1)


def adversarial_pool(rng: Random, size: int) -> list[Fraction]:
    """Positive rationals that stress an order keyed on (numerator, denominator).

    Denominators are mixed and pairwise coprime, up to 2^61 - 1. About
    half of the values come with a twin less than 2^-64 above them, so
    floor(value * 2^64) often cannot tell the two apart.
    """
    pool = []
    for _ in range(size):
        den = rng.choice(COPRIME_DENOMINATORS)
        v = Fraction(rng.randint(1, 4 * den), den)
        pool.append(v)
        if rng.random() < 0.5:
            pool.append(v + Fraction(1, 2**64 * rng.choice((1, 3, 2**61 - 1))))
    return pool


def mix_ints(rng: Random, rows) -> tuple[tuple, ...]:
    """The rows with about half of their integral entries turned into ints."""
    return tuple(
        tuple(int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in row)
        for row in rows
    )


def must_validate(candidate: DistanceMatrixCandidate) -> FiniteUltrametricSpace:
    out = validate_ultrametric(candidate)
    assert not isinstance(out, TriangleViolation), out
    return out


def random_ultrametric(
    rng: Random, n: int, values, prefix: str = "q"
) -> FiniteUltrametricSpace:
    """Random n-point ultrametric with distances drawn from ``values``.

    A random dendrogram: pick a level, split the points into blocks that
    sit at that mutual distance, recurse inside blocks with strictly
    smaller levels. Cross-block distances always dominate within-block
    ones, so the strong triangle inequality holds by construction.
    """
    pool = sorted({as_fraction(v) for v in values})
    assert pool and all(v > 0 for v in pool)
    labels = tuple(f"{prefix}{i}" for i in range(n))
    d = [[Fraction(0)] * n for _ in range(n)]

    def split(idx: list[int], levels: list[Fraction]) -> None:
        if len(idx) <= 1:
            return
        t = rng.choice(levels)
        below = [v for v in levels if v < t]
        k = rng.randint(2, len(idx)) if below else len(idx)
        order = idx[:]
        rng.shuffle(order)
        blocks = [order[b::k] for b in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                for i in blocks[a]:
                    for j in blocks[b]:
                        d[i][j] = d[j][i] = t
        for block in blocks:
            split(block, below)

    split(list(range(n)), pool)
    return FiniteUltrametricSpace(labels, tuple(tuple(row) for row in d))


def comb_space(chain, prefix: str = "c") -> FiniteUltrametricSpace:
    """Space on len(chain)+1 points with d(x_i, x_j) = chain[max(i,j)-1].

    Every pair of chain values occurs as (base, legs) of some triangle, so
    the induced distance order is the full chain.
    """
    vals = sorted({as_fraction(v) for v in chain})
    assert vals and all(v > 0 for v in vals)
    n = len(vals) + 1
    labels = tuple(f"{prefix}{i}" for i in range(n))
    rows = tuple(
        tuple(Fraction(0) if i == j else vals[max(i, j) - 1] for j in range(n))
        for i in range(n)
    )
    return FiniteUltrametricSpace(labels, rows)


def random_family(
    rng: Random, max_spaces: int = 3, max_points: int = 5, values=SIX_VALUE_POOL
) -> SpaceFamily:
    spaces = tuple(
        random_ultrametric(rng, rng.randint(1, max_points), values, prefix=f"s{k}_")
        for k in range(rng.randint(1, max_spaces))
    )
    return SpaceFamily(spaces)


def isosceles_check(space: FiniteUltrametricSpace) -> bool:
    """Independent characterization: every triangle has its top value twice."""
    d = space.dist
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                sides = sorted((d[i][j], d[i][k], d[j][k]))
                if sides[1] != sides[2]:
                    return False
    return True


def brute_is_transitive(pairs) -> bool:
    """Pair-by-pair transitivity check, O(|pairs|^2), with no closure."""
    for a, b in pairs:
        for c, d in pairs:
            if b == c and (a, d) not in pairs:
                return False
    return True


def brute_validate_ultrametric(candidate: DistanceMatrixCandidate):
    """Least (i, j, k) by a full n^3 scan, on a structurally valid candidate."""
    d = candidate.dist
    n = candidate.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > max(d[i][k], d[k][j]):
                    return TriangleViolation(i, j, k, (d[i][j], d[i][k], d[k][j]))
    return FiniteUltrametricSpace(candidate.labels, candidate.dist)


def brute_isometry(a: FiniteUltrametricSpace, b: FiniteUltrametricSpace):
    """Least permutation, in lexicographic order, carrying a's distances onto b's."""
    n = a.n
    return next(
        (p for p in permutations(range(n))
         if all(b.dist[p[i]][p[j]] == a.dist[i][j] for i in range(n) for j in range(n))),
        None,
    )


def brute_base_leg_pairs(family: SpaceFamily) -> frozenset:
    """(d(a, c), d(a, b)) over every point triple with d(a, b) = d(b, c)."""
    pairs = set()
    for s in family.spaces:
        d = s.dist
        n = s.n
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if d[a][b] == d[b][c]:
                        pairs.add((d[a][c], d[a][b]))
    return frozenset(pairs)


def brute_transitive_closure(ground, pairs) -> frozenset:
    """Warshall's sweep on a boolean matrix."""
    index = {v: i for i, v in enumerate(ground)}
    n = len(ground)
    reach = [[False] * n for _ in range(n)]
    for a, b in pairs:
        reach[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return frozenset(
        (ground[i], ground[j]) for i in range(n) for j in range(n) if reach[i][j]
    )


def brute_structural_check(candidate: DistanceMatrixCandidate) -> None:
    """The validator's structural checks over every ordered pair (i, j)."""
    d = candidate.dist
    n = candidate.n
    for i in range(n):
        for j in range(n):
            if d[i][j] != d[j][i]:
                raise AsymmetricError(f"d[{i}][{j}] != d[{j}][{i}]")
            if d[i][j] < 0:
                raise NegativeEntryError(f"d[{i}][{j}] = {d[i][j]} < 0")
            if i == j and d[i][j] != 0:
                raise NonzeroDiagonalError(f"d[{i}][{i}] = {d[i][i]} != 0")
            if i != j and d[i][j] == 0:
                raise ZeroDistanceError(
                    f"distinct points {candidate.labels[i]!r}, {candidate.labels[j]!r} "
                    "at distance 0"
                )


def ref_canonical(samples) -> list[Fraction]:
    """The distinct samples, coerced and sorted as Fractions; negatives refused."""
    out = sorted({as_fraction(x) for x in samples})
    if any(x < 0 for x in out):
        raise NegativeInputError("samples must be nonnegative")
    return out


def ref_refine(f, xs) -> list[Fraction]:
    """xs with the kink abscissas of a polyline or step spec added, sorted."""
    extra: list[Fraction] = []
    if isinstance(f, PiecewiseLinear):
        extra = [x for x, _ in f.points]
    elif isinstance(f, StepFunction) and f.points:
        extra = [t for t, _ in f.points] + [f.points[0][0] / 2]
    return sorted(set(xs) | set(extra))


def ref_samples_digest(xs) -> str:
    """The first 16 hex digits of the sha256 of the sorted distinct xs, as printed."""
    text = ",".join(map(str, sorted(set(xs))))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def amenability_witness(f, samples) -> Witness | None:
    """f(0) = 0 and f strictly positive on the positive samples, or a breach."""
    f0 = f(Fraction(0))
    if f0 != 0:
        return Witness("origin", (Fraction(0),), (f0,))
    for x in samples:
        if x > 0 and f(x) == 0:
            return Witness("vanishes", (x,), (Fraction(0),))
    return None


def monotone_witness(f, xs) -> Witness | None:
    """First neighbouring pair of xs on which f decreases."""
    prev_x = prev_y = None
    for x in xs:
        y = f(x)
        if prev_x is not None and prev_y > y:
            return Witness("pair", (prev_x, x), (prev_y, y))
        prev_x, prev_y = x, y
    return None


def halving_witness(f, xs) -> Witness | None:
    """First sampled 0 < a < b, by a and then b, with f(a) > 2 f(b)."""
    positives = [x for x in xs if x > 0]
    for i, a in enumerate(positives):
        for b in positives[i + 1 :]:
            if f(a) > 2 * f(b):
                return Witness("pair", (a, b), (f(a), f(b)))
    return None


def brute_triple_scan(f, xs, in_family, image_ok) -> Witness | None:
    """First ordered triple of xs in in_family whose images fail image_ok.

    Every ordered triple is visited, with no use of sorting.
    """
    values = {x: f(x) for x in xs}
    for a in xs:
        for b in xs:
            for c in xs:
                if not in_family(a, b, c):
                    continue
                fa, fb, fc = values[a], values[b], values[c]
                if not image_ok(fa, fb, fc):
                    return Witness("triple", (a, b, c), (fa, fb, fc))
    return None


def brute_window_pairs(lo: int, hi: int) -> list[tuple[int, int]]:
    """Every pair lo <= m < n <= hi, built in full and sorted by (|m| + |n|, m, n)."""
    ps = [(m, n) for m in range(lo, hi + 1) for n in range(m + 1, hi + 1)]
    ps.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p[0], p[1]))
    return ps


def ref_window_exponents(lo: int, hi: int) -> list[int]:
    """lo..hi sorted by (|k|, k): nearest to zero first, negative first."""
    return sorted(range(lo, hi + 1), key=lambda k: (abs(k), k))


def ref_power_values(f, p, window) -> dict:
    """f at each Fraction power p**k of the window, read from lo to hi."""
    return {k: f(Fraction(p) ** k) for k in range(window.lo, window.hi + 1)}


def ref_window_gate(f, p, window, values) -> PreservationVerdict | None:
    """The origin check, then the first vanishing value nearest zero."""
    f0 = f(Fraction(0))
    if f0 != 0:
        return PreservationVerdict(
            False, window, "origin", WindowWitness("origin", images=(f0,))
        )
    for k in ref_window_exponents(window.lo, window.hi):
        if values[k] == 0:
            return PreservationVerdict(
                False, window, "vanishes", WindowWitness("vanishes", m=k)
            )
    return None


def brute_check_p_metric_preserving(f, p, window) -> PreservationVerdict:
    """The band check comparing every sorted pair in turn, O(w^2 log w)."""
    require_prime(p)
    values = ref_power_values(f, p, window)
    early = ref_window_gate(f, p, window, values)
    if early is not None:
        return early
    for m, n in brute_window_pairs(window.lo, window.hi):
        if values[m] > 2 * values[n]:
            witness = WindowWitness(
                "band",
                m=m,
                n=n,
                triple=witness_triple(p, n, m),
                images=(values[n], values[n], values[m]),
            )
            return PreservationVerdict(False, window, "band", witness)
    return PreservationVerdict(True, window)


def _ref_ultrametric_verdict(f, p, window) -> tuple[PreservationVerdict, dict]:
    require_prime(p)
    values = ref_power_values(f, p, window)
    early = ref_window_gate(f, p, window, values)
    if early is not None:
        return early, values
    # the pairs (n, n + 1) of the window, sorted by (|n|, n)
    for n in ref_window_exponents(window.lo, window.hi - 1):
        if values[n] > values[n + 1]:
            witness = WindowWitness(
                "adjacent",
                m=n,
                n=n + 1,
                triple=witness_triple(p, n + 1, n),
                images=(values[n + 1], values[n + 1], values[n]),
            )
            return PreservationVerdict(False, window, "adjacent", witness), values
    return PreservationVerdict(True, window), values


def ref_check_p_ultrametric_preserving(f, p, window) -> PreservationVerdict:
    """The adjacent walk comparing Fraction images pair by pair."""
    return _ref_ultrametric_verdict(f, p, window)[0]


def ref_extend_to_ultrametric_preserving(f, p, window) -> StepFunction:
    """The step extension with each point's power rebuilt as Fraction(p) ** k."""
    verdict, values = _ref_ultrametric_verdict(f, p, window)
    if not verdict.passed:
        raise NotPreservingError(
            f"f is not {p}-adic ultrametric preserving on "
            f"[{window.lo}, {window.hi}]: {verdict.reason}"
        )
    points = tuple((Fraction(p) ** k, v) for k, v in values.items())
    return StepFunction(below=points[0][1], points=points)


def ref_digit_window(x, p: int, high: int) -> DigitWindow:
    """Base-p digits of x on [min(0, v_p(x)), high], one Fraction step each."""
    require_prime(p)
    x = as_fraction(x)
    low = 0 if x == 0 else min(0, valuation(x, p))
    digits: list[int] = []
    base = Fraction(p)
    remainder = x
    for k in range(low, high + 1):
        # remainder always has p-adic order >= k here
        shifted = remainder / base**k
        if shifted == 0:
            digit = 0
        else:
            digit = shifted.numerator * pow(shifted.denominator, -1, p) % p
        digits.append(digit)
        remainder -= digit * base**k
    return DigitWindow(p, low, tuple(digits))


def sorted_triple_scan(f, xs, in_family, image_ok) -> Witness | None:
    """``brute_triple_scan`` on the sorted triples a <= b <= c of xs only.

    xs ascending and nonnegative. For a sorted pair (a, b), the c >= b
    with (a, b, c) in the triangle or the strong family form a run from b
    on (c <= a + b, or c = b), so c is walked up from b while the triple
    stays in the family. Each visited triple is tested as Fractions.
    """
    values = {x: f(x) for x in xs}
    for i, a in enumerate(xs):
        for j, b in enumerate(xs[i:], i):
            for c in takewhile(lambda c: in_family(a, b, c), xs[j:]):
                fa, fb, fc = values[a], values[b], values[c]
                if not image_ok(fa, fb, fc):
                    return Witness("triple", (a, b, c), (fa, fb, fc))
    return None


def ref_check_metric_preserving_sampled(f, samples, scan=sorted_triple_scan) -> TripletVerdict:
    """``check_metric_preserving_sampled`` with its triples found by scan."""
    xs = ref_canonical(samples)
    if Fraction(0) not in xs:
        raise ValueError("the sample set must contain 0")
    digest = ref_samples_digest(xs)
    bad = amenability_witness(f, xs) or scan(f, xs, is_triangle_triplet, is_triangle_triplet)
    return TripletVerdict(bad is None, digest, bad)


def ref_check_ultrametric_preserving(f, samples, scan=sorted_triple_scan) -> TripletVerdict:
    """``check_ultrametric_preserving``, its pair witness checked against scan."""
    xs = ref_refine(f, ref_canonical(samples))
    digest = ref_samples_digest(xs)
    amen = amenability_witness(f, xs)
    direct = amen or monotone_witness(f, xs)
    triple = amen or scan(f, xs, is_strong_triplet, is_strong_triplet)
    if (direct is None) != (triple is None):
        raise EquivalenceBreachError(
            f"monotonicity inspection and triplet scan disagree: {direct} vs {triple}"
        )
    return TripletVerdict(direct is None, digest, direct)


def ref_check_ultra_to_metric(f, samples, scan=sorted_triple_scan) -> TripletVerdict:
    """``check_ultra_to_metric``, its pair witness checked against scan."""
    xs = ref_canonical(samples)
    digest = ref_samples_digest(xs)
    amen = amenability_witness(f, xs)
    direct = amen or halving_witness(f, xs)
    triple = amen or scan(f, xs, is_strong_triplet, is_triangle_triplet)
    if (direct is None) != (triple is None):
        raise EquivalenceBreachError(
            f"pair inspection and triplet scan disagree: {direct} vs {triple}"
        )
    return TripletVerdict(direct is None, digest, direct)


def ref_check_euclid_preserving_sampled(f, pairs) -> TripletVerdict:
    canon = sorted({(as_fraction(a), as_fraction(b)) for a, b in pairs})
    if any(a < 0 or b < 0 for a, b in canon):
        raise NegativeInputError("pair entries must be nonnegative")
    digest = ref_samples_digest([x for pair in canon for x in pair])
    for a, b in canon:
        fa, fb, fc = f(a), f(b), f(a + b)
        if not is_triangle_triplet(fa, fb, fc):
            return TripletVerdict(
                False, digest, Witness("triple", (a, b, a + b), (fa, fb, fc))
            )
    return TripletVerdict(True, digest)


def ref_sufficient_conditions(f, samples) -> SufficientConditions:
    xs = ref_canonical(samples)
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


def ref_floor_power_index(x: Fraction, base: int) -> int:
    """Largest m with base**m <= x, for x > 0, by Fraction powers."""
    if x <= 0:
        raise ValueError("x must be positive")
    estimate = (x.numerator.bit_length() - x.denominator.bit_length()) / math.log2(base)
    m = math.floor(estimate)
    b = Fraction(base)
    while b**m > x:
        m -= 1
    while b ** (m + 1) <= x:
        m += 1
    return m


def ref_power_map_value(p: int, q: int, x: Fraction) -> Fraction:
    """PowerMap(p, q)(x) interpolated between Fraction powers of p and q."""
    if x == 0:
        return Fraction(0)
    m = ref_floor_power_index(x, p)
    lo = Fraction(p) ** m
    if lo == x:
        return Fraction(q) ** m
    hi = Fraction(p) ** (m + 1)
    img_lo = Fraction(q) ** m
    img_hi = Fraction(q) ** (m + 1)
    return img_lo + (x - lo) * (img_hi - img_lo) / (hi - lo)


def ref_prime_shift_value(bound: int, x: Fraction) -> Fraction:
    """PrimeShift(bound)(x), by a walk over every prime up to max(x, 1/x)."""
    if x == 0:
        return Fraction(0)
    primes = _primes_to(_sieve(bound), bound)
    last = primes[-1]
    floor = Fraction(1, last)
    if x <= floor:
        raise BelowFloorError(f"{x} is at or below the evaluation floor 1/{last}")
    if x >= last:
        raise TooLargeError(f"{x} is at or beyond the certified ceiling {last}")

    lo = hi = None
    lo_img = hi_img = None

    def offer(point: Fraction, image: Fraction) -> Fraction | None:
        nonlocal lo, hi, lo_img, hi_img
        if point == x:
            return image
        if point < x and (lo is None or point > lo):
            lo, lo_img = point, image
        if point > x and (hi is None or point < hi):
            hi, hi_img = point, image
        return None

    exact = offer(Fraction(1), Fraction(1))
    if exact is not None:
        return exact
    limit = max(x, 1 / x)
    for p, q in pairwise(primes):
        if p > limit:
            break
        m = ref_floor_power_index(x, p)
        for n in (m, m + 1):
            exact = offer(Fraction(p) ** n, Fraction(q) ** n)
            if exact is not None:
                return exact
    if x > 1:
        j = bisect_right(primes, x)
        if j < len(primes) - 1:
            exact = offer(Fraction(primes[j]), Fraction(primes[j + 1]))
            if exact is not None:
                return exact
    else:
        j = bisect_left(primes, 1 / x)
        if j < len(primes) - 1:
            exact = offer(Fraction(1, primes[j]), Fraction(1, primes[j + 1]))
            if exact is not None:
                return exact

    if lo is None or lo <= floor:
        raise BelowFloorError(f"cannot certify the lower neighbour of {x}")
    if hi is None or hi >= last:
        raise TooLargeError(f"cannot certify the upper neighbour of {x}")
    return lo_img + (x - lo) * (hi_img - lo_img) / (hi - lo)


def ref_spec_value(f, x: Fraction) -> Fraction:
    """f(x) for a built-in spec f and a Fraction x, in Fraction arithmetic."""
    if x < 0:
        raise NegativeInputError(f"function domain is x >= 0, got {x}")
    if isinstance(f, Tabulated):
        table = dict(f.entries)
        if x not in table:
            raise DomainMissError(f"{x} is not a tabulated point")
        return table[x]
    if isinstance(f, PiecewiseLinear):
        last_x, last_y = f.points[-1]
        if x >= last_x:
            if x == last_x or f.tail == "constant":
                return last_y
            return last_y + (x - last_x) * f.segment_slopes()[-1]
        i = bisect_right([a for a, _ in f.points], x) - 1
        (x0, y0), (x1, y1) = f.points[i], f.points[i + 1]
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    if isinstance(f, Reciprocal):
        return Fraction(0) if x == 0 else 1 / x
    if isinstance(f, Canonical):
        return x / (1 + x)
    if isinstance(f, PowerMap):
        return ref_power_map_value(f.p, f.q, x)
    if isinstance(f, PrimeShift):
        return ref_prime_shift_value(f.sieve_bound, x)
    if isinstance(f, PowerStep):
        if x == 0:
            return Fraction(0)
        return ref_spec_value(f.inner, Fraction(f.p) ** ref_floor_power_index(x, f.p))
    if isinstance(f, StepFunction):
        if x == 0:
            return Fraction(0)
        i = bisect_right([t for t, _ in f.points], x) - 1
        return f.below if i < 0 else f.points[i][1]
    raise TypeError(f"no reference value for {f!r}")


def ref_exact_rank(matrix) -> int:
    """Rank over Q of a matrix of rationals, by Gauss-Jordan elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def ref_tabulated_entries(table) -> tuple[tuple[Fraction, Fraction], ...]:
    """The entries of a JSON table, or the error, as the sorted parse gave them."""
    entries = sorted((as_fraction(k), as_fraction(v)) for k, v in table)
    keys = [k for k, _ in entries]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate table keys")
    if Fraction(0) not in keys:
        raise ValueError("table must contain the key 0")
    if any(k < 0 for k in keys) or any(v < 0 for _, v in entries):
        raise ValueError("table keys and values must be nonnegative")
    return tuple(entries)


def ref_as_fraction(x) -> Fraction:
    """``as_fraction`` with every type told by isinstance, ints by Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"exact rationals only: got the {type(x).__name__} {x!r}")
    if isinstance(x, str) and x.isascii():
        num, slash, den = x.partition("/")
        negative = num.startswith("-")
        digits = num[1:] if negative else num
        if digits.isdigit() and (not slash or den.isdigit()):
            n = int(digits)
            d = int(den) if slash else 1
            if d == 0:
                raise ValueError(f"zero denominator in {x!r}")
            return Fraction(-n if negative else n, d)
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def ref_padic_distance(x, y, p: int) -> Fraction:
    """|x - y|_p from the Fraction x - y, p divided out one factor at a time."""
    diff = as_fraction(x) - as_fraction(y)
    require_prime(p)
    if diff == 0:
        return Fraction(0)
    order, num, den = 0, diff.numerator, diff.denominator
    while num % p == 0:
        num //= p
        order += 1
    while den % p == 0:
        den //= p
        order -= 1
    return Fraction(p) ** -order


def ref_witness_triple(p: int, m: int, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The witness triple as Fraction powers of p, re-measured as Fractions."""
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
    legs, short = Fraction(p) ** m, Fraction(p) ** n
    if not (
        ref_padic_distance(x, z, p) == legs
        and ref_padic_distance(z, y, p) == legs
        and ref_padic_distance(x, y, p) == short
    ):
        raise SelfCheckError(f"witness triple for p={p}, m={m}, n={n} does not verify")
    return (x, y, z)


def ref_step_check(below, points) -> None:
    """The ValueError ``StepFunction`` raises for these fields, or None."""
    if below < 0:
        raise ValueError("step values must be nonnegative")
    ts = [t for t, _ in points]
    if any(t <= 0 for t in ts):
        raise ValueError("thresholds must be positive")
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("thresholds must increase strictly")
    if any(v < 0 for _, v in points):
        raise ValueError("step values must be nonnegative")


def ref_polyline_check(points, tail) -> None:
    """The ValueError ``PiecewiseLinear`` raises for these fields, or None."""
    if not points:
        raise ValueError("need at least one breakpoint")
    if points[0][0] != 0:
        raise ValueError("breakpoints must start at x = 0")
    xs = [x for x, _ in points]
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("breakpoint abscissas must increase strictly")
    if any(y < 0 for _, y in points):
        raise ValueError("ordinates must be nonnegative")
    if tail not in ("constant", "linear"):
        raise ValueError(f"unknown tail mode {tail!r}")
    if tail == "linear":
        if len(points) < 2:
            raise ValueError("a linear tail needs at least two breakpoints")
        (x0, y0), (x1, y1) = points[-2], points[-1]
        if Fraction(y1 - y0, x1 - x0) < 0:
            raise ValueError("a decreasing linear tail would go negative")


def ref_ranked(matrices):
    """``spaces._ranked`` reading every entry and keying it by its pair."""
    first: dict = {}
    keyed = []
    for m in matrices:
        try:
            keys = [[(v.numerator, v.denominator) for v in row] for row in m]
        except AttributeError:
            bad = next(
                v
                for row in m
                for v in row
                if not (hasattr(v, "numerator") and hasattr(v, "denominator"))
            )
            raise TypeError(f"exact rationals only: got the {type(bad).__name__} {bad!r}") from None
        for row_keys, row in zip(keys, m):
            for k, v in zip(row_keys, row):
                if k not in first:
                    first[k] = v
        keyed.append(keys)
    first.setdefault((0, 1), Fraction(0))
    pairs = list(first)
    ranks = _ranks(pairs)
    zero = ranks[pairs.index((0, 1))]
    rank = {k: i - zero for k, i in zip(pairs, ranks)}
    values = [first[k] for k in sorted(pairs, key=rank.__getitem__)]
    return values, zero, [[list(map(rank.__getitem__, row)) for row in m] for m in keyed]
