"""Distance posets for finite families of finite ultrametric spaces.

Every triangle in an ultrametric space is isosceles with the base no
longer than the two equal legs. Collecting the pairs (base, leg) over all
point triples of all spaces in a family, taking the transitive closure,
and adding the diagonal yields a partial order on the set of occurring
distance values. That order is exactly what a function must respect to
carry every space of the family to another ultrametric space: f works iff
f(0) = 0, f is positive on the positive values, and f is isotone for the
order. Both sides of that equivalence are computed independently here and
compared on every call; they can only disagree through a bug.

Point triples are enumerated with repetition on purpose: the degenerate
triple (x, y, x) contributes the pair (0, d(x, y)), which is what makes 0
the least element of the order.

When the order is total, a preserving function extends to an increasing
amenable step function on all nonnegatives (sup of f over the values seen
so far, clamped at the extremes). When it is not, an explicit two-valued
counterexample shows no increasing extension can exist.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, pairwise
from operator import or_
from typing import Callable, Iterator

from .errors import (
    BadIntervalError,
    ComparableError,
    EquivalenceBreachError,
    NonzeroDiagonalError,
    NoPositiveDistancesError,
    NotPreservingError,
    NotTotallyOrderedError,
    NotUltrametricError,
    SelfCheckError,
    TotallyOrderedError,
    ZeroDistanceError,
)
from .functions import FunctionSpec, StepFunction, Tabulated
from .padic import RationalLike, _Record, _exceeds, _ranks, _ratio, _text, as_fraction
from .preserving import Ratio, _Memo, _amenable_images, _fractions
from .spaces import (
    FiniteUltrametricSpace,
    TriangleViolation,
    _balls,
    _joint,
    _validate_image,
)

Pair = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SpaceFamily(_Record):
    """Nonempty, explicitly listed family of validated spaces.

    ``_order`` builds the family's distance order the first time a family
    verb asks, and keeps it on the instance: ``family_poset``,
    ``check_family_preserving``, ``build_extension``,
    ``counterexample_function`` and ``compare_families`` all read that one
    build. A build that raises keeps nothing, and raises again on the next
    call. The cached maps from each space's ranks to the family's are
    tuples, so no reader can change them.

    The cache rests on the family never changing. ``spaces`` is stored as
    a tuple, each member must be a frozen ``FiniteUltrametricSpace``, and
    a space's rows are tuples when it comes from ``from_rows`` or
    ``from_json_dict``. A space keeps the ranks of its matrix and the ball
    order the family order is read from, so a space on mutable rows must
    keep them once built. No verb ranks a matrix again.

    Raises:
        ValueError: for an empty family.
        TypeError: for a member that is not a ``FiniteUltrametricSpace``,
            named by its index and type.
    """

    spaces: tuple[FiniteUltrametricSpace, ...]

    def __post_init__(self) -> None:
        spaces = tuple(self.spaces)
        if not spaces:
            raise ValueError("a family needs at least one space")
        for idx, s in enumerate(spaces):
            if not isinstance(s, FiniteUltrametricSpace):
                raise TypeError(
                    f"space {idx} is a {type(s).__name__}, not a FiniteUltrametricSpace"
                )
        object.__setattr__(self, "spaces", spaces)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpaceFamily":
        spaces = []
        for idx, raw in enumerate(data["spaces"]):
            try:
                spaces.append(FiniteUltrametricSpace.from_json_dict(raw))
            except NotUltrametricError as err:
                raise ValueError(f"space {idx} is {err}") from None
        return cls(tuple(spaces))

    @cached_property
    def _order(self) -> tuple[FinitePoset, tuple[tuple[int, ...], ...]]:
        """``family_poset``'s order, with each space's ranks on its ground
        (``spaces._joint``): rank x of space i stands for ground[joint[i][x]],
        and family rank r for ground[r], since 0 is the least value. The
        ground is the spaces' kept values merged, so no matrix is read.

        The base-leg rows are checked to stay inside the numeric order,
        then closed in one sweep from the top row down: every row above i
        is closed by then and holds its own bit, so row i takes the lowest
        bit j above i it has not reached yet, ORs in row j, and drops all
        of row j from what it still has to reach. A chain takes one OR per
        row, and any family at most one per value above i; the closed rows
        stay inside the numeric order.
        """
        ground, joint = _joint(self.spaces)
        ran = tuple(ground)
        up = _base_leg_rows(self.spaces, joint, len(ran))
        for i, row in enumerate(up):
            below = row & ((1 << i) - 1)
            if below:
                j = below.bit_length() - 1
                raise SelfCheckError(
                    f"distance order escapes numeric order on {ran[i]}, {ran[j]}"
                )
        for i in range(len(up) - 1, -1, -1):
            row = up[i] | 1 << i
            pending = row >> i + 1 << i + 1
            while pending:
                via = up[(pending & -pending).bit_length() - 1]
                row |= via
                pending &= ~via
            up[i] = row
        missing = up[0] ^ (1 << len(ran)) - 1
        if missing:
            raise SelfCheckError(f"0 is not below {ran[(missing & -missing).bit_length() - 1]}")
        return FinitePoset._trusted(ran, tuple(up)), tuple(joint)


def distance_values(family: SpaceFamily) -> tuple[Fraction, ...]:
    """Union of all distance values over the family, 0 included, ascending.

    The spaces' kept values merged (``spaces._joint``): no matrix is read
    again, and a shared value is the earlier space's object."""
    return tuple(_joint(family.spaces)[0])


def _bits(row: int) -> Iterator[int]:
    """Indices of the set bits of row, ascending."""
    while row:
        yield (row & -row).bit_length() - 1
        row &= row - 1


def _base_leg_rows(spaces, joint: list[tuple[int, ...]], size: int) -> list[int]:
    """All pairs (base, leg) realized by point triples, repetition allowed.

    Rank x of space i is rank joint[i][x] of the family's ``size``
    ascending values (rank 0 is 0, the least). Bit j of row i is set when
    some space has points a, b, c (not necessarily distinct) with rank
    i = d(a, c) and rank j = d(a, b) = d(b, c).

    In an ultrametric that reads off the tree of closed balls
    (``spaces._balls``), in O(n) steps per space:
    - (0, 0) is always realized (a = b = c).
    - For s < t, (s, t) is realized exactly when a ball of diameter t
      holds a ball of diameter s (a point for s = 0): the balls about a of
      radii s and t hold c and b; conversely take a, c at s in the inner
      ball and b in another child of the outer one, at t from both.
    - (t, t) is realized exactly when a ball of diameter t has three or
      more children: three points pairwise at t lie in three of them.
    So each ball's row gains the diameters above it, read from the root.
    """
    up = [1] + [0] * (size - 1)  # (0, 0), as rank 0 is 0
    for s, rank in zip(spaces, joint):
        tree = _balls(s, rank)
        above = [0] * (len(tree) + 1)  # diameters at and over x; [-1] stays 0
        for x in range(len(tree) - 1, s.n - 1, -1):
            p, _, t, kids = tree[x]
            up[t] |= above[p] | (len(kids) > 2) << t
            above[x] = above[p] | 1 << t
            up[0] |= above[x]
    return up


def _close(up: list[int]) -> None:
    """Warshall's sweep in place: row i gains row k whenever i reaches k.

    It takes rows in any order, as ``FinitePoset`` is given them; a
    family's rows point upwards, and ``SpaceFamily._order`` closes them
    in one sweep of its own."""
    for k, via in enumerate(up):
        bit = 1 << k
        for i, row in enumerate(up):
            if row & bit:
                up[i] = row | via


@dataclass(frozen=True)
class FinitePoset:
    """Partial order on ascending ``ground``; bit j of ``up[i]``: ground[i] <= ground[j].

    Direct construction and ``from_json_dict`` check the rows: a sorted,
    duplicate-free ground, one row per value with no bit beyond it,
    reflexivity, antisymmetry and transitivity. ``family_poset`` builds
    its rows sorted, reflexive and closed, and proves them inside the
    numeric order itself, so it skips those checks through ``_trusted``.
    """

    ground: tuple[Fraction, ...]
    up: tuple[int, ...]

    @classmethod
    def _trusted(cls, ground: tuple[Fraction, ...], up: tuple[int, ...]) -> "FinitePoset":
        """The poset on rows already known to be a partial order, unchecked."""
        poset = object.__new__(cls)
        object.__setattr__(poset, "ground", ground)
        object.__setattr__(poset, "up", up)
        return poset

    def __post_init__(self) -> None:
        ground, up, n = self.ground, self.up, len(self.ground)
        if any(a >= b for a, b in pairwise(ground)):
            raise ValueError("ground must be sorted and duplicate-free")
        if len(up) != n or any(row >> n for row in up):
            raise ValueError("need one row per value and no bit beyond the ground")
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise ValueError(f"missing reflexive pair for {ground[i]}")
            for j in _bits(row >> i + 1 << i + 1):
                if up[j] >> i & 1:
                    raise ValueError(f"antisymmetry fails on {ground[i]}, {ground[j]}")
        closed = list(up)
        _close(closed)
        for i, row in enumerate(up):
            for j in _bits(closed[i] ^ row):
                raise ValueError(
                    f"transitivity fails: ({ground[i]}, {ground[j]}) is implied but missing"
                )

    @property
    def pairs(self) -> frozenset[Pair]:
        g = self.ground
        return frozenset((g[i], g[j]) for i, row in enumerate(self.up) for j in _bits(row))

    def _index(self, v: RationalLike) -> int | None:
        v = as_fraction(v)
        i = bisect_left(self.ground, v)
        return i if i < len(self.ground) and self.ground[i] == v else None

    def leq(self, a: RationalLike, b: RationalLike) -> bool:
        i, j = self._index(a), self._index(b)
        return i is not None and j is not None and bool(self.up[i] >> j & 1)

    def comparable(self, a: RationalLike, b: RationalLike) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def is_total(self) -> bool:
        # by antisymmetry each comparable pair sets one bit, besides the diagonal
        n = len(self.ground)
        return sum(row.bit_count() for row in self.up) == n * (n + 1) // 2

    def nonreflexive_pairs(self) -> list[Pair]:
        g, up = self.ground, self.up
        return [(g[i], g[j]) for i in range(len(g)) for j in _bits(up[i] & ~(1 << i))]

    def to_json_dict(self) -> dict:
        return {
            "ground": list(map(_text, self.ground)),
            "pairs": [[_text(a), _text(b)] for a, b in self.nonreflexive_pairs()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FinitePoset":
        ground = tuple(sorted(as_fraction(v) for v in data["ground"]))
        index = {v: i for i, v in enumerate(ground)}
        up = [1 << i for i in range(len(ground))]
        for a, b in data["pairs"]:
            a, b = as_fraction(a), as_fraction(b)
            if a not in index or b not in index:
                raise ValueError(f"pair ({a}, {b}) leaves the ground set")
            up[index[a]] |= 1 << index[b]
        return cls(ground, tuple(up))


def family_poset(family: SpaceFamily) -> FinitePoset:
    """Transitive closure of the base-leg relation plus the diagonal.

    The structural guarantees (containment in the numeric order, which
    implies antisymmetry, and least element 0) hold for every family; they
    are re-derived when the family's order is first built, and a breach
    raises SelfCheckError rather than returning nonsense. The rows are
    then a partial order on the sorted ground by construction (reflexive,
    closed, and inside the numeric order), so the poset is made through
    ``FinitePoset._trusted``, without the checks of direct construction.
    """
    return family._order[0]


@dataclass(frozen=True)
class SpaceWitness(_Record):
    """Which space's image fails, and how."""

    space: int
    kind: str
    triple: tuple[int, int, int] | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"space": self.space, "kind": self.kind}
        if self.triple is not None:
            out["triple"] = list(self.triple)
        return out


@dataclass(frozen=True)
class OrderWitness(_Record):
    """Which of the three order-side conditions fails, and where."""

    kind: str
    points: tuple[Fraction, ...]
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class PreservationReport(_Record):
    passed: bool
    space_witness: SpaceWitness | None = None
    order_witness: OrderWitness | None = None


def _order_side(read: Callable[[int, int], Ratio], poset: FinitePoset) -> OrderWitness | None:
    """First failing order-side condition; f is read once per value.

    read(k, den) gives f(k/den) as an integer pair (``ratio_at``), and
    the images are compared by their int ranks (see ``padic._ranks``);
    only a witness's images become Fractions. This is isotonicity along
    a relation on bit rows, the family form of the isotone decision:
    below[r] holds the values whose image ranks below r, so row i fails
    exactly where it meets below[ranks[i]], and its lowest bit there is
    the first failing pair in ``nonreflexive_pairs`` order. That is O(k)
    row operations for k values, however many pairs the rows hold.
    """
    images, bad = _amenable_images(read, map(_ratio, poset.ground))
    if bad is not None:
        return OrderWitness(bad.kind, bad.points, bad.images)
    ranks = _ranks(images)
    level = [0] * len(ranks)
    for i, r in enumerate(ranks):
        level[r] |= 1 << i
    below = list(accumulate(level, or_, initial=0))
    g = poset.ground
    for i, row in enumerate(poset.up):
        fails = row & below[ranks[i]]
        if fails:
            j = (fails & -fails).bit_length() - 1
            return OrderWitness("pair", (g[i], g[j]), _fractions(images[i], images[j]))
    return None


def _space_side(
    image: Callable[[int], Ratio], family: SpaceFamily, joint: tuple[tuple[int, ...], ...]
) -> SpaceWitness | None:
    """Transform and validate each space, on the ranks it kept when built.

    image(r) is f at ground[r] as an integer pair, and rank x of space i
    is family rank joint[i][x], so that space's image is read as
    image(joint[i][x]). Each space gets the witness
    ``validate_ultrametric(apply_function(s, f))`` would give, without
    ranking its matrix again. Only the matrix's ranks are read, never the
    ball order the order side's poset comes from, so the two routes stay
    independent.
    """
    for idx, (s, to_family) in enumerate(zip(family.spaces, joint)):
        try:
            out = _validate_image(s, lambda x: image(to_family[x]))
        except NonzeroDiagonalError:
            return SpaceWitness(idx, "nonzero_diagonal")
        except ZeroDistanceError:
            return SpaceWitness(idx, "zero_distance")
        if isinstance(out, TriangleViolation):
            return SpaceWitness(idx, "strong_triangle", (out.i, out.j, out.k))
    return None


def _report(
    f: FunctionSpec,
    family: SpaceFamily,
    poset: FinitePoset,
    joint: tuple[tuple[int, ...], ...],
) -> tuple[PreservationReport, _Memo]:
    """Run both routes against the family's own poset and compare them.

    f is read through ``ratio_at``, at most once per value, into one memo
    keyed by (numerator, denominator): the order side's amenability gate
    fills it in ascending ground order, and the space side reads it on
    demand, in each space's order of first appearance. The memo comes back
    with the report, so a caller reads no value twice either.
    """
    read = f.ratio_at
    memo = _Memo(lambda key: read(*key))
    keys = list(map(_ratio, poset.ground))
    order_witness = _order_side(lambda k, den: memo[k, den], poset)
    space_witness = _space_side(lambda r: memo[keys[r]], family, joint)
    if (order_witness is None) != (space_witness is None):
        raise EquivalenceBreachError(
            f"order side says {order_witness}, space side says {space_witness}"
        )
    return PreservationReport(order_witness is None, space_witness, order_witness), memo


def check_family_preserving(f: FunctionSpec, family: SpaceFamily) -> PreservationReport:
    """Decide whether f carries every space of the family to an ultrametric.

    Two independent procedures: transform-and-validate each space, and the
    order-side test (f(0) = 0, positive on positive values, isotone for
    the family's distance order). Their verdicts are compared on every
    call; disagreement raises EquivalenceBreachError because the
    equivalence is a theorem, not a heuristic. No matrix is ranked here:
    each space's image is validated on the ranks the space kept when it
    was built, and the poset is read off the spaces' kept ball orders once
    per family.
    """
    return _report(f, family, *family._order)[0]


def build_extension(f: FunctionSpec, family: SpaceFamily) -> StepFunction:
    """Increasing amenable extension of f beyond the family's values.

    Only defined when the distance order is total and f preserves the
    family. The result is the running sup of f over the values seen so
    far: f(low) below the least positive value, then steps at each value,
    staying at f(high) forever after. It agrees with f on every value the
    family realizes. The running sup is taken on the memo's integer
    pairs, and one Fraction is built per new maximum; a tie keeps the
    earlier level.
    """
    poset, joint = family._order
    if not poset.is_total():
        raise NotTotallyOrderedError("the family's distance order is not total")
    report, memo = _report(f, family, poset, joint)
    if not report.passed:
        raise NotPreservingError(
            f"f does not preserve the family: {report.order_witness.to_json_dict()}"
        )
    positives = poset.ground[1:]  # ground[0] is 0, the least value
    if not positives:
        raise NoPositiveDistancesError("nothing to extend: no positive distances")
    levels = []
    top, level = (0, 1), None  # f passed, so every image exceeds 0
    for v in positives:
        y = memo[_ratio(v)]
        if _exceeds(y, top):
            top, level = y, Fraction(*y)
        levels.append(level)
    points = tuple(zip(positives, levels))
    return StepFunction(below=points[0][1], points=points)


def isotone_for_incomparables(
    poset: FinitePoset,
    x1: RationalLike,
    x2: RationalLike,
    p1: RationalLike,
    p2: RationalLike,
) -> dict[Fraction, Fraction]:
    """Isotone map sending incomparable x1, x2 to prescribed p1 < p2.

    The map is p2 on the up-set of x2 and p1 everywhere else, which is
    isotone by transitivity and hits the prescribed values because x1 is
    not above x2. It is read off x2's row of ``poset.up``: ground[i] goes
    to p2 when bit i is set. Isotonicity is re-checked on the rows after
    construction, in ``nonreflexive_pairs`` order, so the first pair
    (s, t) with s in the up-set and t outside it is named. That is
    O(k + pairs) for k ground values.
    """
    x1, x2 = as_fraction(x1), as_fraction(x2)
    p1, p2 = as_fraction(p1), as_fraction(p2)
    if x1 not in poset.ground or x2 not in poset.ground:
        raise ValueError("x1 and x2 must belong to the ground set")
    if not 0 < p1 < p2:
        raise BadIntervalError(f"need 0 < p1 < p2, got {p1}, {p2}")
    if poset.comparable(x1, x2):
        raise ComparableError(f"{x1} and {x2} are comparable")
    ground, up = poset.ground, poset.up
    row = up[poset._index(x2)]
    phi = {x: p2 if row >> i & 1 else p1 for i, x in enumerate(ground)}
    # phi[s] > phi[t] exactly when s is in the up-set of x2 and t is not
    for s in _bits(row):
        t = next(_bits(up[s] & ~row), None)
        if t is not None:
            raise SelfCheckError(f"constructed map is not isotone on {ground[s]}, {ground[t]}")
    return phi


def counterexample_function(family: SpaceFamily) -> Tabulated:
    """A preserving function with no increasing extension.

    Requires the distance order not to be total. Takes the largest
    incomparable pair, read off the rows: they point upwards, so for
    j > i values i and j are comparable exactly when bit j of row i is
    set, and the pair is the largest i whose row misses a bit above i,
    with the highest bit it misses. That is O(k) row operations for k
    values. It maps the numerically bigger value to 1 and the
    smaller to 2 (up-set construction for the rest, 0 to 0), and
    tabulates. The result provably preserves the family while being
    decreasing somewhere on its values, so no increasing function can
    agree with it; both facts are re-verified before returning.
    """
    poset, joint = family._order
    if poset.is_total():
        raise TotallyOrderedError("the family's distance order is already total")
    ran, up = poset.ground, poset.up
    # 0 is below every value, so the largest incomparable pair is positive
    full = (1 << len(ran)) - 1
    for i in range(len(ran) - 1, -1, -1):
        j = (full ^ up[i]).bit_length() - 1
        if j > i:
            break
    small, big = ran[i], ran[j]
    phi = isotone_for_incomparables(poset, big, small, Fraction(1), Fraction(2))
    fn = Tabulated.from_mapping({**phi, Fraction(0): Fraction(0)})

    report = _report(fn, family, poset, joint)[0]
    # small < big, so this one pair certifies that fn decreases somewhere
    if not report.passed or not fn(small) > fn(big):
        raise SelfCheckError("counterexample failed its own audit")
    return fn


def compare_families(a: SpaceFamily, b: SpaceFamily) -> dict[str, bool]:
    """Whether two families induce the same values and the same order."""
    poset_a = family_poset(a)
    poset_b = family_poset(b)
    return {
        "same_range": poset_a.ground == poset_b.ground,
        "same_order": poset_a.ground == poset_b.ground and poset_a.up == poset_b.up,
    }
