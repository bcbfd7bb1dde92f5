"""Family orders decided on bit rows, against their pair-by-pair definitions.

The family order is closed by one sweep over upward rows, the order side
finds its first failing pair through one mask per image rank, and the
counterexample reads its incomparable pair off the rows. Each is checked
here against the definition it stands for: Warshall's sweep and the
boolean closure, the first failing pair of ``nonreflexive_pairs``, and a
max over every incomparable pair.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicmetrics import (
    FiniteUltrametricSpace,
    SelfCheckError,
    SpaceFamily,
    Tabulated,
    counterexample_function,
    family_poset,
)
from padicmetrics import families
from padicmetrics.families import (
    FinitePoset,
    OrderWitness,
    _base_leg_rows,
    _close,
    _order_side,
)
from padicmetrics.spaces import _joint

from support import (
    SIX_VALUE_POOL,
    brute_base_leg_pairs,
    brute_transitive_closure,
    comb_space,
    random_family,
    ref_counterexample_pair,
)

F = Fraction


def _joined_combs(low, high, top, prefix="j"):
    """Two combs on the chains low and high, every cross distance top.

    top lies above both chains, so the space is an ultrametric: the ball
    of diameter top has the two combs as its children.
    """
    a, b = comb_space(low), comb_space(high)
    n = a.n + b.n
    rows = tuple(
        tuple(
            a.dist[i][j] if i < a.n and j < a.n
            else b.dist[i - a.n][j - a.n] if i >= a.n and j >= a.n
            else top
            for j in range(n)
        )
        for i in range(n)
    )
    return FiniteUltrametricSpace(tuple(f"{prefix}{i}" for i in range(n)), rows)


def _family(data) -> SpaceFamily:
    """A random family, a comb, or two combs on odd and even levels.

    The two combs stand apart, or sit in one space joined above both;
    either way their levels are incomparable, so the order is not total.
    """
    rng = data.draw(st.randoms(use_true_random=False))
    kind = data.draw(st.sampled_from(("random", "comb", "apart", "joined")))
    if kind == "random":
        values = data.draw(st.sampled_from((SIX_VALUE_POOL, SIX_VALUE_POOL[:2], (F(1),))))
        return random_family(rng, max_spaces=3, max_points=7, values=values)
    size = data.draw(st.integers(1, 12))
    if kind == "comb":
        return SpaceFamily((comb_space([F(k, 3) for k in range(1, size + 1)]),))
    odd = [F(2 * k + 1, 2) for k in range(size)]
    even = [F(2 * k + 2, 2) for k in range(data.draw(st.integers(1, 12)))]
    if kind == "apart":
        return SpaceFamily((comb_space(odd, "o"), comb_space(even, "e")))
    top = max(odd + even) + data.draw(st.sampled_from((F(1, 2), F(1), F(7, 3))))
    spaces = [_joined_combs(odd, even, top)]
    if data.draw(st.booleans()):
        spaces.append(comb_space(odd + [top], "c"))  # the odd chain meets top below
    return SpaceFamily(tuple(spaces))


def _decode(ground, up):
    n = len(ground)
    return {(ground[i], ground[j]) for i in range(n) for j in range(n) if up[i] >> j & 1}


# ------------------------------------------------------------- the sweep --


@settings(max_examples=200)
@given(st.data())
def test_swept_rows_match_warshall_and_the_boolean_closure(data):
    family = _family(data)
    ground, joint = _joint(family.spaces)
    legs = _base_leg_rows(family.spaces, joint, len(ground))
    warshall = [row | 1 << i for i, row in enumerate(legs)]
    _close(warshall)
    poset = family_poset(family)
    assert list(poset.up) == warshall
    want = brute_transitive_closure(ground, brute_base_leg_pairs(family))
    assert _decode(ground, poset.up) == want | {(t, t) for t in ground}


@settings(max_examples=200)
@given(st.data())
def test_the_sweep_closes_any_upward_rows_as_warshall_does(data):
    # rows no family need realize: any bits above the diagonal, with row 0
    # full so that 0 stays the least value
    n = data.draw(st.integers(2, 10))
    family = SpaceFamily((comb_space([F(k) for k in range(1, n)]),))
    rows = [(1 << n) - 1] + [
        data.draw(st.integers(0, (1 << n) - 1)) >> i + 1 << i + 1 for i in range(1, n)
    ]
    warshall = [row | 1 << i for i, row in enumerate(rows)]
    _close(warshall)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "_base_leg_rows", lambda spaces, joint, size: rows[:])
        assert list(family_poset(family).up) == warshall


def _escaping(change):
    # the family's own base-leg rows, with change applied
    def rows(spaces, joint, size):
        up = _base_leg_rows(spaces, joint, size)
        change(up)
        return up

    return rows


@pytest.mark.parametrize(
    "change, named",
    [
        (lambda up: up.__setitem__(2, up[2] | 1 << 1), "2, 1"),
        (lambda up: up.__setitem__(3, up[3] | 0b0111), "3, 2"),
        (lambda up: up.__setitem__(1, up[1] | 1), "1, 0"),
    ],
)
def test_rows_below_their_diagonal_are_refused_before_the_sweep(change, named, monkeypatch):
    # the sweep relies on upward rows, so the guard reads the base-leg rows
    # themselves and names the highest bit below the first row that breaks
    monkeypatch.setattr(families, "_base_leg_rows", _escaping(change))
    family = SpaceFamily((comb_space([1, 2, 3]),))
    with pytest.raises(SelfCheckError, match=f"^distance order escapes numeric order on {named}$"):
        family_poset(family)
    assert "_order" not in vars(family)


def test_a_zero_row_that_misses_a_value_names_the_least_one(monkeypatch):
    monkeypatch.setattr(families, "_base_leg_rows", _escaping(lambda up: up.__setitem__(0, 1)))
    with pytest.raises(SelfCheckError, match="^0 is not below 1$"):
        family_poset(SpaceFamily((comb_space([1, 2, 3]),)))


# --------------------------------------------------------- the order side --


def _ref_order_side(f, poset):
    """The gate at 0 and then on the ground, ascending, and then the first
    pair of ``nonreflexive_pairs`` whose images descend, on Fractions."""
    if f(0) != 0:
        return OrderWitness("origin", (F(0),), (f(0),))
    for x in poset.ground:
        if x > 0 and f(x) == 0:
            return OrderWitness("vanishes", (x,), (F(0),))
    return next(
        (OrderWitness("pair", (a, b), (f(a), f(b)))
         for a, b in poset.nonreflexive_pairs() if f(a) > f(b)),
        None,
    )


def _table(data, ground):
    """Images from a few levels, so ties are common, maybe sorted, maybe
    moving 0 or vanishing at a positive value."""
    pool = data.draw(st.sampled_from((SIX_VALUE_POOL, SIX_VALUE_POOL[:2], (F(1),))))
    images = [data.draw(st.sampled_from(pool)) for _ in ground]
    if data.draw(st.booleans()):
        images.sort()
    table = {**dict(zip(ground, images)), F(0): F(0)}
    trap = data.draw(st.sampled_from((None, None, "origin", "vanish")))
    if trap == "origin":
        table[F(0)] = data.draw(st.sampled_from(pool))
    elif trap == "vanish" and any(x > 0 for x in ground):
        table[data.draw(st.sampled_from([x for x in ground if x > 0]))] = F(0)
    return Tabulated.from_mapping(table)


@settings(max_examples=300)
@given(st.data())
def test_order_side_names_the_first_failing_pair_of_a_family(data):
    poset = family_poset(_family(data))
    f = _table(data, poset.ground)
    assert _order_side(f.ratio_at, poset) == _ref_order_side(f, poset)


@settings(max_examples=300)
@given(st.data())
def test_order_side_names_the_first_failing_pair_of_any_rows(data):
    # rows that need not be an order nor point upwards, skipping the checks
    # through _trusted: a bit below the diagonal is a pair like any other
    n = data.draw(st.integers(1, 8))
    ground = tuple(F(k, 2) for k in range(n))
    up = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    poset = FinitePoset._trusted(ground, up)
    f = _table(data, ground)
    assert _order_side(f.ratio_at, poset) == _ref_order_side(f, poset)


# -------------------------------------------------------- the counterexample --


def _counterexample_pair(family):
    """The (small, big) pair counterexample_function hands to
    isotone_for_incomparables, and the function it returns."""
    seen = []
    isotone = families.isotone_for_incomparables

    def recording(poset, x1, x2, p1, p2):
        seen.append((x2, x1))
        return isotone(poset, x1, x2, p1, p2)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "isotone_for_incomparables", recording)
        fn = counterexample_function(family)
    assert len(seen) == 1
    return seen[0], fn


@settings(max_examples=200)
@given(st.data())
def test_counterexample_takes_the_largest_incomparable_pair(data):
    family = _family(data)
    poset = family_poset(family)
    if poset.is_total():
        return
    pair, fn = _counterexample_pair(family)
    small, big = ref_counterexample_pair(poset)
    assert pair == (small, big)
    assert fn(small) == 2 and fn(big) == 1


@given(st.integers(0, 2**32 - 1))
def test_counterexample_pair_on_random_non_total_families(seed):
    # a seed, not st.randoms: the draws up to a non-total order are many
    rng = Random(seed)
    family = random_family(rng)
    while family_poset(family).is_total():
        family = random_family(rng)
    assert _counterexample_pair(family)[0] == ref_counterexample_pair(family_poset(family))


def test_counterexample_pair_of_two_joined_combs():
    # odd levels 1/2 .. 9/2 and even ones 1 .. 4 below a common top of 6:
    # the largest incomparable pair is the top of each chain
    odd = [F(2 * k + 1, 2) for k in range(5)]
    even = [F(k) for k in range(1, 5)]
    family = SpaceFamily((_joined_combs(odd, even, F(6)),))
    assert _counterexample_pair(family)[0] == (F(4), F(9, 2)) == ref_counterexample_pair(
        family_poset(family)
    )
