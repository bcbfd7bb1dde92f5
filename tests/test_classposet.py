"""Distance posets of space families and the extension/counterexample pair.

check_family_preserving runs its two independent procedures on every
call and raises on disagreement, so every randomized invocation below
doubles as an equivalence check between the order side and the
transform-and-validate side.
"""

from copy import deepcopy
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicmetrics import (
    ComparableError,
    BadIntervalError,
    DistanceMatrixCandidate,
    EquivalenceBreachError,
    FiniteUltrametricSpace,
    FunctionSpec,
    FinitePoset,
    NonzeroDiagonalError,
    NoPositiveDistancesError,
    NotPreservingError,
    NotTotallyOrderedError,
    PadicMetricsError,
    SelfCheckError,
    SpaceFamily,
    StepFunction,
    Tabulated,
    TotallyOrderedError,
    TriangleViolation,
    ZeroDistanceError,
    apply_function,
    build_extension,
    check_family_preserving,
    compare_families,
    counterexample_function,
    distance_values,
    family_poset,
    isometry_search,
    isotone_for_incomparables,
    validate_ultrametric,
)
from padicmetrics import families
from padicmetrics.families import (
    OrderWitness,
    PreservationReport,
    SpaceWitness,
    _base_leg_rows,
    _close,
    _order_side,
)
from padicmetrics.fixtures import (
    four_point_family,
    four_point_space,
    identity_map,
    legs_three_space,
    level_swap_map,
    zigzag_map,
)
from padicmetrics.padic import _ranks
from padicmetrics.spaces import _ball_order, _joint, _ranked

from support import (
    SIX_VALUE_POOL,
    adversarial_pool,
    brute_base_leg_pairs,
    brute_is_transitive,
    brute_transitive_closure,
    comb_space,
    mix_ints,
    must_validate,
    random_family,
    random_ultrametric,
    ref_ranked,
)

F = Fraction


def _chain_family():
    return SpaceFamily((comb_space([1, 2, 3]),))


def _singleton_family():
    only = must_validate(DistanceMatrixCandidate.from_rows(["only"], [[0]]))
    return SpaceFamily((only,))


def _encode(ground, pairs):
    """Bit rows of a relation: bit j of row i stands for (ground[i], ground[j])."""
    up = [0] * len(ground)
    for a, b in pairs:
        up[ground.index(a)] |= 1 << ground.index(b)
    return up


def _decode(ground, up):
    n = len(ground)
    return {(ground[i], ground[j]) for i in range(n) for j in range(n) if up[i] >> j & 1}


# ------------------------------------------------------------------ poset --


def test_family_json_rejects_broken_spaces():
    with pytest.raises(ValueError):
        SpaceFamily.from_json_dict(
            {"spaces": [{"points": ["a", "b", "c"],
                         "d": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]]}]}
        )
    with pytest.raises(ValueError):
        SpaceFamily(())


def test_family_holds_a_tuple_of_validated_spaces():
    space = four_point_space()
    family = SpaceFamily([space])
    assert type(family.spaces) is tuple and family == SpaceFamily((space,))
    assert hash(family) == hash(SpaceFamily((space,)))
    with pytest.raises(TypeError, match="space 1 is a DistanceMatrixCandidate"):
        SpaceFamily((space, space.candidate()))


def test_distance_values_include_zero():
    assert distance_values(four_point_family()) == (F(0), F(1), F(2), F(3))
    assert distance_values(_singleton_family()) == (F(0),)


def test_four_point_poset_pins():
    poset = family_poset(four_point_family())
    assert poset.ground == (F(0), F(1), F(2), F(3))
    assert poset.nonreflexive_pairs() == [
        (F(0), F(1)), (F(0), F(2)), (F(0), F(3)), (F(1), F(3)), (F(2), F(3)),
    ]
    assert not poset.is_total()
    assert poset.leq(1, 3) and not poset.leq(3, 1)
    assert not poset.comparable(1, 2)


def test_chain_family_poset_is_total():
    poset = family_poset(_chain_family())
    assert poset.is_total()
    assert poset.nonreflexive_pairs() == [
        (F(0), F(1)), (F(0), F(2)), (F(0), F(3)),
        (F(1), F(2)), (F(1), F(3)), (F(2), F(3)),
    ]


def test_disjoint_values_stay_incomparable():
    # two two-point spaces never share a triangle, so their positive
    # distances are incomparable even though the numbers are ordered
    a = must_validate(DistanceMatrixCandidate.from_rows(["a", "b"], [[0, 1], [1, 0]]))
    b = must_validate(DistanceMatrixCandidate.from_rows(["c", "d"], [[0, 2], [2, 0]]))
    poset = family_poset(SpaceFamily((a, b)))
    assert not poset.comparable(1, 2)
    assert not poset.is_total()


def test_poset_invariants_on_random_families():
    rng = Random(29)
    for _ in range(40):
        family = random_family(rng)
        poset = family_poset(family)
        assert poset.ground == distance_values(family)
        zero = F(0)
        for t in poset.ground:
            assert poset.leq(zero, t)
        for a, b in poset.pairs:
            assert a <= b  # the order never escapes the numeric one


def _star_space(n, t, prefix):
    """n points pairwise at distance t: every triple of distinct points is equilateral."""
    return FiniteUltrametricSpace(
        tuple(f"{prefix}{i}" for i in range(n)),
        tuple(tuple(F(0) if i == j else t for j in range(n)) for i in range(n)),
    )


def _leg_pairs_off_balls(family):
    ground, joint = _joint(family.spaces)
    return ground, _decode(ground, _base_leg_rows(family.spaces, joint, len(ground)))


def _shuffled(rng, space, prefix):
    perm = list(range(space.n))
    rng.shuffle(perm)
    return FiniteUltrametricSpace(
        tuple(f"{prefix}{i}" for i in range(space.n)),
        tuple(tuple(space.dist[a][b] for b in perm) for a in perm),
    )


@settings(max_examples=300)
@given(st.data())
def test_ball_pairs_match_cubic_scan(data):
    """Few levels make equilateral triples, which realize (t, t); combs,
    stars and dendrograms with shuffled points join the random families."""
    rng = data.draw(st.randoms(use_true_random=False))
    values = data.draw(st.sampled_from((SIX_VALUE_POOL, SIX_VALUE_POOL[:2], (F(1),))))
    spaces = list(random_family(rng, max_spaces=3, max_points=7, values=values).spaces)
    for k in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(("comb", "star", "shuffled")))
        if kind == "comb":
            chain = rng.sample(values, rng.randint(1, len(values)))
            spaces.append(comb_space(chain, prefix=f"c{k}_"))
        elif kind == "star":
            spaces.append(_star_space(rng.randint(1, 6), rng.choice(values), f"t{k}_"))
        else:
            space = random_ultrametric(rng, rng.randint(1, 9), values)
            spaces.append(_shuffled(rng, space, f"u{k}_"))
    rng.shuffle(spaces)
    family = SpaceFamily(tuple(spaces))
    pairs = brute_base_leg_pairs(family)
    ground, off_balls = _leg_pairs_off_balls(family)
    assert tuple(ground) == distance_values(family)
    assert off_balls == pairs
    want = brute_transitive_closure(ground, pairs) | {(t, t) for t in ground}
    assert family_poset(family).pairs == want


@pytest.mark.parametrize("size", [1, 2, 5, 30])
def test_comb_rows_realize_no_equal_base_and_legs(size):
    # a comb has no equilateral triple, so (t, t) stays unset for t > 0
    family = SpaceFamily((comb_space([F(k, 3) for k in range(1, size + 1)]),))
    ground, pairs = _leg_pairs_off_balls(family)
    assert pairs == brute_base_leg_pairs(family)
    assert {(t, t) for t in ground} & pairs == {(F(0), F(0))}


def test_star_rows_realize_every_equal_base_and_legs():
    # three or more points pairwise at t realize (t, t); two realize only (0, t)
    stars = [_star_space(n, t, f"s{k}_") for k, (n, t) in
             enumerate(((3, F(1, 3)), (4, F(2)), (7, F(5, 2)), (2, F(9))))]
    family = SpaceFamily(tuple(stars))
    ground, pairs = _leg_pairs_off_balls(family)
    assert pairs == brute_base_leg_pairs(family)
    assert {t for t, u in pairs if t == u} == {F(0), F(1, 3), F(2), F(5, 2)}


def test_one_and_two_point_rows():
    one = _singleton_family().spaces[0]
    two = must_validate(DistanceMatrixCandidate.from_rows(["a", "b"], [[0, "1/2"], ["1/2", 0]]))
    for spaces, want in (
        ((one,), {(F(0), F(0))}),
        ((two,), {(F(0), F(0)), (F(0), F(1, 2))}),
        ((one, two, one), {(F(0), F(0)), (F(0), F(1, 2))}),
    ):
        family = SpaceFamily(spaces)
        assert _leg_pairs_off_balls(family)[1] == want == brute_base_leg_pairs(family)


@settings(max_examples=300)
@given(st.data())
def test_bitset_closure_matches_boolean_matrix(data):
    ground = tuple(sorted(F(v) for v in data.draw(st.sets(st.integers(-3, 12), min_size=1, max_size=8))))
    value = st.sampled_from(ground)
    pairs = frozenset(data.draw(st.sets(st.tuples(value, value), max_size=20)))
    up = _encode(ground, pairs)
    _close(up)
    assert _decode(ground, up) == brute_transitive_closure(ground, pairs)


@settings(max_examples=200)
@given(st.data())
def test_distance_values_are_the_objects_a_ranking_keeps(data):
    # merged from the spaces' kept values: the same values in the same
    # order, and for a value two spaces share, the earlier space's object
    rng = data.draw(st.randoms(use_true_random=False))
    pool = adversarial_pool(rng, data.draw(st.integers(1, 4)))
    spaces = []
    for k in range(data.draw(st.integers(1, 4))):
        s = random_ultrametric(rng, rng.randint(1, 7), pool, prefix=f"s{k}_")
        spaces.append(FiniteUltrametricSpace(s.labels, mix_ints(rng, s.dist)))
    want = ref_ranked([s.dist for s in spaces])[0]
    got = distance_values(SpaceFamily(tuple(spaces)))
    assert list(map(id, got)) == list(map(id, want))


@settings(max_examples=200)
@given(st.data())
def test_poset_and_space_side_match_brute_on_adversarial_rationals(data):
    """Coprime denominators, twins under 2^-64 apart, ints among Fractions."""
    rng = data.draw(st.randoms(use_true_random=False))
    pool = adversarial_pool(rng, data.draw(st.integers(1, 4)))
    spaces = []
    for k in range(data.draw(st.integers(1, 3))):
        s = random_ultrametric(rng, rng.randint(1, 7), pool, prefix=f"s{k}_")
        spaces.append(FiniteUltrametricSpace(s.labels, mix_ints(rng, s.dist)))
    family = SpaceFamily(tuple(spaces))
    ground = tuple(sorted({v for s in spaces for row in s.dist for v in row} | {0}))
    assert distance_values(family) == ground
    want = brute_transitive_closure(ground, brute_base_leg_pairs(family))
    assert family_poset(family).pairs == want | {(t, t) for t in ground}

    # a random table on the values: the report's space witness is the first
    # one that transforming and validating each space finds
    images = [F(0)] + [data.draw(st.sampled_from(pool)) for _ in ground[1:]]
    f = Tabulated.from_mapping(dict(zip(ground, images)))
    expected = None
    for idx, s in enumerate(spaces):
        out = validate_ultrametric(apply_function(s, f))
        if isinstance(out, TriangleViolation):
            expected = SpaceWitness(idx, "strong_triangle", (out.i, out.j, out.k))
            break
    assert check_family_preserving(f, family).space_witness == expected


def test_sixty_value_comb_is_the_full_chain():
    chain = [F(k, 7) for k in range(1, 61)]
    poset = family_poset(SpaceFamily((comb_space(chain),)))
    ground = (F(0),) + tuple(chain)
    assert poset.ground == ground
    assert poset.pairs == {(a, b) for a in ground for b in ground if a <= b}


def test_poset_constructor_rejects_bad_relations():
    g = (F(0), F(1))
    with pytest.raises(ValueError, match="sorted"):
        FinitePoset((F(1), F(0)), (1, 2))
    # a repeat, and a descent after an ascent, are refused before any row
    for ground in ((F(0), F(0)), (F(0), F(2), F(1))):
        with pytest.raises(ValueError, match="^ground must be sorted and duplicate-free$"):
            FinitePoset(ground, ())
    with pytest.raises(ValueError, match="one row per value"):
        FinitePoset(g, (1,))
    with pytest.raises(ValueError, match="no bit beyond"):
        FinitePoset(g, (1, 2 | 4))
    with pytest.raises(ValueError, match="missing reflexive pair for 1"):
        FinitePoset(g, tuple(_encode(g, {(F(0), F(0))})))
    diag = {(F(0), F(0)), (F(1), F(1))}
    with pytest.raises(ValueError, match="antisymmetry fails on 0, 1"):
        FinitePoset(g, tuple(_encode(g, diag | {(F(0), F(1)), (F(1), F(0))})))
    g3 = (F(0), F(1), F(2))
    diag3 = {(t, t) for t in g3}
    with pytest.raises(ValueError, match=r"\(0, 2\) is implied but missing"):
        FinitePoset(g3, tuple(_encode(g3, diag3 | {(F(0), F(1)), (F(1), F(2))})))
    # (0, 2), (0, 3) and (1, 3) are all missing; the least one is named
    g4 = g3 + (F(3),)
    steps = {(t, t) for t in g4} | {(F(0), F(1)), (F(1), F(2)), (F(2), F(3))}
    with pytest.raises(ValueError, match=r"\(0, 2\) is implied but missing"):
        FinitePoset(g4, tuple(_encode(g4, steps)))


@given(st.data())
def test_poset_constructor_accepts_exactly_the_transitive_relations(data):
    ground = tuple(sorted(F(v) for v in data.draw(st.sets(st.integers(-3, 9), max_size=6))))
    pairs = {(t, t) for t in ground}
    for i, a in enumerate(ground):
        for b in ground[i + 1 :]:
            way = data.draw(st.sampled_from((None, (a, b), (b, a))))
            if way is not None:
                pairs.add(way)
    try:
        poset = FinitePoset(ground, tuple(_encode(ground, pairs)))
        accepted = True
        assert poset.pairs == pairs
    except ValueError:
        accepted = False
    assert accepted == brute_is_transitive(pairs)


@settings(max_examples=200)
@given(st.data())
def test_family_poset_passes_the_checks_it_skips(data):
    """The trusted poset of a family equals the one direct construction checks."""
    rng = data.draw(st.randoms(use_true_random=False))
    values = data.draw(st.sampled_from((SIX_VALUE_POOL, SIX_VALUE_POOL[:2], (F(1),))))
    p = family_poset(random_family(rng, max_spaces=3, max_points=7, values=values))
    assert FinitePoset(p.ground, p.up) == p


def test_poset_json_roundtrip():
    poset = family_poset(four_point_family())
    data = poset.to_json_dict()
    assert data["ground"] == ["0", "1", "2", "3"]
    assert ["1", "3"] in data["pairs"] and ["1", "1"] not in data["pairs"]
    assert FinitePoset.from_json_dict(data) == poset
    with pytest.raises(TypeError):
        FinitePoset.from_json_dict({"ground": [0, 0.5], "pairs": []})


def _assert_row_views_match_pairs(poset):
    """Every view of the rows against its definition on ``poset.pairs``."""
    pairs, ground = poset.pairs, poset.ground
    probes = list(ground)
    if ground:
        probes += [ground[0] - 1, ground[-1] + 1]
        probes += [(a + b) / 2 for a, b in zip(ground, ground[1:])]
    for a in probes:
        for b in probes:
            assert poset.leq(a, b) == ((a, b) in pairs)
            assert poset.comparable(a, b) == ((a, b) in pairs or (b, a) in pairs)
    assert poset.is_total() == all(
        (a, b) in pairs or (b, a) in pairs for a in ground for b in ground
    )
    assert poset.nonreflexive_pairs() == sorted((a, b) for a, b in pairs if a != b)
    assert FinitePoset.from_json_dict(poset.to_json_dict()) == poset


@given(st.data())
def test_row_views_match_pairs_on_random_families(data):
    rng = data.draw(st.randoms(use_true_random=False))
    _assert_row_views_match_pairs(family_poset(random_family(rng)))


@given(st.data())
def test_row_views_match_pairs_on_loaded_relations(data):
    # each drawn pair points up a random linear order, so the closure is a
    # partial order that need not follow the numeric one
    ground = sorted(F(v, 2) for v in data.draw(st.sets(st.integers(-3, 9), max_size=7)))
    rank = data.draw(st.permutations(range(len(ground))))
    drawn = set()
    for i in range(len(ground)):
        for j in range(i + 1, len(ground)):
            if data.draw(st.booleans()):
                lo, hi = sorted((i, j), key=rank.__getitem__)
                drawn.add((ground[lo], ground[hi]))
    want = brute_transitive_closure(ground, drawn) | {(t, t) for t in ground}
    listed = data.draw(st.permutations(sorted(want)))
    payload = {
        "ground": [str(v) for v in data.draw(st.permutations(ground))],
        "pairs": [[str(a), str(b)] for a, b in listed],
    }
    poset = FinitePoset.from_json_dict(payload)
    assert poset.pairs == want
    _assert_row_views_match_pairs(poset)
    stray = str(F(1, 3))  # halves never meet a third
    with pytest.raises(ValueError, match="leaves the ground set"):
        FinitePoset.from_json_dict({**payload, "pairs": payload["pairs"] + [[stray, stray]]})


# ------------------------------------------------------------ preservation --


def test_level_swap_preserves_the_four_point_family():
    report = check_family_preserving(level_swap_map(), four_point_family())
    assert report.passed
    assert report.space_witness is None and report.order_witness is None


def test_identity_preserves_everything_random():
    rng = Random(31)
    for _ in range(25):
        family = random_family(rng)
        assert check_family_preserving(identity_map(), family).passed


def test_zigzag_breaks_the_four_point_family():
    report = check_family_preserving(zigzag_map(), four_point_family())
    assert not report.passed
    assert report.order_witness.kind == "pair"
    assert report.order_witness.points == (F(1), F(3))
    assert report.order_witness.values == (F(1), F(1, 8))
    assert report.space_witness.kind == "strong_triangle"


def test_routes_that_disagree_raise_a_breach(monkeypatch):
    # a space side that misses the zigzag's strong-triangle break leaves
    # the order side alone with its witness: the check raises, as the one
    # place that compares two routes, instead of returning either verdict
    monkeypatch.setattr(families, "_space_side", lambda image, family, ranked: None)
    with pytest.raises(EquivalenceBreachError, match="order side says .* space side says None"):
        check_family_preserving(zigzag_map(), four_point_family())
    assert check_family_preserving(identity_map(), four_point_family()).passed


def test_order_side_calls_f_once_per_value():
    family = SpaceFamily((comb_space(range(1, 31)),))
    calls = []

    class Counting(FunctionSpec):
        def _value(self, x):
            calls.append(x)
            return x

    assert _order_side(Counting().ratio_at, family_poset(family)) is None
    assert calls == list(distance_values(family))


@settings(max_examples=200)
@given(st.data())
def test_pair_ranks_keep_the_order_of_the_values(data):
    """Coprime denominators, twins under 2^-64 apart, unreduced and signed pairs.

    The Farey neighbours a/d < c/d' with c d - a d' = 1 and d, d' near
    2^61 are as close as two values with such denominators get.
    """
    rng = data.draw(st.randoms(use_true_random=False))
    m = 2**61 - 1
    neighbours = [F(1, m), F(1, m - 1), F(m - 2, m - 1), F(m - 1, m)]
    pool = adversarial_pool(rng, data.draw(st.integers(0, 6))) + neighbours
    values = [rng.choice((1, -1)) * v for v in pool + pool[: rng.randint(0, len(pool))]]
    rng.shuffle(values)
    pairs = []
    for v in values:
        g = rng.choice((1, 2, 3**40))
        pairs.append((v.numerator * g, v.denominator * g))
    ranks = _ranks(pairs)
    distinct = sorted(set(values))
    assert ranks == [distinct.index(v) for v in values]


def test_origin_and_vanishing_witnesses():
    family = _chain_family()
    shifted = Tabulated.from_mapping({0: 1, 1: 1, 2: 1, 3: 1})
    report = check_family_preserving(shifted, family)
    assert not report.passed and report.order_witness.kind == "origin"
    assert report.space_witness.kind == "nonzero_diagonal"

    collapsing = Tabulated.from_mapping({0: 0, 1: 0, 2: 1, 3: 2})
    report = check_family_preserving(collapsing, family)
    assert not report.passed and report.order_witness.kind == "vanishes"
    assert report.space_witness.kind == "zero_distance"


def test_random_tabulations_agree_across_routes():
    # smaller cousin of the acceptance sweep: every call compares the
    # order-side and space-side verdicts internally; an amenable table's
    # order witness is the first failing pair in sorted order
    rng = Random(37)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        family = random_family(rng)
        values = distance_values(family)
        table = {F(0): F(0)}
        for v in values:
            if v > 0:
                table[v] = F(rng.choice((0, 1, 1, 2, 3, 4)))
        if rng.random() < 0.1:
            table[F(0)] = F(1)
        report = check_family_preserving(Tabulated.from_mapping(table), family)
        outcomes[report.passed] += 1
        if table[F(0)] == 0 and all(table[v] > 0 for v in values if v > 0):
            failing = [
                (s, t)
                for s, t in family_poset(family).nonreflexive_pairs()
                if table[s] > table[t]
            ]
            witness = report.order_witness
            assert (witness is None) == (not failing)
            if failing:
                assert witness.kind == "pair" and witness.points == failing[0]
    assert outcomes[True] > 0 and outcomes[False] > 0


@dataclass(frozen=True)
class _ReadTable(Tabulated):
    reads: list = field(default_factory=list, compare=False)

    def ratio_at(self, k, den):
        self.reads.append(F(k, den))
        return super().ratio_at(k, den)


def _ref_report(f, family, calls):
    """check_family_preserving from definitions; calls gets each point f is called at.

    The order side's gate over the ground in ascending order, then
    ``validate_ultrametric(apply_function(s, f))`` for each space in turn,
    then the first pair of the order whose images descend.
    """

    def g(x):
        calls.append(F(x))
        return f(x)

    poset = family_poset(family)
    ground = poset.ground
    if g(0) != 0:
        order = OrderWitness("origin", (F(0),), (g(0),))
    else:
        order = next(
            (OrderWitness("vanishes", (x,), (F(0),)) for x in ground[1:] if g(x) == 0), None
        )
    space = None
    for idx, s in enumerate(family.spaces):
        try:
            out = validate_ultrametric(apply_function(s, g))
        except NonzeroDiagonalError:
            space = SpaceWitness(idx, "nonzero_diagonal")
        except ZeroDistanceError:
            space = SpaceWitness(idx, "zero_distance")
        else:
            if isinstance(out, TriangleViolation):
                space = SpaceWitness(idx, "strong_triangle", (out.i, out.j, out.k))
        if space is not None:
            break
    if order is None:
        pairs = poset.nonreflexive_pairs()
        order = next(
            (OrderWitness("pair", (a, b), (g(a), g(b))) for a, b in pairs if g(a) > g(b)), None
        )
    return PreservationReport(order is None, space, order)


def _ref_extension(f, family, calls):
    poset = family_poset(family)
    if not poset.is_total():
        raise NotTotallyOrderedError("the family's distance order is not total")
    report = _ref_report(f, family, calls)
    if not report.passed:
        raise NotPreservingError(
            f"f does not preserve the family: {report.order_witness.to_json_dict()}"
        )
    positives = [v for v in poset.ground if v > 0]
    if not positives:
        raise NoPositiveDistancesError("nothing to extend: no positive distances")
    points = tuple(zip(positives, accumulate(map(f, positives), max)))
    return StepFunction(points[0][1], points)


def _family_outcome(run, reads):
    # the JSON or the error type and message, and the points in order of first read
    try:
        out = run().to_json_dict()
    except PadicMetricsError as err:
        out = type(err).__name__, str(err)
    return out, list(dict.fromkeys(reads))


@settings(max_examples=300)
@given(st.data())
def test_family_checks_read_each_value_once_and_match_the_definitions(data):
    """Tables that may miss a value, vanish at a positive value or move 0.

    Both family checks read each value at most once, first in the
    reference's order of first calls, and give its JSON or its error.
    """
    rng = data.draw(st.randoms(use_true_random=False))
    if data.draw(st.booleans()):
        family, pool = random_family(rng), SIX_VALUE_POOL
    else:
        pool = adversarial_pool(rng, data.draw(st.integers(1, 4)))
        spaces = []
        for k in range(data.draw(st.integers(1, 3))):
            s = random_ultrametric(rng, rng.randint(1, 6), pool, prefix=f"s{k}_")
            spaces.append(FiniteUltrametricSpace(s.labels, mix_ints(rng, s.dist)))
        family = SpaceFamily(tuple(spaces))
    ground = distance_values(family)
    images = [data.draw(st.sampled_from(pool)) for _ in ground[1:]]
    if data.draw(st.booleans()):
        images.sort()  # isotone on the ground, so only a trap can fail
    table = dict(zip(ground, [F(0), *images]))
    trap = data.draw(st.sampled_from((None, None, "miss", "vanish", "move0")))
    if trap == "move0":
        table[ground[0]] = rng.choice(pool)
    elif trap is not None and len(ground) > 1:
        x = rng.choice(ground[1:])
        if trap == "miss":
            table.pop(x)
        else:
            table[x] = F(0)
    plain = Tabulated.from_mapping(table)
    for check, ref in (
        (check_family_preserving, _ref_report),
        (build_extension, _ref_extension),
    ):
        f, calls = _ReadTable(plain.entries), []
        got = _family_outcome(lambda: check(f, family), f.reads)
        assert got == _family_outcome(lambda: ref(plain, family, calls), calls)
        assert len(f.reads) == len(set(f.reads))


# -------------------------------------------------------------- extension --


def test_build_extension_pins():
    f = Tabulated.from_mapping({0: 0, 1: 4, 2: 5, 3: 5})
    g = build_extension(f, _chain_family())
    assert isinstance(g, StepFunction)
    assert g.below == 4
    assert g.points == ((F(1), F(4)), (F(2), F(5)), (F(3), F(5)))
    assert g(F(1, 2)) == 4 and g(F(5, 2)) == 5 and g(100) == 5
    assert check_family_preserving(g, _chain_family()).passed


def test_build_extension_requires_total_order():
    with pytest.raises(NotTotallyOrderedError):
        build_extension(identity_map(), four_point_family())


def test_build_extension_requires_preserving_f():
    bad = Tabulated.from_mapping({0: 0, 1: 5, 2: 4, 3: 6})
    with pytest.raises(NotPreservingError):
        build_extension(bad, _chain_family())


def test_build_extension_requires_positive_values():
    f = Tabulated.from_mapping({0: 0})
    with pytest.raises(NoPositiveDistancesError):
        build_extension(f, _singleton_family())


# --------------------------------------------------------- counterexample --


def test_isotone_for_incomparables():
    poset = family_poset(four_point_family())
    phi = isotone_for_incomparables(poset, 2, 1, 1, 2)
    assert phi[F(1)] == 2 and phi[F(2)] == 1
    for s, t in poset.pairs:
        assert phi[s] <= phi[t]
    with pytest.raises(ComparableError):
        isotone_for_incomparables(poset, 1, 3, 1, 2)
    with pytest.raises(BadIntervalError):
        isotone_for_incomparables(poset, 2, 1, 2, 1)
    with pytest.raises(ValueError):
        isotone_for_incomparables(poset, 5, 1, 1, 2)


def _isotone_by_pairs(poset, x2, p1, p2):
    """The up-set map of x2 read off the pair set, and the first pair of
    ``nonreflexive_pairs`` it breaks (None when it is isotone)."""
    phi = {x: p2 if (x2, x) in poset.pairs else p1 for x in poset.ground}
    broken = next(((s, t) for s, t in poset.nonreflexive_pairs() if phi[s] > phi[t]), None)
    return phi, broken


def _refusal(*args):
    try:
        isotone_for_incomparables(*args)
    except PadicMetricsError as err:
        return type(err), str(err)
    except ValueError as err:
        return ValueError, str(err)
    return None


@given(st.data())
def test_isotone_for_incomparables_matches_the_pair_definition(data):
    # every incomparable pair of a non-total family order, any 0 < p1 < p2:
    # the map, key order included, is the up-set map read off the pairs.
    # A seed, not st.randoms: the draws up to a non-total order are many
    rng = Random(data.draw(st.integers(0, 2**32 - 1)))
    poset = family_poset(random_family(rng))
    while poset.is_total():
        poset = family_poset(random_family(rng))
    ground = poset.ground
    p1 = F(data.draw(st.integers(1, 30)), data.draw(st.integers(1, 7)))
    p2 = p1 + F(data.draw(st.integers(1, 30)), data.draw(st.integers(1, 7)))
    incomparable = [(a, b) for a in ground for b in ground if not poset.comparable(a, b)]
    assert incomparable
    for x1, x2 in incomparable:
        phi = isotone_for_incomparables(poset, x1, x2, p1, p2)
        want, broken = _isotone_by_pairs(poset, x2, p1, p2)
        assert broken is None
        assert list(phi.items()) == list(want.items())
    # the refusals, checked in the same order: ground, interval, comparability
    x1, x2 = data.draw(st.sampled_from(incomparable))
    outside = ground[-1] + 1
    a, b = data.draw(st.sampled_from(ground)), data.draw(st.sampled_from(ground))
    assert _refusal(poset, outside, x2, p1, p2) == (
        ValueError, "x1 and x2 must belong to the ground set"
    )
    assert _refusal(poset, x1, outside, p2, p1)[0] is ValueError
    assert _refusal(poset, x1, x2, p2, p1) == (
        BadIntervalError, f"need 0 < p1 < p2, got {p2}, {p1}"
    )
    assert _refusal(poset, x1, x2, 0, p2) == (BadIntervalError, f"need 0 < p1 < p2, got 0, {p2}")
    assert _refusal(poset, a, a, p1, p1)[0] is BadIntervalError
    assert _refusal(poset, 0, b, p1, p2) == (ComparableError, f"0 and {b} are comparable")


@given(st.data())
def test_isotone_for_incomparables_names_the_first_pair_a_bad_relation_breaks(data):
    # rows that are no partial order, skipping the checks through _trusted:
    # the map is still x2's up-set, and the re-check names the first pair
    # of nonreflexive_pairs it breaks
    n = data.draw(st.integers(2, 7))
    ground = tuple(F(k, 3) for k in range(n))
    i1, i2 = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    up = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]
    up[i1] &= ~(1 << i2)
    up[i2] &= ~(1 << i1)
    poset = FinitePoset._trusted(ground, tuple(up))
    x1, x2 = ground[i1], ground[i2]
    want, broken = _isotone_by_pairs(poset, x2, F(1), F(2))
    if broken is None:
        assert list(isotone_for_incomparables(poset, x1, x2, 1, 2).items()) == list(want.items())
    else:
        s, t = broken
        assert _refusal(poset, x1, x2, 1, 2) == (
            SelfCheckError, f"constructed map is not isotone on {s}, {t}"
        )


def test_isotone_for_incomparables_pins_the_named_pair():
    # 1/3 <= 2/3 <= 1, but 1/3 is not below 1; 0 is apart from 1/3
    ground = (F(0), F(1, 3), F(2, 3), F(1))
    poset = FinitePoset._trusted(ground, (0b0001, 0b0110, 0b1100, 0b1000))
    with pytest.raises(SelfCheckError, match=r"^constructed map is not isotone on 2/3, 1$"):
        isotone_for_incomparables(poset, 0, F(1, 3), 1, 2)


def test_counterexample_four_point_pin():
    fn = counterexample_function(four_point_family())
    assert dict(fn.entries) == {F(0): F(0), F(1): F(2), F(2): F(1), F(3): F(2)}
    # preserving, yet decreasing on 1 < 2: no isotone extension can agree
    assert check_family_preserving(fn, four_point_family()).passed
    assert fn(1) > fn(2)


def test_counterexample_rejects_chains():
    with pytest.raises(TotallyOrderedError):
        counterexample_function(_chain_family())


def test_counterexample_on_random_non_total_families():
    rng = Random(41)
    found = 0
    while found < 15:
        family = random_family(rng)
        poset = family_poset(family)
        if poset.is_total():
            continue
        found += 1
        fn = counterexample_function(family)
        assert check_family_preserving(fn, family).passed
        values = distance_values(family)
        assert any(
            fn(s) > fn(t) for i, s in enumerate(values) for t in values[i + 1 :]
        )


# ---------------------------------------------------------------- compare --


def test_compare_families():
    four = four_point_family()
    legs = SpaceFamily((legs_three_space(),))
    chain = SpaceFamily((comb_space([1, 2, 3]),))
    assert compare_families(four, four) == {"same_range": True, "same_order": True}
    assert compare_families(four, legs) == {"same_range": True, "same_order": True}
    assert compare_families(four, chain) == {"same_range": True, "same_order": False}
    small = SpaceFamily((comb_space([1, 2]),))
    assert compare_families(four, small) == {"same_range": False, "same_order": False}


# ------------------------------------------------------------------ cache --


def _family_verbs(f: FunctionSpec, other: SpaceFamily) -> dict:
    return {
        "poset": family_poset,
        "check": lambda fam: check_family_preserving(f, fam),
        "extension": lambda fam: build_extension(f, fam),
        "counterexample": counterexample_function,
        "compare": lambda fam: compare_families(fam, other),
    }


def _verb_outcome(verb, family):
    # the JSON of the result, or the class of the error raised
    try:
        out = verb(family)
    except PadicMetricsError as err:
        return type(err)
    return out if isinstance(out, dict) else out.to_json_dict()


@settings(max_examples=100)
@given(st.data())
def test_family_verbs_in_any_order_match_a_fresh_family(data):
    """The order one instance keeps serves every verb as a first build would."""
    rng = data.draw(st.randoms(use_true_random=False))
    family, other = random_family(rng), random_family(rng)
    ground = distance_values(family)
    images = sorted(data.draw(st.sampled_from(SIX_VALUE_POOL)) for _ in ground[1:])
    if data.draw(st.booleans()):
        rng.shuffle(images)
    f = Tabulated.from_mapping(dict(zip(ground, [F(0), *images])))
    verbs = _family_verbs(f, other)
    for name in data.draw(st.permutations(sorted(verbs))):
        fresh = SpaceFamily(tuple(family.spaces))
        assert fresh == family and vars(fresh).keys() == {"spaces"}
        assert _verb_outcome(verbs[name], family) == _verb_outcome(verbs[name], fresh)


@pytest.mark.parametrize("make", [four_point_family, _chain_family])
def test_no_verb_ranks_a_built_space_again(make, monkeypatch):
    # a space ranks its matrix once, when it is built, and keeps the ranks:
    # the family verbs, distance_values and apply_function read those
    family, other = make(), make()
    calls = []

    def counted(m):
        calls.append(len(m))
        return _ranked(m)

    assert not hasattr(families, "_ranked")  # so the one patch sees every call
    monkeypatch.setattr("padicmetrics.spaces._ranked", counted)
    for f in identity_map(), level_swap_map():
        for verb in _family_verbs(f, other).values():
            _verb_outcome(verb, family)
        for s in family.spaces:
            apply_function(s, f)
    distance_values(family)
    assert calls == []
    built = make()  # the patch is live: building ranks each matrix once
    assert calls == [s.n for s in built.spaces]


@pytest.mark.parametrize("make", [four_point_family, _chain_family])
def test_family_verbs_sort_no_space_rows_again(make, monkeypatch):
    # a space keeps the ball order its validation sorted: the family order,
    # its values and the isometry search read that, and only the images
    # under f, which are new matrices, are sorted
    family, other = make(), make()
    sorts, images = [], []
    validate_image = families._validate_image

    def counted_sort(r):
        sorts.append(len(r))
        return _ball_order(r)

    def counted_image(s, image):
        images.append(s.n)
        return validate_image(s, image)

    monkeypatch.setattr("padicmetrics.spaces._ball_order", counted_sort)
    monkeypatch.setattr(families, "_validate_image", counted_image)
    distance_values(family)
    for s in family.spaces:
        assert isometry_search(s, s) == tuple(range(s.n))
    family_poset(family)
    compare_families(family, other)
    assert sorts == []
    for verb in _family_verbs(identity_map(), other).values():
        _verb_outcome(verb, family)
    assert sorts == images != []


@pytest.mark.parametrize("make", [four_point_family, _chain_family])
def test_family_verbs_leave_the_cached_ranks_as_built(make):
    family = make()
    poset, joint = family._order
    before = deepcopy(joint)
    kept = [(s._ranks, deepcopy(s._ranks)) for s in family.spaces]
    for verb in _family_verbs(identity_map(), family).values():
        _verb_outcome(verb, family)
        for s, (ranks, copy) in zip(family.spaces, kept):
            assert s._ranks is ranks and ranks == copy
    for s, (ranks, copy) in zip(family.spaces, kept):
        apply_function(s, level_swap_map())
        assert s._ranks is ranks and ranks == copy
    assert family._order[0] is poset and family._order[1] == before


def test_the_space_side_reads_the_matrix_not_the_ball_order():
    # gaps (1, 2, 3) no longer match the matrix of gaps (1, 3, 2): the
    # order side reads the broken ball order, the space side the ranks, so
    # the two routes disagree instead of agreeing on a wrong order
    space = four_point_space()
    assert [space._values[g] for g in space._gaps] == [1, 3, 2]
    family = SpaceFamily((space,))
    assert check_family_preserving(level_swap_map(), family).passed
    broken = four_point_space()
    object.__setattr__(broken, "_gaps", tuple(space._values.index(t) for t in (1, 2, 3)))
    with pytest.raises(EquivalenceBreachError):
        check_family_preserving(level_swap_map(), SpaceFamily((broken,)))


@pytest.mark.parametrize(
    "rows, error",
    [
        (((0,),), SelfCheckError),  # one point, a failed self-check
        (((0, 1), (1, 0)), TypeError),  # two points, a failed read
    ],
)
def test_a_failed_build_is_not_kept(rows, error, monkeypatch):
    # while a helper of the build raises, every verb builds again and
    # raises again, and nothing is kept; once it no longer raises, the
    # next build is kept
    labels = tuple("ab"[: len(rows)])
    family = SpaceFamily((FiniteUltrametricSpace(labels, rows),))
    builds = []

    def failing(spaces, joint, size):
        builds.append(size)
        raise error("the family order could not be built")

    monkeypatch.setattr(families, "_base_leg_rows", failing)
    verbs = [*_family_verbs(identity_map(), family).values()] * 2
    for verb in verbs:
        with pytest.raises(error):
            verb(family)
    assert "_order" not in vars(family)
    assert len(builds) == len(verbs)
    monkeypatch.undo()
    family_poset(family)
    assert "_order" in vars(family)
