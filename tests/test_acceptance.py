"""Acceptance gates: one test and one printed pass/fail line per criterion.

Everything here is exact Fraction arithmetic; "agree" always means equality,
never closeness. Random criteria use fixed seeds so reruns are identical.
"""

import random
from fractions import Fraction

from support import SIX_VALUE_POOL, comb_space, random_family, random_ultrametric

from padicmetrics import (
    DistanceMatrixCandidate,
    FiniteUltrametricSpace,
    PowerMap,
    Reciprocal,
    SpaceFamily,
    StepFunction,
    Tabulated,
    apply_function,
    build_extension,
    check_euclid_preserving_sampled,
    check_family_preserving,
    check_metric_preserving_sampled,
    check_p_metric_preserving,
    check_p_ultrametric_preserving,
    counterexample_function,
    digit_window,
    distance_values,
    embedding_dimension,
    family_poset,
    gram_rank,
    is_isometry,
    isometry_search,
    padic_abs,
    padic_distance,
    pairs_from_grid,
    validate_ultrametric,
    witness_triple,
)
from padicmetrics.fixtures import damped_zigzag_map, four_point_space, level_swap_map

F = Fraction


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


# --------------------------------------------------------------------------


def test_criterion_01_absolute_value_table():
    x = F(25, 18)
    got = {p: padic_abs(x, p).as_fraction() for p in (2, 3, 5, 7)}
    want = {2: F(2), 3: F(9), 5: F(1, 25), 7: F(1)}
    _line(1, got == want, f"|25/18|_p for p in (2,3,5,7): {got}")
    assert got == want


def test_criterion_02_digit_fixtures():
    w17 = digit_window(17, 3, 2)
    s17 = "".join(str(d) for d in reversed(w17.digits))
    wneg = digit_window(-1, 3, 11)
    whalf = digit_window(F(1, 2), 3, 11)
    ok = (
        s17 == "122"
        and w17.low == 0
        and wneg.digits == (2,) * 12
        and whalf.low == 0
        and whalf.digits == (2,) + (1,) * 11
    )
    _line(2, ok, f"17 -> {s17}, -1 -> {wneg.digits}, 1/2 -> {whalf.digits}")
    assert ok


def test_criterion_03_geometric_tail_distance():
    # the sum needs its constant term: only then does the difference
    # collapse to p**(n+1) / (p - 1)
    ok = True
    for p in (2, 3, 5, 7):
        limit = F(1, 1 - p)
        for n in range(1, 51):
            partial = sum(F(p) ** k for k in range(0, n + 1))
            if padic_distance(partial, limit, p) != F(1, p ** (n + 1)):
                ok = False
    _line(3, ok, "geometric partial sums approach 1/(1-p) at exact rate p^-(n+1)")
    assert ok


def test_criterion_04_zigzag_euclid_grid_and_triadic_failure():
    zig = damped_zigzag_map()

    euclid = check_euclid_preserving_sampled(zig, pairs_from_grid(F(1, 8), 8))
    # the map is linear between integer kinks and constant past 12, so every
    # triangle inequality is linear on the cells cut by a = i, b = j and
    # a + b = k: checking their integer vertices checks all pairs
    exhaustive = check_euclid_preserving_sampled(zig, pairs_from_grid(1, 12))

    triadic = check_p_metric_preserving(zig, 3)
    images_ok = (
        not triadic.passed
        and triadic.witness is not None
        and triadic.witness.images == (F(1, 8), F(1, 8), F(1))
    )

    # the classic three points realize those same images directly
    pts = (F(1, 2), F(1, 3), F(1, 4))
    dists = (
        padic_distance(pts[0], pts[1], 3),
        padic_distance(pts[0], pts[2], 3),
        padic_distance(pts[1], pts[2], 3),
    )
    triple_ok = sorted(zig(d) for d in dists) == [F(1, 8), F(1, 8), F(1)]

    ok = euclid.passed and exhaustive.passed and images_ok and triple_ok
    detail = (
        f"1/8 grid check passed={euclid.passed}, integer grid to 12 "
        f"passed={exhaustive.passed}, 3-adic failure with images (1/8, 1/8, 1)"
        f"={images_ok}, triple (1/2, 1/3, 1/4) reproduces them={triple_ok}"
    )
    _line(4, ok, detail)
    assert images_ok and triple_ok
    assert euclid.passed, f"pair sums escape the triangle family at {euclid.witness}"
    assert exhaustive.passed, (
        f"pair sums escape the triangle family at {exhaustive.witness}"
    )


def test_criterion_05_reciprocal_band_failure():
    f = Reciprocal()
    adjacent_ok = all(
        f(F(2) ** (n - 1)) <= 2 * f(F(2) ** n) for n in range(-16, 17)
    )
    verdict = check_p_metric_preserving(f, 2)
    w = verdict.witness
    witness_ok = not verdict.passed and w is not None and w.images == (F(1), F(1), F(4))
    # re-measure the witness triple from scratch
    remeasured = witness_ok and sorted(
        f(padic_distance(a, b, 2)) for a, b in
        [(w.triple[0], w.triple[1]), (w.triple[0], w.triple[2]), (w.triple[1], w.triple[2])]
    ) == [F(1), F(1), F(4)]
    ok = adjacent_ok and witness_ok and remeasured
    _line(5, ok, f"adjacent inequality holds={adjacent_ok}, band witness images {None if w is None else w.images}")
    assert ok


def test_criterion_06_witness_triple_self_verification():
    ok = True
    for p in (2, 3, 5, 7, 11):
        for n in range(-5, 6):
            for m in range(n + 1, 6):
                a, b, c = witness_triple(p, m, n)
                got = sorted(
                    (padic_distance(a, b, p), padic_distance(a, c, p),
                     padic_distance(b, c, p)),
                    reverse=True,
                )
                want = [F(p) ** m, F(p) ** m, F(p) ** n]
                if got != want:
                    ok = False
    _line(6, ok, "all 275 constructed triples re-measure to (p^m, p^m, p^n)")
    assert ok


def test_criterion_07_four_point_end_to_end():
    space = four_point_space()
    valid = isinstance(validate_ultrametric(space.candidate()), FiniteUltrametricSpace)

    image = validate_ultrametric(apply_function(space, level_swap_map()))
    image_valid = isinstance(image, FiniteUltrametricSpace)

    found = isometry_search(space, image)
    cyclic = (1, 2, 3, 0)
    iso_ok = (
        found is not None
        and is_isometry(space, image, found)
        and is_isometry(space, image, cyclic)
    )

    family = SpaceFamily((space,))
    poset = family_poset(family)
    pairs_ok = poset.nonreflexive_pairs() == [
        (F(0), F(1)), (F(0), F(2)), (F(0), F(3)), (F(1), F(3)), (F(2), F(3)),
    ]
    not_total = not poset.is_total()

    fn = counterexample_function(family)
    report = check_family_preserving(fn, family)
    values = [v for v in distance_values(family) if v > 0]
    inverted = any(
        fn(a) > fn(b) for a in values for b in values if a < b
    )
    counter_ok = report.passed and inverted

    dim = embedding_dimension(space)
    rank = gram_rank(space)
    embed_ok = dim == 3 and rank == 3

    ok = valid and image_valid and iso_ok and pairs_ok and not_total and counter_ok and embed_ok
    _line(7, ok, (
        f"validates={valid}, image validates={image_valid}, isometry={iso_ok}, "
        f"order pairs={pairs_ok}, non-total={not_total}, counterexample={counter_ok}, "
        f"dimension 3 with matching rank={embed_ok}"
    ))
    assert ok


# --------------------------------------------------------------------------


IMAGE_POOL = (F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(4))


def _space_route(table: dict, family: SpaceFamily) -> bool:
    # transform every matrix entrywise and inspect it from scratch
    for space in family.spaces:
        n, d = space.n, space.dist
        img = [[table[d[i][j]] for j in range(n)] for i in range(n)]
        for i in range(n):
            if img[i][i] != 0:
                return False
            for j in range(n):
                if i != j and img[i][j] == 0:
                    return False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if img[i][j] > max(img[i][k], img[k][j]):
                        return False
    return True


def _order_route(table: dict, family: SpaceFamily) -> bool:
    # base-leg pairs, reflexivity, transitive closure, then isotonicity
    values = sorted({v for s in family.spaces for row in s.dist for v in row})
    index = {v: i for i, v in enumerate(values)}
    k = len(values)
    rel = [[i == j for j in range(k)] for i in range(k)]
    for space in family.spaces:
        n, d = space.n, space.dist
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if d[x][y] == d[x][z]:
                        rel[index[d[y][z]]][index[d[x][y]]] = True
    for m in range(k):
        for i in range(k):
            if rel[i][m]:
                for j in range(k):
                    if rel[m][j]:
                        rel[i][j] = True
    if table[F(0)] != 0:
        return False
    if any(table[v] <= 0 for v in values if v > 0):
        return False
    return all(
        table[values[i]] <= table[values[j]]
        for i in range(k)
        for j in range(k)
        if rel[i][j]
    )


def test_criterion_08_order_and_space_routes_agree():
    rng = random.Random(85208)
    agreements = 0
    passes = 0
    total = 1000
    for _ in range(total):
        family = random_family(rng)
        values = distance_values(family)
        table = {F(0): F(0) if rng.random() >= 0.12 else rng.choice(IMAGE_POOL[1:])}
        for v in values:
            if v > 0:
                table[v] = rng.choice(IMAGE_POOL)
        lhs = _space_route(table, family)
        rhs = _order_route(table, family)
        report = check_family_preserving(Tabulated.from_mapping(table), family)
        if lhs == rhs == report.passed:
            agreements += 1
        if lhs:
            passes += 1
    ok = agreements == total and 0 < passes < total
    _line(8, ok, f"{agreements}/{total} verdicts agree across both routes ({passes} preserving)")
    assert ok


def test_criterion_09_exhaustive_small_tabulations():
    pool = [F(1), F(2), F(3), F(4), F(5)]
    spaces = [FiniteUltrametricSpace(("s1",), ((F(0),),))]
    for v in pool:
        rows = [["0", str(v)], [str(v), "0"]]
        cand = DistanceMatrixCandidate.from_rows(("a", "b"), rows)
        spaces.append(validate_ultrametric(cand))
    for base in pool:
        for legs in pool:
            if base <= legs:
                rows = [
                    ["0", str(legs), str(legs)],
                    [str(legs), "0", str(base)],
                    [str(legs), str(base), "0"],
                ]
                cand = DistanceMatrixCandidate.from_rows(("a", "b", "c"), rows)
                spaces.append(validate_ultrametric(cand))
    family = SpaceFamily(tuple(spaces))
    assert len(spaces) == 21

    agree = True
    monotone_count = 0
    for mask in range(2 ** 5):
        table = {F(0): F(0)}
        for i, v in enumerate(pool):
            table[v] = F(2) if mask & (1 << i) else F(1)
        verdict = check_family_preserving(Tabulated.from_mapping(table), family).passed
        amenable = all(table[v] > 0 for v in pool)
        increasing = all(
            table[pool[i]] <= table[pool[i + 1]] for i in range(len(pool) - 1)
        )
        if verdict != (amenable and increasing):
            agree = False
        if verdict:
            monotone_count += 1
    ok = agree and monotone_count == 6
    _line(9, ok, f"all 32 tabulations match the amenable-and-increasing test ({monotone_count} preserve)")
    assert ok


def test_criterion_10_gram_rank_oracle():
    rng = random.Random(51212)
    hits = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        space = random_ultrametric(rng, n, SIX_VALUE_POOL)
        if gram_rank(space) == n - 1:
            hits += 1
    _line(10, hits == 200, f"{hits}/200 random spaces have rank exactly n-1")
    assert hits == 200


CHAIN_POOL = (F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(3), F(4), F(5), F(6))
STEP_IMAGES = (F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(3), F(4))


def test_criterion_11_extension_contract():
    rng = random.Random(11237)
    ok = True
    for _ in range(200):
        chain = sorted(rng.sample(CHAIN_POOL, rng.randint(2, 5)))
        spaces = [comb_space(chain)]
        for extra in range(rng.randint(0, 2)):
            sub = sorted(rng.sample(chain, rng.randint(1, len(chain))))
            spaces.append(comb_space(sub, prefix=f"e{extra}"))
        family = SpaceFamily(tuple(spaces))
        assert family_poset(family).is_total()

        images = sorted(rng.choice(STEP_IMAGES) for _ in chain)
        table = {F(0): F(0)}
        table.update(zip(chain, images))
        f = Tabulated.from_mapping(table)

        g = build_extension(f, family)
        if not isinstance(g, StepFunction) or g(F(0)) != 0:
            ok = False
        levels = g.levels()
        if any(v <= 0 for v in levels):
            ok = False
        if any(a > b for a, b in zip(levels, levels[1:])):
            ok = False
        if tuple(t for t, _ in g.points) != tuple(chain):
            ok = False
        if any(g(v) != f(v) for v in distance_values(family)):
            ok = False
        if not check_family_preserving(g, family).passed:
            ok = False
    _line(11, ok, "200 extensions are amenable increasing steps agreeing with f, and re-check")
    assert ok


def test_criterion_12_prime_swap():
    swap = PowerMap(2, 3)
    ultra = check_p_ultrametric_preserving(swap, 2)
    metric = check_metric_preserving_sampled(
        swap, (F(0), F(1, 4), F(1, 2), F(1), F(2), F(4))
    )
    w = metric.witness
    witness_ok = (
        not metric.passed
        and w is not None
        and w.images == (F(1, 9), F(1, 9), F(1, 3))
        and w.points == (F(1, 4), F(1, 4), F(1, 2))
    )
    ok = ultra.passed and witness_ok
    _line(12, ok, (
        f"power carry 2->3 preserves 2-adic distances on [-16,16]={ultra.passed}, "
        f"fails the plain metric check with images {None if w is None else w.images}"
    ))
    assert ok
