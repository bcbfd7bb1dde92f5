"""Finite ultrametric spaces: validation, isometries, and Gram ranks.

Random spaces come from the dendrogram generator in support.py, which is
correct by construction and therefore independent of the validator under
test. The Gram rank gets a second, permanent-style determinant oracle.
"""

from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicmetrics import (
    AsymmetricError,
    DistanceMatrixCandidate,
    FiniteUltrametricSpace,
    NegativeEntryError,
    NonzeroDiagonalError,
    NotUltrametricError,
    PadicMetricsError,
    Reciprocal,
    SizeMismatchError,
    SpaceFamily,
    TooLargeError,
    TriangleViolation,
    ZeroDistanceError,
    apply_function,
    distance_values,
    embedding_dimension,
    gram_rank,
    is_isometry,
    isometry_search,
    validate_ultrametric,
)
from padicmetrics import spaces
from padicmetrics.fixtures import four_point_space, legs_three_space, level_swap_map
from padicmetrics.padic import as_fraction
from padicmetrics.spaces import _integer_rank, _ranked

from support import (
    SIX_VALUE_POOL,
    adversarial_pool,
    brute_isometry,
    brute_structural_check,
    brute_validate_ultrametric,
    comb_space,
    isosceles_check,
    mix_ints,
    must_validate,
    random_ultrametric,
    ref_exact_rank,
    ref_ranked,
)

F = Fraction


def _candidate(rows, labels=None):
    labels = labels or [f"x{i}" for i in range(len(rows))]
    return DistanceMatrixCandidate.from_rows(labels, rows)


# -------------------------------------------------------------- validation --


def test_structural_errors():
    with pytest.raises(AsymmetricError):
        validate_ultrametric(_candidate([[0, 1], [2, 0]]))
    with pytest.raises(NegativeEntryError):
        validate_ultrametric(_candidate([[0, -1], [-1, 0]]))
    with pytest.raises(NonzeroDiagonalError):
        validate_ultrametric(_candidate([[1, 1], [1, 0]]))
    with pytest.raises(ZeroDistanceError):
        validate_ultrametric(_candidate([[0, 0], [0, 0]]))


def test_shape_errors():
    with pytest.raises(ValueError):
        DistanceMatrixCandidate.from_rows(["a", "a"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        DistanceMatrixCandidate.from_rows(["a", "b"], [[0, 1]])
    with pytest.raises(ValueError):
        DistanceMatrixCandidate.from_rows([], [])


def test_triangle_violation_is_lex_least():
    out = validate_ultrametric(_candidate([[0, 1, 4], [1, 0, 2], [4, 2, 0]]))
    assert isinstance(out, TriangleViolation)
    assert (out.i, out.j, out.k) == (0, 2, 1)
    assert out.sides == (F(4), F(1), F(2))
    # independent re-scan: nothing lexicographically earlier violates
    d = [[F(0), F(1), F(4)], [F(1), F(0), F(2)], [F(4), F(2), F(0)]]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if (i, j, k) < (0, 2, 1):
                    assert d[i][j] <= max(d[i][k], d[k][j])


@settings(max_examples=300)
@given(st.data())
def test_validation_matches_cubic_scan(data):
    """Random dendrograms with 0-4 entries moved: same space or same witness."""
    rng = data.draw(st.randoms(use_true_random=False))
    n = data.draw(st.integers(1, 9))
    rows = [list(row) for row in random_ultrametric(rng, n, SIX_VALUE_POOL).dist]
    moved = SIX_VALUE_POOL + (F(3, 4), F(8))
    for _ in range(data.draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i][j] = rows[j][i] = data.draw(st.sampled_from(moved))
    cand = _candidate(rows)
    assert validate_ultrametric(cand) == brute_validate_ultrametric(cand)


def _structural_error(check, cand):
    try:
        check(cand)
    except (AsymmetricError, NegativeEntryError, NonzeroDiagonalError, ZeroDistanceError) as err:
        return type(err).__name__, str(err)
    return None


@settings(max_examples=300)
@given(st.data())
def test_structural_errors_match_the_ordered_pair_loop(data):
    """Symmetric matrices with 0-3 entries overwritten: same first error."""
    n = data.draw(st.integers(1, 5))
    entries = st.sampled_from((F(-1), F(0), F(1, 2), F(1), F(2)))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(entries)
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] = data.draw(entries)
    cand = _candidate(rows)
    assert _structural_error(validate_ultrametric, cand) == _structural_error(
        brute_structural_check, cand
    )


def _outcome(validate, cand):
    # the first structural error, or what the validation returns
    try:
        return validate(cand)
    except (AsymmetricError, NegativeEntryError, NonzeroDiagonalError, ZeroDistanceError) as err:
        return type(err).__name__, str(err)


def _brute_validate(cand):
    brute_structural_check(cand)
    return brute_validate_ultrametric(cand)


@settings(max_examples=400)
@given(st.data())
def test_sorted_rows_decide_and_the_refusal_is_explained_as_brute(data):
    """Dendrograms with ties and shuffled points, with one entry changed in
    one or both triangles: a negative entry, a zero, a nonzero diagonal,
    or a value that may break the strong triangle inequality."""
    rng = data.draw(st.randoms(use_true_random=False))
    n = data.draw(st.integers(1, 9))
    values = data.draw(st.sampled_from((SIX_VALUE_POOL, SIX_VALUE_POOL[:2], (F(1),))))
    s = random_ultrametric(rng, n, values)
    perm = data.draw(st.permutations(range(n)))
    rows = [[s.dist[a][b] for b in perm] for a in perm]
    kind = data.draw(st.sampled_from(("none", "negative", "zero", "diagonal", "moved")))
    if kind != "none" and (n > 1 or kind == "diagonal"):
        i = data.draw(st.integers(0, n - 1))
        j = i if kind == "diagonal" else (i + data.draw(st.integers(1, n - 1))) % n
        moved = SIX_VALUE_POOL + (F(3, 4), F(8))
        rows[i][j] = {
            "negative": -rows[i][j] if i != j else F(-1),
            "zero": F(0),
            "diagonal": F(1, 2),
            "moved": data.draw(st.sampled_from(moved)),
        }[kind]
        if data.draw(st.booleans()):
            rows[j][i] = rows[i][j]
    cand = _candidate(rows)
    want = _outcome(_brute_validate, cand)
    assert _outcome(validate_ultrametric, cand) == want
    _, r = _ranked(cand.dist)
    assert (spaces._ball_order(r) is not None) == isinstance(want, FiniteUltrametricSpace)
    if isinstance(want, FiniteUltrametricSpace):
        built = validate_ultrametric(cand)
        d, place = built.dist, {x: k for k, x in enumerate(built._points)}
        assert built._values == tuple(sorted({v for row in d for v in row}))
        assert [built._values[g] for g in built._gaps] == [
            d[x][y] for x, y in zip(built._points, built._points[1:])
        ]
        for x in range(n):
            for t in set(d[x]):
                ball = sorted(place[y] for y in range(n) if d[x][y] <= t)
                assert ball == list(range(ball[0], ball[0] + len(ball)))


def _adversarial_space(data, max_points=9):
    rng = data.draw(st.randoms(use_true_random=False))
    pool = adversarial_pool(rng, data.draw(st.integers(1, 5)))
    n = data.draw(st.integers(1, max_points))
    return rng, pool, random_ultrametric(rng, n, pool)


@settings(max_examples=300)
@given(st.data())
def test_validation_matches_cubic_scan_on_adversarial_rationals(data):
    """Coprime denominators, twins under 2^-64 apart, ints among Fractions."""
    rng, pool, s = _adversarial_space(data)
    n = s.n
    rows = [list(row) for row in s.dist]
    for _ in range(data.draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i][j] = rows[j][i] = data.draw(st.sampled_from(pool))
    cand = DistanceMatrixCandidate(s.labels, mix_ints(rng, rows))
    want = brute_validate_ultrametric(cand)
    assert validate_ultrametric(cand) == want
    # the constructor builds the same space, or raises the same breach
    try:
        built = FiniteUltrametricSpace(cand.labels, cand.dist)
    except NotUltrametricError as err:
        built = err.violation
    assert built == want


FOUND_MATRIX = (("a", "b", "c"), ((0, 2, 1), (2, 0, 1), (1, 1, 0)))


def test_a_matrix_that_breaks_the_strong_triangle_builds_no_space():
    with pytest.raises(NotUltrametricError, match=r"\(0, 1, 2\) with sides \(2, 1, 1\)$") as err:
        FiniteUltrametricSpace(*FOUND_MATRIX)
    assert isinstance(err.value, PadicMetricsError)
    assert err.value.violation == TriangleViolation(0, 1, 2, (2, 1, 1))
    assert err.value.violation == validate_ultrametric(DistanceMatrixCandidate(*FOUND_MATRIX))
    labels, rows = FOUND_MATRIX
    for build in (
        lambda: FiniteUltrametricSpace.from_rows(labels, rows),
        lambda: FiniteUltrametricSpace.from_json_dict({"points": labels, "d": rows}),
    ):
        with pytest.raises(NotUltrametricError):
            build()


def test_validate_ultrametric_validates_once_per_call(monkeypatch):
    candidates = (
        DistanceMatrixCandidate(*FOUND_MATRIX),
        four_point_space().candidate(),
        four_point_space(),
    )
    calls = []
    validate = spaces._validate_ranked

    def counted(labels, r, entry):
        calls.append(labels)
        return validate(labels, r, entry)

    monkeypatch.setattr(spaces, "_validate_ranked", counted)
    for cand in candidates:
        calls.clear()
        validate_ultrametric(cand)
        assert calls == [cand.labels]


@settings(max_examples=300)
@given(st.data())
def test_structural_errors_match_on_adversarial_rationals(data):
    """Same first error and message, with ints, zeros and negatives mixed in."""
    rng = data.draw(st.randoms(use_true_random=False))
    pool = adversarial_pool(rng, 3)
    entries = st.sampled_from(pool + [-v for v in pool] + [0, F(0), 1, F(1)])
    n = data.draw(st.integers(1, 5))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(entries)
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] = data.draw(entries)
    cand = DistanceMatrixCandidate(tuple(f"x{i}" for i in range(n)), mix_ints(rng, rows))
    assert _structural_error(validate_ultrametric, cand) == _structural_error(
        brute_structural_check, cand
    )


@settings(max_examples=200)
@given(st.data())
def test_apply_function_calls_f_in_first_seen_order_on_adversarial_rationals(data):
    rng, _, s = _adversarial_space(data)
    s = FiniteUltrametricSpace(s.labels, mix_ints(rng, s.dist))
    calls = []

    def f(x):
        calls.append(x)
        return 2 * x

    image = apply_function(s, f)
    first_seen = list(dict.fromkeys(v for row in s.dist for v in row))
    assert calls == first_seen
    assert list(map(type, calls)) == list(map(type, first_seen))
    assert image.dist == tuple(tuple(2 * v for v in row) for row in s.dist)


def _ranked_outcome(m):
    try:
        values, rows = _ranked(m)
    except TypeError as err:
        return str(err)
    return list(map(id, values)), rows


def _ref_ranked_outcome(m):
    # the one-matrix reading of the multi-matrix reference
    try:
        values, _, (rows,) = ref_ranked((m,))
    except TypeError as err:
        return str(err)
    return list(map(id, values)), rows


@settings(max_examples=200)
@given(st.data())
def test_ranked_matches_the_entry_by_entry_reading(data):
    # shared objects (the generator reuses its pool), one fresh object per
    # entry, ints next to equal Fractions, and now and then floats, in the
    # rows of one matrix
    rng, _, s = _adversarial_space(data)
    shared = mix_ints(rng, s.dist)
    fresh = tuple(tuple(F(v.numerator, v.denominator) for v in row) for row in s.dist)
    m = [list(row) for row in (*shared, *fresh)]
    for _ in range(data.draw(st.integers(0, 2))):
        row = data.draw(st.sampled_from(m))
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from((0.5, 0.25)))
    assert _ranked_outcome(m) == _ref_ranked_outcome(m)


def test_twins_closer_than_2_to_the_minus_64_rank_apart():
    a = F(1, 3)
    b = a + F(1, 2**70)
    assert (a.numerator << 64) // a.denominator == (b.numerator << 64) // b.denominator
    values, ranked = _ranked([(b, a, 0), (F(1), 1, F(0))])
    assert values == [0, a, b, 1]
    assert ranked == [[2, 1, 0], [3, 3, 0]]


@settings(max_examples=200)
@given(st.data())
def test_a_space_keeps_the_ranks_of_its_matrix(data):
    """Dendrograms, combs and shuffled points, ints among Fractions: the
    kept ranks are the reference's, and rank x stands for _values[x]."""
    rng = data.draw(st.randoms(use_true_random=False))
    pool = adversarial_pool(rng, data.draw(st.integers(1, 4)))
    kind = data.draw(st.sampled_from(("dendrogram", "comb", "shuffled")))
    if kind == "comb":
        s = comb_space(rng.sample(pool, rng.randint(1, len(pool))))
    else:
        s = random_ultrametric(rng, rng.randint(1, 9), pool)
    perm = list(range(s.n))
    if kind == "shuffled":
        rng.shuffle(perm)
    rows = [[s.dist[a][b] for b in perm] for a in perm]
    s = FiniteUltrametricSpace(s.labels, mix_ints(rng, rows))
    values, zero, (want,) = ref_ranked((s.dist,))
    assert zero == 0 and list(map(id, s._values)) == list(map(id, values))
    assert s._ranks == tuple(map(tuple, want))
    for row, ranks in zip(s.dist, s._ranks):
        assert [s._values[x] for x in ranks] == list(row)


def _coprime_matrix(n):
    # n(n - 1)/2 distinct 20-bit primes as denominators, one per pair, so
    # every entry is its own value and no two denominators share a factor
    primes = [p for p in range(2**20 - 40_000, 2**20) if all(p % q for q in range(2, 1024))]
    rng = Random(48)
    rows = [[F(0)] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), p in zip(pairs, primes):
        rows[i][j] = rows[j][i] = F(rng.randrange(p, 4 * p), p)
    return DistanceMatrixCandidate.from_rows([f"x{i}" for i in range(n)], rows)


def test_pairwise_coprime_48_point_matrix_matches_cubic_scan():
    cand = _coprime_matrix(48)
    assert len({v.denominator for row in cand.dist for v in row}) == 1 + 48 * 47 // 2
    out = validate_ultrametric(cand)
    assert isinstance(out, TriangleViolation)
    assert out == brute_validate_ultrametric(cand)


def test_float_entries_are_refused():
    cand = DistanceMatrixCandidate(("a", "b"), ((0, 0.5), (0.5, 0)))
    with pytest.raises(TypeError, match=r"^exact rationals only: got the float 0\.5$"):
        validate_ultrametric(cand)
    # the space's constructor validates, so no space holds a float
    with pytest.raises(TypeError, match=r"^exact rationals only: got the float 0\.0$"):
        FiniteUltrametricSpace(("a", "b"), ((F(0), F(1)), (F(1), 0.0)))


def test_json_matrix_reads_each_string_once_with_the_same_result():
    rows = [["0", "1/2", "2/4"], ["2/4", "0", "1"], ["1/2", "1", "0"]]
    cand = DistanceMatrixCandidate.from_json_dict({"points": ["a", "b", "c"], "d": rows})
    assert cand.dist == tuple(tuple(as_fraction(v) for v in row) for row in rows)
    assert cand.dist[0][1] == cand.dist[0][2] == F(1, 2)
    assert all(type(v) is F for row in cand.dist for v in row)


@pytest.mark.parametrize(
    "bad, error",
    [
        (1.0, r"^exact rationals only: got the float 1\.0$"),
        (True, r"^exact rationals only: got the bool True$"),
    ],
)
def test_json_matrix_refuses_a_float_or_bool_after_an_equal_string(bad, error):
    # "1", 1 or F(1) is read before the entry equal to it, which is still refused
    for one in ("1", 1, F(1)):
        with pytest.raises(TypeError, match=error):
            DistanceMatrixCandidate.from_rows(["a", "b"], [[0, one], [bad, 0]])
    # the first bad entry in row-major order raises, as before
    with pytest.raises(TypeError, match=error):
        DistanceMatrixCandidate.from_rows(["a", "b"], [["0", bad], ["x", "0"]])
    with pytest.raises(ValueError):
        DistanceMatrixCandidate.from_rows(["a", "b"], [["0", "x"], [bad, "0"]])


def test_large_dendrogram_validates_with_full_dimension():
    s = random_ultrametric(Random(120), 120, SIX_VALUE_POOL + (F(5), F(7, 3)))
    assert validate_ultrametric(s.candidate()) == s
    assert embedding_dimension(s) == 119


def test_fixture_spaces_validate():
    assert four_point_space().n == 4
    assert legs_three_space().n == 4
    must_validate(four_point_space().candidate())
    must_validate(legs_three_space().candidate())


def test_fixture_spaces_self_check(monkeypatch):
    # a fixture space that fails validation raises its breach when it is
    # built, even under python -O
    violation = TriangleViolation(0, 1, 2, (F(3), F(1), F(1)))
    monkeypatch.setattr(spaces, "_validate_ranked", lambda labels, r, entry: violation)
    for build in (four_point_space, legs_three_space):
        with pytest.raises(NotUltrametricError) as err:
            build()
        assert err.value.violation is violation


def test_random_spaces_validate_and_are_isosceles():
    rng = Random(7)
    for _ in range(60):
        s = random_ultrametric(rng, rng.randint(1, 7), SIX_VALUE_POOL)
        must_validate(s.candidate())
        assert isosceles_check(s)


def test_json_roundtrip():
    s = four_point_space()
    data = s.to_json_dict()
    assert data["points"] == ["x1", "x2", "x3", "x4"]
    rebuilt = must_validate(DistanceMatrixCandidate.from_json_dict(data))
    assert rebuilt == s


# ---------------------------------------------------------------- queries --


def test_distance_range():
    # what `space range` prints: the values of the one-space family
    family = SpaceFamily((four_point_space(),))
    assert distance_values(family) == (F(0), F(1), F(2), F(3))


def test_apply_function_is_entrywise():
    image = apply_function(four_point_space(), level_swap_map())
    assert image.dist[0][2] == 2  # 1 -> 2
    assert image.dist[1][3] == 1  # 2 -> 1
    assert image.dist[0][1] == 3  # 3 -> 3
    assert image.dist[0][0] == 0
    must_validate(image)


def test_apply_function_calls_f_once_per_distance():
    s = random_ultrametric(Random(3), 12, SIX_VALUE_POOL)
    calls = []

    def f(x):
        calls.append(x)
        return level_swap_map()(x)

    image = apply_function(s, f)
    assert calls == list(dict.fromkeys(v for row in s.dist for v in row))
    assert image.dist == tuple(tuple(level_swap_map()(v) for v in row) for row in s.dist)


def test_apply_can_break_the_space():
    image = apply_function(four_point_space(), Reciprocal())
    out = validate_ultrametric(image)
    assert isinstance(out, TriangleViolation)


# -------------------------------------------------------------- isometries --


def test_isometry_between_fixture_spaces():
    a, b = four_point_space(), legs_three_space()
    mapping = isometry_search(a, b)
    assert mapping == (2, 0, 3, 1)
    assert is_isometry(a, b, mapping)
    back = isometry_search(b, a)
    assert back is not None and is_isometry(b, a, back)


def test_self_isometry_is_identity():
    rng = Random(11)
    for _ in range(20):
        s = random_ultrametric(rng, rng.randint(1, 6), SIX_VALUE_POOL)
        assert isometry_search(s, s) == tuple(range(s.n))


def test_relabeled_spaces_are_isometric():
    rng = Random(13)
    for _ in range(20):
        s = random_ultrametric(rng, rng.randint(2, 6), SIX_VALUE_POOL)
        perm = list(range(s.n))
        rng.shuffle(perm)
        rows = [[s.dist[perm[i]][perm[j]] for j in range(s.n)] for i in range(s.n)]
        t = must_validate(_candidate(rows, [f"y{i}" for i in range(s.n)]))
        mapping = isometry_search(s, t)
        assert mapping is not None
        assert is_isometry(s, t, mapping)


def test_isometry_failure_and_guards():
    a = must_validate(_candidate([[0, 1], [1, 0]]))
    b = must_validate(_candidate([[0, 2], [2, 0]]))
    assert isometry_search(a, b) is None
    assert not is_isometry(a, b, (0, 1))
    assert not is_isometry(a, a, (0, 0))
    c = must_validate(_candidate([[0]]))
    with pytest.raises(SizeMismatchError):
        isometry_search(a, c)
    big = must_validate(
        _candidate([[0 if i == j else 1 for j in range(11)] for i in range(11)])
    )
    with pytest.raises(TooLargeError):
        isometry_search(big, big)


@settings(max_examples=300)
@given(st.data())
def test_isometry_search_matches_the_permutation_scan(data):
    """Ints among equal Fractions, twins under 2^-64 apart, relabelled or drawn afresh."""
    rng, pool, a = _adversarial_space(data, max_points=6)
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(a.n)))
        rows = [[a.dist[perm[i]][perm[j]] for j in range(a.n)] for i in range(a.n)]
        b = FiniteUltrametricSpace(tuple(f"y{i}" for i in range(a.n)), tuple(map(tuple, rows)))
    else:
        b = random_ultrametric(rng, a.n, pool, prefix="y")
    a = FiniteUltrametricSpace(a.labels, mix_ints(rng, a.dist))
    b = FiniteUltrametricSpace(b.labels, mix_ints(rng, b.dist))
    assert isometry_search(a, b) == brute_isometry(a, b)


def _cap_pair(close):
    """Ten points at distance 1, but for d(p8, p9) = close."""
    rows = [[0 if i == j else 1 for j in range(10)] for i in range(10)]
    rows[8][9] = rows[9][8] = close
    return must_validate(_candidate(rows, [f"p{i}" for i in range(10)]))


def test_isometry_search_refuses_a_late_distance_at_the_cap():
    """Every map of p0..p7 fits; only d(p8, p9) tells the spaces apart."""
    assert isometry_search(_cap_pair(F(1, 2)), _cap_pair(F(1, 4))) is None


def test_isometry_search_finds_the_least_map_of_a_relabelled_cap_pair():
    a = _cap_pair(F(1, 2))
    perm = (8, 0, 1, 2, 3, 9, 4, 5, 6, 7)  # b's point k is a's point perm[k]
    rows = [[a.dist[perm[i]][perm[j]] for j in range(10)] for i in range(10)]
    b = must_validate(_candidate(rows))
    assert isometry_search(a, b) == (1, 2, 3, 4, 6, 7, 8, 9, 0, 5)
    assert isometry_search(b, a) == (8, 0, 1, 2, 3, 9, 4, 5, 6, 7)


def test_isometry_search_on_shuffled_spaces_with_many_automorphisms():
    """One- and two-value pools: many equal subtrees, so each choice needs its mark."""
    rng = Random(17)
    for pool in ((F(1),), (F(1, 2), F(1)), (F(1), F(3)), (F(1, 3), F(2)), (F(2), F(5))):
        a = random_ultrametric(rng, 8, pool)
        perm = list(range(8))
        rng.shuffle(perm)
        rows = [[a.dist[perm[i]][perm[j]] for j in range(8)] for i in range(8)]
        b = must_validate(_candidate(rows))
        assert isometry_search(a, b) == brute_isometry(a, b) is not None
        assert isometry_search(b, a) == brute_isometry(b, a)


def test_isometry_search_tells_twins_apart():
    t = F(1, 3)
    twin = t + F(1, 2**70)
    a = must_validate(_candidate([[0, t, 1], [t, 0, 1], [1, 1, 0]]))
    b = must_validate(_candidate([[0, 1, 1], [1, 0, twin], [1, twin, 0]]))
    c = must_validate(_candidate([[0, F(1), 1], [1, 0, F(t)], [F(1), t, 0]]))
    assert isometry_search(a, b) is None
    assert isometry_search(a, c) == (1, 2, 0) == brute_isometry(a, c)


# -------------------------------------------------------------- embeddings --


def _det(matrix):
    # permanent-style exact determinant, independent of the rank routine
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += sign * term
    return total


def _gram(s, base=0):
    others = [i for i in range(s.n) if i != base]
    return [
        [
            (s.dist[base][i] ** 2 + s.dist[base][j] ** 2 - s.dist[i][j] ** 2) / 2
            for j in others
        ]
        for i in others
    ]


def test_embedding_dimension_of_fixtures():
    assert embedding_dimension(four_point_space()) == 3
    assert gram_rank(four_point_space()) == 3
    singleton = must_validate(_candidate([[0]]))
    assert embedding_dimension(singleton) == 0
    with pytest.raises(ValueError):
        gram_rank(singleton)


def test_gram_rank_matches_determinant_oracle():
    rng = Random(17)
    for _ in range(40):
        n = rng.randint(2, 5)
        s = random_ultrametric(rng, n, SIX_VALUE_POOL)
        assert gram_rank(s) == n - 1
        assert _det(_gram(s)) != 0


def _with_origin(s, b):
    # the same space with point b moved to index 0, the Gram origin
    order = [b, *(i for i in range(s.n) if i != b)]
    rows = tuple(tuple(s.dist[i][j] for j in order) for i in order)
    return FiniteUltrametricSpace(tuple(s.labels[i] for i in order), rows)


def test_gram_rank_is_basepoint_independent():
    rng = Random(19)
    for _ in range(15):
        n = rng.randint(2, 6)
        s = random_ultrametric(rng, n, SIX_VALUE_POOL)
        ranks = {gram_rank(_with_origin(s, b)) for b in range(n)}
        assert ranks == {n - 1}


def test_rank_fallback_matches_exact_elimination():
    p = 2**61 - 1
    singular_mod_p = [[[1, 0], [0, p]], [[p, 2 * p], [3, 4]], [[2, 1, 0], [p + 2, 1, 0], [0, 0, 1]]]
    rank_deficient = [[1, 2, 3], [2, 4, 6], [5, -1, 3]]
    for m in singular_mod_p + [rank_deficient]:
        assert _integer_rank(m) == ref_exact_rank(m)
    assert [_integer_rank(m) for m in singular_mod_p] == [2, 2, 3]
    assert _integer_rank(rank_deficient) == 2


@st.composite
def _planted_rank_matrices(draw):
    # rows combined from `rank` random integer rows, so the rank is at most
    # `rank`; columns may be zeroed, and entries may be multiples of 2^61 - 1
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rank = draw(st.integers(0, min(rows, cols)))
    p = 2**61 - 1
    entry = st.one_of(st.integers(-9, 9), st.integers(-3, 3).map(lambda k: k * p))
    basis = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rank)]
    mixes = [draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)) for _ in range(rows)]
    matrix = [[sum(c * b[j] for c, b in zip(mix, basis)) for j in range(cols)] for mix in mixes]
    zeroed = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    return [[0 if j in zeroed else v for j, v in enumerate(row)] for row in matrix]


@settings(max_examples=500, deadline=None)
@given(m=_planted_rank_matrices())
def test_integer_rank_matches_fraction_elimination(m):
    assert _integer_rank(m) == ref_exact_rank(m)


@settings(max_examples=200)
@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(2, 9),
    pool=st.sampled_from((SIX_VALUE_POOL, SIX_VALUE_POOL[:2], (F(1),), (F(1, 3), F(5, 7), F(9)))),
)
def test_embedding_dimension_random_spaces(rng, n, pool):
    # the closed form against the elimination it replaced
    s = random_ultrametric(rng, n, pool)
    assert embedding_dimension(s) == gram_rank(s) == s.n - 1
