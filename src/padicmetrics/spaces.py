"""Finite ultrametric spaces as exact rational distance matrices.

A candidate matrix is a plain carrier: it only knows its shape and labels.
A space is a candidate validated on construction. Validation separates the
two failure channels deliberately: malformed input (asymmetry, nonzero
diagonal, negative or vanishing off-diagonal entries) raises, while a
strong-triangle failure is a legitimate negative answer, which
``validate_ultrametric`` returns as a witness the caller can re-check (the
space's constructor raises it in a ``NotUltrametricError``).

The strong-triangle test sorts the points by their rows. In an
ultrametric every closed ball is then an interval of that order (for x, y
in a ball of diameter s and z at T > s from both, rows x and z first
differ where rows y and z do, and alike), so the matrix must read as the
running maximum of the gaps between neighbours; and a matrix of that form
with positive gaps is an ultrametric: the test is exact. The structural
loop and subdominant ultrametric (Gower and Ross, 1969) explain refusals.

Every O(n^2) loop of this layer runs on int ranks, not on Fractions
(comparing or hashing a Fraction runs Python code; an int's runs in C). The
distinct entries are keyed by (numerator, denominator), exact because
ints and Fractions are kept in lowest terms, and ranked once by
``padic._ranks``. Each entry then becomes its rank minus the rank of 0,
so ranks keep every order, equality and sign of the entries, and stay
small when the denominators are pairwise coprime. A matrix is ranked once,
when its space is built, and the space keeps those ranks: ``apply_function``
and the family verbs read them and rank no matrix again. Messages,
witnesses and the returned space still quote the original entries.

The Gram rank works without ever leaving the rationals: instead of
constructing coordinates (which would need square roots), the Gram matrix
of squared distances is ranked. Its denominators are cleared and the
integer matrix is ranked exactly by fraction-free (Bareiss) elimination,
which divides exactly at every step and so never leaves the integers.
For a valid ultrametric space on n points that rank is always n - 1
(Lemin, 1985), which is the embedding dimension.

Two finite ultrametric spaces are isometric exactly when their trees of
closed balls, labelled by diameter, are isomorphic (Johnson, 1967), which
canonical forms of rooted trees decide (Aho, Hopcroft and Ullman, 1974).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import getitem
from typing import Callable, Sequence

from .errors import (
    AsymmetricError,
    NegativeEntryError,
    NonzeroDiagonalError,
    NotUltrametricError,
    SelfCheckError,
    SizeMismatchError,
    TooLargeError,
    ZeroDistanceError,
)
from .functions import FunctionSpec
from .padic import RationalLike, _Record, _ranks, _ratio, _text, as_fraction

MAX_SEARCH_POINTS = 10


def _coerce_rows(
    rows: Sequence[Sequence[RationalLike]],
) -> tuple[tuple[Fraction, ...], ...]:
    # Every entry by as_fraction, in row-major order, so the first bad entry
    # raises; a str is read once per call and its Fraction reused, which is
    # most of a JSON matrix. Only str entries are memoised: a float or bool
    # equal to one still reaches as_fraction and is refused.
    read: dict[str, Fraction] = {}

    def coerce(v: RationalLike) -> Fraction:
        if type(v) is not str:
            return as_fraction(v)
        x = read.get(v)
        if x is None:
            x = read[v] = as_fraction(v)
        return x

    return tuple(tuple(map(coerce, row)) for row in rows)


def _check_shape(labels: tuple[str, ...], dist: tuple[tuple[Fraction, ...], ...]) -> None:
    n = len(labels)
    if n == 0:
        raise ValueError("a space needs at least one point")
    if len(set(labels)) != n:
        raise ValueError("point labels must be distinct")
    if len(dist) != n or any(len(row) != n for row in dist):
        raise ValueError(f"distance matrix must be {n}x{n}")


@dataclass(frozen=True)
class DistanceMatrixCandidate(_Record):
    """Labeled square matrix, not yet known to be a distance at all."""

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        _check_shape(self.labels, self.dist)

    @classmethod
    def from_rows(cls, labels, rows):
        return cls(tuple(labels), _coerce_rows(rows))

    @classmethod
    def from_json_dict(cls, data: dict):
        return cls.from_rows(data["points"], data["d"])

    @property
    def n(self) -> int:
        return len(self.labels)

    def to_json_dict(self) -> dict:
        return {
            "points": list(self.labels),
            "d": [list(map(_text, row)) for row in self.dist],
        }


@dataclass(frozen=True)
class FiniteUltrametricSpace(DistanceMatrixCandidate):
    """A candidate validated on construction, as ``validate_ultrametric``
    validates it; a strong-triangle breach raises ``NotUltrametricError``,
    with the least breach as its ``violation``. Outside its fields it keeps
    its values ascending (``_values``), the matrix on their indices
    (``_ranks``, tuple rows: d[i][j] equals _values[_ranks[i][j]]), and its
    points in ball order (``_points``) with their gaps (``_gaps``, indices
    into ``_values``). None of these is a dataclass field, so equality,
    hashing and JSON read the labels and the matrix only."""

    def __post_init__(self) -> None:
        super().__post_init__()
        d = self.dist
        values, r = _ranked(d)
        v = _validate_ranked(self.labels, r, lambda i, j: d[i][j])
        if isinstance(v, TriangleViolation):
            sides = ", ".join(map(_text, v.sides))
            raise NotUltrametricError(
                f"not ultrametric: indices ({v.i}, {v.j}, {v.k}) with sides ({sides})", v
            )
        # list rows build and sort faster than tuples; frozen once valid,
        # a row at a time, so no second copy of the matrix is made
        for i, row in enumerate(r):
            r[i] = tuple(row)
        for name, kept in zip(("_values", "_ranks", "_points", "_gaps"), (values, r, *v)):
            object.__setattr__(self, name, tuple(kept))

    def candidate(self) -> DistanceMatrixCandidate:
        return DistanceMatrixCandidate(self.labels, self.dist)


@dataclass(frozen=True)
class TriangleViolation(_Record):
    """Least (i, j, k) with d[i][j] > max(d[i][k], d[k][j])."""

    i: int
    j: int
    k: int
    sides: tuple[Fraction, Fraction, Fraction]


def _ranked(
    m: Sequence[Sequence[RationalLike]],
) -> tuple[list[RationalLike], list[list[int]]]:
    """The matrix rewritten on int ranks of its distinct values, 0 included.

    Returns the distinct values in ascending order (the first entry seen
    stands for its value), and the matrix with every entry replaced by its
    position among the values minus the position of 0. So ranks keep every
    order, equality and sign of the entries, an O(n^2) loop over them
    compares ints only, and with no negative entry, as in a valid space,
    rank r stands for values[r].

    Each distinct entry object is read once: the objects are collected by
    ``id`` in row-major order of first appearance (a matrix often holds
    one object many times, such as a symmetric pair or a shared level),
    and only they are read. Their values are told apart by (numerator,
    denominator), which is exact because ints and Fractions are kept in
    lowest terms, and those pairs are ranked once by ``_ranks``. Every
    object stays referenced until the rows are remapped, so no ``id`` is
    reused meanwhile; the ids are taken one row at a time, never all at
    once.

    Raises:
        TypeError: for an entry with no numerator, such as a float, which
            is already rounded to binary; the first such entry in row-major
            order is named.
    """
    seen: dict[int, RationalLike] = {}
    for row in m:
        seen.update(zip(map(id, row), row))
    objects = list(seen.values())
    try:
        keys = list(map(_ratio, objects))
    except AttributeError:
        bad = next(
            v for v in objects if not (hasattr(v, "numerator") and hasattr(v, "denominator"))
        )
        raise TypeError(f"exact rationals only: got the {type(bad).__name__} {bad!r}") from None
    # the first object of each value in row-major order stands for it
    first = dict(zip(reversed(keys), reversed(objects)))
    first.setdefault((0, 1), Fraction(0))
    pairs = list(first)
    ranks = _ranks(pairs)
    zero = ranks[pairs.index((0, 1))]
    rank = {k: i - zero for k, i in zip(pairs, ranks)}
    values = [first[k] for k in sorted(pairs, key=rank.__getitem__)]
    by_id = dict(zip(seen, map(rank.__getitem__, keys)))
    return values, [list(map(by_id.__getitem__, map(id, row))) for row in m]


def _subdominant(r: list[list[int]]) -> list[list[int]]:
    """Greatest ultrametric below r (zero diagonal): minimax path distance
    over a minimum spanning tree.

    Prim's algorithm grows the tree one point at a time; a point v joining
    through the tree edge (p, v) of weight w is, for every point x already
    in the tree, at minimax distance max(u(p, x), w). Both steps are O(n^2).
    Only order matters here, so r may hold ranks as well as distances.
    """
    n = len(r)
    u = [[r[0][0]] * n for _ in range(n)]
    best = list(r[0])
    via = [0] * n
    tree = [0]
    rest = list(range(1, n))
    while rest:
        v = min(rest, key=best.__getitem__)
        rest.remove(v)
        w, up, uv = best[v], u[via[v]], u[v]
        for x in tree:
            uv[x] = u[x][v] = max(up[x], w)
        tree.append(v)
        rv = r[v]
        for x in rest:
            if rv[x] < best[x]:
                best[x] = rv[x]
                via[x] = v
    return u


def validate_ultrametric(
    c: DistanceMatrixCandidate,
) -> FiniteUltrametricSpace | TriangleViolation:
    """Structural defects raise; a strong-triangle breach is returned.

    The breach returned is the least (i, j, k) in lexicographic order with
    d[i][j] > max(d[i][k], d[k][j]). Once ``_ball_order`` refuses, the
    subdominant ultrametric u of d is built (O(n^2)) and k is sought only
    for the pairs with d[i][j] > u[i][j], in the same (i, j) order. No
    violating triple is skipped: any one has u[i][j] <= max(d[i][k],
    d[k][j]) < d[i][j], because the path i, k, j bounds the minimax
    distance.

    Every test runs on the int ranks of the entries (see ``_ranked``),
    which order, equate and sign exactly as the entries do, so each
    Fraction is read once to be ranked and never compared in a loop.
    Messages, witness sides and the returned space quote the entries.
    The space's constructor runs the one validation and raises the breach
    in a ``NotUltrametricError``, which is caught here.

    Raises:
        TypeError: for an entry that is no exact rational, such as a float.
    """
    try:
        return FiniteUltrametricSpace(c.labels, c.dist)
    except NotUltrametricError as err:
        return err.violation


def _ball_order(r: list[list[int]]) -> tuple[list[int], list[int]] | None:
    """The points sorted by their rows and the gaps between neighbours, if
    the ranks r are an ultrametric, else None. In that order the matrix
    must be 0 on the diagonal, max(gaps[a:b]) at a < b with every gap
    positive, and symmetric: below a, column a holds gaps[a] down to the
    next greater gap (one monotone-stack pass), then column a + 1's
    entries. So each column costs two slice comparisons, and the symmetry
    one transposition, made last as a refusal mostly comes sooner."""
    n = len(r)
    order = sorted(range(n), key=r.__getitem__)
    cols = list(zip(*map(r.__getitem__, order)))
    cols = list(map(cols.__getitem__, order))
    gaps = list(map(getitem, cols, range(1, n)))
    if any(map(getitem, cols, range(n))) or min(gaps, default=1) < 1:
        return None
    nxt, stack = [n - 1] * (n - 1), []
    for k, x in enumerate(gaps):
        while stack and gaps[stack[-1]] < x:
            nxt[stack.pop()] = k
        stack.append(k)
    for a in range(n - 2, -1, -1):
        e, col = nxt[a], cols[a]
        if col[a + 1 : e + 1] != (gaps[a],) * (e - a) or col[e + 1 :] != cols[a + 1][e + 1 :]:
            return None
    return (order, gaps) if list(zip(*cols)) == cols else None


def _validate_ranked(
    labels: tuple[str, ...], r: list[list[int]], entry: Callable[[int, int], Fraction]
) -> tuple[list[int], list[int]] | TriangleViolation:
    """``validate_ultrametric`` on the ranks r: ``_ball_order``'s order and
    gaps, or, once that refuses, the first structural error raised or the
    least violation. entry(i, j) is the entry d[i][j] the ranks stand for,
    read only for an error message or the sides of the violation.
    """
    if (found := _ball_order(r)) is not None:
        return found
    n = len(labels)
    # Each unordered pair once, (i, j) with j >= i in row-major order: the
    # first error is the one a pass over every ordered pair would raise,
    # since a pair (j, i) with j > i is reached only after (i, j) has
    # passed, and then repeats its tests on the same value.
    for i in range(n):
        ri = r[i]
        for j in range(i, n):
            if ri[j] != r[j][i]:
                raise AsymmetricError(f"d[{i}][{j}] != d[{j}][{i}]")
            if ri[j] < 0:
                raise NegativeEntryError(f"d[{i}][{j}] = {entry(i, j)} < 0")
            if i == j and ri[j] != 0:
                raise NonzeroDiagonalError(f"d[{i}][{i}] = {entry(i, i)} != 0")
            if i != j and ri[j] == 0:
                raise ZeroDistanceError(
                    f"distinct points {labels[i]!r}, {labels[j]!r} at distance 0"
                )
    u = _subdominant(r)
    for i in range(n):
        ri = r[i]
        if ri == u[i]:
            continue
        for j in range(n):
            if ri[j] > u[i][j]:
                for k in range(n):
                    if ri[j] > max(ri[k], r[k][j]):
                        sides = (entry(i, j), entry(i, k), entry(k, j))
                        return TriangleViolation(i, j, k, sides)
    raise SelfCheckError("the sorted rows refused an ultrametric")


def apply_function(s: FiniteUltrametricSpace, f: FunctionSpec) -> DistanceMatrixCandidate:
    """Entrywise image of the distance matrix, diagonal included.

    The result is only a candidate: whether f(0) = 0 and whether the image
    is still an ultrametric is the validator's business, not this one's.
    f is called once per distinct distance, in row-major order of first
    appearance; the distances are grouped by the int ranks the space kept
    when it was built (rank x stands for ``s._values[x]``), so no matrix is
    ranked again and no Fraction is hashed per entry.
    """
    values, r = s._values, s._ranks
    image = {x: f(values[x]) for x in dict.fromkeys(chain.from_iterable(r))}
    rows = tuple(tuple(map(image.__getitem__, row)) for row in r)
    return DistanceMatrixCandidate(s.labels, rows)


def _validate_image(
    s: FiniteUltrametricSpace, image: Callable[[int], tuple[int, int]]
) -> tuple[list[int], list[int]] | TriangleViolation:
    """``validate_ultrametric(apply_function(s, f))``, from the ranks s
    kept when it was built, with the image's ball order and gaps where
    that returns a space. Only the matrix's ranks are read, not the ball
    order of s.

    image(x) is f at the value of rank x as an integer pair
    (``FunctionSpec.ratio_at``), asked once per distinct rank, in
    row-major order of first appearance, as ``apply_function`` calls f.
    The image's ranks are the ones ``_ranked`` would give its matrix: its
    distinct values and 0 are ranked by ``_ranks``, and the ranks of s are
    mapped through them, so no image entry is read again. An image becomes
    a Fraction only for an error message or a witness's sides.
    """
    r = s._ranks
    pairs = {x: image(x) for x in dict.fromkeys(chain.from_iterable(r))}
    ranks = _ranks([*pairs.values(), (0, 1)])
    rank = {x: y - ranks[-1] for x, y in zip(pairs, ranks)}
    return _validate_ranked(
        s.labels,
        [list(map(rank.__getitem__, row)) for row in r],
        lambda i, j: Fraction(*pairs[r[i][j]]),
    )


def _balls(s: FiniteUltrametricSpace, rank: Sequence[int]) -> list[list]:
    """The tree of closed balls of s, from its kept order and gaps.

    Node x is [parent or -1, place among its parent's children, rank of
    its diameter t, child nodes]: the points 0..n-1, then each ball after
    the balls inside it. A ball is a maximal run of the order whose inner
    gaps are <= t and include t; its children are the runs between its
    gaps t. A stack keeps the open balls, and a gap closes the narrower.
    """
    tree, stack = [[-1, 0, 0, None] for _ in s._points], []
    # the infinite last gap closes every ball, and opens none that is kept
    for item, x in zip(s._points, [*s._gaps, math.inf]):
        while stack and stack[-1][0] < x:
            t, kids = stack.pop()
            kids.append(item)
            item = len(tree)
            for place, c in enumerate(kids):
                tree[c][:2] = item, place
            tree.append([-1, 0, rank[t], kids])
        if stack and stack[-1][0] == x:
            stack[-1][1].append(item)
        else:
            stack.append((x, [item]))
    return tree


def _joint(spaces: Sequence[FiniteUltrametricSpace]) -> tuple[list, list[tuple[int, ...]]]:
    """The spaces' kept values merged ascending, the earlier space's object
    standing for a shared value, as ranking every matrix at once would
    keep it, and each space's ranks on them: rank x of space i stands for
    values[joint[i][x]]."""
    first: dict[tuple[int, int], RationalLike] = {}
    for s in reversed(spaces):
        first.update(zip(map(_ratio, s._values), s._values))
    rank = dict(zip(first, _ranks(list(first))))
    values = [first[k] for k in sorted(first, key=rank.__getitem__)]
    return values, [tuple(map(rank.__getitem__, map(_ratio, s._values))) for s in spaces]


def _root_form(tree: list[list], x: int, mark: int, forms: dict, keep: bool) -> int:
    """The root's form once point x is marked, re-forming only the balls
    on x's path; ``keep`` stores their new forms in the tree."""
    form, node = forms.setdefault((mark,), len(forms)), tree[x]
    while node[0] >= 0:
        up = tree[node[0]]
        row = up[3] if keep else up[3][:]
        row[node[1]] = form
        form, node = forms.setdefault((up[2], *sorted(row)), len(forms)), up
    return form


def isometry_search(
    a: FiniteUltrametricSpace, b: FiniteUltrametricSpace
) -> tuple[int, ...] | None:
    """Least distance-preserving bijection from a's points to b's, if any.

    Each space's ball tree is read off its kept order (``_balls``), with
    the diameters on the two spaces' joint ranks (``_joint``); a form is
    the id of (mark,) for a point, of (t, *sorted child forms) for a ball.
    Some isometry maps a's marked points onto b's of the same marks
    exactly when the marked forms are equal. So point i, marked i, goes
    to the least unmarked c of b whose form, c marked i, equals a's: an
    isometry extending the choices survives, and one sending i lower
    would have passed first, so the map is the least; at i = 0 the test
    decides isometry. A mark changes only the forms on its point's path
    to the root, so each candidate re-forms that path alone
    (``_root_form``). Sizes are checked first; the cap only keeps the
    exit codes of ``space isometry``.
    """
    if a.n != b.n:
        raise SizeMismatchError(f"cannot match {a.n} points with {b.n}")
    if a.n > MAX_SEARCH_POINTS:
        raise TooLargeError(f"search is capped at {MAX_SEARCH_POINTS} points")
    n = a.n
    forms: dict[tuple[int, ...], int] = {(-1,): 0}  # an unmarked point
    ta, tb = map(_balls, (a, b), _joint((a, b))[1])
    for tree in ta, tb:
        form = [0] * len(tree)
        for x in range(n, len(tree)):
            node = tree[x]
            node[3] = [form[c] for c in node[3]]
            form[x] = forms.setdefault((node[2], *sorted(node[3])), len(forms))
    mapping: list[int] = []
    for i in range(n):
        fa = _root_form(ta, i, i, forms, True)
        free = (c for c in range(n) if c not in mapping)
        c = next((c for c in free if _root_form(tb, c, i, forms, False) == fa), None)
        if c is None:
            return None
        _root_form(tb, c, i, forms, True)
        mapping.append(c)
    return tuple(mapping)


def is_isometry(
    a: FiniteUltrametricSpace, b: FiniteUltrametricSpace, mapping: Sequence[int]
) -> bool:
    """True when the index map carries a's distances onto b's exactly."""
    if a.n != b.n:
        raise SizeMismatchError(f"cannot match {a.n} points with {b.n}")
    if sorted(mapping) != list(range(a.n)):
        return False
    return all(
        b.dist[mapping[i]][mapping[j]] == a.dist[i][j]
        for i in range(a.n)
        for j in range(a.n)
    )


def _integer_rank(matrix: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination.

    Bareiss's elimination (Math. Comp. 22, 1968) keeps every entry an
    integer. Each step takes as pivot row the first row top whose first
    entry lead is nonzero, and replaces every other row by lead * row -
    row[0] * top, without its first column, divided by the previous lead.
    By Sylvester's identity each entry is then the minor of the matrix on
    the pivot rows and columns so far plus its own row and column, so the
    division is exact and the entries grow only as the minors do. A first
    column with no nonzero entry adds no pivot and is dropped; the pivots
    found are the rank.
    """
    rank, prev = 0, 1
    while matrix and matrix[0]:
        pivot = next((r for r, row in enumerate(matrix) if row[0]), None)
        if pivot is None:
            matrix = [row[1:] for row in matrix]
            continue
        top = matrix[pivot]
        lead, rest = top[0], top[1:]
        matrix = [
            [(lead * v - row[0] * w) // prev for v, w in zip(row[1:], rest)]
            for r, row in enumerate(matrix)
            if r != pivot
        ]
        prev = lead
        rank += 1
    return rank


def gram_rank(s: FiniteUltrametricSpace) -> int:
    """Rank of the inner-product matrix induced by squared distances.

    With x_0 as origin, G[i][j] = (d(0,i)^2 + d(0,j)^2 - d(i,j)^2) / 2
    over the remaining points. Any Euclidean realization of the space
    must have Gram matrix G, so its rank is the least dimension that
    could possibly host the points.

    With L the least common denominator of the distances, 2 L^2 G is an
    integer matrix of the same rank, ranked exactly by fraction-free
    (Bareiss) elimination in O(n^3) integer operations.
    """
    if s.n < 2:
        raise ValueError("gram rank needs at least two points")
    scale = math.lcm(*{v.denominator for row in s.dist for v in row})
    sq = [[(v.numerator * (scale // v.denominator)) ** 2 for v in row] for row in s.dist]
    origin, others = sq[0], range(1, s.n)
    g = [[origin[i] + origin[j] - sq[i][j] for j in others] for i in others]
    return _integer_rank(g)


def embedding_dimension(s: FiniteUltrametricSpace) -> int:
    """Least Euclidean dimension isometrically containing the space: n - 1.

    Every n-point ultrametric space embeds as the vertices of a simplex
    (Lemin, 1985), so its Gram rank is n - 1 and no elimination is needed.
    """
    return s.n - 1
