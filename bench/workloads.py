"""The four workloads: seeded inputs, the calls made on them, and the
expected answer for each call.

A workload is an endless series of passes; pass ``i`` is built from its
own seeded generator, so every pass runs the same mix of calls on fresh
inputs, and a run averages over many inputs rather than a few. A pass is
a list of operations. An operation is one timed call into a public
function of one layer (for very cheap functions, a batch of calls), plus
a check that confirms its output from how the input was built and by
re-measuring any witness with ``oracle``. Every verdict is known before the call is made: inputs that
should pass are built to pass, inputs that should fail are built to fail
at a chosen place in scan order.

Inputs stay inside ranges the package already handles today: rationals
are ints or Fractions (never floats), windows stay within +-128, digit
windows within high 64, the prime sieve at its default bound, and spaces
within 48 points.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

import padicmetrics as pm
from padicmetrics import cli, fixtures
from support import SIX_VALUE_POOL, comb_space, random_family, random_ultrametric

import oracle
from oracle import F, CliResult, Raised

P61 = 2**61 - 1
PRIME_BITS = {3: "p3", 257: "p257", P61: "p61bit"}


@dataclass
class Op:
    """One timed call. ``name`` is ``<layer>.<call>[.<size>]``."""

    name: str
    fn: Callable[[], object]
    check: Callable[[object], str | None]
    calls: int = 1
    unit: str = "ms"
    size: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


@dataclass(frozen=True)
class Scale:
    samples: tuple[int, int, int]
    hunt_n: int
    grid: tuple[str, str]
    points: tuple[int, int, int]
    chains: tuple[int, int, int]
    iso: int
    families: int
    windows: tuple[int, int, int]
    highs: tuple[int, int, int]
    batch: int


SCALES = {
    "full": Scale((16, 24, 32), 32, ("1/4", "6"), (16, 32, 48), (10, 20, 30), 8, 8,
                  (16, 64, 128), (8, 32, 64), 40),
    "tiny": Scale((5, 6, 8), 8, ("1/2", "2"), (4, 5, 6), (3, 4, 5), 4, 2,
                  (4, 6, 8), (2, 3, 4), 4),
}


@dataclass
class Workload:
    name: str
    seed: int
    scale: Scale
    generate: Callable[[Random, Scale, int], list[Op]]

    def make_pass(self, i: int) -> list[Op]:
        return self.generate(Random(f"{self.name}/{self.seed}/{i}"), self.scale, i)


def call(fn, *args):
    """Run a call, reducing an exception to ``Raised`` so it can be checked."""
    try:
        return fn(*args)
    except Exception as err:  # the check decides whether it was expected
        return Raised(type(err).__name__)


def expect(cond: bool, what: str) -> str | None:
    return None if cond else what


def first_problem(*problems) -> str | None:
    return next((p for p in problems if p), None)


def rationals(rng: Random, count: int, top: int, dens=(1, 2, 3, 4, 6, 8)) -> list[Fraction]:
    """``count`` distinct positive rationals in (0, top], sorted."""
    pool = sorted({F(k, d) for d in dens for k in range(1, top * d + 1)})
    return sorted(rng.sample(pool, count))


def sample_hash(xs) -> str:
    canon = ",".join(str(x) for x in sorted(set(xs)))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# --------------------------------------------------------- sampled-checks --


def concave_pl(rng: Random) -> pm.PiecewiseLinear:
    xs = [F(0)] + rationals(rng, 4, 6)
    slopes = sorted(rationals(rng, 4, 3), reverse=True)
    pts, y = [(F(0), F(0))], F(0)
    for (x0, x1), s in zip(zip(xs, xs[1:]), slopes):
        y += s * (x1 - x0)
        pts.append((x1, y))
    return pm.PiecewiseLinear(tuple(pts), "constant")


def banded_step(rng: Random) -> pm.StepFunction:
    low = F(rng.randint(1, 4), rng.randint(1, 3))
    ts = rationals(rng, 3, 6)
    levels = sorted(low * (1 + F(k, 8)) for k in rng.sample(range(1, 9), 3))
    return pm.StepFunction(low, tuple(zip(ts, levels)))


def refined(f, xs):
    extra = []
    if isinstance(f, pm.PiecewiseLinear):
        extra = [x for x, _ in f.points]
    elif isinstance(f, pm.StepFunction) and f.points:
        extra = [t for t, _ in f.points] + [f.points[0][0] / 2]
    return sorted(set(xs) | set(extra))


def passes_with_hash(xs):
    def check(out):
        return first_problem(
            expect(out.passed and out.witness is None, "expected a passing verdict"),
            expect(out.samples_hash == sample_hash(xs), "samples hash differs"),
        )

    return check


def sufficient_oracle(f, xs, known: dict):
    """Re-derive the three conditions; the construction fixes some of them."""

    def check(out):
        pos = [x for x in xs if x > 0]
        vals = [f(x) for x in pos]
        band = bool(pos) and min(vals) > 0 and max(vals) <= 2 * min(vals)
        if isinstance(f, pm.PiecewiseLinear):
            slopes = list(f.segment_slopes()) + ([F(0)] if f.tail == "constant" else [])
        else:
            slopes = [(f(b) - f(a)) / (b - a) for a, b in zip(xs, xs[1:])]
        concave = all(s0 >= s1 for s0, s1 in zip(slopes, slopes[1:]))
        sub = all(f(a + b) <= f(a) + f(b) for i, a in enumerate(xs) for b in xs[i:])
        want = {"band": band, "concave": concave, "subadditive_on_samples": sub}
        return first_problem(
            expect(all(want[k] == v for k, v in known.items()),
                   f"re-measured conditions {want} contradict the construction {known}"),
            expect(out.to_json_dict() == want, f"sufficient conditions differ from {want}"),
        )

    return check


def sampled_checks(rng: Random, sc: Scale, i: int) -> list[Op]:
    """Inputs that pass: every scan visits all n^3 ordered triples.

    Each check at each size takes one of the four spec kinds, in a Latin
    square that shifts with the pass, so every pass mixes all four kinds.
    The cheap calls and the n = 32 metric scan run twice, with other kinds:
    the pass then has eight calls below the n = 16 ultrametric scans (about
    25 ms each) and eight above, so the median falls in the middle of that
    pair, and the p95 inside the block of the two slowest calls.
    """
    specs = [
        (pm.Canonical(), {"concave": True, "subadditive_on_samples": True}),
        (concave_pl(rng), {"concave": True, "subadditive_on_samples": True}),
        (banded_step(rng), {"band": True, "subadditive_on_samples": True}),
        (pm.PowerMap(*rng.choice([(3, 2), (5, 2), (5, 3), (7, 3), (7, 5)])),
         {"concave": True, "subadditive_on_samples": True}),
    ]
    ops = []
    for si, n in enumerate(sc.samples):
        xs = [F(0)] + rationals(rng, n - 1, 8)
        tag = f"n{n}"
        (f0, _), (f1, _), (f2, _) = (specs[(i + si + c) % 4] for c in range(3))
        ops += [
            Op(f"preserving.metric_scan.{tag}",
               lambda f=f0, xs=xs: pm.check_metric_preserving_sampled(f, xs),
               passes_with_hash(xs), size=n),
            *([Op(f"preserving.metric_scan.{tag}",
                  lambda f=f2, xs=xs: pm.check_metric_preserving_sampled(f, xs),
                  passes_with_hash(xs), size=n)] if si == 2 else []),
            Op(f"preserving.ultra_scan.{tag}",
               lambda f=f1, xs=xs: pm.check_ultrametric_preserving(f, xs),
               passes_with_hash(refined(f1, xs)), size=n),
            Op(f"preserving.ultra_to_metric.{tag}",
               lambda f=f2, xs=xs: pm.check_ultra_to_metric(f, xs),
               passes_with_hash(xs), size=n),
        ]
        for g, known in (specs[(i + si + 3) % 4], specs[(i + si + 1) % 4]):
            ops.append(Op(f"preserving.sufficient.{tag}",
                          lambda f=g, xs=xs: pm.sufficient_conditions(f, xs),
                          sufficient_oracle(g, xs, known), size=n))
    pairs = pm.pairs_from_grid(F(sc.grid[0]), F(sc.grid[1]))
    for f, _ in (specs[i % 4], specs[(i + 2) % 4]):
        ops.append(
            Op("preserving.euclid_grid",
               lambda f=f: pm.check_euclid_preserving_sampled(f, pairs),
               passes_with_hash([x for pair in pairs for x in pair]))
        )
    return ops


# ---------------------------------------------------------- padic-windows --


def random_rational(rng: Random, p: int) -> Fraction:
    x = F(rng.randint(1, 10**6) * rng.choice((1, -1)), rng.randint(1, 10**4))
    return x * F(p) ** rng.randint(-3, 3)


def increasing_window_ops(f, p: int, w: int) -> list[Op]:
    win = pm.ExponentWindow(-w, w)

    def passing(out):
        return expect(
            out.passed and out.witness is None and out.window == win,
            "expected a passing window verdict",
        )

    return [
        Op(f"padic_preserving.p_metric.w{w}",
           lambda: pm.check_p_metric_preserving(f, p, win), passing, size=w),
        Op(f"padic_preserving.p_ultra.w{w}",
           lambda: pm.check_p_ultrametric_preserving(f, p, win), passing, size=w),
    ]


def padic_batch_ops(rng: Random, sc: Scale) -> list[Op]:
    ops = []
    for p, tag in PRIME_BITS.items():
        xs = [random_rational(rng, p) for _ in range(sc.batch)]
        ys = [x + random_rational(rng, p) * F(p) ** rng.randint(0, 4) for x in xs]
        ops += [
            Op(f"padic.distance.{tag}",
               lambda xs=xs, ys=ys, p=p: tuple(pm.padic_distance(x, y, p) for x, y in zip(xs, ys)),
               lambda out, xs=xs, ys=ys, p=p: expect(
                   out == tuple(oracle.pdist(x, y, p) for x, y in zip(xs, ys)),
                   "distances differ"),
               calls=sc.batch, unit="us", size=p.bit_length()),
            Op(f"padic.valuation.{tag}",
               lambda xs=xs, p=p: tuple(pm.valuation(x, p) for x in xs),
               lambda out, xs=xs, p=p: expect(out == tuple(oracle.vp(x, p) for x in xs),
                                              "valuations differ"),
               calls=sc.batch, unit="us", size=p.bit_length()),
        ]
    for high in sc.highs:
        p = rng.choice((3, 5, 7))
        xs = [random_rational(rng, p) for _ in range(max(1, sc.batch // 4))]

        def digits_ok(out, xs=xs, p=p, high=high):
            for x, dw in zip(xs, out):
                low = min(0, oracle.vp(x, p))
                partial = sum((d * F(p) ** (low + i) for i, d in enumerate(dw.digits)), F(0))
                rest = x - partial
                if (dw.p, dw.low, dw.high) != (p, low, high) or any(not 0 <= d < p for d in dw.digits):
                    return f"digit window of {x} has the wrong shape"
                if rest != 0 and oracle.vp(rest, p) <= high:
                    return f"digits of {x} do not agree to order {high}"
            return None

        ops.append(
            Op(f"padic.digit_window.high{high}",
               lambda xs=xs, p=p, high=high: tuple(pm.digit_window(x, p, high) for x in xs),
               digits_ok, calls=len(xs), unit="us", size=high)
        )
    return ops


def function_ops(rng: Random, sc: Scale) -> list[Op]:
    k = sc.batch
    table = {F(0): F(0)}
    table.update(zip(rationals(rng, 2 * k, 16), rationals(rng, 2 * k, 16)))
    tab = pm.Tabulated.from_mapping(table)
    tab_keys = rng.sample(sorted(table), k)

    pl = concave_pl(rng)
    pl_xs = rationals(rng, k, 12)

    def pl_value(x):
        pts = pl.points
        if x >= pts[-1][0]:
            return pts[-1][1]
        (x0, y0), (x1, y1) = next((a, b) for a, b in zip(pts, pts[1:]) if a[0] <= x < b[0])
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)

    step = banded_step(rng)
    step_xs = rationals(rng, k, 12)

    def step_value(x):
        below = [v for t, v in step.points if t <= x]
        return below[-1] if below else step.below

    p, q = rng.choice([(2, 3), (3, 2), (5, 7), (7, 5)])
    pmap = pm.PowerMap(p, q)
    pm_ks = [rng.randint(-20, 20) for _ in range(k)]

    shift = pm.PrimeShift()
    ps_points = [(b, e) for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for e in (-2, -1, 1, 2)]
    ps_points = [rng.choice(ps_points) for _ in range(k)]

    specs = [tab, pl, step, pmap, shift, pm.Canonical(), pm.Reciprocal()]
    picks = [rng.randrange(len(specs)) for _ in range(k)]
    js = [json.loads(json.dumps(specs[i].to_json_dict())) for i in picks]

    def batch(name, fn, want):
        return Op(name, fn, lambda out: expect(out == tuple(want()), f"{name} values differ"),
                  calls=k, unit="us")

    return [
        batch("functions.eval.tabulated", lambda: tuple(tab(x) for x in tab_keys),
              lambda: (table[x] for x in tab_keys)),
        batch("functions.eval.piecewise_linear", lambda: tuple(pl(x) for x in pl_xs),
              lambda: (pl_value(x) for x in pl_xs)),
        batch("functions.eval.step", lambda: tuple(step(x) for x in step_xs),
              lambda: (step_value(x) for x in step_xs)),
        batch("functions.eval.power_map", lambda: tuple(pmap(F(p) ** e) for e in pm_ks),
              lambda: (F(q) ** e for e in pm_ks)),
        batch("functions.eval.prime_shift", lambda: tuple(shift(F(b) ** e) for b, e in ps_points),
              lambda: (F(oracle.next_prime(b)) ** e for b, e in ps_points)),
        batch("functions.from_json", lambda: tuple(pm.spec_from_json_dict(j) for j in js),
              lambda: (specs[i] for i in picks)),
    ]


def witness_triple_op(rng: Random, sc: Scale) -> Op:
    args = []
    for _ in range(sc.batch):
        p = rng.choice((2, 3, 5, 7, 257))
        n = rng.randint(-20, 19)
        args.append((p, rng.randint(n + 1, 20), n))

    def check(out):
        for (p, m, n), (x, y, z) in zip(args, out):
            legs, base = F(p) ** m, F(p) ** n
            got = (oracle.pdist(x, z, p), oracle.pdist(z, y, p), oracle.pdist(x, y, p))
            if got != (legs, legs, base):
                return f"witness triple for p={p}, m={m}, n={n} measures {got}"
        return None

    return Op("padic_preserving.witness_triple",
              lambda: tuple(pm.witness_triple(*a) for a in args),
              check, calls=len(args), unit="us")


def extend_op(f, p: int, w: int) -> Op:
    win = pm.ExponentWindow(-w, w)

    def check(out):
        pts = tuple((F(p) ** k, f(F(p) ** k)) for k in range(-w, w + 1))
        return expect(out == pm.StepFunction(pts[0][1], pts),
                      "extension differs from the window values")

    return Op(f"padic_preserving.extend.w{w}",
              lambda: pm.extend_to_ultrametric_preserving(f, p, win), check, size=w)


def padic_windows(rng: Random, sc: Scale, i: int) -> list[Op]:
    """p-adic arithmetic, function evaluation and window checks; no triplet scans.

    The window checks cost very different amounts at p = 3, 5 and 257, so
    the prime and the power map follow the pass index rather than the
    generator: every run then holds the same mix, whatever its seed.
    """
    p, q = [(2, 3), (3, 5), (5, 7), (3, 2), (7, 5)][i // 3 % 5]
    increasing = [pm.Canonical(), pm.PowerMap(p, q)]
    f = increasing[i % 2]
    check_p = (3, 5, 257)[i % 3]
    ops = padic_batch_ops(rng, sc)
    # PrimeShift is certified only on (1/p_last, p_last), so it is checked at
    # p = 2 on the smallest window only, every third pass.
    if i % 3 == 2:
        ops += increasing_window_ops(pm.PrimeShift(), 2, sc.windows[0])
    else:
        ops += increasing_window_ops(f, check_p, sc.windows[0])
    ops += increasing_window_ops(f, check_p, sc.windows[1])
    # both increasing specs on the widest window, so the slowest call is a
    # tenth of the pass and the p95 falls inside its block
    for g in increasing:
        ops += increasing_window_ops(g, check_p, sc.windows[2])
    ops += [witness_triple_op(rng, sc), extend_op(f, check_p, sc.windows[1])]
    return ops + function_ops(rng, sc)


# --------------------------------------------------- ultrametric-families --


def level_pool(rng: Random, count: int) -> list[Fraction]:
    return rationals(rng, count, 8)


def relabeled(space: pm.FiniteUltrametricSpace, perm: list[int]) -> pm.FiniteUltrametricSpace:
    """Point perm[i] of the result is point i of ``space``."""
    n = space.n
    inv = [0] * n
    for i, j in enumerate(perm):
        inv[j] = i
    rows = tuple(tuple(space.dist[inv[a]][inv[b]] for b in range(n)) for a in range(n))
    return pm.FiniteUltrametricSpace(tuple(f"r{i}" for i in range(n)), rows)


def chain_ops(rng: Random, k: int) -> list[Op]:
    chain = rationals(rng, k, 12)
    fam = pm.SpaceFamily((comb_space(chain),))
    ground = tuple([F(0)] + chain)
    full_chain = {(a, b) for a in ground for b in ground if a <= b}
    f = pm.Canonical()
    want_ext = pm.StepFunction(f(chain[0]), tuple((v, f(v)) for v in chain))
    tag = f"k{k}"
    return [
        Op(f"families.family_poset.{tag}", lambda: pm.family_poset(fam),
           lambda out: expect(out.ground == ground and out.pairs == full_chain,
                              "comb poset is not the full chain"), size=k),
        Op(f"families.check_family_preserving.{tag}",
           lambda: pm.check_family_preserving(f, fam),
           lambda out: expect(out.passed, "increasing map must preserve a comb"), size=k),
        Op(f"families.build_extension.{tag}", lambda: pm.build_extension(f, fam),
           lambda out: expect(out == want_ext, "extension differs from f on the chain"), size=k),
    ]


def survey_ops(rng: Random, sc: Scale) -> list[Op]:
    fams = [random_family(rng) for _ in range(sc.families)]
    mats = [[s.dist for s in fam.spaces] for fam in fams]
    f = pm.Canonical()

    def want_ext(m):
        ground, order = oracle.family_values(m), oracle.family_order(m)
        positives = [v for v in ground if v > 0]
        if not oracle.is_total(ground, order):
            return Raised("NotTotallyOrderedError")
        if not positives:
            return Raised("NoPositiveDistancesError")
        return pm.StepFunction(f(positives[0]), tuple((v, f(v)) for v in positives))

    def posets_ok(out):
        for poset, m in zip(out, mats):
            if list(poset.ground) != oracle.family_values(m) or poset.pairs != oracle.family_order(m):
                return "survey poset differs from the re-derived order"
        return None

    return [
        Op("families.family_poset.survey", lambda: tuple(pm.family_poset(x) for x in fams),
           posets_ok, calls=len(fams)),
        Op("families.check_family_preserving.survey",
           lambda: tuple(pm.check_family_preserving(f, x) for x in fams),
           lambda out: expect(all(r.passed for r in out), "increasing map must preserve"),
           calls=len(fams)),
        Op("families.build_extension.survey",
           lambda: tuple(call(pm.build_extension, f, x) for x in fams),
           lambda out: expect(out == tuple(want_ext(m) for m in mats), "survey extensions differ"), calls=len(fams)),
    ]


def ultrametric_families(rng: Random, sc: Scale, i: int) -> list[Op]:
    """Valid dendrogram spaces and comb chains: cubic validation, Gram
    elimination and poset closure, all on inputs that pass.

    Validation at the middle size runs twice, and both calls at the largest
    size: the two middle validations then sit at the median with ten calls
    below and ten above, and the p95 inside the block of the two largest
    embeddings.
    """
    small, mid, large = sc.points
    ops = []
    for n, embed in ((small, True), (mid, True), (mid, False), (large, True), (large, True)):
        space = random_ultrametric(rng, n, level_pool(rng, 8))
        cand = space.candidate()
        ops.append(Op(f"spaces.validate.n{n}", lambda cand=cand: pm.validate_ultrametric(cand),
                      lambda out, s=space: expect(out == s, "valid space was not accepted"),
                      size=n))
        if embed:
            ops.append(Op(f"spaces.embedding_dimension.n{n}",
                          lambda space=space: pm.embedding_dimension(space),
                          lambda out, n=n: expect(out == n - 1, "dimension is not n - 1"),
                          size=n))
    for k in sc.chains:
        ops += chain_ops(rng, k)
    a = random_ultrametric(rng, sc.iso, SIX_VALUE_POOL)
    perm = list(range(sc.iso))
    rng.shuffle(perm)
    b = relabeled(a, perm)

    def iso_ok(out, a=a, b=b):
        return expect(
            out is not None
            and sorted(out) == list(range(a.n))
            and all(b.dist[out[i]][out[j]] == a.dist[i][j]
                    for i in range(a.n) for j in range(a.n)),
            "search did not return an isometry",
        )

    ops.append(Op(f"spaces.isometry_search.n{sc.iso}",
                  lambda a=a, b=b: pm.isometry_search(a, b), iso_ok, size=sc.iso))
    ops += survey_ops(rng, sc)
    return ops


# ----------------------------------------------------------- witness-hunt --


def hunting_table(rng: Random, n: int):
    """Keys 0 < x_1 < ... < M/2 < M with M = 16, identity values."""
    top = F(16)
    keys = [F(0)] + rationals(rng, n - 3, 7) + [top / 2, top]
    return keys, {x: x for x in keys}


def tabulated(values: dict) -> pm.Tabulated:
    return pm.Tabulated(tuple(sorted(values.items())))


def scan_reject_ops(rng: Random, n: int) -> list[Op]:
    keys, ident = hunting_table(rng, n)
    x1, x2, half, top = keys[1], keys[2], keys[-2], keys[-1]
    # early: f(x1) = 3 x2 breaks the triangle at (x1, x2, x2) and the
    # 2-band at the pair (x1, x2); late: only the two largest keys misbehave
    early = tabulated({**ident, x1: 3 * x2})
    metric_late = tabulated({**ident, top: top + F(1, 7)})
    ultra_early = tabulated({**ident, x1: x2 + 1})
    ultra_late = tabulated({**ident, half: top + 1})
    u2m_late = tabulated({**ident, half: 2 * top + 1})

    def triple_check(f, want):
        def check(out):
            w = out.witness
            if out.passed or w is None or w.kind != "triple" or w.points != want:
                return f"expected triple witness {want}, got {w}"
            imgs = tuple(f(x) for x in w.points)
            return first_problem(
                expect(w.images == imgs, "witness images are not f(points)"),
                expect(oracle.is_tri(*w.points) and not oracle.is_tri(*imgs),
                       "witness does not break the triangle family"),
            )
        return check

    def pair_check(f, want, factor):
        def check(out):
            w = out.witness
            if out.passed or w is None or w.kind != "pair" or w.points != want:
                return f"expected pair witness {want}, got {w}"
            a, b = w.points
            return expect(a < b and f(a) > factor * f(b) and w.images == (f(a), f(b)),
                          "pair witness does not re-measure")
        return check

    tag = f"n{n}"
    return [
        Op(f"preserving.metric_reject_early.{tag}",
           lambda: pm.check_metric_preserving_sampled(early, keys),
           triple_check(early, (x1, x2, x2)), size=n),
        Op(f"preserving.metric_reject_late.{tag}",
           lambda: pm.check_metric_preserving_sampled(metric_late, keys),
           triple_check(metric_late, (half, half, top)), size=n),
        Op(f"preserving.ultra_reject_early.{tag}",
           lambda: pm.check_ultrametric_preserving(ultra_early, keys),
           pair_check(ultra_early, (x1, x2), 1), size=n),
        Op(f"preserving.ultra_reject_late.{tag}",
           lambda: pm.check_ultrametric_preserving(ultra_late, keys),
           pair_check(ultra_late, (half, top), 1), size=n),
        Op(f"preserving.ultra_to_metric_reject_early.{tag}",
           lambda: pm.check_ultra_to_metric(early, keys),
           pair_check(early, (x1, x2), 2), size=n),
        Op(f"preserving.ultra_to_metric_reject_late.{tag}",
           lambda: pm.check_ultra_to_metric(u2m_late, keys),
           pair_check(u2m_late, (half, top), 2), size=n),
    ]


def perturbed(rng: Random, n: int, late: bool):
    """A valid space with one pair pushed above every other distance.

    The only strong-triangle breaches are then (i0, j0, k) and (j0, i0, k),
    so the least one is (i0, j0, k*) with k* the least other index.
    """
    space = random_ultrametric(rng, n, level_pool(rng, 6))
    i0, j0 = (n - 2, n - 1) if late else (0, 1)
    top = max(v for row in space.dist for v in row) + 1
    rows = [list(r) for r in space.dist]
    rows[i0][j0] = rows[j0][i0] = top
    k = min(set(range(n)) - {i0, j0})
    cand = pm.DistanceMatrixCandidate(space.labels, tuple(tuple(r) for r in rows))
    return cand, (i0, j0, k)


def violation_check(cand, want):
    d = cand.dist

    def check(out):
        if type(out).__name__ != "TriangleViolation" or (out.i, out.j, out.k) != want:
            return f"expected violation at {want}, got {out}"
        i, j, k = want
        return expect(out.sides == (d[i][j], d[i][k], d[k][j]) and d[i][j] > max(d[i][k], d[k][j]),
                      "violation sides do not re-measure")

    return check


def non_total_family(rng: Random, block: int) -> pm.SpaceFamily:
    """Two dendrogram blocks on disjoint level sets, joined above both.

    A level of one block is never a base or a leg next to a level of the
    other, so the two level sets are pairwise incomparable.
    """
    levels = level_pool(rng, 6)
    rng.shuffle(levels)
    a = random_ultrametric(rng, block, levels[:3], prefix="a")
    b = random_ultrametric(rng, block, levels[3:], prefix="b")
    join = max(levels) + 1
    n = 2 * block
    rows = tuple(
        tuple(
            (a.dist[i][j] if i < block and j < block
             else b.dist[i - block][j - block] if i >= block and j >= block
             else join)
            for j in range(n)
        )
        for i in range(n)
    )
    return pm.SpaceFamily((pm.FiniteUltrametricSpace(a.labels + b.labels, rows),))


def window_witness_check(f, p: int, w: int, kind: str):
    """The first failing pair in the documented scan order, re-found here,
    and its triple re-measured."""

    def check(out):
        vals = {k: f(F(p) ** k) for k in range(-w, w + 1)}
        if kind == "band":
            pairs = sorted(((m, n) for m in range(-w, w + 1) for n in range(m + 1, w + 1)),
                           key=lambda t: (abs(t[0]) + abs(t[1]), t[0], t[1]))
            m, n = next((m, n) for m, n in pairs if vals[m] > 2 * vals[n])
        else:
            m = next(k for k in sorted(range(-w, w), key=lambda k: (abs(k), k))
                     if vals[k] > vals[k + 1])
            n = m + 1
        wit = out.witness
        if out.passed or out.reason != kind or (wit.m, wit.n) != (m, n):
            return f"expected {kind} witness at ({m}, {n}), got {out}"
        x, y, z = wit.triple
        legs = (oracle.pdist(x, z, p), oracle.pdist(z, y, p), oracle.pdist(x, y, p))
        imgs = (vals[n], vals[n], vals[m])
        broken = not oracle.is_tri(*imgs) if kind == "band" else not oracle.is_strong(*imgs)
        return first_problem(
            expect(legs == (F(p) ** n, F(p) ** n, F(p) ** m), "witness triple distances differ"),
            expect(wit.images == imgs and broken, "witness images do not break the family"),
        )

    return check


def window_reject_ops(rng: Random, w: int) -> list[Op]:
    p = rng.choice((2, 3, 5))
    win = pm.ExponentWindow(-w, w)
    recip = pm.Reciprocal()
    cliff = pm.StepFunction(F(3), ((F(p) ** (w - 2), F(1)),))
    ops = []
    for when, f in (("early", recip), ("late", cliff)):
        ops += [
            Op(f"padic_preserving.p_metric_reject_{when}.w{w}",
               lambda f=f: pm.check_p_metric_preserving(f, p, win),
               window_witness_check(f, p, w, "band"), size=w),
            Op(f"padic_preserving.p_ultra_reject_{when}.w{w}",
               lambda f=f: pm.check_p_ultrametric_preserving(f, p, win),
               window_witness_check(f, p, w, "adjacent"), size=w),
        ]
    return ops


def run_cli(argv: list[str], stdin_text: str = "") -> CliResult:
    """``padicmetrics.cli.main`` in-process, stdin fed and stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue())


def cli_ops(rng: Random, sc: Scale) -> list[Op]:
    ops = []

    def add(verb, argv, code, payload_check, stdin_text=""):
        def check(out):
            if out.code != code:
                return f"cli {verb}: exit {out.code}, expected {code}"
            return payload_check(out.payload())
        ops.append(Op(f"cli.main.{verb}", lambda: run_cli(argv, stdin_text), check))

    n = sc.points[0]
    cand, want = perturbed(rng, n, late=True)
    inner = violation_check(cand, want)

    def validate_ok(payload):
        wit = payload["witness"]
        sides = tuple(F(v) for v in wit["sides"])
        viol = pm.TriangleViolation(wit["i"], wit["j"], wit["k"], sides)
        return first_problem(expect(payload["valid"] is False, "space reported valid"),
                             inner(viol))

    add("space_validate", ["space", "validate", "--file", "-"], 1, validate_ok,
        json.dumps(cand.to_json_dict()))

    w = sc.windows[0] // 2
    recip_check = window_witness_check(pm.Reciprocal(), 3, w, "band")

    def padic_check_ok(payload):
        wit = payload["witness"]
        verdict = pm.PreservationVerdict(
            payload["passed"], pm.ExponentWindow(-w, w), payload["reason"],
            pm.WindowWitness("band", wit["m"], wit["n"], tuple(F(v) for v in wit["triple"]),
                             tuple(F(v) for v in wit["images"])),
        )
        return recip_check(verdict)

    add("fn_padic_check",
        ["fn", "padic-check", "--spec", '{"kind":"reciprocal"}', "--p", "3", f"--window=-{w}:{w}"],
        1, padic_check_ok)

    chain = rationals(rng, sc.chains[0], 12)
    fam = pm.SpaceFamily((comb_space(chain),))
    down = tabulated({F(0): F(0), **{v: F(len(chain) - i) for i, v in enumerate(chain)}})

    def class_check_ok(payload):
        ow, sw = payload["order_witness"], payload["space_witness"]
        s, t = (F(v) for v in ow["points"])
        i, j, k = sw["triple"]
        d = fam.spaces[0].dist
        return first_problem(
            expect(payload["passed"] is False and ow["kind"] == "pair", "expected an order pair"),
            expect((s, t) == (chain[0], chain[1]) and down(s) > down(t), "order pair differs"),
            expect(sw["kind"] == "strong_triangle"
                   and down(d[i][j]) > max(down(d[i][k]), down(d[k][j])),
                   "space witness does not re-measure"),
        )

    add("class_check", ["class", "check", "--file", "-", "--spec", json.dumps(down.to_json_dict())],
        1, class_check_ok, json.dumps(fam.to_json_dict()))

    # the README's criterion-4 witness on the default grid {0, 1/8, ..., 8}
    zig = fixtures.zigzag_map()
    zig_pts = (F(3, 4), F(23, 8), F(29, 8))

    def euclid_ok(payload):
        wit = payload["witness"]
        imgs = [zig(x) for x in zig_pts]
        return expect(
            [F(v) for v in wit["points"]] == list(zig_pts)
            and [F(v) for v in wit["images"]] == imgs
            and not oracle.is_tri(*imgs)
            and payload["pair_count"] == len(pm.pairs_from_grid(F(1, 8), F(8))),
            f"zigzag witness should be {zig_pts}",
        )

    add("fn_euclid", ["fn", "euclid", "--spec", json.dumps(zig.to_json_dict())], 1, euclid_ok)
    asym = cand.to_json_dict()
    asym["d"][0][1] = str(F(asym["d"][0][1]) + 1)
    invalid = [
        (["padic", "abs", "--p", "4", "--x", "3"], "not_prime", ""),
        (["padic", "ord", "--p", "3", "--x", "0"], "ord_of_zero", ""),
        (["padic", "digits", "--p", "3", "--x", "1/3", "--high=-5"], "invalid_input", ""),
        (["fn", "eval", "--spec", '{"kind":"nope"}', "--x", "1"], "invalid_input", ""),
        (["fn", "witness", "--p", "3", "--m", "1", "--n", "2"], "bad_order", ""),
        (["space", "validate", "--file", "-"], "asymmetric", json.dumps(asym)),
    ]
    for argv, error, stdin_text in invalid:
        add("invalid_input", argv, 2,
            lambda payload, error=error: expect(payload["error"] == error, f"expected {error}"),
            stdin_text)
    add("examples_reproduce", ["examples", "reproduce"], 1, reproduce_ok)
    return ops


def reproduce_ok(payload) -> str | None:
    failed = [f["name"] for f in payload["fixtures"] if not f["passed"]]
    return expect(payload["failed"] == 1 and failed == ["zigzag-euclid-grid"],
                  f"expected only the zigzag fixture to fail, got {failed}")


def witness_hunt(rng: Random, sc: Scale, i: int) -> list[Op]:
    """Inputs that must fail, with the witness early or late in scan order,
    plus the CLI and the fixture battery.

    Six cheap invalid-input CLI calls put thirteen calls below the three
    early scan rejections (about 10 ms each) and thirteen above, so the
    median falls in the middle of that block.
    """
    ops = scan_reject_ops(rng, sc.hunt_n)
    # a second late metric witness: the two slowest calls of the pass then
    # hold the p95 inside their block
    ops.append(scan_reject_ops(rng, sc.hunt_n)[1])
    for n in sc.points:
        cand, want = perturbed(rng, n, late=True)
        ops.append(Op(f"spaces.validate_reject.n{n}",
                      lambda cand=cand: pm.validate_ultrametric(cand),
                      violation_check(cand, want), size=n))
    cand, want = perturbed(rng, sc.points[-1], late=False)
    ops.append(Op(f"spaces.validate_reject_early.n{sc.points[-1]}",
                  lambda: pm.validate_ultrametric(cand), violation_check(cand, want)))
    fam = non_total_family(rng, max(2, sc.iso // 2))
    mats = [s.dist for s in fam.spaces]

    def cex_ok(out):
        if isinstance(out, Raised):
            return f"counterexample raised {out.name}"
        ran = oracle.family_values(mats)
        images = [[[out(v) for v in row] for row in d] for d in mats]
        return first_problem(
            expect(out(F(0)) == 0 and [k for k, _ in out.entries] == ran,
                   "counterexample is not tabulated on the family's values"),
            expect(all(oracle.is_ultrametric_image(m) for m in images),
                   "counterexample does not preserve the family"),
            expect(any(out(s) > out(t) for j, s in enumerate(ran) for t in ran[j + 1:]),
                   "counterexample is increasing"),
        )

    ops += [
        Op("families.counterexample", lambda: call(pm.counterexample_function, fam), cex_ok),
        Op("families.build_extension_reject",
           lambda: call(pm.build_extension, pm.Canonical(), fam),
           lambda out: expect(out == Raised("NotTotallyOrderedError"),
                              "expected NotTotallyOrderedError")),
    ]
    ops += window_reject_ops(rng, sc.windows[1])
    ops += cli_ops(rng, sc)
    ops.append(Op("fixtures.run_all", fixtures.run_all,
                  lambda out: reproduce_ok({"failed": sum(not r.passed for r in out),
                                            "fixtures": [r.to_json_dict() for r in out]})))
    return ops


GENERATORS = {
    "sampled-checks": sampled_checks,
    "padic-windows": padic_windows,
    "ultrametric-families": ultrametric_families,
    "witness-hunt": witness_hunt,
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    return Workload(name, seed, SCALES[scale], GENERATORS[name])
