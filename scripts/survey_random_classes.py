#!/usr/bin/env python3
"""Random survey of small space families and their distance orders.

For each trial a random family of finite ultrametric spaces is generated
and three questions are asked: is the induced distance order total, does a
random tabulation preserve the family (the checker runs its two internal
routes on every call, so a single disagreement would abort the survey),
and do extension/counterexample constructions deliver what they promise.
Fixed seed, so reruns print identical numbers.
"""

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

from padicmetrics import (
    Tabulated,
    build_extension,
    check_family_preserving,
    counterexample_function,
    family_poset,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from support import random_family  # noqa: E402

IMAGES = tuple(Fraction(v) for v in ("0", "1/4", "1/2", "1", "3/2", "2", "4"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-spaces", type=int, default=3)
    parser.add_argument("--max-points", type=int, default=5)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    totals = 0
    preserving = 0
    extensions = 0
    counterexamples = 0
    for _ in range(args.trials):
        family = random_family(rng, args.max_spaces, args.max_points)
        poset = family_poset(family)
        values = poset.ground

        table = {v: (rng.choice(IMAGES) if v > 0 else Fraction(0)) for v in values}
        f = Tabulated.from_mapping(table)
        if check_family_preserving(f, family).passed:
            preserving += 1

        if poset.is_total():
            totals += 1
            positives = [v for v in values if v > 0]
            if positives:
                images = sorted(rng.choice(IMAGES[1:]) for _ in positives)
                isotone = Tabulated.from_mapping(
                    {Fraction(0): Fraction(0), **dict(zip(positives, images))}
                )
                g = build_extension(isotone, family)
                if not check_family_preserving(g, family).passed:
                    print(f"extension {g} does not preserve its family", file=sys.stderr)
                    return 1
                extensions += 1
        else:
            fn = counterexample_function(family)
            if not check_family_preserving(fn, family).passed:
                print(f"counterexample {fn} does not preserve its family", file=sys.stderr)
                return 1
            counterexamples += 1

    print(f"trials                     {args.trials}")
    print(f"total distance orders      {totals}")
    print(f"random tabulation passes   {preserving}")
    print(f"extensions built + passed  {extensions}")
    print(f"counterexamples verified   {counterexamples}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
