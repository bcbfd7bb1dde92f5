"""Independent re-measurement of the package's answers.

Nothing here calls the package's own checks: distances, triangle families,
posets and witnesses are recomputed from their definitions, so a verdict
or witness the benchmark accepts has been confirmed by a second route.
Function specs are evaluated through their own ``__call__``, since an
image is a value of the spec, not a verdict about it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

F = Fraction


@dataclass(frozen=True)
class Raised:
    """An exception raised by a call, reduced to its class name."""

    name: str

    def to_json_dict(self) -> dict:
        return {"raised": self.name}


@dataclass(frozen=True)
class CliResult:
    """Exit code and captured stdout of one in-process CLI call."""

    code: int
    stdout: str

    def to_json_dict(self) -> dict:
        return {"exit": self.code, "stdout": self.stdout}

    def payload(self) -> dict:
        return json.loads(self.stdout)


def canon(out):
    """Reduce an output to plain JSON data, via ``to_json_dict`` where it exists."""
    if hasattr(out, "to_json_dict"):
        return out.to_json_dict()
    if isinstance(out, Fraction):
        return str(out)
    if isinstance(out, (list, tuple)):
        return [canon(v) for v in out]
    if isinstance(out, dict):
        return {str(k): canon(v) for k, v in sorted(out.items())}
    return out


def canon_json(out) -> str:
    return json.dumps(canon(out), sort_keys=True, separators=(",", ":"))


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


def has_witness(out) -> bool:
    """True when an output is a negative answer: a failed verdict, a
    violation, an expected error, a counterexample or a nonzero exit."""
    if isinstance(out, Raised):
        return True
    if isinstance(out, CliResult):
        return out.code != 0
    if getattr(out, "kind", None) == "tabulated":  # counterexample function
        return True
    if hasattr(out, "passed"):
        return not out.passed
    if type(out).__name__ == "TriangleViolation":
        return True
    if isinstance(out, list) and out and hasattr(out[0], "passed"):
        return not all(r.passed for r in out)
    return False


# --------------------------------------------------------------- p-adic --


def mult(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def vp(x: Fraction, p: int) -> int:
    return mult(x.numerator, p) - mult(x.denominator, p)


def pdist(x: Fraction, y: Fraction, p: int) -> Fraction:
    diff = F(x) - F(y)
    return F(0) if diff == 0 else F(p) ** (-vp(diff, p))


def next_prime(p: int) -> int:
    q = p + 1
    while any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        q += 1
    return q


# ------------------------------------------------------------- triplets --


def is_tri(a, b, c) -> bool:
    x, y, z = sorted((a, b, c))
    return z <= x + y


def is_strong(a, b, c) -> bool:
    _, y, z = sorted((a, b, c))
    return y == z


# --------------------------------------------------------------- spaces --


def strong_violation(d) -> tuple[int, int, int] | None:
    """Least (i, j, k) with d[i][j] > max(d[i][k], d[k][j])."""
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > max(d[i][k], d[k][j]):
                    return (i, j, k)
    return None


def is_ultrametric_image(d) -> bool:
    n = len(d)
    if any(d[i][i] != 0 for i in range(n)):
        return False
    if any(d[i][j] <= 0 for i in range(n) for j in range(n) if i != j):
        return False
    return strong_violation(d) is None


# ------------------------------------------------------------- families --


def family_values(spaces) -> list[Fraction]:
    vals = {F(0)}
    for d in spaces:
        vals.update(v for row in d for v in row)
    return sorted(vals)


def family_order(spaces) -> set[tuple[Fraction, Fraction]]:
    """Reflexive-transitive closure of the (base, leg) relation."""
    rel = set()
    for d in spaces:
        n = len(d)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if d[a][b] == d[b][c]:
                        rel.add((d[a][c], d[a][b]))
    ground = family_values(spaces)
    rel.update((t, t) for t in ground)
    up = {s: {t for (u, t) in rel if u == s} for s in ground}
    changed = True
    while changed:
        changed = False
        for s in ground:
            grown = set().union(*(up[t] for t in up[s]))
            if not grown <= up[s]:
                up[s] |= grown
                changed = True
    return {(s, t) for s in ground for t in up[s]}


def is_total(ground, order) -> bool:
    return all(
        (a, b) in order or (b, a) in order
        for i, a in enumerate(ground)
        for b in ground[i + 1 :]
    )
