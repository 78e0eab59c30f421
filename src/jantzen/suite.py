"""Deterministic antidominant weight families used by batch verification.

Per type the suite contains the regular integral weight -rho, one
singular integral weight for every nonempty subset J of the simple roots
(coordinates 0 on J, -1 elsewhere), two fixed nonintegral patterns, and
one seeded nonintegral pattern.  All coordinates are nonpositive, which
makes every weight antidominant: each positive coroot has nonnegative
coordinates, so no pairing can be a positive integer.
"""

from __future__ import annotations

import random
from fractions import Fraction

from jantzen.blocks import DefectError
from jantzen.roots import RootSystem, Weight, is_antidominant

ACCEPTANCE_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")

_POOL = (
    Fraction(0),
    Fraction(-1),
    Fraction(-2),
    Fraction(-1, 2),
    Fraction(-3, 2),
    Fraction(-1, 3),
    Fraction(-2, 3),
)


def suite_weights(rs: RootSystem, seed: int = 0) -> tuple:
    """Labelled antidominant weights covering all block shapes for rs."""
    n = rs.rank
    out = [("regular", Weight.of(*([-1] * n)))]
    for mask in range(1, 1 << n):
        J = [i for i in range(n) if mask >> i & 1]
        coords = [0 if i in J else -1 for i in range(n)]
        label = "singular-J" + ",".join(str(i + 1) for i in J)
        out.append((label, Weight.of(*coords)))
    if n == 1:
        out.append(("nonintegral-half", Weight.of(Fraction(-1, 2))))
        out.append(("nonintegral-third", Weight.of(Fraction(-1, 3))))
    else:
        cycle = (Fraction(0), Fraction(-1, 2), Fraction(-1))
        out.append(
            ("nonintegral-half", Weight.of(*([Fraction(-1, 2)] * n)))
        )
        out.append(
            ("nonintegral-mixed", Weight.of(*[cycle[i % 3] for i in range(n)]))
        )
    rng = random.Random(seed)
    seen = {w.coords for _, w in out}
    while True:
        coords = tuple(rng.choice(_POOL) for _ in range(n))
        if all(c.denominator == 1 for c in coords) or coords in seen:
            continue
        out.append(("nonintegral-seeded", Weight.of(*coords)))
        break
    for label, w in out:
        if not is_antidominant(rs, w):
            raise DefectError(f"suite weight {label} is not antidominant")
    return tuple(out)
