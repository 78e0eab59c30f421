"""Dense univariate polynomials with exact integer or rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest


class Poly:
    """Immutable univariate polynomial; ``coeffs[k]`` multiplies ``x**k``.

    Coefficients are Python ints or Fractions and are never coerced to
    floats.  Trailing zeros are stripped, so the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    @property
    def valuation(self) -> int:
        """Order of vanishing at 0; -1 for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return -1

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return Poly((0,) * k + self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Poly([a + b for a, b in pairs])

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def render(self, var: str = "q") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}{var}" + (f"^{k}" if k > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its number, so it hashes as that number
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeffs[0]) if self.coeffs else 0

    def __repr__(self):
        return f"Poly({self.coeffs})"


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    raise TypeError(f"cannot treat {value!r} as a polynomial")

