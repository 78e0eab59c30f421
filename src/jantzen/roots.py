"""Root systems, exact weights, Kostant partition tables.

All arithmetic is exact.  Roots and coroots are integer vectors in the
simple-root and simple-coroot bases; a weight is a vector of rationals in
the pairing basis, ``coords[i] = <lambda, alpha_i^vee>``, held as a plain
record (``Weight``) of one integer form: ``den``, the least common
denominator of the coordinates, and the integer numerators
``num = den * coords``.  Weights carry no arithmetic of their own:
pairings and reflections are integer arithmetic on ``num`` over the same
``den`` (a reflection is an integer matrix with an integer inverse, so it
keeps ``den``).  ``Fraction``s appear only at the edges: parsing,
``coords`` and ``serialize``.
Bourbaki numbering fixes the Cartan matrices, with the convention
``cartan[i][j] = <alpha_j, alpha_i^vee>``, so ``rho`` is the all-ones
weight and the reflection in ``alpha_i`` subtracts ``coords[i]`` times the
i-th Cartan column.

The package's one reflection step on integer vectors (``reflect_vector``,
v - <v, a> b) and its one coroot pairing (``pairing_numerator``, the
integer pairing of a coroot with an integer vector: a weight's ``num``,
which gives den <w, alpha^vee>, or a root's weight coordinates) live here
too, as does its one form of the partition function: a table over all
positive roots truncated at a height (``partition_table``), scattered onto
shifted boxes by ``shifted_sum`` for every signed sum of shifted partition
functions a character check needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
from operator import add, mul, sub

# series -> rank -> its number of positive roots, None for a rank the
# series lacks
_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2 if n >= 1 else None,
    "B": lambda n: n * n if n >= 2 else None,
    "C": lambda n: n * n if n >= 2 else None,
    "D": lambda n: n * (n - 1) if n >= 3 else None,
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": {4: 24}.get,
    "G": {2: 6}.get,
}


@dataclass(frozen=True)
class LieType:
    series: str
    rank: int

    def __post_init__(self):
        count = _POSITIVE_COUNT.get(self.series)
        if count is None or not isinstance(self.rank, int) or count(self.rank) is None:
            raise ValueError(f"invalid Lie type {self.series}{self.rank}")

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """One letter and ASCII digits ("B3", "g2"), spaces around them
        stripped."""
        text = text.strip()
        digits = text[1:]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse Lie type {text!r}")
        return cls(text[0].upper(), int(digits))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def _cartan_matrix(t: LieType) -> tuple[tuple[int, ...], ...]:
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int) -> None:
        a[i][j] = -1
        a[j][i] = -1

    if t.series in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if t.series == "B" and n >= 2:
            a[n - 1][n - 2] = -2  # alpha_n short
        if t.series == "C" and n >= 2:
            a[n - 2][n - 1] = -2  # alpha_n long
    elif t.series == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif t.series == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        for i, j in edges:
            bond(i, j)
    elif t.series == "F":
        for i in range(3):
            bond(i, i + 1)
        a[2][1] = -2  # alpha_3 short
    elif t.series == "G":
        a[0][1] = -3  # alpha_1 short
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


def _close_roots(cartan) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Reflection closure of the simple (root, coroot) pairs.

    The reflection in alpha_i moves a root along the unit vector e_i by its
    pairing with Cartan row i, and a coroot by its pairing with Cartan
    column i."""
    n = len(cartan)
    units = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    steps = list(zip(cartan, zip(*cartan), units))
    seen = {e: e for e in units}
    frontier = list(units)
    while frontier:
        new = []
        for root in frontier:
            coroot = seen[root]
            for row, column, e in steps:
                r2 = reflect_vector(root, row, e)
                c2 = reflect_vector(coroot, column, e)
                if r2 not in seen:
                    seen[r2] = c2
                    new.append(r2)
                elif seen[r2] != c2:
                    raise AssertionError("inconsistent coroot closure")
        frontier = new
    # ordering: by height, then leftmost support first, so the simple roots
    # appear as alpha_1..alpha_n in Bourbaki order
    return sorted(
        ((r, c) for r, c in seen.items() if all(x >= 0 for x in r)),
        key=lambda rc: (sum(rc[0]), tuple(-x for x in rc[0])),
    )


class RootSystem:
    """Immutable root-system data for one finite type."""

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        self.cartan = _cartan_matrix(lie_type)
        pairs = _close_roots(self.cartan)
        self.positive_roots = tuple(r for r, _ in pairs)
        self.coroots = tuple(c for _, c in pairs)
        expected = _POSITIVE_COUNT[lie_type.series](lie_type.rank)
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"{lie_type}: got {len(self.positive_roots)} positive roots, "
                f"expected {expected}"
            )
        self._index = {r: i for i, r in enumerate(self.positive_roots)}
        # the Cartan image of each positive root: its weight coordinates
        self.root_weights = tuple(
            self.root_to_weight_coords(r) for r in self.positive_roots
        )
        self.simple_indices = tuple(
            self._index[tuple(1 if k == i else 0 for k in range(self.rank))]
            for i in range(self.rank)
        )

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def __repr__(self):
        return f"RootSystem({self.lie_type})"

    def is_root(self, vec) -> bool:
        vec = tuple(vec)
        return vec in self._index or tuple(-c for c in vec) in self._index

    def coroot_of(self, vec) -> tuple[int, ...]:
        """Coroot coordinates of a (positive or negative) root."""
        vec = tuple(vec)
        if vec in self._index:
            return self.coroots[self._index[vec]]
        return tuple(-c for c in self.coroots[self.reflection_index(vec)])

    def reflection_index(self, vec) -> int:
        """Index of the positive root among vec and -vec, which share a
        reflection; ValueError if vec is not a root."""
        vec = tuple(vec)
        i = self._index.get(vec)
        if i is None:
            i = self._index.get(tuple(-c for c in vec))
            if i is None:
                raise ValueError(f"{vec} is not a root of {self.lie_type}")
        return i

    def root_to_weight_coords(self, vec) -> tuple[int, ...]:
        """Pairings of a root-lattice vector against all simple coroots."""
        n = self.rank
        return tuple(
            sum(self.cartan[i][k] * vec[k] for k in range(n)) for i in range(n)
        )


def reflect_vector(v, a, b) -> tuple[int, ...]:
    """v - <v, a> b for integer vectors, <v, a> = pairing_numerator(v, a):
    the reflection step of roots, coroots and weight numerators alike."""
    p = pairing_numerator(v, a)
    return tuple([x - p * y for x, y in zip(v, b)])


@cache
def build_root_system(lie_type: LieType) -> RootSystem:
    return RootSystem(lie_type)


@dataclass(frozen=True, slots=True)
class Weight:
    """A weight in the pairing basis: coords[i] = <lambda, alpha_i^vee>.

    A record of ``den``, the least common denominator of the coordinates,
    and the integer numerators ``num = den * coords``.  ``of``, ``parse``
    and ``scaled`` build it in this unique form, so two weights are equal,
    and hash equal, iff their fields are; ``coords`` is derived on read.
    """

    den: int
    num: tuple[int, ...]

    @classmethod
    def scaled(cls, den: int, num: tuple) -> "Weight":
        """The weight num / den for a positive int den and a tuple of ints."""
        g = math.gcd(den, *num)
        if g != 1:
            den, num = den // g, tuple(n // g for n in num)
        return cls(den, num)

    @classmethod
    def of(cls, *values) -> "Weight":
        """The weight of these coordinates: ints, Fractions or their texts."""
        coords = [Fraction(c) for c in values]
        den = math.lcm(*(c.denominator for c in coords))
        return cls(den, tuple(c.numerator * (den // c.denominator) for c in coords))

    @classmethod
    def parse(cls, text: str) -> "Weight":
        """The weight of comma-separated rationals such as "1,-1/2": each
        an optional sign, ASCII digits and an optional "/" with ASCII
        digits, spaces around it stripped.  Decimal and exponent forms
        ("0.5", "1e1"), which ``Fraction`` would read, are refused."""
        try:
            parts = [p.strip() for p in plain_text(text).split(",")]
            if not all(map(_is_rational, parts)):
                raise ValueError("a coordinate is not an integer or a fraction")
            return cls.of(*parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse weight {text!r}") from exc

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    def serialize(self) -> str:
        return ",".join(str(c) for c in self.coords)


def _is_rational(text: str) -> bool:
    """text, which is ASCII, is an optional sign, digits and an optional
    "/" with digits: a weight coordinate as Weight.parse reads it."""
    body = text[1:] if text[:1] in ("+", "-") else text
    num, slash, den = body.partition("/")
    return num.isdigit() and (den.isdigit() or not slash)


def plain_text(text: str) -> str:
    """text if it is ASCII and holds no "_"; ValueError otherwise.

    ``int`` and ``Fraction`` also read digit group underscores and the
    digits and spaces of other scripts, which no input form of the
    package uses; parsers pass their input through this first."""
    if "_" in text or not text.isascii():
        raise ValueError(f"{text!r} holds '_' or a non-ASCII character")
    return text


def pairing_numerator(v, coroot) -> int:
    """<v, alpha^vee> for an integer vector v in weight coordinates and a
    coroot in simple-coroot coordinates; for a weight's ``num`` it is
    den <w, alpha^vee>."""
    return sum(map(mul, coroot, v))


def reflect(rs: RootSystem, w: Weight, root) -> Weight:
    """s_root(w) = w - <w, root^vee> root.

    Over the common denominator d of w, the numerators lose P times the
    Cartan image of the root, with P = d <w, root^vee> an integer."""
    k = rs.reflection_index(root)
    return Weight.scaled(w.den, reflect_vector(w.num, rs.coroots[k], rs.root_weights[k]))


def positive_integral_pairings(rs: RootSystem, w: Weight):
    """Yield (i, p) for each positive root alpha_i, in root order, whose
    pairing p = <w, alpha_i^vee> is a positive integer.

    The generator is lazy: a caller that stops early pairs only the
    coroots it has reached.
    """
    d = w.den
    for i, coroot in enumerate(rs.coroots):
        p = pairing_numerator(w.num, coroot)
        if p > 0 and p % d == 0:
            yield i, p // d


def is_antidominant(rs: RootSystem, w: Weight) -> bool:
    """True iff <w, alpha^vee> is not a positive integer for every alpha > 0.

    The check runs over all positive roots, not only the simple ones; for
    nonintegral weights the two conditions differ.
    """
    return next(positive_integral_pairings(rs, w), None) is None


# Most boxes one partition table may hold; a table of rank n and depth d
# has C(d + n, n) of them.
MAX_BOXES = 100_000


def check_box_limit(rs: RootSystem, depth: int) -> None:
    """ValueError if a partition table of this depth would hold more than
    MAX_BOXES boxes."""
    count = math.comb(depth + rs.rank, rs.rank) if depth >= 0 else 0
    if count > MAX_BOXES:
        raise ValueError(
            f"depth {depth} on {rs.lie_type} needs {count} partition "
            f"table boxes, over the limit of {MAX_BOXES}"
        )


@cache
def partition_table(rs: RootSystem, depth: int) -> dict:
    """Kostant partition counts on every box of height <= depth, keyed in
    boxes() order.

    One pass per positive root walks the boxes in order and adds the
    count at b - root to the count at b; b - root has smaller height, so
    its count already includes this root, and each root may be used any
    number of times.  Tables are memoised per (type, depth); callers read
    them and must not change them.  A table of more than MAX_BOXES boxes
    is refused by check_box_limit before anything is allocated.
    """
    check_box_limit(rs, depth)
    table = dict.fromkeys(boxes(rs.rank, depth), 0)
    if table:
        table[(0,) * rs.rank] = 1
    for root in rs.positive_roots:
        for b in table:
            prev = table.get(tuple(map(sub, b, root)))
            if prev:
                table[b] += prev
    return table


def partition_count(rs: RootSystem, beta) -> int:
    """Number of multiset decompositions of beta into positive roots: a
    lookup in the table of height(beta)."""
    if any(b != int(b) for b in beta):
        raise ValueError(f"offset {tuple(beta)} has a non-integral coordinate")
    beta = tuple(int(b) for b in beta)
    if len(beta) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(beta)}")
    if any(b < 0 for b in beta):
        return 0
    return partition_table(rs, sum(beta))[beta]


def shifted_sum(table: dict, terms) -> dict:
    """{b: sum of c * table[b - d] over the terms (c, d)} on every box b
    of the table; a box b - d outside the table counts 0.

    The table must hold every box of height <= its depth, keyed in
    boxes() order, as partition_table builds it.  The boxes of height
    <= depth - |d| are then its first C(depth - |d| + rank, rank) keys,
    and a term scatters c * table[e] onto e + d for those e only; a term
    with |d| > depth reaches no box.  ValueError if a shift has a
    negative coordinate, or if the table's box count is not that of every
    box up to the height of its last key.
    """
    terms = tuple(terms)
    for _, d in terms:
        if any(x < 0 for x in d):
            raise ValueError(f"shift {tuple(d)} has a negative coordinate")
    out = dict.fromkeys(table, 0)
    if not table:
        return out
    last = next(reversed(table))
    rank, depth = len(last), sum(last)
    if len(table) != math.comb(depth + rank, rank):
        raise ValueError(
            f"table of {len(table)} boxes does not hold every box up to height {depth}"
        )
    for c, d in terms:
        room = depth - sum(d)
        if room < 0:
            continue
        for e, v in islice(table.items(), math.comb(room + rank, rank)):
            if v:
                out[tuple(map(add, e, d))] += c * v
    return out


def boxes(rank: int, depth: int) -> list[tuple[int, ...]]:
    """All nonnegative integer vectors with sum <= depth, sorted by (sum, vector).

    The zero vector comes first.
    """
    out = [()]
    for _ in range(rank):
        out = [v + (c,) for v in out for c in range(depth - sum(v) + 1)]
    out.sort(key=lambda v: (sum(v), v))
    return out
