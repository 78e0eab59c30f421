"""Kazhdan-Lusztig polynomials over an abstract finite Coxeter system.

A table is one column per element w: the map x -> P(x, w) over the x
below w, so "x <= w" is "x is a key of column w".  As in du Cloux's
Coxeter (Experiment. Math. 11, 2002), column w is built whole, x
descending, and most entries are copies by the descent rule of Kazhdan
and Lusztig (Invent. Math. 53, 1979, (2.3.g)): P(x, w) = P(xr, w) for a
right descent r of w with xr > x, and P(x, w) = P(rx, w) for a left
descent r of w with rx > x; xr and rx lie below w, one step above x.
Only the extremal x, which have every descent of w, take the recursion
from column v = ws, s the first right descent of w:

    P(x, w) = q P(x, v) + P(xs, v) - sum_z mu(z, v) q^((l(w)-l(z))/2) P(x, z)

where z runs over the mu-list of v: the z with zs < z and nonvanishing
mu(z, v) (the coefficient of q^((l(v)-l(z)-1)/2) in P(z, v)), read off
column v while column w is built.  The x below w are the u and us for u
below v; the column lists them ascending.  Everything is exact integer
arithmetic: each P(x, w) is formed in one list of integer coefficients,
and a table keeps one ``Poly``, the entry type, per distinct coefficient
tuple.  A build verifies the degree bound, constant term 1 and
coefficient nonnegativity on every entry the recursion forms
(``entry_defect``, which the file reader shares) and treats violations
as hard defects; a copy inherits the check of the entry it copies.
Inverse polynomials Q(x, w) = P(w0 w, w0 x) are exposed alongside P;
in the antidominant normalization they, not the plain P, carry the
module multiplicities, satisfying the alternating inversion identity
sum_z (-1)^(l(z)-l(x)) P(x, z) Q(z, w) = delta(x, w).

``table_for`` builds the table of an interned system once and keeps it
until ``clear_caches()``.  Only a caller that asks writes or reads a
completed table as a ``.kl`` file (``save_table``, ``load_table``), named
by a hash of the Coxeter matrix and headed by the SHA-256 of its body.
``load_table`` refuses a file whose version or digest does not match, a
line that is not ``x;w;coefficients`` with x and w the canonical words of
two elements (1-based letters, the identity empty), a pair with x not
below w or read twice, an entry that breaks a KL invariant (constant term
1, nonnegative coefficients, the degree bound), and fewer pairs than the
Bruhat pairs of the group.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from functools import cache

from jantzen import weyl
from jantzen.weyl import CoxeterSystem, DefectError, format_word


class Poly:
    """One table entry P(x, w): ``coeffs[k]``, an int, multiplies q^k.

    Trailing zeros are stripped, so the zero polynomial has an empty
    coefficient tuple, the degree is ``len(coeffs) - 1``, and two entries
    are equal iff their tuples are.  The value at q = 1 is
    ``sum(coeffs)``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}q" + (f"^{k}" if k > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"Poly({self.coeffs})"


CACHE_VERSION = "KLCACHE v2"
_ONE = Poly((1,))
_ZERO = Poly()


class KLDefectError(DefectError):
    """A computed polynomial violated a Kazhdan-Lusztig invariant."""


class KLTable:
    """All P(x, w) for one Coxeter system, one column per w, on demand."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        # w -> {x: P(x, w)} over the x <= w
        self._cols: dict[int, dict[int, Poly]] = {}
        # coefficient tuple -> its one Poly in this table
        self._polys: dict[tuple[int, ...], Poly] = {_ONE.coeffs: _ONE}

    def polynomial(self, x: int, w: int) -> Poly:
        return self.column(w).get(x, _ZERO)

    def inverse_polynomial(self, x: int, w: int) -> Poly:
        """Inverse polynomial Q(x, w) = P(w0 w, w0 x), w0 the longest element.

        These are the multiplicity polynomials in the antidominant
        normalization: [M(w mu) : L(x mu)] = Q(x, w)(1), and the radical
        grading reads off the q-coefficients.  Q agrees with P(x, w)
        whenever every entry on the interval is constant (in particular on
        all dihedral systems) but differs from it in general, starting in
        rank three.  Support, degree bound and constant term match those
        of P(x, w) since x <= w iff w0 w <= w0 x.
        """
        sys = self.system
        return self.polynomial(sys.longest_times(w), sys.longest_times(x))

    def column(self, w: int) -> dict[int, Poly]:
        """{x: P(x, w)} over the x <= w, x ascending, built on first use and
        kept in the table; callers read it and must not change it."""
        col = self._cols.get(w)
        if col is not None:
            return col
        sys = self.system
        s = sys.first_right_descent(w)
        if s is None:  # the identity
            col = self._cols[w] = {w: _ONE}
            return col
        t = sys._tables()
        length, right, descents, inverse = t.length, t.right, t.descents, t.inverse
        v = right[w][s]
        below = self.column(v)
        lw = length[w]
        # the mu-list of v, as (column z, mu(z, v), (l(w) - l(z)) / 2)
        mus = []
        for z, p in below.items():
            d = lw - 1 - length[z]
            if d % 2 and descents[z] >> s & 1:
                m = p.coeff((d - 1) // 2)
                if m:
                    mus.append((self.column(z), m, (d + 1) // 2))
        rd, ld = descents[w], descents[inverse[w]]
        polys = self._polys
        col = {}
        for x in sorted({u for y in below for u in (y, right[y][s])}, reverse=True):
            diff = lw - length[x]
            if diff <= 2:
                # degree <= (diff-1)/2 < 1 forces the constant polynomial 1
                col[x] = _ONE
                continue
            if r := rd & ~descents[x]:
                # w has a right descent r that x lacks: P(x, w) = P(xr, w)
                p = col[right[x][(r & -r).bit_length() - 1]]
            elif r := ld & ~descents[inverse[x]]:
                # w has a left descent r that x lacks: P(x, w) = P(rx, w)
                p = col[inverse[right[inverse[x]][(r & -r).bit_length() - 1]]]
            else:
                # x has every descent of w, so xs < x: the coefficients of
                # P(x, w) are q P(x, v) + P(xs, v) with each mu-term
                # subtracted in place
                acc = [0] * (diff // 2 + 1)
                plain = below[right[x][s]].coeffs
                acc[: len(plain)] = plain
                shifted = below.get(x)
                if shifted is not None:
                    for k, c in enumerate(shifted.coeffs, 1):
                        acc[k] += c
                for cz, m, k in mus:
                    pz = cz.get(x)
                    if pz is not None:
                        for j, c in enumerate(pz.coeffs, k):
                            acc[j] -= m * c
                while acc and not acc[-1]:
                    acc.pop()
                key = tuple(acc)
                p = polys.get(key)
                if p is None:
                    p = polys[key] = Poly(key)
                # only a formed entry is checked: 1 passes at every length
                # difference, and a copy is an entry of this column one step
                # closer to w that passed; the check depends on the difference
                # only through the degree bound, which only loosens
                defect = entry_defect(p.coeffs, diff)
                if defect:
                    raise KLDefectError(defect)
            col[x] = p
        # filled downward, listed with x ascending
        col = self._cols[w] = dict(reversed(col.items()))
        return col

    def build(self) -> "KLTable":
        for w in self.system.elements():
            self.column(w)
        return self

    def entries(self):
        """All computed (x, w, P), column by column in w order; x ascends
        within a built column and keeps file order in a loaded one."""
        for w in sorted(self._cols):
            for x, poly in self._cols[w].items():
                yield x, w, poly

    def expected_pair_count(self) -> int:
        return sum(bits.bit_count() for bits in self.system.downsets())


def entry_defect(coeffs: tuple, diff: int) -> str | None:
    """What breaks a KL invariant in the coefficients of P(x, w), x <= w
    with l(w) - l(x) = diff: a constant term other than 1, a degree d > 0
    with 2 d >= diff (on the diagonal only 1 passes), or a negative
    coefficient.  None when the entry keeps all three."""
    if coeffs[:1] != (1,):
        return (
            f"constant term {coeffs[0] if coeffs else 0} != 1 for pair of "
            f"length difference {diff}"
        )
    if len(coeffs) > 1:
        if 2 * len(coeffs) - 2 >= diff:
            return f"degree {len(coeffs) - 1} exceeds bound for length difference {diff}"
        if min(coeffs) < 0:
            return f"negative coefficient in {coeffs}"
    return None


def build_table(system: CoxeterSystem) -> KLTable:
    return KLTable(system).build()


def table_for(system: CoxeterSystem) -> KLTable:
    """The complete table of the interned system with the same root set
    (``weyl.subsystem``), built once: its ``system`` is the one blocks carry."""
    return _table(weyl.subsystem(system.rs, system.pos_idx))


# keyed by interned systems only, so a twin built directly shares the table
@cache
def _table(system: CoxeterSystem) -> KLTable:
    return build_table(system)


# -- .kl files ----------------------------------------------------------------


def cache_key(coxeter_matrix) -> str:
    text = ";".join(",".join(str(v) for v in row) for row in coxeter_matrix)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cache_path(system: CoxeterSystem, cache_dir: str) -> str:
    return os.path.join(cache_dir, cache_key(system.coxeter_matrix()) + ".kl")


def save_table(table: KLTable, cache_dir: str) -> str:
    """Write a completed table atomically; returns the file path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(table.system, cache_dir)
    key = cache_key(table.system.coxeter_matrix())
    sys = table.system
    words = [format_word(sys.word(u)) for u in sys.elements()]
    # each distinct polynomial's coefficient text, formatted once
    texts: dict[tuple[int, ...], str] = {}
    lines = []
    for x, w, poly in table.entries():
        text = texts.get(poly.coeffs)
        if text is None:
            text = texts[poly.coeffs] = ",".join(map(str, poly.coeffs))
        lines.append(f"{words[x]};{words[w]};{text}\n")
    body = "".join(lines).encode()
    digest = hashlib.sha256(body).hexdigest()
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(f"{CACHE_VERSION} {key} {digest}\n".encode() + body)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_table(system: CoxeterSystem, cache_dir: str) -> KLTable | None:
    """Load a table if a valid complete file exists; None otherwise.

    A file of another version, whose body does not match the digest in its
    header, whose lines are not exactly the Bruhat pairs of the group, each
    once under canonical words, with coefficient text other than the one
    save_table writes, or with an entry that breaks a KL invariant is
    treated as missing."""
    path = cache_path(system, cache_dir)
    if not os.path.exists(path):
        return None
    key = cache_key(system.coxeter_matrix())
    table = KLTable(system)
    cols = table._cols
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            body = fh.read()
        digest = hashlib.sha256(body).hexdigest()
        if header != f"{CACHE_VERSION} {key} {digest}\n".encode():
            return None
        index = {format_word(system.word(u)): u for u in system.elements()}
        length = [system.length(u) for u in system.elements()]
        downsets = system.downsets()
        # coefficient text -> (its polynomial, the length differences at
        # which entry_defect passed it)
        polys: dict[str, tuple[Poly, set]] = {}
        for line in body.decode().splitlines():
            x_text, w_text, coeff_text = line.split(";")
            x, w = index[x_text], index[w_text]
            col = cols.get(w)
            if col is None:
                col = cols[w] = {}
            if x in col or not downsets[w] >> x & 1:
                return None
            got = polys.get(coeff_text)
            if got is None:
                coeffs = coeff_text.split(",") if coeff_text else ()
                poly = Poly(int(c) for c in coeffs)
                # int() and Poly forgive signs, spaces, underscores and
                # trailing zeros; the file must hold what save_table writes
                if coeff_text != ",".join(map(str, poly.coeffs)):
                    return None
                got = polys[coeff_text] = (poly, set())
            poly, passed = got
            diff = length[w] - length[x]
            if diff not in passed:
                if entry_defect(poly.coeffs, diff):
                    return None
                passed.add(diff)
            col[x] = poly
    except (OSError, ValueError, KeyError):
        return None
    if sum(map(len, cols.values())) != table.expected_pair_count():
        return None
    return table
