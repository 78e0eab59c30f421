"""Kazhdan-Lusztig polynomials over an abstract finite Coxeter system.

The recursion is the classical one: for a right descent s of w, with
v = ws,

    P(x, w) = q^(1-c) P(xs, v) + q^c P(x, v)
              - sum_z mu(z, v) q^((l(w)-l(z))/2) P(x, z)

where c = 1 if xs < x else 0 and z runs over elements below v with
zs < z and nonvanishing mu(z, v) (the coefficient of q^((l(v)-l(z)-1)/2)
in P(z, v)).  Everything is exact integer arithmetic; a table build
verifies the degree bound, positive constant term and coefficient
nonnegativity on every entry and treats violations as hard defects.
Inverse polynomials Q(x, w) = P(w0 w, w0 x) are exposed alongside P;
in the antidominant normalization they, not the plain P, carry the
module multiplicities, satisfying the alternating inversion identity
sum_z (-1)^(l(z)-l(x)) P(x, z) Q(z, w) = delta(x, w).

Completed tables persist to disk keyed by a canonical hash of the Coxeter
matrix, so isomorphic blocks (e.g. an integral subsystem of one type that
matches the full group of another) share cache files.  The header of a
cache file carries the SHA-256 of its body; a file whose digest or version
does not match is a cache miss, and the table is rebuilt.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from jantzen import roots, weyl
from jantzen.poly import Poly
from jantzen.weyl import CoxeterSystem, DefectError, format_word, parse_word

CACHE_VERSION = "KLCACHE v2"
_ONE = Poly((1,))
# interned CoxeterSystem -> its complete KLTable
_registry: dict = {}


class KLDefectError(DefectError):
    """A computed polynomial violated a Kazhdan-Lusztig invariant."""


class KLTable:
    """All P(x, w) for one Coxeter system, computed on demand."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._p: dict[tuple[int, int], Poly] = {}

    def polynomial(self, x: int, w: int) -> Poly:
        sys = self.system
        if not sys.bruhat_leq(x, w):
            return Poly()
        return self._compute(x, w)

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

    def _compute(self, x: int, w: int) -> Poly:
        key = (x, w)
        got = self._p.get(key)
        if got is not None:
            return got
        sys = self.system
        diff = sys.length(w) - sys.length(x)
        if diff <= 2:
            # degree <= (diff-1)/2 < 1 forces the constant polynomial 1
            self._p[key] = _ONE
            return _ONE
        s = sys.first_right_descent(w)
        v = sys.right_mul(w, s)
        xs = sys.right_mul(x, s)
        if sys.length(xs) < sys.length(x):
            base = self.polynomial(xs, v) + self.polynomial(x, v).shift(1)
        else:
            base = self.polynomial(xs, v).shift(1) + self.polynomial(x, v)
        lw = sys.length(w)
        for z in sys.bruhat_interval_below(v):
            if not sys.right_descent(z, s):
                continue
            m = self.mu(z, v)
            if m == 0 or not sys.bruhat_leq(x, z):
                continue
            base = base - m * self.polynomial(x, z).shift((lw - sys.length(z)) // 2)
        self._check(x, w, diff, base)
        self._p[key] = base
        return base

    def _check(self, x, w, diff, poly: Poly) -> None:
        if poly.coeff(0) != 1:
            raise KLDefectError(
                f"constant term {poly.coeff(0)} != 1 for pair of length "
                f"difference {diff}"
            )
        if 2 * poly.degree > diff - 1:
            raise KLDefectError(
                f"degree {poly.degree} exceeds bound for length difference {diff}"
            )
        if any(c < 0 for c in poly.coeffs):
            raise KLDefectError(f"negative coefficient in {poly.coeffs}")

    def mu(self, z: int, v: int) -> int:
        sys = self.system
        d = sys.length(v) - sys.length(z)
        if d <= 0 or d % 2 == 0 or not sys.bruhat_leq(z, v):
            return 0
        return self._compute(z, v).coeff((d - 1) // 2)

    def build(self) -> "KLTable":
        sys = self.system
        for w in sys.elements():
            for x in sys.bruhat_interval_below(w):
                self._compute(x, w)
        return self

    def entries(self):
        """All computed (x, w, P), sorted by (w, x)."""
        for (x, w), poly in sorted(self._p.items(), key=lambda kv: kv[0][::-1]):
            yield x, w, poly

    def expected_pair_count(self) -> int:
        sys = self.system
        return sum(len(sys.bruhat_interval_below(w)) for w in sys.elements())


def build_table(system: CoxeterSystem) -> KLTable:
    return KLTable(system).build()


# -- disk cache --------------------------------------------------------------


def cache_key(coxeter_matrix) -> str:
    text = ";".join(",".join(str(v) for v in row) for row in coxeter_matrix)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def default_cache_dir() -> str:
    env = os.environ.get("JANTZEN_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "jantzen")


def cache_path(system: CoxeterSystem, cache_dir: str) -> str:
    return os.path.join(cache_dir, cache_key(system.coxeter_matrix()) + ".kl")


def save_table(table: KLTable, cache_dir: str) -> str:
    """Write a completed table atomically; returns the file path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(table.system, cache_dir)
    key = cache_key(table.system.coxeter_matrix())
    sys = table.system
    lines = []
    for x, w, poly in table.entries():
        coeffs = ",".join(str(c) for c in poly.coeffs)
        lines.append(f"{format_word(sys.word(x))};{format_word(sys.word(w))};{coeffs}")
    body = "".join(line + "\n" for line in lines).encode()
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
    """Load a table if a valid complete cache exists; None otherwise.

    A file of another version, or whose body does not match the digest in
    its header, is treated as missing."""
    path = cache_path(system, cache_dir)
    if not os.path.exists(path):
        return None
    key = cache_key(system.coxeter_matrix())
    table = KLTable(system)
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            body = fh.read()
        digest = hashlib.sha256(body).hexdigest()
        if header != f"{CACHE_VERSION} {key} {digest}\n".encode():
            return None
        for line in body.decode().splitlines():
            line = line.strip()
            if not line:
                continue
            x_text, w_text, coeff_text = line.split(";")
            x = system.element_from_word(parse_word(x_text))
            w = system.element_from_word(parse_word(w_text))
            coeffs = (
                tuple(int(c) for c in coeff_text.split(","))
                if coeff_text
                else ()
            )
            table._p[(x, w)] = Poly(coeffs)
    except (OSError, ValueError):
        return None
    if len(table._p) != table.expected_pair_count():
        return None
    return table


def table_for(
    system: CoxeterSystem,
    cache_dir: str | None = None,
    use_disk: bool = False,
) -> KLTable:
    """Complete table for a system, via the in-memory registry and optional disk cache.

    The table is built on the interned system with the same root set
    (``weyl.subsystem``), so its ``system`` is the one blocks carry.
    """
    system = weyl.subsystem(system.rs, system.pos_idx)
    got = _registry.get(system)
    if got is not None:
        return got
    table = None
    directory = cache_dir or default_cache_dir()
    if use_disk:
        table = load_table(system, directory)
    if table is None:
        table = build_table(system)
        if use_disk:
            save_table(table, directory)
    _registry[system] = table
    return table


def clear_caches() -> None:
    """Forget every in-memory KL table, interned Coxeter system, partition
    count memo and truncated partition table.

    Disk caches are untouched; later calls rebuild (or reload) what they
    need from scratch."""
    _registry.clear()
    weyl.clear_systems()
    roots.clear_partition_caches()
