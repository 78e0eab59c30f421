"""References for the tests, apart from the package's own paths.

The Weyl group acts along an element's canonical word by
``roots.reflect``, not by the package's memoised orbit entries.  A weight
of the root lattice gets its root coordinates by an exact solve against
the simple roots' weight coordinates.  Partition counts over any set of
positive roots come from explicit multiplicities, and the axioms of a
reflection subsystem are checked as stated.  A positive root's index is
its place in the root list, and a pairing is a sum of Fraction products.
Weight sums and differences are taken coordinate by coordinate in
Fractions, and ``QPoly`` is a general polynomial ring over the rationals,
against which the package's integer coefficient lists are checked.  A
block's multiplicity column is filtered element by element from the
Bruhat interval."""

from fractions import Fraction
from itertools import zip_longest
from operator import add, sub

from jantzen.roots import Weight, boxes, reflect


class QPoly:
    """Immutable polynomial over Q; ``coeffs[k]`` multiplies x**k.

    Coefficients are ints or Fractions, never floats, with trailing zeros
    stripped, so the zero polynomial has an empty coefficient tuple.
    Sums, differences and products take QPolys, ints and Fractions; two
    QPolys are equal iff their coefficient tuples are."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls((c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def valuation(self) -> int:
        """Order of vanishing at 0; -1 for the zero polynomial."""
        return next((k for k, c in enumerate(self.coeffs) if c), -1)

    def shift(self, k: int) -> "QPoly":
        """Multiply by x**k."""
        return QPoly((0,) * k + self.coeffs) if self.coeffs else self

    def __add__(self, other):
        other = _as_qpoly(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return QPoly([a + b for a, b in pairs])

    __radd__ = __add__

    def __neg__(self):
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_as_qpoly(other))

    def __mul__(self, other):
        other = _as_qpoly(other)
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"QPoly({self.coeffs})"


def _as_qpoly(value) -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return QPoly((value,))
    raise TypeError(f"cannot treat {value!r} as a polynomial")


def weight_add(a, b):
    """a + b, coordinate by coordinate."""
    return Weight.of(*map(add, a.coords, b.coords))


def weight_sub(a, b):
    """a - b, coordinate by coordinate."""
    return Weight.of(*map(sub, a.coords, b.coords))


def word_apply(sys, w, lam):
    """w(lam) for an element w of the Coxeter system sys: the simple
    reflections of w's canonical word, the last letter first."""
    for i in reversed(sys.word(w)):
        lam = reflect(sys.rs, lam, sys.simple_roots[i])
    return lam


def pairing(nu, coroot) -> Fraction:
    """<nu, alpha^vee> for a coroot in simple-coroot coordinates."""
    return sum((c * x for c, x in zip(nu.coords, coroot)), Fraction(0))


def phi_plus_count(rs, nu) -> int:
    """|{alpha > 0 : <nu, alpha^vee> is a positive integer}|."""
    pairings = (pairing(nu, coroot) for coroot in rs.coroots)
    return sum(1 for p in pairings if p > 0 and p.denominator == 1)


def solve_square(columns, targets):
    """Per target, the exact coefficients c with sum_j c[j] * columns[j] ==
    target, for n columns of length n; None when the columns are
    linearly dependent.  Gauss-Jordan over the rationals, every target
    carried along as an extra column."""
    n = len(columns)
    aug = [
        [Fraction(col[r]) for col in columns] + [Fraction(t[r]) for t in targets]
        for r in range(n)
    ]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [[aug[r][n + j] for r in range(n)] for j in range(len(targets))]


def root_coords(rs, weights) -> list:
    """Per weight of the root lattice, its coordinates in the simple
    roots, as Fractions."""
    simple = [rs.root_weights[k] for k in rs.simple_indices]
    return solve_square(simple, [lam.coords for lam in weights])


def root_index(rs, vec) -> int:
    """The index of a positive root of rs; ValueError for any other vector."""
    vec = tuple(vec)
    if vec not in rs.positive_roots:
        raise ValueError(f"{vec} is not a positive root of {rs.lie_type}")
    return rs.positive_roots.index(vec)


def kostant_counts(rs, max_height, root_indices=None) -> dict:
    """Partition counts over the given positive roots (all by default) on
    every box of height <= max_height, keyed in boxes() order, by
    one-root-at-a-time dynamic programming over explicit multiplicities."""
    if root_indices is None:
        root_indices = range(len(rs.positive_roots))
    vecs = boxes(rs.rank, max_height)
    counts = {v: 0 for v in vecs}
    counts[(0,) * rs.rank] = 1
    for alpha in (rs.positive_roots[i] for i in root_indices):
        new = {}
        for v in vecs:
            total = 0
            m = 0
            while True:
                rem = tuple(a - m * b for a, b in zip(v, alpha))
                if any(c < 0 for c in rem):
                    break
                total += counts[rem]
                m += 1
            new[v] = total
        counts = new
    return counts


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def is_simple_system(rs, simple_idx, pos_idx) -> bool:
    """Both axioms of a root subsystem S (the positive roots ``pos_idx``)
    with simple roots ``simple_idx``, checked as stated:

    1. the simple roots are linearly independent, and every root of S is
       a nonnegative integer combination of them;
    2. S and -S together are stable under the reflection in every root
       of S.

    Independence is that of the Gram matrix of the simple roots under
    the dot product of root coordinates; a root's coefficients then solve
    the normal equations, and must reproduce the root."""
    simples = [rs.positive_roots[i] for i in simple_idx]
    roots = [rs.positive_roots[i] for i in pos_idx]
    gram = [[_dot(a, b) for a in simples] for b in simples]
    coeffs = solve_square(gram, [[_dot(v, b) for b in simples] for v in roots])
    if coeffs is None:
        return False
    for v, cs in zip(roots, coeffs):
        if any(c.denominator != 1 or c < 0 for c in cs):
            return False
        if tuple(sum(c * a[k] for c, a in zip(cs, simples)) for k in range(rs.rank)) != v:
            return False
    signed = set(roots) | {tuple(-x for x in v) for v in roots}
    for i in pos_idx:
        gamma, coroot = rs.positive_roots[i], rs.coroots[i]
        for v in roots:
            p = _dot(coroot, rs.root_to_weight_coords(v))
            if tuple(x - p * g for x, g in zip(v, gamma)) not in signed:
                return False
    return True


def column(block, w, table):
    """{z: Q(z, w)} over the z in W^J below w, in index order: the Bruhat
    interval below w, each z tested for minimality in z W_J, and Q read
    by ``KLTable.inverse_polynomial``."""
    sys = block.system
    return {
        z: table.inverse_polynomial(z, w)
        for z in sys.bruhat_interval_below(w)
        if sys.is_min_coset_rep(z, block.J)
    }
