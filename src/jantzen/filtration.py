"""Jantzen (= radical) filtrations of Verma modules in a block.

For the antidominant representative mu and w in W^J, the j-th radical
layer of M(w mu) decomposes as a sum of simples L(z mu) over z in W^J,
with multiplicity the coefficient of q^((l(w)-l(z)-j)/2) in the inverse
Kazhdan-Lusztig polynomial Q(z, w) = P(w0 w, w0 z) of the block's
integral Coxeter system (w0 the longest element).  The plain P(z, w)
expand simples into Vermas; the multiplicity matrix of Vermas in simples
is the inverse transition matrix, which is Q.  The two families agree on
every interval where P is constant, so the distinction is invisible in
dihedral systems and first matters in rank three.  Layers are computed
in the regular system and column-restricted to W^J; this is exactly what
translation onto a singular weight does to the regular radical
filtration.

Independent cross-checks implemented here:
  * sum_formula_check compares weighted layer sums against the Jantzen
    sum formula   sum_{i>0} ch M(nu)^i = sum_alpha ch M(s_alpha nu).
  * domination_check verifies the layer inequalities implied by the
    filtration-compatibility of nested Verma embeddings.
  * simple_weight_dims gets exact weight-space dimensions of simples
    from the plain P(x, z) by Kazhdan-Lusztig inversion (consumed by the
    contravariant-form oracle, whose layers read Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from jantzen.blocks import Block, DefectError, _rep_mask, normalize
from jantzen.kl import KLTable, table_for
from jantzen.roots import (
    RootSystem,
    Weight,
    partition_table,
    positive_integral_pairings,
    reflect,
    shifted_sum,
)
from jantzen.roots import partition_count  # noqa: F401  (hooked by bench/layertrace.py)
from jantzen.weyl import set_bits


class LayerRows:
    """What ordinary and parabolic layer tables share: ``rows[j]`` maps a
    column to its multiplicity in layer j of the module at ``w``."""

    @property
    def columns(self) -> tuple[int, ...]:
        """Every column with a nonzero entry in some row, by (length, word)."""
        return tuple(sorted({z for row in self.rows for z in row}))

    def mult(self, j: int, z: int) -> int:
        if 0 <= j < len(self.rows):
            return self.rows[j].get(z, 0)
        return 0

    def _check_head(self, system) -> None:
        """l(w) + 1 layers, the first of them the simple head {w: 1}."""
        lw = system.length(self.w)
        if len(self.rows) != lw + 1:
            raise DefectError(f"expected {lw + 1} layers, found {len(self.rows)}")
        if self.rows[0] != {self.w: 1}:
            raise DefectError("layer 0 is not the simple head")


@dataclass
class LayerTable(LayerRows):
    """Radical layer multiplicities of one Verma module M(w mu).

    rows[j] maps z (in W^J) to [Rad_j M(w mu) : L(z mu)]; row 0 is the
    simple head {w: 1} and row l(w) is the socle-level layer {e: 1}.
    """

    block: Block
    w: int
    rows: tuple[dict, ...]

    @property
    def loewy_length(self) -> int:
        return len(self.rows)

    def level_multiplicities(self) -> tuple[dict, ...]:
        """M^i as multiplicity vectors, i = 0..loewy_length (suffix sums)."""
        out = []
        for i in range(len(self.rows) + 1):
            acc: dict = {}
            for row in self.rows[i:]:
                for z, m in row.items():
                    acc[z] = acc.get(z, 0) + m
            out.append(acc)
        return tuple(out)

    def validate(self) -> None:
        self._check_head(self.block.system)
        if any(not row for row in self.rows):
            raise DefectError("radical filtration has an empty layer")
        if self.rows[-1] != {self.block.system.identity: 1}:
            raise DefectError("bottom layer is not L(mu)")


def layers(block: Block, w: int, table: KLTable | None = None) -> LayerTable:
    """Radical layer table of M(w mu) for w in W^J.

    The rows are those of ``_layer_rows``, kept per (system, J, w, table)
    until clear_caches(), so equal blocks share them; callers read them
    and must not change them."""
    sys = block.system
    if not block.is_rep(w):
        raise ValueError(
            "w is not a minimal-length coset representative modulo W_J; "
            "pass its W^J part, CoxeterSystem.coset_rep(w, J)"
        )
    if table is None:
        table = table_for(sys)
    return LayerTable(block=block, w=w, rows=_layer_rows(sys, block.J, w, table))


@cache
def _layer_rows(sys, J, w: int, table: KLTable) -> tuple[dict, ...]:
    """The graded layer rows of M(w mu) from the Q(z, w) over the z in W^J
    with z <= w: the set bits of one AND of w's Bruhat downset and the W^J
    bitmask, each Q(z, w) read from ``table`` as P(w0 w, w0 z)."""
    lengths = sys.lengths
    w0w = sys.longest_times(w)
    graded = [
        (z, lengths[z], table.polynomial(w0w, sys.longest_times(z)).coeffs)
        for z in set_bits(sys.downsets()[w] & _rep_mask(sys, J))
    ]
    return graded_rows(lengths[w], graded)


def graded_rows(lw: int, graded, defect=DefectError) -> tuple[dict, ...]:
    """Layer rows of a module at w of length lw from graded multiplicities.

    ``graded`` yields triples (z, l(z), coeffs), coeffs the integer
    coefficients of a polynomial in q; that of q^k is the multiplicity of
    the simple at z in layer lw - l(z) - 2k.  A negative coefficient, or a
    layer index below 0, raises ``defect``.
    """
    rows: list[dict] = [dict() for _ in range(lw + 1)]
    for z, lz, coeffs in graded:
        base = lw - lz
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            if c < 0:
                raise defect(
                    f"negative graded multiplicity {c} at q^{k} for column "
                    f"of length {lz} under w of length {lw}"
                )
            j = base - 2 * k
            if j < 0:
                raise defect("layer index underflow; degree bound broken")
            rows[j][z] = c
    return tuple(rows)


@dataclass
class SumFormulaResult:
    passed: bool
    per_column: tuple[tuple[int, int, int], ...]  # (z, lhs, rhs)
    reflected: tuple[tuple[tuple[int, ...], int], ...]  # (alpha, v_alpha)
    table: LayerTable  # the layers of M(nu) on the left-hand side


def sum_formula_check(rs: RootSystem, nu: Weight) -> SumFormulaResult:
    """Exact test of sum_{i>0} ch M(nu)^i = sum_{alpha} ch M(s_alpha nu).

    alpha runs over positive roots with <nu, alpha^vee> a positive integer;
    both sides are expanded in the basis {ch M(z mu)} -> {ch L(z mu)} and
    compared as multiplicity vectors over z in W^J.
    """
    block, w = normalize(rs, nu)
    sys = block.system
    table = table_for(sys)
    lt = layers(block, w, table)
    reflection = dict(zip(sys.pos_idx, sys.reflections()))

    rhs: dict[int, int] = {}
    reflected = []
    for i, _ in positive_integral_pairings(rs, nu):
        alpha = rs.positive_roots[i]
        # s_alpha nu = t w mu for t the reflection in alpha, so the W^J
        # part v of t w is the parameter of s_alpha nu in this block
        v = sys.coset_rep(sys.mul(reflection[i], w), block.J)
        if block.apply(v) != reflect(rs, nu, alpha):
            raise DefectError("reflected parameter does not reproduce s_alpha nu")
        reflected.append((alpha, v))
        # each coefficient of Q(z, v) fills one row: z's entries sum to Q(z, v)(1)
        for row in _layer_rows(sys, block.J, v, table):
            for z, m in row.items():
                rhs[z] = rhs.get(z, 0) + m

    # sum_{i>0} [M^i : L(z mu)] = sum_j j [Rad_j : L(z mu)]
    lhs: dict[int, int] = {}
    for j, row in enumerate(lt.rows):
        for z, m in row.items():
            lhs[z] = lhs.get(z, 0) + j * m

    per_column = []
    passed = True
    for z in sorted(set(lhs) | set(rhs)):
        lhs_z = lhs.get(z, 0)
        rhs_z = rhs.get(z, 0)
        if lhs_z != rhs_z:
            passed = False
        per_column.append((z, lhs_z, rhs_z))
    return SumFormulaResult(
        passed=passed,
        per_column=tuple(per_column),
        reflected=tuple(reflected),
        table=lt,
    )


@dataclass
class DominationResult:
    passed: bool
    violations: tuple[tuple[int, int, int, int], ...]


def domination_check(tx: LayerTable, tw: LayerTable) -> DominationResult:
    """Layer-wise inequality m_x[j][z] <= m_w[j + r][z] with r = l(w) - l(x),
    for the layer tables tx of M(x mu) and tw of M(w mu) in one block.

    This is the shadow, on radical layers, of the filtration compatibility
    M(x mu) cap M(w mu)^{j+r} = M(x mu)^j of the embedded Verma.  The
    tables come from ``layers``; a batch run builds each one once.
    """
    x, w = tx.w, tw.w
    sys = tw.block.system
    if not sys.bruhat_leq(x, w):
        raise ValueError("x must lie below w in Bruhat order")
    r = sys.length(w) - sys.length(x)
    violations = []
    for j, row in enumerate(tx.rows):
        for z, m in row.items():
            upper = tw.mult(j + r, z)
            if m > upper:
                violations.append((j, z, m, upper))
    return DominationResult(passed=not violations, violations=tuple(violations))


def simple_weight_dims(block: Block, z: int, depth: int) -> dict:
    """Weight multiplicities of L(z mu) at offsets from its highest weight.

    Returns {beta: dim} for root-lattice offsets beta with height <= depth.
    By Kazhdan-Lusztig inversion, translated onto the walls,
    ch L(z mu) = sum_{x <= z} (-1)^(l(z)-l(x)) P(x, z)(1) ch M(x mu) over
    the whole integral Weyl group; x mu = v mu for v the W^J part of x, and
    each ch M(v mu) is expanded by the Kostant partition function.  Results
    are memoised per (system, J, mu, z, depth), so the memo keeps no block
    alive, until clear_caches(); callers read them and must not change
    them.
    """
    if not block.is_rep(z):
        raise ValueError("z must be a minimal-length coset representative")
    return _simple_weight_dims(block.system, block.J, block.mu, z, depth)


@cache
def _simple_weight_dims(sys, J, mu, z: int, depth: int) -> dict:
    block = Block(sys.rs, mu, sys, J)  # for its offsets, read from _orbit
    table = table_for(sys)
    lz = sys.length(z)
    coeffs: dict[int, int] = {}
    for x in sys.bruhat_interval_below(z):
        v = sys.coset_rep(x, J)
        sign = -1 if (lz - sys.length(x)) % 2 else 1
        coeffs[v] = coeffs.get(v, 0) + sign * sum(table.polynomial(x, z).coeffs)
    terms = [(c, block.offset(z, v)) for v, c in coeffs.items()]
    out = shifted_sum(partition_table(sys.rs, depth), terms)
    if any(d < 0 for d in out.values()):
        raise DefectError("negative simple weight multiplicity")
    return out
