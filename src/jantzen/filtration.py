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
  * simple_weight_dims inverts the unitriangular multiplicity matrix to
    get exact weight-space dimensions of simples (consumed by the
    contravariant-form oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from jantzen.blocks import Block, DefectError, normalize, root_offset
from jantzen.kl import KLTable, table_for
from jantzen.roots import (
    RootSystem,
    Weight,
    boxes,
    partition_count,
    positive_integral_pairings,
    reflect,
)


class LayerRows:
    """What ordinary and parabolic layer tables share: ``rows[j]`` maps a
    column to its multiplicity in layer j of the module at ``w``."""

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
    columns: tuple[int, ...]
    rows: tuple[dict, ...]

    @property
    def loewy_length(self) -> int:
        return len(self.rows)

    def total(self, z: int) -> int:
        """Total multiplicity [M(w mu) : L(z mu)]."""
        return sum(row.get(z, 0) for row in self.rows)

    def weighted_total(self, z: int) -> int:
        """sum_j j * [Rad_j : L(z mu)] = sum_{i>=1} [M^i : L(z mu)]."""
        return sum(j * row.get(z, 0) for j, row in enumerate(self.rows))

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
    """Radical layer table of M(w mu) for w in W^J."""
    sys = block.system
    if not block.is_rep(w):
        raise ValueError(
            "w is not a minimal-length coset representative modulo W_J; "
            "apply decompose_yx and use the W^J factor"
        )
    if table is None:
        table = table_for(sys)
    rows = graded_rows(
        sys, w, ((z, table.inverse_polynomial(z, w)) for z in block.reps_below(w))
    )
    return LayerTable(block=block, w=w, columns=layer_columns(rows), rows=rows)


def graded_rows(sys, w: int, polys, defect=DefectError) -> tuple[dict, ...]:
    """Layer rows of a module at w from graded multiplicities.

    ``polys`` yields pairs (z, n) with n a polynomial in q; its coefficient
    of q^k is the multiplicity of the simple at z in layer l(w) - l(z) - 2k.
    A negative coefficient, or a layer index below 0, raises ``defect``.
    """
    lw = sys.length(w)
    rows: list[dict] = [dict() for _ in range(lw + 1)]
    for z, n in polys:
        base = lw - sys.length(z)
        for k, c in enumerate(n.coeffs):
            if c == 0:
                continue
            if c < 0:
                raise defect(
                    f"negative graded multiplicity {c} at q^{k} for column "
                    f"of length {sys.length(z)} under w of length {lw}"
                )
            j = base - 2 * k
            if j < 0:
                raise defect("layer index underflow; degree bound broken")
            rows[j][z] = c
    return tuple(rows)


def layer_columns(rows) -> tuple[int, ...]:
    """Every column with a nonzero entry in some row, by (length, word)."""
    return tuple(sorted({z for row in rows for z in row}))


@dataclass
class FiltrationReport:
    nu: Weight
    block: Block
    w: int
    table: LayerTable
    levels: tuple[dict, ...]

    @property
    def loewy_length(self) -> int:
        return self.table.loewy_length


def jantzen_filtration(rs: RootSystem, nu: Weight) -> FiltrationReport:
    """Layers and filtration levels of M(nu), normalizing nu first."""
    block, w = normalize(rs, nu)
    table = layers(block, w)
    return FiltrationReport(
        nu=nu, block=block, w=w, table=table, levels=table.level_multiplicities()
    )


@dataclass
class SumFormulaResult:
    nu: Weight
    block: Block
    w: int
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
    table = table_for(block.system)
    lt = layers(block, w, table)

    rhs: dict[int, int] = {}
    reflected = []
    for i, _ in positive_integral_pairings(rs, nu):
        alpha = rs.positive_roots[i]
        sub_block, v = normalize(rs, reflect(rs, nu, alpha))
        if not sub_block.same_block(block):
            raise DefectError(
                "reflected weight landed in a different block"
            )
        reflected.append((alpha, v))
        for z in block.reps_below(v):
            rhs[z] = rhs.get(z, 0) + table.inverse_polynomial(z, v)(1)

    per_column = []
    passed = True
    cols = sorted(set(lt.columns) | set(rhs))
    for z in cols:
        lhs_z = lt.weighted_total(z)
        rhs_z = rhs.get(z, 0)
        if lhs_z != rhs_z:
            passed = False
        per_column.append((z, lhs_z, rhs_z))
    return SumFormulaResult(
        nu=nu,
        block=block,
        w=w,
        passed=passed,
        per_column=tuple(per_column),
        reflected=tuple(reflected),
        table=lt,
    )


@dataclass
class DominationResult:
    block: Block
    x: int
    w: int
    r: int
    passed: bool
    violations: tuple[tuple[int, int, int, int], ...]


def domination_check(
    block: Block,
    x: int,
    w: int,
    tx: LayerTable | None = None,
    tw: LayerTable | None = None,
) -> DominationResult:
    """Layer-wise inequality m_x[j][z] <= m_w[j + r][z] with r = l(w) - l(x).

    This is the shadow, on radical layers, of the filtration compatibility
    M(x mu) cap M(w mu)^{j+r} = M(x mu)^j of the embedded Verma.  Layer
    tables may be passed in to avoid recomputation in batch runs.
    """
    sys = block.system
    if not sys.bruhat_leq(x, w):
        raise ValueError("x must lie below w in Bruhat order")
    table = table_for(sys)
    if tx is None:
        tx = layers(block, x, table)
    if tw is None:
        tw = layers(block, w, table)
    r = sys.length(w) - sys.length(x)
    violations = []
    for j, row in enumerate(tx.rows):
        for z, m in row.items():
            upper = tw.mult(j + r, z)
            if m > upper:
                violations.append((j, z, m, upper))
    return DominationResult(
        block=block,
        x=x,
        w=w,
        r=r,
        passed=not violations,
        violations=tuple(violations),
    )


def simple_weight_dims(block: Block, z: int, depth: int) -> dict:
    """Weight multiplicities of L(z mu) at offsets from its highest weight.

    Returns {beta: dim} for root-lattice offsets beta with height <= depth.
    ch L(z mu) is computed by inverting the unitriangular matrix
    [M(u mu) : L(v mu)] = Q(v, u)(1) over W^J below z, then expanding each
    ch M(v mu) by the Kostant partition function.
    """
    sys = block.system
    rs = block.rs
    if not block.is_rep(z):
        raise ValueError("z must be a minimal-length coset representative")
    table = table_for(sys)
    below = block.reps_below(z)
    index = {v: i for i, v in enumerate(below)}
    size = len(below)
    mult = [[0] * size for _ in range(size)]
    for col, u in enumerate(below):
        for v in block.reps_below(u):
            mult[index[v]][col] = table.inverse_polynomial(v, u)(1)
    # back-substitute the z-column of the inverse: coeffs[v] with
    # ch L(z mu) = sum_v coeffs[v] ch M(v mu)
    coeffs = [0] * size
    zi = index[z]
    for row in range(size - 1, -1, -1):
        val = 1 if row == zi else 0
        for col in range(row + 1, size):
            val -= mult[row][col] * coeffs[col]
        coeffs[row] = val  # diagonal entries are 1

    zmu = block.apply(z)
    offsets = {v: root_offset(rs, zmu - block.apply(v)) for v in below}

    out = {}
    for beta in boxes(rs.rank, depth):
        total = 0
        for v in below:
            shift = tuple(b - o for b, o in zip(beta, offsets[v]))
            if any(c < 0 for c in shift):
                continue
            total += coeffs[index[v]] * partition_count(rs, shift)
        if total < 0:
            raise DefectError("negative simple weight multiplicity")
        out[beta] = total
    return out
