"""Parabolic Verma modules: double-coset parameters, layers, character check.

Fix a subset I of the ambient simple roots, all of which must be integral
for the block.  Parabolic Vermas in the block of mu are parametrized by
highest weights w_I w mu with w in {}^I W^J, the set of w in W^J such that
left multiplication by each generator in I lengthens w and stays inside
W^J; this set can be empty.  Simple quotients in the parabolic category
carry the same parameters, so both row and column labels below live in
{}^I W^J.

The graded layer combination is

    n_{z,w}(q) = sum_{u in W_I} (-1)^{l(u)} Q(w_I z, u w_I w)(q)

computed in the integral Weyl group, where Q(x, v) = P(w0 v, w0 x) is
the inverse Kazhdan-Lusztig polynomial (the multiplicity polynomial of
the ordinary radical filtration), with layer j of the module at w
reading the coefficient of q^((l(w) - l(z) - j)/2).  Any negative
coefficient is a hard convention defect.  Two independent validations are
provided: a signed superposition of ordinary layer tables with grading
shifts, and an exact character check (Weyl group alternating sum for the
Levi highest-weight module, convolved with the partition function of the
nilradical complement, against the alternating sum of ordinary Verma
characters).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from jantzen.blocks import Block, DefectError, root_offset
from jantzen.filtration import LayerRows, graded_rows, layer_columns, layers
from jantzen.kl import KLTable, table_for
from jantzen.poly import Poly
from jantzen.roots import Weight, partition_table
from jantzen.roots import partition_count  # noqa: F401  (hooked by bench/layertrace.py)


class ConventionDefectError(DefectError):
    """The graded alternating-sum formula produced a negative multiplicity."""


@dataclass(frozen=True)
class ParabolicBlock:
    """Block data refined by a choice of integral ambient simple roots I."""

    block: Block
    ambient_I: tuple[int, ...]  # 0-based ambient simple indices
    I: tuple[int, ...]  # generator indices in the block system
    wI: int
    reps: tuple[int, ...]  # {}^I W^J

    @cached_property
    def rep_set(self) -> frozenset:
        return frozenset(self.reps)

    def highest_weight(self, w: int) -> Weight:
        return self.block.apply(self.block.system.mul(self.wI, w))

    def check_rep(self, w: int) -> None:
        if w not in self.rep_set:
            raise ValueError("w is not an upper coset representative for (I, J)")

    @cached_property
    def signed_levi(self) -> tuple:
        """(u, (-1)^l(u)) for every u in W_I, in index order."""
        sys = self.block.system
        return tuple(
            (u, -1 if sys.length(u) % 2 else 1) for u in sys.subgroup_elements(self.I)
        )


def enumerate_IWJ(block: Block, ambient_I) -> ParabolicBlock:
    """Exact filter for {}^I W^J; validates I against the block's simples."""
    rs = block.rs
    sys = block.system
    ambient_I = tuple(sorted(set(int(i) for i in ambient_I)))
    local = []
    for i in ambient_I:
        if not 0 <= i < rs.rank:
            raise ValueError(f"simple index {i + 1} out of range for {rs.lie_type}")
        try:
            local.append(sys.simple_idx.index(rs.simple_indices[i]))
        except ValueError:
            raise ValueError(
                f"alpha_{i + 1} is not integral for this block; "
                "I must consist of ambient simple roots that are also "
                "simple for the block"
            ) from None
    I = tuple(local)
    wI = sys.longest_element(I)
    reps = tuple(
        w for w in block.coset_reps() if sys.upper_coset_membership(w, I, block.J)
    )
    return ParabolicBlock(block=block, ambient_I=ambient_I, I=I, wI=wI, reps=reps)


@dataclass
class ParabolicLayerTable(LayerRows):
    """Radical layers of one parabolic Verma module.

    rows[j] maps z in {}^I W^J to the multiplicity of the simple with
    highest weight w_I z mu in layer j.
    """

    pblock: ParabolicBlock
    w: int
    columns: tuple[int, ...]
    rows: tuple[dict, ...]
    n_polys: dict

    @property
    def loewy_length(self) -> int:
        last = max((j for j, row in enumerate(self.rows) if row), default=-1)
        return last + 1

    def validate(self) -> None:
        self._check_head(self.pblock.block.system)


def parabolic_layers(
    pblock: ParabolicBlock, w: int, table: KLTable | None = None
) -> ParabolicLayerTable:
    """Layer table of the parabolic Verma with highest weight w_I w mu."""
    block = pblock.block
    sys = block.system
    pblock.check_rep(w)
    if table is None:
        table = table_for(sys)
    wI = pblock.wI
    wIw = sys.mul(wI, w)
    targets = [(sys.mul(u, wIw), sign) for u, sign in pblock.signed_levi]
    lw = sys.length(w)
    n_polys = {}
    # only columns in {}^I W^J survive translation onto the singular weight;
    # reps are in (length, word) order, so the rows keep that order
    for z in pblock.reps:
        if sys.length(z) > lw:
            break
        wIz = sys.mul(wI, z)
        n = Poly()
        for target, sign in targets:
            if sys.bruhat_leq(wIz, target):
                n = n + sign * table.inverse_polynomial(wIz, target)
        if not n.is_zero():
            n_polys[z] = n
    rows = graded_rows(sys, w, n_polys.items(), ConventionDefectError)
    return ParabolicLayerTable(
        pblock=pblock,
        w=w,
        columns=layer_columns(rows),
        rows=rows,
        n_polys=n_polys,
    )


def parabolic_layers_dual_path(
    pblock: ParabolicBlock, w: int, table: KLTable | None = None
) -> ParabolicLayerTable:
    """Same table assembled from ordinary layer tables with grading shifts.

    The term for u in W_I contributes the layer table of the ordinary Verma
    at u w_I w, placed at radical offset l(u) with sign (-1)^l(u).  The
    superposition must be supported on layers 0..l(w) and on columns w_I z
    with z in {}^I W^J, with everything else cancelling; violations raise,
    which makes this an independent cross-check of parabolic_layers.
    """
    block = pblock.block
    sys = block.system
    pblock.check_rep(w)
    wI = pblock.wI
    wIw = sys.mul(wI, w)
    lw = sys.length(w)
    span = lw + sys.length(wI)
    acc: list[dict] = [dict() for _ in range(span + 1)]
    for u, sign in pblock.signed_levi:
        shift = sys.length(u)
        target = sys.mul(u, wIw)
        if not sys.is_min_coset_rep(target, block.J):
            raise DefectError(
                "composite parameter is not minimal in its coset modulo W_J"
            )
        tab = layers(block, target, table)
        for j2, row in enumerate(tab.rows):
            j = j2 + shift
            for x, c in row.items():
                acc[j][x] = acc[j].get(x, 0) + sign * c
    rows: list[dict] = [dict() for _ in range(lw + 1)]
    for j, row in enumerate(acc):
        for x, c in row.items():
            if c == 0:
                continue
            if j > lw:
                raise ConventionDefectError(
                    "uncancelled contribution beyond the layer range"
                )
            z = sys.mul(wI, x)
            if z not in pblock.rep_set:
                raise ConventionDefectError(
                    "uncancelled multiplicity outside the parabolic column set"
                )
            if c < 0:
                raise ConventionDefectError(
                    "negative multiplicity in the signed superposition"
                )
            rows[j][z] = c
    return ParabolicLayerTable(
        pblock=pblock,
        w=w,
        columns=layer_columns(rows),
        rows=tuple(rows),
        n_polys={},
    )


@dataclass
class CharCheckResult:
    pblock: ParabolicBlock
    w: int
    depth: int
    passed: bool
    rows: tuple[tuple[tuple[int, ...], int, int], ...]  # (beta, lhs, rhs)


def parabolic_character_check(
    pblock: ParabolicBlock, w: int, depth: int
) -> CharCheckResult:
    """Compare ch of the parabolic Verma two ways, on offsets of height <= depth.

    Left side: Weyl character of the finite-dimensional Levi module with
    highest weight (w_I w mu) - rho, expanded by the Levi partition
    function, convolved with the partition function over positive roots
    outside the Levi.  Right side: the alternating sum over W_I of full
    Verma characters.  Offsets beta are root coordinates measured down
    from (w_I w mu) - rho.

    The three partition functions (Levi roots, the other positive roots,
    all positive roots) are read from separately computed tables truncated
    at height <= depth; every orbit difference is a sum of positive roots,
    so no lookup leaves its table.
    """
    block = pblock.block
    rs = block.rs
    sys = block.system
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    pblock.check_rep(w)
    lam = pblock.highest_weight(w)

    levi_pos = [
        i
        for i, vec in enumerate(rs.positive_roots)
        if all(vec[k] == 0 for k in range(rs.rank) if k not in pblock.ambient_I)
    ]
    nil_pos = [i for i in range(len(rs.positive_roots)) if i not in levi_pos]
    for i in pblock.ambient_I:
        if int(lam.coords[i]) != lam.coords[i] or lam.coords[i] < 1:
            raise DefectError(
                "highest weight is not dominant regular on the Levi simples"
            )

    # rho_I only enters through differences u(x) - x with u in the Levi
    # Weyl group, so coordinates off I are irrelevant; pairing 1 on I.
    rho_I = Weight(
        tuple(1 if k in pblock.ambient_I else 0 for k in range(rs.rank))
    )
    xi = Weight(tuple(c - 1 for c in lam.coords))  # lam - rho
    base = xi + rho_I

    levi_shifts = []
    verma_shifts = []
    for u, sign in pblock.signed_levi:
        for source, out in ((base, levi_shifts), (lam, verma_shifts)):
            out.append((sign, root_offset(rs, source - sys.apply(u, source))))

    levi = partition_table(rs, depth, levi_pos)
    nil = partition_table(rs, depth, nil_pos)
    full = partition_table(rs, depth)

    # Levi weight multiplicities, nonzero entries only; a negative
    # coordinate in a shifted box has no table entry and counts 0
    levi_dims = {}
    for gamma in levi:
        total = 0
        for sign, d in levi_shifts:
            total += sign * levi.get(tuple(g - s for g, s in zip(gamma, d)), 0)
        if total:
            levi_dims[gamma] = total

    rows = []
    passed = True
    for beta in full:
        lhs = 0
        for gamma, fdim in levi_dims.items():
            rest = tuple(b - g for b, g in zip(beta, gamma))
            lhs += fdim * nil.get(rest, 0)
        rhs = 0
        for sign, d in verma_shifts:
            rhs += sign * full.get(tuple(b - s for b, s in zip(beta, d)), 0)
        if lhs != rhs:
            passed = False
        rows.append((beta, lhs, rhs))
    return CharCheckResult(
        pblock=pblock, w=w, depth=depth, passed=passed, rows=tuple(rows)
    )
