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
coefficient is a hard convention defect.  The sum runs on the integer
coefficient tuples of the P(w0 u w_I w, w0 w_I z), read from the KL
table's column w0 w_I z once per z, with l(z), w_I z and the signs
(-1)^l(u) read from the parabolic block, where enumerate_IWJ keeps them.
The layers are validated by a signed superposition of ordinary layer
tables (``filtration.layers``) with grading shifts; the two paths share
only the KL table, so a fault in either reader shows.  The character of
each module is checked by an exact weight count: the alternating sum
over W_I of ordinary Verma characters, whose multiplicities must all be
nonnegative.  Those counts depend only on the type, the depth and the
signed shift list (+-1, lam - u lam), which many modules share, so they
are memoised per shift list until clear_caches(), together with the
verdict that they are all nonnegative; the Levi-dominance check is made
on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from jantzen.blocks import Block, DefectError
from jantzen.filtration import LayerRows, graded_rows, layers
from jantzen.kl import KLTable, table_for
from jantzen.roots import RootSystem, partition_table, shifted_sum
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
    # z -> (l(z), w_I z) for z in {}^I W^J, in (length, word) order; its
    # keys ({}^I W^J) and its inverse (w_I z -> z); and (u, (-1)^l(u)) for
    # every u in W_I, in index order.  All are determined by the fields
    # above, which alone give equality and hash
    lifted: dict = field(compare=False)
    reps: tuple[int, ...] = field(compare=False)
    unlifted: dict = field(compare=False)
    signed_levi: tuple = field(compare=False)

    def lift(self, w: int) -> tuple[int, int]:
        """(l(w), w_I w) for w in {}^I W^J; ValueError for any other w."""
        try:
            return self.lifted[w]
        except KeyError:
            raise ValueError(
                "w is not an upper coset representative for (I, J)"
            ) from None


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
    levi = sys.subgroup_elements(I)
    # index order is (length, word) order, so w_I, the unique longest
    # element of W_I, comes last
    wI = levi[-1]
    signed_levi = tuple((u, -1 if sys.length(u) % 2 else 1) for u in levi)
    lifted = {
        w: (sys.length(w), sys.mul(wI, w))
        for w in block.coset_reps()
        if sys.upper_coset_membership(w, I, block.J)
    }
    # parabolic_layers looks w_I z up in columns over W^J
    if not all(sys.is_min_coset_rep(wIz, block.J) for _, wIz in lifted.values()):
        raise DefectError("w_I z is not minimal in its coset modulo W_J")
    unlifted = {wIz: z for z, (_, wIz) in lifted.items()}
    return ParabolicBlock(block, ambient_I, I, wI, lifted, tuple(lifted), unlifted, signed_levi)


@dataclass
class ParabolicLayerTable(LayerRows):
    """Radical layers of one parabolic Verma module.

    rows[j] maps z in {}^I W^J to the multiplicity of the simple with
    highest weight w_I z mu in layer j.
    """

    pblock: ParabolicBlock
    w: int
    rows: tuple[dict, ...]

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
    lw, wIw = pblock.lift(w)
    if table is None:
        table = table_for(sys)
    w0x = sys.longest_times
    # Q(w_I z, u w_I w) = P(w0 u w_I w, w0 w_I z) is the entry at w0 u w_I w
    # of the column w0 w_I z, absent when w_I z is not below u w_I w.  Only
    # z in {}^I W^J survive translation onto the singular weight; lifted
    # lists them in (length, word) order, which the rows keep
    targets = [(w0x(sys.mul(u, wIw)), sign) for u, sign in pblock.signed_levi]
    graded = []
    for z, (lz, wIz) in pblock.lifted.items():
        if lz > lw:
            break
        col = table.column(w0x(wIz))
        n = []
        for x, sign in targets:
            if (q := col.get(x)) is not None:
                n.extend([0] * (len(q.coeffs) - len(n)))
                for k, c in enumerate(q.coeffs):
                    n[k] += sign * c
        graded.append((z, lz, n))
    rows = graded_rows(lw, graded, ConventionDefectError)
    return ParabolicLayerTable(pblock=pblock, w=w, rows=rows)


def parabolic_layers_dual_path(
    pblock: ParabolicBlock, w: int, table: KLTable | None = None
) -> ParabolicLayerTable:
    """Same table assembled from ordinary layer tables with grading shifts.

    The term for u in W_I contributes the layer table of the ordinary Verma
    at u w_I w, placed at radical offset l(u) with sign (-1)^l(u).  The
    superposition must be supported on layers 0..l(w) and on columns w_I z
    with z in {}^I W^J, with everything else cancelling; violations raise,
    which makes this an independent cross-check of parabolic_layers.  The
    ordinary tables come from ``layers``, whose rows are memoised per
    module, and a surviving column w_I z maps back to z through
    ``pblock.unlifted``.
    """
    block = pblock.block
    sys = block.system
    lw, wIw = pblock.lift(w)
    span = lw + sys.length(pblock.wI)
    acc: list[dict] = [dict() for _ in range(span + 1)]
    for u, sign in pblock.signed_levi:
        shift = sys.length(u)
        target = sys.mul(u, wIw)
        try:
            tab = layers(block, target, table)
        except ValueError:  # the one W^J test of target, that of layers
            raise DefectError(
                "composite parameter is not minimal in its coset modulo W_J"
            ) from None
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
            z = pblock.unlifted.get(x)
            if z is None:
                raise ConventionDefectError(
                    "uncancelled multiplicity outside the parabolic column set"
                )
            if c < 0:
                raise ConventionDefectError(
                    "negative multiplicity in the signed superposition"
                )
            rows[j][z] = c
    return ParabolicLayerTable(pblock=pblock, w=w, rows=tuple(rows))


@dataclass
class CharCheckResult:
    passed: bool
    rows: tuple[tuple[tuple[int, ...], int], ...]  # (beta, dim)


def parabolic_character_check(
    pblock: ParabolicBlock, w: int, depth: int
) -> CharCheckResult:
    """Weight multiplicities of the parabolic Verma on offsets of height <= depth.

    ch M_I(lam) is the alternating sum over u in W_I of the Verma
    characters ch M(u lam), lam = w_I w mu; the offset of u lam below lam
    is lam - u lam, so each term is the full partition function shifted
    by it, and all of them read one table truncated at height <= depth.
    Offsets beta are root coordinates measured down from lam.  The check
    passes when every multiplicity is nonnegative, which a wrong sign in
    the alternating sum can break.

    The Levi-side form (the Weyl character of the Levi module with
    highest weight lam - rho, convolved with the partition function of
    the roots outside the Levi) gives the same numbers: W_I fixes
    rho - rho_I, so its shifts are these, and the full partition table is
    the convolution of the Levi and nilradical tables.
    """
    block = pblock.block
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    _, wIw = pblock.lift(w)
    lam = block.apply(wIw)
    for i in pblock.ambient_I:
        # lam_i = num[i] / den must be an integer >= 1
        if lam.num[i] % lam.den or lam.num[i] < lam.den:
            raise DefectError(
                "highest weight is not dominant regular on the Levi simples"
            )
    # lam - u lam = rise(w_I w) - rise(u w_I w), both measured from mu
    shifts = tuple(
        (sign, block.offset(wIw, block.system.mul(u, wIw)))
        for u, sign in pblock.signed_levi
    )
    rows, passed = _character_rows(block.rs, depth, shifts)
    return CharCheckResult(passed=passed, rows=rows)


@cache
def _character_rows(rs: RootSystem, depth: int, shifts: tuple) -> tuple:
    """(rows, passed): rows are ((beta, sum of sign * P(beta - d)) over the
    signed shifts (sign, d)) on every box of height <= depth, and passed
    says every one of them is nonnegative.  Kept per shift list until
    clear_caches()."""
    rows = tuple(shifted_sum(partition_table(rs, depth), shifts).items())
    return rows, all(dim >= 0 for _, dim in rows)
