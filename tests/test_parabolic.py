"""Parabolic Verma layer tables, the dual assembly, and character checks."""

import itertools
from fractions import Fraction

import pytest

from jantzen import weyl
from jantzen.blocks import DefectError, integral_block
from jantzen.filtration import layers
from jantzen.kl import table_for
from jantzen.parabolic import (
    ConventionDefectError,
    ParabolicLayerTable,
    enumerate_IWJ,
    parabolic_character_check,
    parabolic_layers,
    parabolic_layers_dual_path,
)
from jantzen.roots import LieType, Weight, boxes, build_root_system, partition_count
from jantzen.suite import suite_weights


def _rs(name):
    return build_root_system(LieType.parse(name))


def _named_rows(pblock, table):
    sys = pblock.block.system
    return [
        {(" ".join(str(i + 1) for i in sys.word(z)) or "e"): m for z, m in row.items()}
        for row in table.rows
    ]


def test_a2_maximal_parabolic():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, (0,))
    sys = block.system
    words = [sys.word(w) for w in pb.reps]
    assert words == [(), (1,), (1, 0)]
    assert pb.wI == sys.gens[0]
    assert pb.I == (0,)

    expected = [
        [{"e": 1}],
        [{"2": 1}, {"e": 1}],
        [{"2 1": 1}, {"2": 1}, {}],
    ]
    lengths = [1, 2, 2]
    for w, rows, ll in zip(pb.reps, expected, lengths):
        t = parabolic_layers(pb, w)
        assert _named_rows(pb, t) == rows
        assert t.loewy_length == ll
        t.validate()


def test_a2_empty_I_degenerates_to_ordinary():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, ())
    assert pb.wI == block.system.identity
    assert set(pb.reps) == set(block.coset_reps())
    for w in pb.reps:
        assert parabolic_layers(pb, w).rows == layers(block, w).rows


def test_a2_full_I_leaves_identity():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, (0, 1))
    assert pb.reps == (block.system.identity,)
    t = parabolic_layers(pb, pb.reps[0])
    assert _named_rows(pb, t) == [{"e": 1}]


def test_b2_maximal_parabolics():
    rs = _rs("B2")
    block = integral_block(rs, Weight.of(-1, -1))
    sys = block.system
    pb = enumerate_IWJ(block, (1,))
    words = [sys.word(w) for w in pb.reps]
    assert words == [(), (0,), (0, 1), (0, 1, 0)]
    expected = [
        [{"e": 1}],
        [{"1": 1}, {"e": 1}],
        [{"1 2": 1}, {"1": 1}, {}],
        [{"1 2 1": 1}, {"1 2": 1}, {}, {}],
    ]
    for w, rows in zip(pb.reps, expected):
        t = parabolic_layers(pb, w)
        assert _named_rows(pb, t) == rows
        t.validate()


def test_dual_path_agreement():
    for name in ("A2", "A3", "B2", "G2"):
        rs = _rs(name)
        block = integral_block(rs, Weight.of(*[-1] * rs.rank))
        n = block.system.num_gens
        for r in range(n + 1):
            for I in itertools.combinations(range(n), r):
                pb = enumerate_IWJ(block, I)
                for w in pb.reps:
                    direct = parabolic_layers(pb, w)
                    dual = parabolic_layers_dual_path(pb, w)
                    assert direct.rows == dual.rows, (name, I, block.system.word(w))


def test_singular_parabolic_restricts_regular():
    rs = _rs("A2")
    singular = integral_block(rs, Weight.of(0, -1))
    regular = integral_block(rs, Weight.of(-1, -1))
    # I must avoid the wall: alpha2 stays dominant-regular on I
    pbs = enumerate_IWJ(singular, (1,))
    pbr = enumerate_IWJ(regular, (1,))
    keep = set(pbs.reps)
    assert keep <= set(pbr.reps)
    for w in pbs.reps:
        srows = parabolic_layers(pbs, w).rows
        rrows = parabolic_layers(pbr, w).rows
        assert len(srows) == len(rrows)
        for srow, rrow in zip(srows, rrows):
            assert srow == {z: m for z, m in rrow.items() if z in keep}


def test_singular_wall_interacts_with_I():
    # mu on the alpha1 wall of A2 with I = {alpha1}: only w = s2 makes the
    # translate dominant regular on the Levi.  The module is simple: its
    # bottom layer is empty, so the Loewy length is 1, not l(w) + 1.
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(0, -1))
    pb = enumerate_IWJ(block, (0,))
    sys = block.system
    assert tuple(sys.word(w) for w in pb.reps) == ((1,),)
    w = pb.reps[0]
    assert pb.highest_weight(w) == Weight.of(1, 0)
    t = parabolic_layers(pb, w)
    assert t.rows == ({w: 1}, {})
    assert t.loewy_length == 1


def test_most_singular_wall_inside_I_gives_no_modules():
    # For the most singular A1 weight, no translate is dominant regular on
    # I = {alpha1}, so the parametrizing set is empty.
    rs = _rs("A1")
    block = integral_block(rs, Weight.of(0))
    pb = enumerate_IWJ(block, (0,))
    assert pb.reps == ()


def test_highest_weight_levi_dominance():
    # <(wI w) mu, alpha_i^vee> >= 1 for i in I: the Levi sees a dominant
    # integral highest weight (after the rho shift).
    for name in ("A2", "B2", "B3"):
        rs = _rs(name)
        block = integral_block(rs, Weight.of(*[-1] * rs.rank))
        n = block.system.num_gens
        for r in range(1, n + 1):
            for I in itertools.combinations(range(n), r):
                pb = enumerate_IWJ(block, I)
                for w in pb.reps:
                    lam = pb.highest_weight(w)
                    for i in pb.ambient_I:
                        c = lam.coords[i]
                        assert c.denominator == 1 and c >= 1, (name, I, c)


def test_wI_is_longest_involution():
    rs = _rs("B3")
    block = integral_block(rs, Weight.of(-1, -1, -1))
    sys = block.system
    for I in ((0,), (1,), (0, 1), (1, 2), (0, 1, 2)):
        pb = enumerate_IWJ(block, I)
        assert pb.wI == sys.longest_element(I)
        assert sys.mul(pb.wI, pb.wI) == sys.identity


def test_character_check_values():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, (0,))
    for w in pb.reps:
        res = parabolic_character_check(pb, w, 4)
        assert res.passed
        assert res.depth == 4
        for beta, lhs, rhs in res.rows:
            assert lhs == rhs
    # the finite-dimensional case: I = full set, trivial module
    pb = enumerate_IWJ(block, (0, 1))
    res = parabolic_character_check(pb, pb.reps[0], 4)
    assert res.passed
    by_beta = {beta: lhs for beta, lhs, _ in res.rows}
    assert by_beta[(0, 0)] == 1
    # L(rho - rho) is trivial: no other weights at all
    assert all(v == 0 for beta, v in by_beta.items() if any(beta))


def test_character_check_rejects_negative_depth():
    # a negative depth has no rows, so the check would pass vacuously
    rs = _rs("A2")
    pb = enumerate_IWJ(integral_block(rs, Weight.of(-1, -1)), (0,))
    with pytest.raises(ValueError, match="nonnegative"):
        parabolic_character_check(pb, pb.reps[0], -1)


def test_character_check_adjoint_levi():
    # A2, I = {1}, w = e: the parabolic Verma induced from the trivial
    # Levi character: dim at offset beta counts sl3/p weight vectors.
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, (0,))
    res = parabolic_character_check(pb, pb.reps[0], 3)
    assert res.passed
    by_beta = {beta: lhs for beta, lhs, _ in res.rows}
    # highest weight rho - rho = 0 on the Levi: M_I(0) has the weights of
    # U(span{f_alpha2, f_alpha12}) twisted by the alpha1 string structure
    assert by_beta[(0, 0)] == 1
    assert by_beta[(0, 1)] == 1
    assert by_beta[(1, 1)] == 1
    assert by_beta[(1, 0)] == 0  # f_alpha1 lies in the Levi


def test_nonintegral_ambient_I_rejected():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(Fraction(-1, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        enumerate_IWJ(block, (0,))
    # empty I is still fine
    pb = enumerate_IWJ(block, ())
    assert len(pb.reps) == 2


def test_nonintegral_ambient_I_allowed_when_integral():
    # B2 at (-1/2, -1): alpha2 is integral and simple in the block.
    rs = _rs("B2")
    block = integral_block(rs, Weight.of(Fraction(-1, 2), -1))
    pb = enumerate_IWJ(block, (1,))
    for w in pb.reps:
        t = parabolic_layers(pb, w)
        t.validate()
        assert parabolic_layers_dual_path(pb, w).rows == t.rows
        assert parabolic_character_check(pb, w, 3).passed


def test_enumerate_rejects_bad_indices():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    with pytest.raises(ValueError):
        enumerate_IWJ(block, (5,))
    with pytest.raises(ValueError):
        enumerate_IWJ(block, (-1,))


def test_parabolic_layers_rejects_non_rep():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, (0,))
    s1 = block.system.gens[0]
    assert s1 not in pb.reps
    with pytest.raises(ValueError):
        parabolic_layers(pb, s1)


def test_validate_errors():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, (0,))
    w = pb.reps[1]
    good = parabolic_layers(pb, w)
    bad = ParabolicLayerTable(
        pblock=pb, w=w, columns=good.columns, rows=good.rows[:-1], n_polys=good.n_polys
    )
    with pytest.raises(DefectError):
        bad.validate()
    bad = ParabolicLayerTable(
        pblock=pb,
        w=w,
        columns=good.columns,
        rows=({pb.reps[0]: 1},) + good.rows[1:],
        n_polys=good.n_polys,
    )
    with pytest.raises(DefectError):
        bad.validate()


def test_loewy_length_ignores_trailing_empty_layers():
    rs = _rs("B2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, (1,))
    w = pb.reps[3]  # length 3
    t = parabolic_layers(pb, w)
    assert len(t.rows) == 4
    assert t.loewy_length == 2
    assert t.rows[2] == {} and t.rows[3] == {}
    assert t.mult(0, w) == 1
    assert t.mult(9, w) == 0


def test_g2_parabolic_tables():
    rs = _rs("G2")
    block = integral_block(rs, Weight.of(-1, -1))
    sys = block.system
    for I in ((0,), (1,)):
        pb = enumerate_IWJ(block, I)
        assert len(pb.reps) == 6  # |W|/|W_I| = 12/2
        for w in pb.reps:
            t = parabolic_layers(pb, w)
            t.validate()
            assert t.rows[0] == {w: 1}
            assert all(m >= 0 for row in t.rows for m in row.values())
            assert parabolic_layers_dual_path(pb, w).rows == t.rows


def test_multiplicities_nonnegative_across_suites():
    for name in ("A2", "B2"):
        rs = _rs(name)
        for label, mu in suite_weights(rs):
            block = integral_block(rs, mu)
            for I in _block_simple_subsets(rs, block):
                pb = enumerate_IWJ(block, I)
                for w in pb.reps:
                    t = parabolic_layers(pb, w)
                    assert all(
                        m >= 0 for row in t.rows for m in row.values()
                    ), (name, label, I)


def _block_simple_subsets(rs, block):
    valid = [
        i
        for i in range(rs.rank)
        if tuple(1 if k == i else 0 for k in range(rs.rank)) in block.delta_roots
    ]
    for r in range(len(valid) + 1):
        yield from itertools.combinations(valid, r)


def _char_rows_per_beta(pb, w, depth):
    """The character check's rows by one partition_count call per (beta,
    gamma) pair, gamma running over the box below beta."""
    rs = pb.block.rs
    sys = pb.block.system
    lam = pb.highest_weight(w)
    levi_pos = [
        i
        for i, vec in enumerate(rs.positive_roots)
        if all(vec[k] == 0 for k in range(rs.rank) if k not in pb.ambient_I)
    ]
    nil_pos = [i for i in range(len(rs.positive_roots)) if i not in levi_pos]
    rho_I = Weight(tuple(1 if k in pb.ambient_I else 0 for k in range(rs.rank)))
    base = Weight(tuple(c - 1 for c in lam.coords)) + rho_I

    def shifts(source):
        out = []
        for u in sys.subgroup_elements(pb.I):
            rc = rs.weight_to_root_coords((source - sys.apply(u, source)).coords)
            out.append((-1 if sys.length(u) % 2 else 1, tuple(int(c) for c in rc)))
        return out

    levi_shifts, verma_shifts = shifts(base), shifts(lam)

    def signed(shift_list, vec, idx):
        total = 0
        for sign, d in shift_list:
            arg = tuple(v - s for v, s in zip(vec, d))
            if all(a >= 0 for a in arg):
                total += sign * partition_count(rs, arg, idx)
        return total

    rows = []
    for beta in boxes(rs.rank, depth):
        lhs = 0
        for gamma in itertools.product(*(range(b + 1) for b in beta)):
            rest = tuple(b - g for b, g in zip(beta, gamma))
            lhs += signed(levi_shifts, gamma, levi_pos) * partition_count(
                rs, rest, nil_pos
            )
        rows.append((beta, lhs, signed(verma_shifts, beta, None)))
    return tuple(rows)


@pytest.mark.parametrize("name", ["B3", "C3", "G2"])
def test_character_check_rows_match_per_beta_counts(name):
    rs = _rs(name)
    label, mu = suite_weights(rs)[0]
    assert label == "regular"
    block = integral_block(rs, mu)
    checked = 0
    for I in _block_simple_subsets(rs, block):
        pb = enumerate_IWJ(block, I)
        for w in pb.reps:
            res = parabolic_character_check(pb, w, 4)
            assert res.passed
            assert res.rows == _char_rows_per_beta(pb, w, 4), (name, I)
            checked += 1
    assert checked == {"B3": 147, "C3": 147, "G2": 25}[name]


def test_parabolic_paths_never_multiply_matrices(monkeypatch):
    # enumerate_IWJ enumerates the group, the one step that multiplies
    # matrices; everything after it walks the per-element tables
    prepared = []
    for name in ("A3", "B3"):
        rs = _rs(name)
        block = integral_block(rs, Weight.of(*([-1] * rs.rank)))
        for I in ((0,), (0, 1)):
            prepared.append((enumerate_IWJ(block, I), table_for(block.system)))
    expected = [
        [
            (
                parabolic_layers(pb, w, table).rows,
                parabolic_layers_dual_path(pb, w, table).rows,
                pb.highest_weight(w),
            )
            for w in pb.reps
        ]
        for pb, table in prepared
    ]

    def no_products(a, b):
        raise AssertionError("matrix product after enumeration")

    monkeypatch.setattr(weyl, "matmul", no_products)
    for (pb, table), want in zip(prepared, expected):
        got = [
            (
                parabolic_layers(pb, w, table).rows,
                parabolic_layers_dual_path(pb, w, table).rows,
                pb.highest_weight(w),
            )
            for w in pb.reps
        ]
        assert got == want


def test_levi_built_once_per_parabolic_block(monkeypatch):
    # W_I with its signs is computed once per parabolic block, however many
    # modules the layer paths and the character check visit
    calls = []
    orig = weyl.CoxeterSystem.subgroup_elements

    def counting(self, I):
        calls.append(I)
        return orig(self, I)

    monkeypatch.setattr(weyl.CoxeterSystem, "subgroup_elements", counting)
    blocks_with_modules = 0
    modules = 0
    for name in ("A3", "B3"):
        rs = _rs(name)
        for _, mu in suite_weights(rs):
            block = integral_block(rs, mu)
            table = table_for(block.system)
            for I in _block_simple_subsets(rs, block):
                pb = enumerate_IWJ(block, I)
                blocks_with_modules += bool(pb.reps)
                for w in pb.reps:
                    parabolic_layers(pb, w, table)
                    parabolic_layers_dual_path(pb, w, table)
                    parabolic_character_check(pb, w, 2)
                    modules += 1
    assert modules > 2 * blocks_with_modules
    assert len(calls) == blocks_with_modules
