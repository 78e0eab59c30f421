"""Radical filtrations of Verma modules and the sum-formula oracle."""

from fractions import Fraction

import pytest

from jantzen.blocks import DefectError, integral_block, normalize, phi_plus_count
from jantzen.filtration import (
    LayerTable,
    domination_check,
    jantzen_filtration,
    layers,
    simple_weight_dims,
    sum_formula_check,
)
from jantzen.kl import table_for
from jantzen.roots import LieType, Weight, build_root_system, kostant_partition
from jantzen.suite import suite_weights


def _rs(name):
    return build_root_system(LieType.parse(name))


def _named_rows(table):
    sys = table.block.system
    return [
        {(" ".join(str(i + 1) for i in sys.word(z)) or "e"): m for z, m in row.items()}
        for row in table.rows
    ]


def test_sl2_regular():
    rs = _rs("A1")
    rep = jantzen_filtration(rs, Weight.of(1))
    assert rep.block.mu == Weight.of(-1)
    assert rep.loewy_length == 2
    assert _named_rows(rep.table) == [{"1": 1}, {"e": 1}]
    # M^1 = M(s mu), M^2 = 0
    sys = rep.block.system
    e = sys.identity
    assert rep.levels[0] == {rep.w: 1, e: 1}
    assert rep.levels[1] == {e: 1}
    assert rep.levels[2] == {}
    rep.table.validate()


def test_sl2_antidominant():
    rs = _rs("A1")
    rep = jantzen_filtration(rs, Weight.of(-3))
    assert rep.w == rep.block.system.identity
    assert _named_rows(rep.table) == [{"e": 1}]
    assert rep.levels == ({rep.block.system.identity: 1}, {})


def test_sl2_singular():
    rs = _rs("A1")
    rep = jantzen_filtration(rs, Weight.of(0))
    assert rep.block.J == (0,)
    assert rep.loewy_length == 1
    assert _named_rows(rep.table) == [{"e": 1}]


def test_sl2_nonintegral():
    rs = _rs("A1")
    rep = jantzen_filtration(rs, Weight.of(Fraction(-1, 2)))
    assert rep.block.system.order() == 1
    assert rep.loewy_length == 1
    assert _named_rows(rep.table) == [{"e": 1}]


def test_a2_regular_full_orbit():
    # All Kazhdan-Lusztig polynomials are 1 in A2, so layer j of M(w mu)
    # collects exactly the z <= w with l(w) - l(z) = j, each once.
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    sys = block.system
    for w in block.coset_reps():
        table = layers(block, w)
        table.validate()
        assert table.loewy_length == sys.length(w) + 1
        for j, row in enumerate(table.rows):
            expected = {
                z: 1
                for z in sys.bruhat_interval_below(w)
                if sys.length(w) - sys.length(z) == j
            }
            assert row == expected, (sys.word(w), j)


def test_a2_longest_element_table():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    w0 = block.system.longest_element()
    named = _named_rows(layers(block, w0))
    assert named == [
        {"1 2 1": 1},
        {"1 2": 1, "2 1": 1},
        {"1": 1, "2": 1},
        {"e": 1},
    ]


def test_a2_singular_tables():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(0, -1))
    reps = block.coset_reps()
    assert [len(block.system.word(w)) for w in reps] == [0, 1, 2]
    expected = [
        [{"e": 1}],
        [{"2": 1}, {"e": 1}],
        [{"1 2": 1}, {"2": 1}, {"e": 1}],
    ]
    for w, rows in zip(reps, expected):
        assert _named_rows(layers(block, w)) == rows


def test_singular_table_is_restricted_regular_table():
    # Columns of the singular table are the regular table's columns that
    # survive translation to the wall.
    for name, mu in (("A2", Weight.of(0, -1)), ("B2", Weight.of(-1, 0))):
        rs = _rs(name)
        singular = integral_block(rs, mu)
        regular = integral_block(rs, Weight.of(*[-1] * rs.rank))
        keep = set(singular.coset_reps())
        for w in singular.coset_reps():
            srows = layers(singular, w).rows
            rrows = layers(regular, w).rows
            assert len(srows) == len(rrows)
            for srow, rrow in zip(srows, rrows):
                assert srow == {z: m for z, m in rrow.items() if z in keep}


def test_b2_regular_tables():
    # B2 is dihedral, so every table is one simple per layer downward.
    rs = _rs("B2")
    block = integral_block(rs, Weight.of(-1, -1))
    sys = block.system
    for w in block.coset_reps():
        table = layers(block, w)
        table.validate()
        for j, row in enumerate(table.rows):
            assert all(m == 1 for m in row.values())
            assert sum(row.values()) == len(
                [
                    z
                    for z in sys.bruhat_interval_below(w)
                    if sys.length(z) == sys.length(w) - j
                ]
            )


def test_layers_rejects_non_representative():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(0, -1))
    s1 = block.system.gens[0]
    assert not block.is_rep(s1)
    with pytest.raises(ValueError):
        layers(block, s1)


def test_layer_table_validate_errors():
    rs = _rs("A1")
    block = integral_block(rs, Weight.of(-1))
    sys = block.system
    w = sys.gens[0]
    good = layers(block, w)
    e = sys.identity
    bad = LayerTable(block=block, w=w, columns=good.columns, rows=(good.rows[0],))
    with pytest.raises(DefectError):
        bad.validate()
    bad = LayerTable(
        block=block, w=w, columns=good.columns, rows=({e: 1}, {w: 1})
    )
    with pytest.raises(DefectError):
        bad.validate()
    bad = LayerTable(
        block=block, w=w, columns=good.columns, rows=({w: 1}, {})
    )
    with pytest.raises(DefectError):
        bad.validate()


def test_level_multiplicities_are_suffix_sums():
    rs = _rs("B2")
    block = integral_block(rs, Weight.of(-1, -1))
    w0 = block.system.longest_element()
    table = layers(block, w0)
    levels = table.level_multiplicities()
    assert len(levels) == table.loewy_length + 1
    assert levels[-1] == {}
    for i in range(table.loewy_length):
        acc = {}
        for row in table.rows[i:]:
            for z, m in row.items():
                acc[z] = acc.get(z, 0) + m
        assert levels[i] == acc
    # totals agree with column sums
    for z in table.columns:
        assert table.total(z) == levels[0].get(z, 0)
        assert table.weighted_total(z) == sum(
            levels[i].get(z, 0) for i in range(1, len(levels))
        )


def test_sum_formula_a2_values():
    rs = _rs("A2")
    res = sum_formula_check(rs, Weight.of(1, 1))
    assert res.passed
    assert len(res.reflected) == phi_plus_count(rs, Weight.of(1, 1)) == 3
    sys = res.block.system
    by_word = {sys.word(z): (lhs, rhs) for z, lhs, rhs in res.per_column}
    assert by_word[()] == (3, 3)
    assert by_word[(0,)] == (2, 2)
    assert by_word[(1,)] == (2, 2)
    assert by_word[(0, 1)] == (1, 1)
    assert by_word[(1, 0)] == (1, 1)
    assert by_word[(0, 1, 0)] == (0, 0)


def test_sum_formula_antidominant_is_empty():
    rs = _rs("A2")
    res = sum_formula_check(rs, Weight.of(-1, -1))
    assert res.passed
    assert res.reflected == ()
    assert all(lhs == rhs == 0 for _, lhs, rhs in res.per_column)


def test_sum_formula_across_small_suites():
    for name in ("A1", "A2", "B2"):
        rs = _rs(name)
        for label, mu in suite_weights(rs):
            block = integral_block(rs, mu)
            for w in block.coset_reps():
                res = sum_formula_check(rs, block.apply(w))
                assert res.passed, (name, label, block.system.word(w))


def test_domination_a2():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    sys = block.system
    table = table_for(sys)
    elems = block.coset_reps()
    tables = {w: layers(block, w, table) for w in elems}
    for x in elems:
        for w in elems:
            if not sys.bruhat_leq(x, w):
                continue
            res = domination_check(block, x, w)
            assert res.passed and res.violations == ()
            assert res.r == sys.length(w) - sys.length(x)
            pre = domination_check(block, x, w, tables[x], tables[w])
            assert pre.passed
            assert pre.r == res.r


def test_domination_shift_is_tight():
    # For x = e inside w = w0 in A2, layer 0 of M(mu) meets layer r of
    # M(w0 mu) exactly (multiplicity 1 against 1).
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    sys = block.system
    e, w0 = sys.identity, sys.longest_element()
    tx = layers(block, e)
    tw = layers(block, w0)
    r = sys.length(w0)
    assert tx.mult(0, e) == 1
    assert tw.mult(r, e) == 1


def test_simple_weight_dims_sl2():
    rs = _rs("A1")
    block = integral_block(rs, Weight.of(-1))
    sys = block.system
    # L(s mu) is the trivial module; L(mu) is the antidominant Verma.
    dims = simple_weight_dims(block, sys.gens[0], 5)
    assert dims[(0,)] == 1
    assert all(dims[(k,)] == 0 for k in range(1, 6))
    dims = simple_weight_dims(block, sys.identity, 5)
    assert all(dims[(k,)] == 1 for k in range(6))


def test_simple_weight_dims_a2():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    sys = block.system
    w0 = sys.longest_element()
    # L(w0 mu) = L(rho - rho) is the trivial representation.
    dims = simple_weight_dims(block, w0, 3)
    for beta, d in dims.items():
        assert d == (1 if not any(beta) else 0)
    # L(mu) = M(mu): Kostant partition counts.
    dims = simple_weight_dims(block, sys.identity, 3)
    for beta, d in dims.items():
        assert d == kostant_partition(rs, beta)
    # L(s1 mu): quotient of M(s1 mu) by M(mu).  Its character is
    # ch M(s1 mu) - ch M(mu) at the matching offsets.
    s1 = sys.gens[0]
    mu = block.mu
    lam = block.apply(s1)
    shift = rs.weight_to_root_coords(
        Weight.of(*(a - b for a, b in zip(lam.coords, mu.coords))).coords
    )
    shift = tuple(int(c) for c in shift)
    dims = simple_weight_dims(block, s1, 3)
    for beta, d in dims.items():
        lower = tuple(b - s for b, s in zip(beta, shift))
        expected = kostant_partition(rs, beta)
        if all(c >= 0 for c in lower):
            expected -= kostant_partition(rs, lower)
        assert d == expected, beta


def test_simple_weight_dims_depth_zero():
    rs = _rs("A1")
    block = integral_block(rs, Weight.of(-1))
    assert simple_weight_dims(block, block.system.identity, 0) == {(0,): 1}
    assert simple_weight_dims(block, block.system.identity, -1) == {}
    with pytest.raises(ValueError):
        # not a minimal coset representative on the wall
        sing = integral_block(rs, Weight.of(0))
        simple_weight_dims(sing, sing.system.gens[0], 2)


def test_filtration_report_loewy_length():
    rs = _rs("B2")
    for nu, expected in (
        (Weight.of(1, 1), 5),
        (Weight.of(0, 1), 4),  # nu = s2 s1 s2 mu for mu = (0, -1)
        (Weight.of(-1, -1), 1),
    ):
        rep = jantzen_filtration(rs, nu)
        assert rep.loewy_length == expected
        rep.table.validate()
