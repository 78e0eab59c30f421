"""Radical filtrations of Verma modules and the sum-formula oracle."""

import ast
import gc
import importlib
import pathlib
import pkgutil
import weakref
from fractions import Fraction

import pytest

import jantzen
from jantzen import clear_caches, filtration
from jantzen.blocks import DefectError, integral_block, normalize
from jantzen.filtration import (
    LayerTable,
    domination_check,
    layers,
    simple_weight_dims,
    sum_formula_check,
)
from jantzen.kl import Poly, build_table, table_for
from jantzen.parabolic import (
    enumerate_IWJ,
    parabolic_character_check,
    parabolic_layers,
)
from jantzen.roots import (
    LieType,
    Weight,
    build_root_system,
    partition_count,
    partition_table,
    reflect,
    shifted_sum,
)
from jantzen.shapovalov import chevalley_basis, oracle_compare
from jantzen.suite import ACCEPTANCE_TYPES, suite_weights
from reference import phi_plus_count, root_coords, weight_sub, word_apply


def _rs(name):
    return build_root_system(LieType.parse(name))


def _named_rows(table):
    sys = table.block.system
    return [
        {(" ".join(str(i + 1) for i in sys.word(z)) or "e"): m for z, m in row.items()}
        for row in table.rows
    ]


def _filtration(rs, nu):
    """Block, parameter and layer table of M(nu)."""
    block, w = normalize(rs, nu)
    return block, w, layers(block, w)


def test_sl2_regular():
    rs = _rs("A1")
    block, w, table = _filtration(rs, Weight.of(1))
    assert block.mu == Weight.of(-1)
    assert table.loewy_length == 2
    assert _named_rows(table) == [{"1": 1}, {"e": 1}]
    # M^1 = M(s mu), M^2 = 0
    e = block.system.identity
    levels = table.level_multiplicities()
    assert levels[0] == {w: 1, e: 1}
    assert levels[1] == {e: 1}
    assert levels[2] == {}
    table.validate()


def test_sl2_antidominant():
    rs = _rs("A1")
    block, w, table = _filtration(rs, Weight.of(-3))
    assert w == block.system.identity
    assert _named_rows(table) == [{"e": 1}]
    assert table.level_multiplicities() == ({block.system.identity: 1}, {})


def test_sl2_singular():
    rs = _rs("A1")
    block, _, table = _filtration(rs, Weight.of(0))
    assert block.J == (0,)
    assert table.loewy_length == 1
    assert _named_rows(table) == [{"e": 1}]


def test_sl2_nonintegral():
    rs = _rs("A1")
    block, _, table = _filtration(rs, Weight.of(Fraction(-1, 2)))
    assert block.system.order() == 1
    assert table.loewy_length == 1
    assert _named_rows(table) == [{"e": 1}]


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
    w0 = block.system.longest_times(block.system.identity)
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


def test_layer_rows_are_kept_per_block(monkeypatch):
    # a second layers call on one (block, w) reads the rows the first one
    # built and builds none, and so does a block equal to it but not the
    # same object; after clear_caches() the rows are built anew, equal
    rs = _rs("A3")
    block = integral_block(rs, Weight.of(-1, -1, -1))
    table = table_for(block.system)
    first = [layers(block, w, table).rows for w in block.coset_reps()]

    def no_rows(*args, **kwargs):
        raise AssertionError("layer rows rebuilt")

    monkeypatch.setattr(filtration, "graded_rows", no_rows)
    other = integral_block(rs, Weight.of(-1, -1, -1))
    assert other == block and other is not block
    for b in (block, other):
        again = [layers(b, w, table).rows for w in b.coset_reps()]
        assert again == first and all(a is b for a, b in zip(again, first))
    monkeypatch.undo()
    clear_caches()
    again = [layers(other, w, table).rows for w in other.coset_reps()]
    assert again == first and not any(a is b for a, b in zip(again, first))


def test_normalized_block_leaves_its_rows_until_clear_caches():
    # the memo is keyed by the block's system and J, not by the block: a
    # block that normalize built for one call is freed, and the next one
    # reads its rows until clear_caches()
    rs = _rs("B2")
    nu = Weight.of(1, 1)
    block, w = normalize(rs, nu)
    table = table_for(block.system)
    rows = layers(block, w, table).rows
    assert filtration._layer_rows(block.system, block.J, w, table) is rows
    ref = weakref.ref(block)
    del block
    gc.collect()
    assert ref() is None
    block, w = normalize(rs, nu)
    assert layers(block, w, table).rows is rows
    clear_caches()
    assert filtration._layer_rows.cache_info().currsize == 0
    assert layers(block, w).rows == rows


def test_layer_table_validate_errors():
    rs = _rs("A1")
    block = integral_block(rs, Weight.of(-1))
    sys = block.system
    w = sys.gens[0]
    good = layers(block, w)
    e = sys.identity
    bad = LayerTable(block=block, w=w, rows=(good.rows[0],))
    with pytest.raises(DefectError):
        bad.validate()
    bad = LayerTable(block=block, w=w, rows=({e: 1}, {w: 1}))
    with pytest.raises(DefectError):
        bad.validate()
    bad = LayerTable(block=block, w=w, rows=({w: 1}, {}))
    with pytest.raises(DefectError):
        bad.validate()


def test_level_multiplicities_are_suffix_sums():
    rs = _rs("B2")
    block = integral_block(rs, Weight.of(-1, -1))
    w0 = block.system.longest_times(block.system.identity)
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
        assert sum(row.get(z, 0) for row in table.rows) == levels[0].get(z, 0)


@pytest.mark.parametrize("name", ["A2", "B2", "A3"])
def test_sum_formula_lhs_is_weighted_layer_count(name):
    # the left side sum_{i>0} [M^i : L(z mu)] is sum_j j [Rad_j : L(z mu)],
    # and every column of the layer table appears in per_column
    rs = _rs(name)
    for label, mu in suite_weights(rs):
        block = integral_block(rs, mu)
        for w in block.coset_reps():
            res = sum_formula_check(rs, block.apply(w))
            lhs = {z: got for z, got, _ in res.per_column}
            assert set(res.table.columns) <= set(lhs)
            for z, got in lhs.items():
                assert got == sum(j * row.get(z, 0) for j, row in enumerate(res.table.rows))


def test_sum_formula_a2_values():
    rs = _rs("A2")
    res = sum_formula_check(rs, Weight.of(1, 1))
    assert res.passed
    assert len(res.reflected) == phi_plus_count(rs, Weight.of(1, 1)) == 3
    sys = normalize(rs, Weight.of(1, 1))[0].system
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


def test_sum_formula_reflected_parameters_match_normalize():
    # sum_formula_check reads v_alpha as the W^J part of t_alpha w; the
    # reference normalizes s_alpha nu from scratch.
    for name in ACCEPTANCE_TYPES:
        rs = _rs(name)
        for label, mu in suite_weights(rs, 0):
            block = integral_block(rs, mu)
            for w in block.coset_reps():
                nu = block.apply(w)
                res = sum_formula_check(rs, nu)
                for alpha, v in res.reflected:
                    block2, v2 = normalize(rs, reflect(rs, nu, alpha))
                    assert block2.mu == mu
                    assert v == v2, (name, label, nu.serialize(), alpha)


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
                with pytest.raises(ValueError, match="below w in Bruhat order"):
                    domination_check(tables[x], tables[w])
                continue
            res = domination_check(tables[x], tables[w])
            assert res.passed and res.violations == ()
            r = sys.length(w) - sys.length(x)
            for j, row in enumerate(tables[x].rows):
                assert all(m <= tables[w].mult(j + r, z) for z, m in row.items())


def test_domination_shift_is_tight():
    # For x = e inside w = w0 in A2, layer 0 of M(mu) meets layer r of
    # M(w0 mu) exactly (multiplicity 1 against 1).
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    sys = block.system
    e, w0 = sys.identity, sys.longest_times(sys.identity)
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
    w0 = sys.longest_times(sys.identity)
    # L(w0 mu) = L(rho - rho) is the trivial representation.
    dims = simple_weight_dims(block, w0, 3)
    for beta, d in dims.items():
        assert d == (1 if not any(beta) else 0)
    # L(mu) = M(mu): Kostant partition counts.
    dims = simple_weight_dims(block, sys.identity, 3)
    for beta, d in dims.items():
        assert d == partition_count(rs, beta)
    # L(s1 mu): quotient of M(s1 mu) by M(mu).  Its character is
    # ch M(s1 mu) - ch M(mu) at the matching offsets.
    s1 = sys.gens[0]
    mu = block.mu
    lam = block.apply(s1)
    shift = tuple(int(c) for c in root_coords(rs, [weight_sub(lam, mu)])[0])
    dims = simple_weight_dims(block, s1, 3)
    for beta, d in dims.items():
        lower = tuple(b - s for b, s in zip(beta, shift))
        expected = partition_count(rs, beta)
        if all(c >= 0 for c in lower):
            expected -= partition_count(rs, lower)
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


def test_simple_weight_dims_memo_keys_on_mu():
    # both blocks are regular and integral, so they share the interned
    # full Weyl group; L(s1 mu) sits 1 and 2 alpha_1 above mu respectively
    rs = _rs("A2")
    clear_caches()
    a = integral_block(rs, Weight.of(-1, -1))
    b = integral_block(rs, Weight.of(-2, -1))
    assert a.system is b.system
    s1 = a.system.gens[0]
    dims_a = simple_weight_dims(a, s1, 3)
    dims_b = simple_weight_dims(b, s1, 3)
    assert dims_a != dims_b
    assert dims_a[(1, 0)] == 0 and dims_b[(1, 0)] == 1
    # a warm call returns the memo; a cold one recomputes the same numbers
    assert simple_weight_dims(a, s1, 3) is dims_a
    clear_caches()
    assert simple_weight_dims(b, s1, 3) == dims_b
    assert simple_weight_dims(a, s1, 3) == dims_a


def test_simple_weight_dims_keeps_no_block_alive():
    # the memo is keyed by the block's system, J and mu: a block that
    # normalize built for one call is freed with its layer rows, and an
    # equal block reads the same entry
    rs = _rs("B2")
    block, w = normalize(rs, Weight.of(1, 1))
    layers(block, w)
    dims = simple_weight_dims(block, w, 2)
    ref = weakref.ref(block)
    del block
    gc.collect()
    assert ref() is None
    block, w = normalize(rs, Weight.of(1, 1))
    assert simple_weight_dims(block, w, 2) is dims


def _simple_dims_by_back_substitution(block, z, depth):
    """ch L(z mu) the long way: invert the unitriangular matrix
    [M(u mu) : L(v mu)] = Q(v, u)(1) over W^J below z by back-substitution,
    then expand each ch M(v mu) by the Kostant partition function."""
    table = table_for(block.system)

    def q_at_1(u):  # {v: Q(v, u)(1)}: v's entries summed over the rows of u
        out = {}
        for row in filtration._layer_rows(block.system, block.J, u, table):
            for v, m in row.items():
                out[v] = out.get(v, 0) + m
        return out

    below = tuple(sorted(q_at_1(z)))
    index = {v: i for i, v in enumerate(below)}
    size = len(below)
    mult = [[0] * size for _ in range(size)]
    for col, u in enumerate(below):
        for v, m in q_at_1(u).items():
            mult[index[v]][col] = m
    # the z-column of the inverse: ch L(z mu) = sum_v coeffs[v] ch M(v mu)
    coeffs = [0] * size
    zi = index[z]
    for row in range(size - 1, -1, -1):
        val = 1 if row == zi else 0
        for col in range(row + 1, size):
            val -= mult[row][col] * coeffs[col]
        coeffs[row] = val  # diagonal entries are 1
    terms = [(coeffs[index[v]], block.offset(z, v)) for v in below]
    return shifted_sum(partition_table(block.rs, depth), terms)


@pytest.mark.parametrize("name", ACCEPTANCE_TYPES)
def test_simple_weight_dims_match_back_substitution(name):
    # P by inversion (simple_weight_dims) against Q by back-substitution
    rs = _rs(name)
    for label, mu in suite_weights(rs, 0):
        block = integral_block(rs, mu)
        for z in block.coset_reps():
            want = _simple_dims_by_back_substitution(block, z, 3)
            assert simple_weight_dims(block, z, 3) == want, (label, z)


# per-type constants: built once per type and never cleared
_CONSTANTS = ("build_root_system", "chevalley_basis")


def _module_attrs():
    for info in pkgutil.iter_modules(jantzen.__path__):
        mod = importlib.import_module(f"jantzen.{info.name}")
        for attr, value in vars(mod).items():
            yield f"{info.name}.{attr}", attr, value


def _uses_cached_property(text):
    """Whether the source names cached_property: as a name, an attribute
    or an imported name (``ast.Name.id``, ``ast.Attribute.attr``,
    ``ast.alias.name``)."""
    return any(
        getattr(node, field, None) == "cached_property"
        for node in ast.walk(ast.parse(text))
        for field in ("id", "attr", "name")
    )


def test_clear_caches_empties_every_memo():
    rs = _rs("B2")
    sum_formula_check(rs, Weight.of(1, 1))
    oracle_compare(rs, Weight.of(1, 0), 2)
    pb = enumerate_IWJ(integral_block(rs, Weight.of(-1, -1)), (0,))
    parabolic_layers(pb, pb.reps[-1])
    parabolic_character_check(pb, pb.reps[-1], 2)
    memos = {
        name: value
        for name, attr, value in _module_attrs()
        if hasattr(value, "cache_info") and attr not in _CONSTANTS
    }
    assert {
        "blocks._orbit",
        "blocks._rep_mask",
        "filtration._layer_rows",
        "filtration._simple_weight_dims",
        "kl._table",
        "parabolic._character_rows",
        "roots.partition_table",
        "weyl._subsystem",
    } <= set(memos)
    for name, memo in memos.items():
        assert memo.cache_info().currsize, name
    # every memo is a functools cache: no module keeps a dict of its own
    dicts = [
        name
        for name, attr, value in _module_attrs()
        if isinstance(value, dict) and attr[:1] == "_" and attr[1:2].islower()
    ]
    assert dicts == []
    # and no object keeps one: a cached_property lives on its instance,
    # out of clear_caches()'s reach
    src = pathlib.Path(jantzen.__file__).parent
    assert _uses_cached_property("from functools import cached_property")
    assert _uses_cached_property("import functools as f\nf.cached_property")
    assert [p.name for p in sorted(src.glob("*.py")) if _uses_cached_property(p.read_text())] == []
    sizes = [c.cache_info().currsize for c in (build_root_system, chevalley_basis)]
    clear_caches()
    assert {name for name, memo in memos.items() if memo.cache_info().currsize} == set()
    assert [c.cache_info().currsize for c in (build_root_system, chevalley_basis)] == sizes


def _all_ones_minus_q(sys):
    """A complete table of sys whose every entry is 1 - q."""
    bad = build_table(sys)
    for col in bad._cols.values():
        for x in col:
            col[x] = Poly((1, -1))
    return bad


def test_passed_table_is_never_ignored():
    # a warm column must not stand in for the table a caller passes
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    sys = block.system
    w0 = sys.longest_times(sys.identity)
    layers(block, w0, table_for(sys))
    bad = _all_ones_minus_q(sys)
    with pytest.raises(DefectError):
        layers(block, w0, bad)
    pb = enumerate_IWJ(block, (0,))
    # the module at w with w_I w = w0, whose rows the warm table gives
    w = next(w for w in pb.reps if sys.mul(pb.wI, w) == w0)
    parabolic_layers(pb, w, table_for(sys))
    with pytest.raises(DefectError):
        parabolic_layers(pb, w, bad)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_block_offsets_match_root_offset(name):
    rs = _rs(name)
    for label, mu in suite_weights(rs):
        block = integral_block(rs, mu)
        sys = block.system
        # root coordinates of x(mu) - mu by the reference walk and solve
        images = [word_apply(sys, x, mu) for x in sys.elements()]
        rises = root_coords(rs, [weight_sub(nu, mu) for nu in images])
        for x in sys.elements():
            for y in sys.elements():
                diff = [a - b for a, b in zip(rises[x], rises[y])]
                if sys.bruhat_leq(y, x):
                    assert block.offset(x, y) == tuple(diff), (label, x, y)
                elif any(c < 0 for c in diff):
                    with pytest.raises(DefectError, match="not a sum of positive"):
                        block.offset(x, y)


def test_block_offset_rejects_a_negative_difference():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    s1 = block.system.gens[0]
    assert block.offset(s1, block.system.identity) == (1, 0)
    # mu - s1(mu) = -alpha_1
    with pytest.raises(DefectError, match="-2,1 is not a sum of positive roots"):
        block.offset(block.system.identity, s1)


def test_filtration_report_loewy_length():
    rs = _rs("B2")
    for nu, expected in (
        (Weight.of(1, 1), 5),
        (Weight.of(0, 1), 4),  # nu = s2 s1 s2 mu for mu = (0, -1)
        (Weight.of(-1, -1), 1),
    ):
        _, _, table = _filtration(rs, nu)
        assert table.loewy_length == expected
        table.validate()
