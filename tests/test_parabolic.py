"""Parabolic Verma layer tables, the dual assembly, and character checks."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from jantzen import blocks, clear_caches, filtration, parabolic, weyl
from jantzen.blocks import DefectError, integral_block
from jantzen.filtration import layers
from jantzen.kl import table_for
from jantzen.parabolic import (
    ParabolicLayerTable,
    enumerate_IWJ,
    parabolic_character_check,
    parabolic_layers,
    parabolic_layers_dual_path,
)
from jantzen.roots import LieType, Weight, boxes, build_root_system, partition_count
from jantzen.suite import ACCEPTANCE_TYPES, suite_weights
from reference import kostant_counts, root_coords, weight_add, weight_sub, word_apply


def _rs(name):
    return build_root_system(LieType.parse(name))


def _highest_weight(pb, w):
    """The highest weight (w_I w)(mu) of the parabolic Verma at w."""
    return pb.block.apply(pb.block.system.mul(pb.wI, w))


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
    assert pb.lifted == {w: (sys.length(w), sys.mul(pb.wI, w)) for w in pb.reps}
    # lifted is derived data: equality and hash read the other fields
    assert pb == enumerate_IWJ(block, (0,)) and len({pb, enumerate_IWJ(block, (0,))}) == 1

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
    # every module of the parabolic-suite benchmark at seeds 0 and 1: each
    # suite block of the acceptance types, every I of its block-simple
    # ambient simple roots; unlifted inverts the lift of every rep
    modules = 0
    for seed in (0, 1):
        for name in ACCEPTANCE_TYPES:
            rs = _rs(name)
            for label, mu in suite_weights(rs, seed):
                block = integral_block(rs, mu)
                table = table_for(block.system)
                for I in _block_simple_subsets(rs, block):
                    pb = enumerate_IWJ(block, I)
                    assert {pb.lift(z)[1]: z for z in pb.reps} == pb.unlifted
                    for w in pb.reps:
                        direct = parabolic_layers(pb, w, table)
                        dual = parabolic_layers_dual_path(pb, w, table)
                        assert dual.rows == direct.rows, (seed, name, label, I, w)
                        modules += 1
    assert modules == 1169 + 1182


def test_dual_path_sees_a_fault_in_the_ordinary_reader(monkeypatch):
    # drop s1 s2 from the W^J bitmask that the ordinary layer rows read:
    # parabolic_layers reads the KL table directly, so the comparison of
    # the two paths must catch the fault on some module of A3's regular
    # block (30 modules over I = {1}, {2}, {1, 3})
    rs = _rs("A3")
    block = integral_block(rs, Weight.of(-1, -1, -1))
    sys = block.system
    dropped = sys.element_from_word((0, 1))
    mask = blocks._rep_mask
    clear_caches()
    monkeypatch.setattr(filtration, "_rep_mask", lambda s, J: mask(s, J) & ~(1 << dropped))
    modules = caught = 0
    try:
        for I in [(0,), (1,), (0, 2)]:
            pb = enumerate_IWJ(block, I)
            for w in pb.reps:
                modules += 1
                direct = parabolic_layers(pb, w)
                try:
                    caught += parabolic_layers_dual_path(pb, w).rows != direct.rows
                except DefectError:
                    caught += 1
    finally:
        clear_caches()  # no faulty rows outlive the plant
    assert modules == 30 and caught >= 1


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
    assert _highest_weight(pb, w) == Weight.of(1, 0)
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
                    lam = _highest_weight(pb, w)
                    for i in pb.ambient_I:
                        c = lam.coords[i]
                        assert c.denominator == 1 and c >= 1, (name, I, c)


def test_wI_is_longest_involution():
    # on the regular block the system is the ambient group, so I indexes
    # its generators; the longest element of W_I is the involution of W_I
    # whose length is the number of positive roots supported on I
    for name in ACCEPTANCE_TYPES:
        rs = _rs(name)
        block = integral_block(rs, Weight.of(*([-1] * rs.rank)))
        sys = block.system
        for r in range(rs.rank + 1):
            for I in itertools.combinations(range(rs.rank), r):
                wI = enumerate_IWJ(block, I).wI
                assert set(sys.word(wI)) <= set(I)
                supported = [
                    root
                    for root in rs.positive_roots
                    if all(c == 0 for k, c in enumerate(root) if k not in I)
                ]
                assert sys.length(wI) == len(supported)
                assert sys.mul(wI, wI) == sys.identity


def test_character_check_values():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, (0,))
    for w in pb.reps:
        res = parabolic_character_check(pb, w, 4)
        assert res.passed
    # the finite-dimensional case: I = full set, trivial module
    pb = enumerate_IWJ(block, (0, 1))
    res = parabolic_character_check(pb, pb.reps[0], 4)
    assert res.passed
    by_beta = dict(res.rows)
    assert by_beta[(0, 0)] == 1
    # L(rho - rho) is trivial: no other weights at all
    assert all(v == 0 for beta, v in by_beta.items() if any(beta))


def test_character_check_fails_on_a_flipped_sign():
    # A2, I = {1, 2}, w = e: M_I is the trivial module.  With the sign of
    # s1 s2 flipped the alternating sum is no character; it has negative
    # multiplicities, and the check must fail on them
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    pb = enumerate_IWJ(block, (0, 1))
    w = pb.reps[0]
    assert parabolic_character_check(pb, w, 4).passed
    s1s2 = block.system.element_from_word((0, 1))
    flipped = tuple((u, -sign if u == s1s2 else sign) for u, sign in pb.signed_levi)
    pb = dataclasses.replace(pb, signed_levi=flipped)
    # the rows memo is warm with the clean shift list; the flipped one
    # must miss it, not read the clean rows back
    misses = parabolic._character_rows.cache_info().misses
    res = parabolic_character_check(pb, w, 4)
    assert parabolic._character_rows.cache_info().misses == misses + 1
    assert not res.passed
    assert min(dim for _, dim in res.rows) == -2


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
    by_beta = dict(res.rows)
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


def test_enumerate_rejects_wI_z_outside_WJ(monkeypatch):
    # parabolic_layers reads Q(w_I z, -) from columns over W^J, so
    # enumerate_IWJ must refuse a z in {}^I W^J with w_I z outside W^J.
    # With membership forced true, z = e gives w_I = s1, which lies in
    # the coset s1 W_J of the wall J = {s1}.
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(0, -1))
    assert block.J == (0,)
    monkeypatch.setattr(
        weyl.CoxeterSystem, "upper_coset_membership", lambda self, w, I, J: True
    )
    with pytest.raises(DefectError, match="w_I z"):
        enumerate_IWJ(block, (0,))


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
    bad = ParabolicLayerTable(pblock=pb, w=w, rows=good.rows[:-1])
    with pytest.raises(DefectError):
        bad.validate()
    bad = ParabolicLayerTable(
        pblock=pb, w=w, rows=({pb.reps[0]: 1},) + good.rows[1:]
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
    """ch M_I by both routes, per beta: (beta, lhs, rhs) with lhs the Levi
    Weyl character convolved with the nilradical partition function
    (gamma running over the box below beta), both counted by the
    reference, and rhs the alternating sum over W_I of Verma characters,
    one partition_count call per term."""
    rs = pb.block.rs
    sys = pb.block.system
    lam = _highest_weight(pb, w)
    levi_pos = [
        i
        for i, vec in enumerate(rs.positive_roots)
        if all(vec[k] == 0 for k in range(rs.rank) if k not in pb.ambient_I)
    ]
    nil_pos = [i for i in range(len(rs.positive_roots)) if i not in levi_pos]
    rho_I = Weight.of(*(1 if k in pb.ambient_I else 0 for k in range(rs.rank)))
    base = weight_add(Weight.of(*(c - 1 for c in lam.coords)), rho_I)

    def shifts(source):
        levi = sys.subgroup_elements(pb.I)
        rcs = root_coords(rs, [weight_sub(source, word_apply(sys, u, source)) for u in levi])
        return [
            (-1 if sys.length(u) % 2 else 1, tuple(int(c) for c in rc))
            for u, rc in zip(levi, rcs)
        ]

    levi_shifts, verma_shifts = shifts(base), shifts(lam)

    def signed(shift_list, vec, count):
        total = 0
        for sign, d in shift_list:
            arg = tuple(v - s for v, s in zip(vec, d))
            if all(a >= 0 for a in arg):
                total += sign * count(arg)
        return total

    levi_counts = kostant_counts(rs, depth, levi_pos)
    nil_counts = kostant_counts(rs, depth, nil_pos)
    rows = []
    for beta in boxes(rs.rank, depth):
        lhs = 0
        for gamma in itertools.product(*(range(b + 1) for b in beta)):
            rest = tuple(b - g for b, g in zip(beta, gamma))
            lhs += signed(levi_shifts, gamma, levi_counts.__getitem__) * nil_counts[rest]
        rhs = signed(verma_shifts, beta, lambda b: partition_count(rs, b))
        rows.append((beta, lhs, rhs))
    return tuple(rows)


@pytest.mark.parametrize("name", ["B3", "C3", "G2"])
def test_character_check_rows_match_per_beta_counts(name):
    # every seed-0 suite block of B3 and G2: the singular and nonintegral
    # blocks repeat shift lists most, so there the rows come from the memo;
    # the regular block only of C3
    rs = _rs(name)
    weights = suite_weights(rs)
    if name == "C3":
        weights = weights[:1]
        assert weights[0][0] == "regular"
    hits = parabolic._character_rows.cache_info().hits
    checked = 0
    for label, mu in weights:
        block = integral_block(rs, mu)
        for I in _block_simple_subsets(rs, block):
            pb = enumerate_IWJ(block, I)
            for w in pb.reps:
                res = parabolic_character_check(pb, w, 4)
                assert res.passed
                rows = _char_rows_per_beta(pb, w, 4)
                assert all(lhs == rhs for _, lhs, rhs in rows), (name, label, I)
                want = tuple((beta, rhs) for beta, _, rhs in rows)
                assert res.rows == want, (name, label, I)
                checked += 1
    assert checked == {"B3": 423, "C3": 147, "G2": 55}[name]
    if name != "C3":
        assert parabolic._character_rows.cache_info().hits > hits


def test_dual_path_refuses_a_target_outside_w_j():
    # a planted lift w_I w outside W^J makes the composite parameter of
    # u = e leave W^J: the dual path reports a defect, not the usage error
    # that layers gives a caller for such a w
    block = integral_block(_rs("A2"), Weight.of(0, -1))
    sys = block.system
    pb = enumerate_IWJ(block, ())
    w = pb.reps[0]
    outside = next(x for x in sys.elements() if not block.is_rep(x))
    planted = dataclasses.replace(pb, lifted={w: (sys.length(w), outside)})
    with pytest.raises(DefectError, match="^composite parameter is not minimal"):
        parabolic_layers_dual_path(planted, w)
    with pytest.raises(ValueError, match="^w is not a minimal-length coset"):
        layers(block, outside)


def test_parabolic_paths_reflect_each_weight_once(monkeypatch):
    # enumerate_IWJ enumerates the group and the first pass builds the
    # orbit entries w(mu), the two steps that reflect; a second pass walks
    # the per-element tables and reads the memoised entries
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
                _highest_weight(pb, w),
            )
            for w in pb.reps
        ]
        for pb, table in prepared
    ]

    def no_steps(v, a, b):
        raise AssertionError("reflection step in the second pass")

    for mod in (weyl, blocks):
        monkeypatch.setattr(mod, "reflect_vector", no_steps)
    for (pb, table), want in zip(prepared, expected):
        got = [
            (
                parabolic_layers(pb, w, table).rows,
                parabolic_layers_dual_path(pb, w, table).rows,
                _highest_weight(pb, w),
            )
            for w in pb.reps
        ]
        assert got == want


def test_levi_built_once_per_parabolic_block(monkeypatch):
    # W_I with its signs is computed once per parabolic block, when
    # enumerate_IWJ builds it, however many modules the layer paths and the
    # character check visit
    calls = []
    orig = weyl.CoxeterSystem.subgroup_elements

    def counting(self, I):
        calls.append(I)
        return orig(self, I)

    monkeypatch.setattr(weyl.CoxeterSystem, "subgroup_elements", counting)
    parabolic_blocks = 0
    blocks_with_modules = 0
    modules = 0
    for name in ("A3", "B3"):
        rs = _rs(name)
        for _, mu in suite_weights(rs):
            block = integral_block(rs, mu)
            table = table_for(block.system)
            for I in _block_simple_subsets(rs, block):
                pb = enumerate_IWJ(block, I)
                parabolic_blocks += 1
                blocks_with_modules += bool(pb.reps)
                for w in pb.reps:
                    parabolic_layers(pb, w, table)
                    parabolic_layers_dual_path(pb, w, table)
                    parabolic_character_check(pb, w, 2)
                    modules += 1
    assert modules > 2 * blocks_with_modules
    assert len(calls) == parabolic_blocks == 140
