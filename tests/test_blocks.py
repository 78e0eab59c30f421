"""Integral blocks: antidominant representatives and singular data."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from jantzen import blocks, clear_caches, filtration
from jantzen.blocks import DefectError, integral_block, normalize
from jantzen.filtration import layers, sum_formula_check
from jantzen.kl import table_for
from jantzen.roots import Weight
from jantzen.suite import ACCEPTANCE_TYPES, suite_weights
from jantzen.weyl import weyl_group
from helpers import drawn_weights, root_system
from reference import (
    kostant_counts,
    multiplicity_column,
    pairing,
    phi_plus_count,
    root_coords,
    root_index,
    weight_sub,
    word_apply,
)


def test_regular_integral_block():
    rs = root_system("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    assert block.J == ()
    assert block.system.order() == 6
    assert block.delta_roots == ((1, 0), (0, 1))
    assert len(block.coset_reps()) == 6


def test_singular_block():
    rs = root_system("A2")
    block = integral_block(rs, Weight.of(0, -1))
    assert block.J == (0,)
    assert block.system.order() == 6
    reps = block.coset_reps()
    assert len(reps) == 3
    for w in reps:
        assert block.is_rep(w)


def test_most_singular_block():
    rs = root_system("B2")
    block = integral_block(rs, Weight.of(0, 0))
    assert block.J == (0, 1)
    assert len(block.coset_reps()) == 1
    assert block.coset_reps() == (block.system.identity,)


def test_nonintegral_half_block():
    # A2 at (-1/2, -1/2): only alpha1 + alpha2 pairs integrally.
    rs = root_system("A2")
    block = integral_block(rs, Weight.of(Fraction(-1, 2), Fraction(-1, 2)))
    assert block.delta_roots == ((1, 1),)
    assert block.system.order() == 2
    assert block.J == ()
    assert len(block.coset_reps()) == 2


def test_nonintegral_trivial_block():
    rs = root_system("A2")
    block = integral_block(rs, Weight.of(Fraction(-1, 3), Fraction(-1, 3)))
    assert block.delta_roots == ()
    assert block.system.order() == 1
    assert len(block.coset_reps()) == 1


def test_nonintegral_b2_block():
    # B2 at (-1/2, -1): alpha2 and alpha1 + alpha2 pair integrally
    # (coroots (0,1) and (2,1)); they are orthogonal, so the integral
    # Weyl group is Z2 x Z2.
    rs = root_system("B2")
    block = integral_block(rs, Weight.of(Fraction(-1, 2), -1))
    assert block.delta_roots == ((0, 1), (1, 1))
    assert block.system.order() == 4
    assert block.J == ()


def test_nonintegral_singular_block():
    # B2 at (-1/2, 0): same integral subsystem, mu on the alpha2 wall.
    rs = root_system("B2")
    block = integral_block(rs, Weight.of(Fraction(-1, 2), 0))
    assert block.delta_roots == ((0, 1), (1, 1))
    assert block.J == (0,)
    assert len(block.coset_reps()) == 2


def test_integral_block_rejects_bad_input():
    rs = root_system("A2")
    with pytest.raises(ValueError):
        integral_block(rs, Weight.of(1, -1))  # not antidominant
    with pytest.raises(ValueError):
        integral_block(rs, Weight.of(-1))  # wrong rank


def test_normalize_identity_on_antidominant():
    rs = root_system("A2")
    for mu in (Weight.of(-1, -1), Weight.of(0, 0), Weight.of(Fraction(-1, 2), -2)):
        block, w = normalize(rs, mu)
        assert block.mu == mu
        assert w == block.system.identity


def test_normalize_round_trip_over_suites():
    # w mu normalizes back to (mu, w) for every suite weight and every
    # minimal representative w.
    for name in ACCEPTANCE_TYPES:
        rs = root_system(name)
        for label, mu in suite_weights(rs):
            block = integral_block(rs, mu)
            for w in block.coset_reps():
                nu = block.apply(w)
                block2, w2 = normalize(rs, nu)
                assert block2.mu == mu, (name, label)
                assert w2 == w, (name, label)


def test_normalize_minimality():
    # The returned w is the unique minimal-length element with w mu = nu.
    rs = root_system("A2")
    mu = Weight.of(0, -1)
    block = integral_block(rs, mu)
    sys = block.system
    for g in sys.elements():
        nu = block.apply(g)
        _, w = normalize(rs, nu)
        assert block.apply(w) == nu
        assert sys.length(w) <= sys.length(g)
        assert block.is_rep(w)


def test_normalize_nonintegral():
    rs = root_system("A2")
    # (1/2, -3/2) pairs with alpha1 + alpha2 to -1: already antidominant.
    block, w = normalize(rs, Weight.of(Fraction(1, 2), Fraction(-3, 2)))
    assert w == block.system.identity
    assert block.mu == Weight.of(Fraction(1, 2), Fraction(-3, 2))
    # (1/2, 1/2) pairs with alpha1 + alpha2 to +1: one reflection needed.
    nu = Weight.of(Fraction(1, 2), Fraction(1, 2))
    block, w = normalize(rs, nu)
    assert block.mu == Weight.of(Fraction(-1, 2), Fraction(-1, 2))
    assert w != block.system.identity
    assert block.apply(w) == nu
    assert block.delta_roots == ((1, 1),)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(drawn_weights())
def test_normalize_and_sum_formula_on_drawn_weights(weights):
    for name, nu in weights.items():
        rs = root_system(name)
        block, y = normalize(rs, nu)
        assert phi_plus_count(rs, block.mu) == 0
        assert block.is_rep(y)
        # nu = y(mu), walking the reduced word of y by Fraction reflections
        got = block.mu.coords
        for i in reversed(block.system.word(y)):
            alpha = block.system.simple_roots[i]
            p = pairing(got, rs.coroot_of(alpha))
            image = rs.root_to_weight_coords(alpha)
            got = tuple(c - p * x for c, x in zip(got, image))
        assert got == nu.coords
        res = sum_formula_check(rs, nu)
        assert res.passed, (name, nu.serialize())
        assert len(res.reflected) == phi_plus_count(rs, nu)


def _graded(rows, lengths, w):
    """{z: coefficients of Q(z, w)} read back from the layer rows of the
    module at w: z's entry in row j multiplies q^((l(w) - l(z) - j) / 2)."""
    out = {}
    for j, row in enumerate(rows):
        for z, m in row.items():
            k, odd = divmod(lengths[w] - lengths[z] - j, 2)
            assert not odd and m > 0, (z, j)
            cs = out.setdefault(z, [])
            cs.extend([0] * (k + 1 - len(cs)))
            cs[k] = m
    return {z: tuple(out[z]) for z in sorted(out)}


def _assert_layer_rows_match(block, table, elements):
    # the layer rows built from the bitmask read are the reference's
    # interval filter entry for entry, each row in (length, word) order,
    # which is index order
    sys = block.system
    for w in elements:
        rows = filtration._layer_rows(sys, block.J, w, table)
        want = {z: q.coeffs for z, q in multiplicity_column(block, w, table).items()}
        assert _graded(rows, sys.lengths, w) == want, w
        assert all(list(row) == sorted(row) for row in rows), w


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ACCEPTANCE_TYPES)
def test_column_matches_direct_reads(name, seed):
    rs = root_system(name)
    for label, mu in suite_weights(rs, seed):
        block = integral_block(rs, mu)
        _assert_layer_rows_match(block, table_for(block.system), block.system.elements())


@pytest.mark.parametrize("mu", [(-1, -1, -1, -1), (0, -1, 0, -1)], ids=["regular", "singular"])
def test_layer_rows_match_the_reference_on_f4(mu):
    # every 37th element of the 1152 and w0: columns up to the whole group
    rs = root_system("F4")
    block = integral_block(rs, Weight.of(*mu))
    sys = block.system
    assert sys.order() == 1152 and len(block.J) == 2 * (mu[0] == 0)
    elements = [*range(0, sys.order(), 37), sys.order() - 1]
    _assert_layer_rows_match(block, table_for(sys), elements)


def test_layer_rows_are_memoised_per_block_shape():
    # a block with the same system and J reads the same rows object, kept
    # per (system, J, w, table) until clear_caches()
    rs = root_system("B2")
    block = integral_block(rs, Weight.of(0, -1))
    other = integral_block(rs, Weight.of(0, -2))
    assert other.system is block.system and other.J == block.J and other != block
    table = table_for(block.system)
    kept = {w: layers(block, w, table).rows for w in block.coset_reps()}
    for w, rows in kept.items():
        assert layers(other, w, table).rows is rows
        assert filtration._layer_rows(block.system, block.J, w, table) is rows
    clear_caches()
    for w, rows in kept.items():
        again = layers(other, w, table).rows
        assert again == rows and again is not rows


def test_block_apply():
    rs = root_system("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    for w in block.coset_reps():
        assert block.apply(w) == word_apply(block.system, w, block.mu)


def _orbit_blocks():
    """Every acceptance-type suite weight of seeds 0 and 1, and F4's -rho."""
    for name in ACCEPTANCE_TYPES:
        rs = root_system(name)
        weights = {mu for seed in (0, 1) for _, mu in suite_weights(rs, seed)}
        yield from ((rs, mu) for mu in sorted(weights, key=lambda mu: mu.coords))
    yield root_system("F4"), Weight.of(-1, -1, -1, -1)


def test_apply_and_rise_match_the_word_walk():
    checked = 0
    for rs, mu in _orbit_blocks():
        block = integral_block(rs, mu)
        sys = block.system
        want = [word_apply(sys, w, mu) for w in sys.elements()]
        rises = root_coords(rs, [weight_sub(nu, mu) for nu in want])
        for w in sys.elements():
            assert block.apply(w) == want[w], (mu, w)
            assert block.rise(w) == tuple(rises[w]), (mu, w)
        checked += sys.order()
    assert checked > 1152


def test_orbit_rejects_a_weight_that_is_not_antidominant():
    # <mu, alpha_1^vee> is 1 for the dominant (1, 1), and 1/2 for (1/2, -1)
    sys = weyl_group(root_system("A2"))
    for mu in (Weight.of(1, 1), Weight.of(Fraction(1, 2), -1)):
        with pytest.raises(DefectError, match=f"^{mu.serialize()} is not antidominant"):
            blocks._orbit(sys, mu, sys.gens[0])


def test_phi_plus_count_examples():
    rs = root_system("A2")
    assert phi_plus_count(rs, Weight.of(1, 1)) == 3
    assert phi_plus_count(rs, Weight.of(1, 0)) == 2
    assert phi_plus_count(rs, Weight.of(Fraction(1, 2), 1)) == 1
    assert phi_plus_count(rs, Weight.of(-1, -1)) == 0
    assert phi_plus_count(rs, Weight.of(0, 0)) == 0
    a1 = root_system("A1")
    assert phi_plus_count(a1, Weight.of(5)) == 1
    assert phi_plus_count(a1, Weight.of(Fraction(5, 2))) == 0
    g2 = root_system("G2")
    assert phi_plus_count(g2, Weight.of(1, 1)) == 6


def test_delta_axioms_hold_on_suite():
    # Every integral positive root is a nonnegative integer combination
    # of the block's simple system (validated inside integral_block; this
    # re-checks the statement from outside via the reference's partition
    # counts over the simple system).
    for name in ACCEPTANCE_TYPES:
        rs = root_system(name)
        top = max(sum(alpha) for alpha in rs.positive_roots)
        for label, mu in suite_weights(rs):
            block = integral_block(rs, mu)
            delta_idx = [root_index(rs, v) for v in block.delta_roots]
            counts = kostant_counts(rs, top, delta_idx)
            for alpha, coroot in zip(rs.positive_roots, rs.coroots):
                p = Fraction(sum(k * c for k, c in zip(coroot, mu.coords)))
                if p.denominator != 1:
                    continue
                assert counts[alpha] >= 1, (
                    name,
                    label,
                    alpha,
                )


def test_suite_weights_shape():
    rs = root_system("B2")
    labelled = suite_weights(rs)
    labels = [lab for lab, _ in labelled]
    assert labels[0] == "regular"
    assert "singular-J1" in labels
    assert "singular-J2" in labels
    assert "singular-J1,2" in labels
    nonint = [lab for lab in labels if lab.startswith("nonintegral")]
    assert len(nonint) >= 2
    # deterministic for a fixed seed
    again = suite_weights(rs)
    assert [(lab, w.coords) for lab, w in labelled] == [
        (lab, w.coords) for lab, w in again
    ]
    other = suite_weights(rs, seed=123)
    assert [lab for lab, _ in other] == labels


def test_suite_weights_are_antidominant():
    from jantzen.roots import is_antidominant

    for name in ACCEPTANCE_TYPES:
        rs = root_system(name)
        for label, mu in suite_weights(rs):
            assert is_antidominant(rs, mu), (name, label)
            if label.startswith("nonintegral"):
                assert any(c.denominator != 1 for c in mu.coords)


def test_blocks_share_interned_systems(monkeypatch):
    from jantzen import clear_caches, weyl

    clear_caches()
    calls = []
    validate = weyl._validate_subsystem

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(weyl, "_validate_subsystem", counted)
    rs = root_system("A2")
    regular = integral_block(rs, Weight.of(-1, -1))
    # same integral root set: the regular, a singular and a dominant weight
    assert integral_block(rs, Weight.of(0, -1)).system is regular.system
    assert normalize(rs, Weight.of(1, 1))[0].system is regular.system
    assert weyl.weyl_group(rs) is regular.system
    # (-1/2, -1/2) and (-1/2, -3/2) pair integrally only with alpha1 + alpha2
    half = integral_block(rs, Weight.of(Fraction(-1, 2), Fraction(-1, 2)))
    other = normalize(rs, Weight.of(Fraction(1, 2), Fraction(3, 2)))[0]
    assert other.system is half.system is not regular.system
    # the subsystem axioms were checked once per root set
    assert len(calls) == 2
    assert table_for(half.system).system is half.system
