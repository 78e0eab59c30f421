"""Integral blocks: antidominant representatives and singular data."""

from fractions import Fraction

import pytest

from jantzen.blocks import DefectError, integral_block, normalize, phi_plus_count
from jantzen.kl import table_for
from jantzen.roots import LieType, Weight, build_root_system
from jantzen.suite import ACCEPTANCE_TYPES, suite_weights


def _rs(name):
    return build_root_system(LieType.parse(name))


def test_regular_integral_block():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    assert block.J == ()
    assert block.system.order() == 6
    assert block.delta_roots == ((1, 0), (0, 1))
    assert len(block.coset_reps()) == 6


def test_singular_block():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(0, -1))
    assert block.J == (0,)
    assert block.system.order() == 6
    reps = block.coset_reps()
    assert len(reps) == 3
    for w in reps:
        assert block.is_rep(w)


def test_most_singular_block():
    rs = _rs("B2")
    block = integral_block(rs, Weight.of(0, 0))
    assert block.J == (0, 1)
    assert len(block.coset_reps()) == 1
    assert block.coset_reps() == (block.system.identity,)


def test_nonintegral_half_block():
    # A2 at (-1/2, -1/2): only alpha1 + alpha2 pairs integrally.
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(Fraction(-1, 2), Fraction(-1, 2)))
    assert block.delta_roots == ((1, 1),)
    assert block.system.order() == 2
    assert block.J == ()
    assert len(block.coset_reps()) == 2


def test_nonintegral_trivial_block():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(Fraction(-1, 3), Fraction(-1, 3)))
    assert block.delta_roots == ()
    assert block.system.order() == 1
    assert len(block.coset_reps()) == 1


def test_nonintegral_b2_block():
    # B2 at (-1/2, -1): alpha2 and alpha1 + alpha2 pair integrally
    # (coroots (0,1) and (2,1)); they are orthogonal, so the integral
    # Weyl group is Z2 x Z2.
    rs = _rs("B2")
    block = integral_block(rs, Weight.of(Fraction(-1, 2), -1))
    assert block.delta_roots == ((0, 1), (1, 1))
    assert block.system.order() == 4
    assert block.J == ()


def test_nonintegral_singular_block():
    # B2 at (-1/2, 0): same integral subsystem, mu on the alpha2 wall.
    rs = _rs("B2")
    block = integral_block(rs, Weight.of(Fraction(-1, 2), 0))
    assert block.delta_roots == ((0, 1), (1, 1))
    assert block.J == (0,)
    assert len(block.coset_reps()) == 2


def test_integral_block_rejects_bad_input():
    rs = _rs("A2")
    with pytest.raises(ValueError):
        integral_block(rs, Weight.of(1, -1))  # not antidominant
    with pytest.raises(ValueError):
        integral_block(rs, Weight.of(-1))  # wrong rank


def test_normalize_identity_on_antidominant():
    rs = _rs("A2")
    for mu in (Weight.of(-1, -1), Weight.of(0, 0), Weight.of(Fraction(-1, 2), -2)):
        block, w = normalize(rs, mu)
        assert block.mu == mu
        assert w == block.system.identity


def test_normalize_round_trip_over_suites():
    # w mu normalizes back to (mu, w) for every suite weight and every
    # minimal representative w.
    for name in ACCEPTANCE_TYPES:
        rs = _rs(name)
        for label, mu in suite_weights(rs):
            block = integral_block(rs, mu)
            for w in block.coset_reps():
                nu = block.apply(w)
                block2, w2 = normalize(rs, nu)
                assert block2.mu == mu, (name, label)
                assert w2 == w, (name, label)
                assert block2.same_block(block)


def test_normalize_minimality():
    # The returned w is the unique minimal-length element with w mu = nu.
    rs = _rs("A2")
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
    rs = _rs("A2")
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


def test_block_apply():
    rs = _rs("A2")
    block = integral_block(rs, Weight.of(-1, -1))
    for w in block.coset_reps():
        assert block.apply(w) == block.system.apply(w, block.mu)


def test_phi_plus_count_examples():
    rs = _rs("A2")
    assert phi_plus_count(rs, Weight.of(1, 1)) == 3
    assert phi_plus_count(rs, Weight.of(1, 0)) == 2
    assert phi_plus_count(rs, Weight.of(Fraction(1, 2), 1)) == 1
    assert phi_plus_count(rs, Weight.of(-1, -1)) == 0
    assert phi_plus_count(rs, Weight.of(0, 0)) == 0
    a1 = _rs("A1")
    assert phi_plus_count(a1, Weight.of(5)) == 1
    assert phi_plus_count(a1, Weight.of(Fraction(5, 2))) == 0
    g2 = _rs("G2")
    assert phi_plus_count(g2, Weight.of(1, 1)) == 6


def test_delta_axioms_hold_on_suite():
    # Every integral positive root is a nonnegative integer combination
    # of the block's simple system (validated inside integral_block; this
    # re-checks the statement from outside via the partition counter).
    from jantzen.roots import partition_count

    for name in ACCEPTANCE_TYPES:
        rs = _rs(name)
        for label, mu in suite_weights(rs):
            block = integral_block(rs, mu)
            delta_idx = [rs.root_index(v) for v in block.delta_roots]
            for alpha, coroot in zip(rs.positive_roots, rs.coroots):
                p = Fraction(sum(k * c for k, c in zip(coroot, mu.coords)))
                if p.denominator != 1:
                    continue
                assert partition_count(rs, alpha, delta_idx) >= 1, (
                    name,
                    label,
                    alpha,
                )


def test_suite_weights_shape():
    rs = _rs("B2")
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
        rs = _rs(name)
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
    rs = _rs("A2")
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
