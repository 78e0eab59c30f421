"""Weyl group enumeration, Bruhat order, and coset representatives."""

from fractions import Fraction

import pytest

from jantzen.blocks import integral_block
from jantzen.roots import LieType, Weight, build_root_system, pairing, rho
from jantzen.suite import ACCEPTANCE_TYPES
from jantzen.weyl import (
    CapExceededError,
    WeylElem,
    format_word,
    identity_elem,
    parse_word,
    reflection_elem,
    weyl_group,
)

ORDERS = {
    "A1": 2,
    "A2": 6,
    "A3": 24,
    "B2": 8,
    "B3": 48,
    "C2": 8,
    "C3": 48,
    "G2": 12,
}


def _group(name):
    return weyl_group(build_root_system(LieType.parse(name)))


def test_group_orders():
    for name, order in ORDERS.items():
        assert _group(name).order() == order


def test_longest_element_length():
    for name in ORDERS:
        sys = _group(name)
        w0 = sys.longest_element()
        assert sys.length(w0) == len(sys.rs.positive_roots)
        assert w0 * w0 == sys.identity or sys.length(w0 * w0) == 0


def test_reflections_count_and_order():
    for name in ORDERS:
        sys = _group(name)
        refl = sys.reflections()
        assert len(refl) == len(sys.rs.positive_roots)
        for t in refl:
            assert t * t == sys.identity
            assert sys.length(t) % 2 == 1


def test_braid_relations():
    # The order of s_i s_j equals the Coxeter matrix entry exactly.
    for name in ORDERS:
        sys = _group(name)
        m = sys.coxeter_matrix()
        for i in range(sys.num_gens):
            assert m[i][i] == 1
            for j in range(sys.num_gens):
                if i == j:
                    continue
                prod = sys.gens[i] * sys.gens[j]
                power = sys.identity
                order = 0
                while True:
                    power = power * prod
                    order += 1
                    if power == sys.identity:
                        break
                assert order == m[i][j] == m[j][i]


def test_coxeter_matrix_values():
    assert _group("A2").coxeter_matrix() == ((1, 3), (3, 1))
    assert _group("B2").coxeter_matrix() == ((1, 4), (4, 1))
    assert _group("G2").coxeter_matrix() == ((1, 6), (6, 1))
    a3 = _group("A3").coxeter_matrix()
    assert a3 == ((1, 3, 2), (3, 1, 3), (2, 3, 1))


def test_length_via_inversions():
    # l(w) = number of positive roots sent to negative roots.
    for name in ("A3", "B2", "G2"):
        sys = _group(name)
        for w in sys.elements():
            inv = 0
            for alpha in sys.rs.positive_roots:
                image = w.apply_root(alpha)
                if all(c <= 0 for c in image):
                    inv += 1
            assert inv == sys.length(w)


def test_word_round_trip():
    for name in ("A3", "B2", "G2"):
        sys = _group(name)
        for w in sys.elements():
            word = sys.word(w)
            assert len(word) == sys.length(w)
            assert sys.element_from_word(word) == w
            assert sys.inverse(w) == w.inverse()
            assert sys.element_from_word(reversed(word)) == w.inverse()


def test_parse_and_format_word():
    assert parse_word("1 2 1") == (0, 1, 0)
    assert parse_word(" 2 1 ") == (1, 0)
    assert parse_word("e") == ()
    assert parse_word("") == ()
    assert format_word((0, 1, 0)) == "1 2 1"
    assert format_word(()) == ""
    with pytest.raises(ValueError):
        parse_word("0 1")
    with pytest.raises(ValueError):
        parse_word("x")


def test_descents():
    sys = _group("A2")
    s1, s2 = sys.gens
    w = s1 * s2
    assert sys.right_descent(w, 1)
    assert not sys.right_descent(w, 0)
    assert sys.first_right_descent(w) == 1
    assert sys.first_right_descent(sys.identity) is None


def _negative(vec):
    return next(c for c in vec if c != 0) < 0


def test_element_tables_match_matrices():
    # The per-element records against the matrix definitions: w s_i is
    # the matrix product, i is a right descent iff w(alpha_i) < 0, and the
    # canonical word walks back to w.
    for name in ACCEPTANCE_TYPES + ("A4",):
        sys = _group(name)
        for w in sys.elements():
            assert sys.element_from_word(sys.word(w)) == w
            for i, g in enumerate(sys.gens):
                u = sys.right_mul(w, i)
                assert u == w * g
                assert sys.contains(u)
                descent = _negative(w.apply_root(sys.simple_roots[i]))
                assert sys.right_descent(w, i) == descent
                assert (sys.length(u) < sys.length(w)) == descent


def test_elements_sorted_by_sort_key():
    for name in ACCEPTANCE_TYPES + ("A4",):
        sys = _group(name)
        elems = sys.elements()
        assert list(elems) == sorted(elems, key=sys.sort_key)
        assert [sys.index(w) for w in elems] == list(range(len(elems)))


def test_non_members_use_matrices():
    # The integral group of (-1/2, -1) in B2 is generated by the reflections
    # in the orthogonal roots alpha2 and alpha1 + alpha2; s_1 lies outside.
    rs = build_root_system(LieType.parse("B2"))
    sys = integral_block(rs, Weight.of(Fraction(-1, 2), -1)).system
    assert sys.order() == 4
    s1 = weyl_group(rs).gens[0]
    assert not sys.contains(s1)
    assert sys.right_mul(s1, 0) == s1 * sys.gens[0]
    assert sys.length(s1) == sum(
        1 for vec in sys._pos_vecs if _negative(s1.apply_root(vec))
    )
    assert sys.right_descent(s1, 0) == _negative(s1.apply_root(sys.simple_roots[0]))
    assert sys.inverse(s1) == s1.inverse()


def _bruhat_oracle(sys):
    """Bruhat order from scratch via the lifting property.

    x <= w iff, for s a right descent of w: x <= ws when xs > x, and
    xs <= ws when xs < x.  Base case w = e.
    """
    memo = {}

    def leq(x, w):
        if x == w:
            return True
        lx, lw = sys.length(x), sys.length(w)
        if lx >= lw:
            return False
        key = (x, w)
        if key in memo:
            return memo[key]
        i = sys.first_right_descent(w)
        s = sys.gens[i]
        ws = w * s
        xs = x * s
        if sys.length(xs) < lx:
            got = leq(xs, ws)
        else:
            got = leq(x, ws)
        memo[key] = got
        return got

    return leq


def test_bruhat_leq_against_lifting_oracle():
    for name in ("A1", "A2", "A3", "B2", "B3", "G2"):
        sys = _group(name)
        oracle = _bruhat_oracle(sys)
        elems = sys.elements()
        for x in elems:
            for w in elems:
                assert sys.bruhat_leq(x, w) == oracle(x, w), (name, x, w)


def test_bruhat_interval_below():
    for name in ("A2", "B2", "G2", "A3"):
        sys = _group(name)
        for w in sys.elements():
            below = set(sys.bruhat_interval_below(w))
            expected = {x for x in sys.elements() if sys.bruhat_leq(x, w)}
            assert below == expected
        w0 = sys.longest_element()
        assert len(sys.bruhat_interval_below(w0)) == sys.order()


def test_bruhat_basics():
    sys = _group("A2")
    s1, s2 = sys.gens
    assert sys.bruhat_leq(sys.identity, s1)
    assert sys.bruhat_leq(s2, s1 * s2)
    assert sys.bruhat_leq(s1, s1 * s2)
    assert not sys.bruhat_leq(s1 * s2, s2 * s1)
    assert sys.bruhat_leq(s1, sys.longest_element())


def test_min_coset_reps():
    import itertools

    for name in ("A3", "B2", "B3", "G2"):
        sys = _group(name)
        n = sys.num_gens
        for r in range(n + 1):
            for J in itertools.combinations(range(n), r):
                data = sys.min_coset_reps(J)
                reps = data.reps
                sub = sys.subgroup_elements(J)
                assert len(reps) * len(sub) == sys.order()
                seen = set()
                for w in reps:
                    assert sys.is_min_coset_rep(w, J)
                    # w is the unique shortest element of wW_J.
                    for u in sub:
                        g = w * u
                        assert g not in seen
                        seen.add(g)
                        assert sys.length(g) == sys.length(w) + sys.length(u)
                assert len(seen) == sys.order()


def test_decompose_yx():
    # g = y x with y the minimal coset representative and x in W_J.
    import itertools

    for name in ("A3", "B2"):
        sys = _group(name)
        for r in range(sys.num_gens + 1):
            for J in itertools.combinations(range(sys.num_gens), r):
                sub = set(sys.subgroup_elements(J))
                for g in sys.elements():
                    y, x = sys.decompose_yx(g, J)
                    assert y * x == g
                    assert sys.is_min_coset_rep(y, J)
                    assert x in sub
                    assert sys.length(y) + sys.length(x) == sys.length(g)


def test_subgroup_elements():
    sys = _group("B3")
    assert len(sys.subgroup_elements(())) == 1
    assert len(sys.subgroup_elements((0,))) == 2
    assert len(sys.subgroup_elements((0, 1))) == 6
    assert len(sys.subgroup_elements((1, 2))) == 8  # B2 inside B3
    assert len(sys.subgroup_elements((0, 1, 2))) == 48
    w0 = sys.longest_element((1, 2))
    assert sys.length(w0) == 4


def test_upper_coset_membership():
    # {}^I W^J in the regular A2 group with I = {s1}: w must stay a
    # minimal representative after left multiplication by s1.
    sys = _group("A2")
    s1, s2 = sys.gens
    members = [w for w in sys.elements() if sys.upper_coset_membership(w, (0,), ())]
    assert set(members) == {sys.identity, s2, s2 * s1}
    # I = full set leaves only the identity.
    members = [w for w in sys.elements() if sys.upper_coset_membership(w, (0, 1), ())]
    assert members == [sys.identity]
    # I empty: all minimal coset representatives qualify.
    members = [w for w in sys.elements() if sys.upper_coset_membership(w, (), ())]
    assert len(members) == 6


def test_apply_weight_action():
    rs = build_root_system(LieType.parse("B2"))
    sys = weyl_group(rs)
    r = rho(rs)
    for w in sys.elements():
        image = w.apply(r)
        # the shifted action is length-preserving on pairings with the
        # inverse image of each root
        for alpha in rs.positive_roots:
            moved = w.apply_root(alpha)
            sign = 1
            if all(c <= 0 for c in moved):
                moved = tuple(-c for c in moved)
                sign = -1
            assert pairing(rs, image, moved) == sign * pairing(rs, r, alpha)


def test_reflection_elem_matches_reflections():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(LieType.parse(name))
        sys = weyl_group(rs)
        refl = set(sys.reflections())
        for alpha in rs.positive_roots:
            assert reflection_elem(rs, alpha) in refl


def test_identity_elem():
    e = identity_elem(3)
    assert e.is_identity()
    assert e.apply(Weight.of(1, 2, 3)) == Weight.of(1, 2, 3)


def test_sort_key_orders_by_length():
    sys = _group("B2")
    elems = sorted(sys.elements(), key=sys.sort_key)
    lengths = [sys.length(w) for w in elems]
    assert lengths == sorted(lengths)
    assert elems[0] == sys.identity
    assert elems[-1] == sys.longest_element()


def test_group_order_cap():
    rs = build_root_system(LieType.parse("D5"))  # |W| = 1920 > cap
    sys = weyl_group(rs)
    with pytest.raises(CapExceededError):
        sys.elements()


def test_group_over_cap_still_answers_by_matrices():
    # Queries that need no enumeration keep working on a group over the
    # cap, before and after a capped enumeration has been attempted.
    from jantzen.blocks import normalize

    rs = build_root_system(LieType.parse("D5"))
    sys = weyl_group(rs)
    for attempt in range(2):
        with pytest.raises(CapExceededError):
            sys.elements()
        w = sys.element_from_word((0, 1, 2, 3, 4))
        g = sys.gens
        assert w == g[0] * g[1] * g[2] * g[3] * g[4]
        assert sys.length(w) == 5
        # s_4 and s_5 commute, so both are right descents of w
        assert sys.first_right_descent(w) == 3
        assert sys.right_descent(w, 4) and not sys.right_descent(w, 2)
        assert sys.right_mul(w, 4) == sys.element_from_word((0, 1, 2, 3))
        assert len(sys.subgroup_elements((0, 1, 2))) == 24  # type A3
        assert sys.length(sys.longest_element((0, 1, 2))) == 6
        nu = Weight.of(1, 2, 1, 1, 1)  # dominant regular integral
        block, y = normalize(rs, nu)
        assert block.system is sys
        assert y.apply(block.mu) == nu
        assert sys.length(y) == len(rs.positive_roots)


def test_generator_inverses_are_exact():
    # every simple reflection is an involution, in both of its matrices
    for name in ACCEPTANCE_TYPES:
        sys = weyl_group(build_root_system(LieType.parse(name)))
        for g in sys.gens:
            inv = g.inverse()
            assert inv == g and inv.rt == g.rt
            assert (g * inv).is_identity()
            assert all(type(v) is int for row in inv.wt + inv.rt for v in row)


def test_non_integral_inverse_raises():
    with pytest.raises(AssertionError, match="not integral"):
        WeylElem(((2, 0), (0, 1)), ((1, 0), (0, 1))).inverse()
