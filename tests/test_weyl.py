"""Weyl group enumeration, Bruhat order, and coset representatives.

The integer tables are checked against a reference inside this module:
``_act`` applies the simple reflections, read off ``rs.cartan``, along an
element's word.  W acts simply transitively on the orbit of rho, so an
element is known by its image of rho; the package's own image is
-w(-rho), read from the regular integral block.
"""

import itertools
from fractions import Fraction

import pytest

from jantzen.blocks import integral_block, normalize
from jantzen.roots import LieType, Weight, build_root_system, reflect
from jantzen.suite import ACCEPTANCE_TYPES
from jantzen.weyl import (
    CapExceededError,
    DefectError,
    _indecomposables,
    _Tables,
    _validate_subsystem,
    _walk,
    format_word,
    parse_word,
    weyl_group,
)
from reference import is_simple_system, pairing, root_coords, root_index, word_apply

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

# every acceptance type, plus the rank-4 groups of the KL benchmark
REFERENCE_TYPES = ACCEPTANCE_TYPES + ("A4", "D4")


def _group(name):
    return weyl_group(build_root_system(LieType.parse(name)))


def _act(rs, word, coords):
    """s_{i1} ... s_{ik} (coords) for the word (i1, ..., ik): s_i subtracts
    coords[i] times the i-th column of the Cartan matrix."""
    v = tuple(coords)
    for i in reversed(tuple(word)):
        p = v[i]
        v = tuple(c - p * rs.cartan[k][i] for k, c in enumerate(v))
    return v


def _rho(rs):
    return (1,) * rs.rank


def _ref_length(rs, image_of_rho):
    """l(w) = l(w^-1) = #{alpha > 0 : <w rho, alpha^vee> < 0}."""
    return sum(
        1
        for coroot in rs.coroots
        if sum(c * x for c, x in zip(coroot, image_of_rho)) < 0
    )


def _regular_block(rs):
    return integral_block(rs, Weight.of(*[-1] * rs.rank))


def _image(sys, w):
    """w(rho) as the package computes it, for the full group sys."""
    block = _regular_block(sys.rs)
    assert block.system is sys
    return tuple(-c for c in block.apply(w).coords)


def test_group_orders():
    for name, order in ORDERS.items():
        assert _group(name).order() == order


def test_f4_enumerates_at_the_cap():
    sys = _group("F4")
    assert sys.order() == 1152
    assert sys.length(sys.order() - 1) == 24


def test_rho_orbit_is_a_bijection():
    # w -> w(rho) maps the elements one to one onto the orbit of rho,
    # found here by a search with the reference reflections alone
    for name in REFERENCE_TYPES:
        sys = _group(name)
        rs = sys.rs
        orbit = {_rho(rs)}
        frontier = [_rho(rs)]
        while frontier:
            new = []
            for v in frontier:
                for i in range(rs.rank):
                    u = _act(rs, (i,), v)
                    if u not in orbit:
                        orbit.add(u)
                        new.append(u)
            frontier = new
        images = [_image(sys, w) for w in sys.elements()]
        assert len(set(images)) == len(images) == sys.order()
        assert set(images) == orbit


def test_longest_element_length():
    for name in ORDERS:
        sys = _group(name)
        w0 = sys.longest_times(sys.identity)
        assert w0 == sys.order() - 1
        assert sys.length(w0) == len(sys.rs.positive_roots)
        assert sys.mul(w0, w0) == sys.identity


def test_reflections_count_and_order():
    for name in ORDERS:
        sys = _group(name)
        refl = sys.reflections()
        assert len(set(refl)) == len(sys.rs.positive_roots)
        for t in refl:
            assert sys.mul(t, t) == sys.identity
            assert sys.length(t) % 2 == 1


def test_reflection_elem_matches_reflections():
    # the k-th reflection is the reflection in the k-th positive root
    for name in REFERENCE_TYPES:
        rs = build_root_system(LieType.parse(name))
        sys = weyl_group(rs)
        for t, alpha in zip(sys.reflections(), rs.positive_roots):
            want = reflect(rs, Weight.of(*_rho(rs)), alpha).coords
            assert _act(rs, sys.word(t), _rho(rs)) == want
            assert _image(sys, t) == want


def test_braid_relations():
    # The order of s_i s_j, found by the reference action, equals the
    # Coxeter matrix entry exactly.
    for name in REFERENCE_TYPES:
        sys = _group(name)
        rs = sys.rs
        m = sys.coxeter_matrix()
        for i in range(sys.num_gens):
            assert m[i][i] == 1
            for j in range(sys.num_gens):
                if i == j:
                    continue
                v = _act(rs, (i, j), _rho(rs))
                order = 1
                while v != _rho(rs):
                    v = _act(rs, (i, j), v)
                    order += 1
                assert order == m[i][j] == m[j][i]


def test_coxeter_matrix_values():
    assert _group("A2").coxeter_matrix() == ((1, 3), (3, 1))
    assert _group("B2").coxeter_matrix() == ((1, 4), (4, 1))
    assert _group("G2").coxeter_matrix() == ((1, 6), (6, 1))
    a3 = _group("A3").coxeter_matrix()
    assert a3 == ((1, 3, 2), (3, 1, 3), (2, 3, 1))


def test_length_via_inversions():
    # l(w) = number of positive roots made negative, counted on w(rho).
    for name in REFERENCE_TYPES:
        sys = _group(name)
        for w in sys.elements():
            image = _act(sys.rs, sys.word(w), _rho(sys.rs))
            assert _ref_length(sys.rs, image) == sys.length(w)


def test_word_round_trip():
    for name in REFERENCE_TYPES:
        sys = _group(name)
        rs = sys.rs
        for w in sys.elements():
            word = sys.word(w)
            assert len(word) == sys.length(w)
            assert sys.element_from_word(word) == w
            inv = sys.inverse(w)
            assert sys.element_from_word(reversed(word)) == inv
            assert _image(sys, inv) == _act(rs, tuple(reversed(word)), _rho(rs))


def test_element_from_word_reports_index_one_based():
    sys = _group("A2")
    with pytest.raises(
        ValueError,
        match=r"^generator index 3 out of range; the system has 2 generators$",
    ):
        sys.element_from_word((0, 2))
    with pytest.raises(ValueError, match=r"^generator index 0 out of range"):
        sys.element_from_word((-1,))


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
    # int() reads "1_0" as 10 and other scripts' digits as digits
    for bad in ("1_0", "2 1_0", "\u0661 2", "1\u20032"):
        with pytest.raises(ValueError, match="cannot parse word"):
            parse_word(bad)


def test_descents():
    sys = _group("A2")
    s1, s2 = sys.gens
    w = sys.mul(s1, s2)
    # a right descent shortens: l(w s2) < l(w) < l(w s1)
    assert sys.length(sys.right_mul(w, 1)) < sys.length(w)
    assert sys.length(sys.right_mul(w, 0)) > sys.length(w)
    assert sys.first_right_descent(w) == 1
    assert sys.first_right_descent(sys.identity) is None


def test_element_tables_match_matrices():
    # Every table against the reference: w s_i, the descents, w0 w and the
    # product are the elements whose rho-images the reference words give.
    for name in REFERENCE_TYPES:
        sys = _group(name)
        rs = sys.rs
        by_image = {_image(sys, w): w for w in sys.elements()}
        w0_word = sys.word(sys.longest_times(sys.identity))
        sample = sys.elements()[:: max(1, sys.order() // 12)]
        for w in sys.elements():
            word = sys.word(w)
            lw = _ref_length(rs, _act(rs, word, _rho(rs)))
            for i in range(sys.num_gens):
                image = _act(rs, word + (i,), _rho(rs))
                assert sys.right_mul(w, i) == by_image[image]
                # s_i is a right descent iff w is not minimal in w W_{s_i}
                assert sys.is_min_coset_rep(w, (i,)) == (_ref_length(rs, image) > lw)
            assert sys.longest_times(w) == by_image[_act(rs, w0_word + word, _rho(rs))]
            for y in sample:
                image = _act(rs, word + sys.word(y), _rho(rs))
                assert sys.mul(w, y) == by_image[image]


def test_subsystem_tables_match_reflections():
    # The integral group of (-1/2, -1) in B2 is generated by the reflections
    # in the orthogonal roots alpha2 and alpha1 + alpha2; that of (-1/2, -1)
    # in G2 by those in a short and a long root.  Along words, the reference
    # here is roots.reflect in the system's simple roots.
    for name, coords in (("B2", (Fraction(-1, 2), -1)), ("G2", (Fraction(-1, 2), -1))):
        rs = build_root_system(LieType.parse(name))
        block = integral_block(rs, Weight.of(*coords))
        sys = block.system
        assert sys.simple_roots != rs.positive_roots[:2]

        def act(word, lam):
            for i in reversed(word):
                lam = reflect(rs, lam, sys.simple_roots[i])
            return lam

        r = Weight.of(*_rho(rs))
        by_image = {act(sys.word(w), r): w for w in sys.elements()}
        assert len(by_image) == sys.order()
        for w in sys.elements():
            assert block.apply(w) == act(sys.word(w), block.mu)
            for i in range(sys.num_gens):
                assert sys.right_mul(w, i) == by_image[act(sys.word(w) + (i,), r)]
        m = sys.coxeter_matrix()[0][1]
        assert sys.order() == 2 * m


def _reflection_matrix(rs, alpha):
    """The reflection lambda -> lambda - <lambda, alpha^vee> alpha, acting
    on weight coordinates."""
    n = rs.rank
    coroot = rs.coroot_of(alpha)
    wc = rs.root_to_weight_coords(alpha)
    return tuple(
        tuple((1 if i == j else 0) - wc[i] * coroot[j] for j in range(n))
        for i in range(n)
    )


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _matrix_keyed_tables(sys):
    """The element tables by a matrix-keyed walk, the reference for the
    rho-keyed one: breadth-first from the identity, an element recognised
    by its matrix on weight coordinates and w s_i formed as a matrix
    product."""
    rs = sys.rs
    gens = [_reflection_matrix(rs, alpha) for alpha in sys.simple_roots]
    e = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    index = {e: 0}
    matrix, length, word, descents, right = [e], [0], [()], [0], []
    frontier = [0]
    while frontier:
        new = []
        for w in frontier:
            row = []
            for i, g in enumerate(gens):
                prod = _matmul(matrix[w], g)
                u = index.get(prod)
                if u is None:
                    u = index[prod] = len(matrix)
                    matrix.append(prod)
                    length.append(length[w] + 1)
                    word.append(word[w] + (i,))
                    descents.append(0)
                    new.append(u)
                elif length[u] < length[w]:
                    descents[w] |= 1 << i
                row.append(u)
            right.append(tuple(row))
        frontier = new
    w0 = len(matrix) - 1
    return {
        "length": length,
        "word": word,
        "descents": descents,
        "right": right,
        "inverse": [_walk(right, 0, reversed(v)) for v in word],
        "w0x": [_walk(right, w0, v) for v in word],
        "reflections": tuple(
            index[_reflection_matrix(rs, rs.positive_roots[k])] for k in sys.pos_idx
        ),
    }


def test_keyed_walk_matches_matrix_keyed_walk():
    # every table field of the rho-keyed walk equals the reference's, on
    # every acceptance type, the rank-4 groups and two nonintegral
    # subsystems whose simple roots are not the ambient ones
    systems = [_group(name) for name in REFERENCE_TYPES + ("B4", "F4")]
    for name in ("B2", "G2"):
        rs = build_root_system(LieType.parse(name))
        systems.append(integral_block(rs, Weight.of(Fraction(-1, 2), -1)).system)
    for sys in systems:
        want = _matrix_keyed_tables(sys)
        t = sys._tables()
        assert {f: getattr(t, f) for f in _Tables.__slots__} == want, sys.rs


def test_elements_sorted_by_sort_key():
    # index order is (length, word) order
    for name in REFERENCE_TYPES:
        sys = _group(name)
        keys = [(sys.length(w), sys.word(w)) for w in sys.elements()]
        assert keys == sorted(set(keys))
        assert [sys.word(g) for g in sys.gens] == [(i,) for i in range(sys.num_gens)]


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
        ws = sys.right_mul(w, i)
        xs = sys.right_mul(x, i)
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
            below = sys.bruhat_interval_below(w)
            expected = [x for x in sys.elements() if sys.bruhat_leq(x, w)]
            assert below == expected
        w0 = sys.longest_times(sys.identity)
        assert len(sys.bruhat_interval_below(w0)) == sys.order()


def test_bruhat_basics():
    sys = _group("A2")
    s1, s2 = sys.gens
    assert sys.bruhat_leq(sys.identity, s1)
    assert sys.bruhat_leq(s2, sys.mul(s1, s2))
    assert sys.bruhat_leq(s1, sys.mul(s1, s2))
    assert not sys.bruhat_leq(sys.mul(s1, s2), sys.mul(s2, s1))
    assert sys.bruhat_leq(s1, sys.longest_times(sys.identity))


def test_min_coset_reps():
    for name in ("A3", "B2", "B3", "G2"):
        sys = _group(name)
        n = sys.num_gens
        for r in range(n + 1):
            for J in itertools.combinations(range(n), r):
                reps = sys.min_coset_reps(J)
                sub = sys.subgroup_elements(J)
                assert len(reps) * len(sub) == sys.order()
                seen = set()
                for w in reps:
                    assert sys.is_min_coset_rep(w, J)
                    # w is the unique shortest element of wW_J.
                    for u in sub:
                        g = sys.mul(w, u)
                        assert g not in seen
                        seen.add(g)
                        assert sys.length(g) == sys.length(w) + sys.length(u)
                assert len(seen) == sys.order()


def test_decompose_yx():
    # g = y x with y = coset_rep(g, J) the minimal coset representative
    # and x = y^-1 g in W_J, lengths adding.
    for name in ("A3", "B2"):
        sys = _group(name)
        for r in range(sys.num_gens + 1):
            for J in itertools.combinations(range(sys.num_gens), r):
                sub = set(sys.subgroup_elements(J))
                for g in sys.elements():
                    y = sys.coset_rep(g, J)
                    x = sys.mul(sys.inverse(y), g)
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
    # closed under the generators of I, in index order, so the longest
    # element of W_I comes last
    sub = sys.subgroup_elements((1, 2))
    assert [sys.length(u) for u in sub].count(4) == 1 and sys.length(sub[-1]) == 4
    assert list(sub) == sorted(sub)
    assert {sys.right_mul(u, i) for u in sub for i in (1, 2)} == set(sub)


def test_upper_coset_membership():
    # {}^I W^J in the regular A2 group with I = {s1}: w must stay a
    # minimal representative after left multiplication by s1.
    sys = _group("A2")
    s1, s2 = sys.gens
    members = [w for w in sys.elements() if sys.upper_coset_membership(w, (0,), ())]
    assert set(members) == {sys.identity, s2, sys.mul(s2, s1)}
    # I = full set leaves only the identity.
    members = [w for w in sys.elements() if sys.upper_coset_membership(w, (0, 1), ())]
    assert members == [sys.identity]
    # I empty: all minimal coset representatives qualify.
    members = [w for w in sys.elements() if sys.upper_coset_membership(w, (), ())]
    assert len(members) == 6


def test_apply_weight_action():
    # <w mu, (w alpha)^vee> = <mu, alpha^vee> for mu = -rho, with w mu read
    # from the regular block and w alpha by the reference word walk
    rs = build_root_system(LieType.parse("B2"))
    block = _regular_block(rs)
    sys, r = block.system, block.mu
    for w in sys.elements():
        image = block.apply(w)
        assert image.coords == tuple(-c for c in _act(rs, sys.word(w), _rho(rs)))
        for alpha in rs.positive_roots:
            moved_wc = word_apply(sys, w, Weight.of(*rs.root_to_weight_coords(alpha)))
            moved = tuple(int(c) for c in root_coords(rs, [moved_wc])[0])
            sign = 1
            if all(c <= 0 for c in moved):
                moved = tuple(-c for c in moved)
                sign = -1
            assert pairing(image, rs.coroot_of(moved)) == sign * pairing(
                r, rs.coroot_of(alpha)
            )


def test_sort_key_orders_by_length():
    sys = _group("B2")
    elems = sorted(sys.elements())
    lengths = [sys.length(w) for w in elems]
    assert lengths == sorted(lengths)
    assert elems[0] == sys.identity
    assert elems[-1] == sys.longest_times(sys.identity)


def test_group_order_cap():
    # a group over the cap fails closed on its first query of any kind
    rs = build_root_system(LieType.parse("D5"))  # |W| = 1920 > cap
    sys = weyl_group(rs)
    for query in (
        sys.elements,
        lambda: sys.length(sys.identity),
        lambda: sys.element_from_word((0, 1)),
        lambda: sys.subgroup_elements((0, 1, 2)),
        lambda: _regular_block(rs).apply(sys.gens[0]),
    ):
        with pytest.raises(CapExceededError, match="exceeds cap 1152"):
            query()


def test_over_cap_failure_is_remembered(monkeypatch):
    # only the first query walks the group; later ones raise at once
    from jantzen import clear_caches, weyl

    calls = []

    def counting_steps(v, a, b):
        calls.append(1)
        return orig(v, a, b)

    orig = weyl.reflect_vector
    monkeypatch.setattr(weyl, "reflect_vector", counting_steps)
    clear_caches()  # a fresh, never enumerated D5 system
    sys = weyl_group(build_root_system(LieType.parse("D5")))
    with pytest.raises(CapExceededError, match="group order exceeds cap 1152"):
        sys.order()
    assert calls
    calls.clear()
    for query in (sys.order, lambda: sys.length(sys.identity)):
        with pytest.raises(CapExceededError, match="group order exceeds cap 1152"):
            query()
    assert calls == []


def test_normalize_over_cap_fails_closed():
    rs = build_root_system(LieType.parse("D5"))
    for nu in (Weight.of(1, 2, 1, 1, 1), Weight.of(-1, -1, -1, -1, -1)):
        with pytest.raises(CapExceededError, match="exceeds cap 1152"):
            normalize(rs, nu)


def test_subsystem_check_matches_both_axioms_on_every_root_subset():
    # The reflection check alone must refuse exactly the subsets that
    # break either root-system axiom with the indecomposables as simple
    # roots: every nonempty subset of positive roots of six types.
    checked = refused = 0
    for name in ("A2", "B2", "G2", "A3", "B3", "C3"):
        rs = build_root_system(LieType.parse(name))
        n = len(rs.positive_roots)
        for r in range(1, n + 1):
            for S in itertools.combinations(range(n), r):
                simple = _indecomposables(rs, S)
                try:
                    _validate_subsystem(rs, simple, S)
                    raised = False
                except DefectError:
                    raised = True
                assert raised == (not is_simple_system(rs, simple, S)), (name, S)
                checked += 1
                refused += raised
    assert checked == 1170
    assert 0 < refused < checked


def test_subsystem_check_refuses_a_set_not_closed_under_reflection():
    # In A2, {alpha1, alpha1 + alpha2} has both roots indecomposable and
    # independent, but s_1 moves alpha1 + alpha2 to alpha2, outside the set.
    rs = build_root_system(LieType.parse("A2"))
    S = (root_index(rs, (1, 0)), root_index(rs, (1, 1)))
    assert _indecomposables(rs, S) == S
    with pytest.raises(DefectError, match="does not preserve"):
        _validate_subsystem(rs, S, S)
