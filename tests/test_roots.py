"""Root system data: closure, pairings, and Kostant partition counts."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jantzen import clear_caches, roots
from jantzen.blocks import normalize
from jantzen.filtration import sum_formula_check
from jantzen.roots import (
    LieType,
    Weight,
    boxes,
    build_root_system,
    is_antidominant,
    pairing_numerator,
    partition_count,
    partition_table,
    positive_integral_pairings,
    reflect,
    shifted_sum,
)
from jantzen.suite import ACCEPTANCE_TYPES, suite_weights
from reference import kostant_counts, root_coords, root_index

TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4"]

POSITIVE_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A3": 6,
    "B2": 4,
    "B3": 9,
    "C2": 4,
    "C3": 9,
    "D4": 12,
    "G2": 6,
    "F4": 24,
}


def _systems():
    return [(name, build_root_system(LieType.parse(name))) for name in TYPES]


def test_positive_root_counts():
    for name, rs in _systems():
        assert len(rs.positive_roots) == POSITIVE_COUNTS[name]
        assert len(rs.coroots) == POSITIVE_COUNTS[name]


def test_simple_roots_are_unit_vectors():
    for name, rs in _systems():
        for i, idx in enumerate(rs.simple_indices):
            vec = rs.positive_roots[idx]
            assert vec == tuple(1 if k == i else 0 for k in range(rs.rank))


def test_cartan_matrix_entries():
    # cartan[i][j] = <alpha_j, alpha_i^vee>: 2 on the diagonal,
    # nonpositive off it, and zero entries come in pairs.
    for name, rs in _systems():
        n = rs.rank
        for i in range(n):
            assert rs.cartan[i][i] == 2
            for j in range(n):
                if i != j:
                    assert rs.cartan[i][j] <= 0
                    assert (rs.cartan[i][j] == 0) == (rs.cartan[j][i] == 0)


def test_specific_cartan_matrices():
    assert build_root_system(LieType.parse("G2")).cartan == ((2, -3), (-1, 2))
    assert build_root_system(LieType.parse("B2")).cartan == ((2, -1), (-2, 2))
    assert build_root_system(LieType.parse("C2")).cartan == ((2, -2), (-1, 2))
    assert build_root_system(LieType.parse("A2")).cartan == ((2, -1), (-1, 2))


def _root_pairing(rs, beta, alpha_idx):
    # <beta, alpha^vee> for a root-lattice vector beta, from the coroot
    # expansion alpha^vee = sum_k c_k alpha_k^vee.
    coroot = rs.coroots[alpha_idx]
    return sum(
        c * sum(beta[j] * rs.cartan[k][j] for j in range(rs.rank))
        for k, c in enumerate(coroot)
    )


def test_root_system_closed_under_reflections():
    for name, rs in _systems():
        roots = set(rs.positive_roots) | {
            tuple(-c for c in v) for v in rs.positive_roots
        }
        for a_idx, alpha in enumerate(rs.positive_roots):
            for beta in roots:
                p = _root_pairing(rs, beta, a_idx)
                image = tuple(b - p * a for b, a in zip(beta, alpha))
                assert image in roots, (name, alpha, beta)


def test_coroot_normalization():
    # <alpha, alpha^vee> = 2 for every positive root.
    for name, rs in _systems():
        for idx, alpha in enumerate(rs.positive_roots):
            assert _root_pairing(rs, alpha, idx) == 2


def test_coroot_of_matches_table():
    for name, rs in _systems():
        for idx, alpha in enumerate(rs.positive_roots):
            assert rs.coroot_of(alpha) == rs.coroots[idx]


def test_root_index_and_is_root():
    rs = build_root_system(LieType.parse("B2"))
    for idx, alpha in enumerate(rs.positive_roots):
        assert root_index(rs, alpha) == idx
        assert rs.is_root(alpha)
    assert not rs.is_root((1, 3))
    assert not rs.is_root((0, 0))
    with pytest.raises(ValueError):
        root_index(rs, (5, 5))


def test_highest_roots():
    highest = {
        "A2": (1, 1),
        "B2": (1, 2),
        "C2": (2, 1),
        "G2": (3, 2),
        "B3": (1, 2, 2),
        "C3": (2, 2, 1),
    }
    for name, vec in highest.items():
        rs = build_root_system(LieType.parse(name))
        top = max(rs.positive_roots, key=lambda v: sum(v))
        assert top == vec


def test_weight_coord_round_trip():
    for name, rs in _systems():
        for alpha in rs.positive_roots:
            coords = rs.root_to_weight_coords(alpha)
            assert root_coords(rs, [Weight.of(*coords)]) == [list(alpha)]


def test_rho_is_all_ones():
    # half the sum of the positive roots pairs to 1 with every simple coroot
    for name, rs in _systems():
        total = [sum(col) for col in zip(*rs.root_weights)]
        assert total == [2] * rs.rank


def test_rho_pairs_to_coroot_height():
    # <rho, alpha^vee> equals the height of alpha^vee.
    for name, rs in _systems():
        rho = (1,) * rs.rank
        for alpha in rs.positive_roots:
            coroot = rs.coroot_of(alpha)
            assert pairing_numerator(rho, coroot) == sum(coroot)


def test_reflect_negates_pairing_and_is_involutive():
    rs = build_root_system(LieType.parse("B2"))
    w = Weight.of(Fraction(3, 2), -2)
    for alpha in rs.positive_roots:
        image = reflect(rs, w, alpha)
        coroot = rs.coroot_of(alpha)
        assert image.den == w.den
        assert pairing_numerator(image.num, coroot) == -pairing_numerator(w.num, coroot)
        assert reflect(rs, image, alpha) == w


def test_pairing_examples():
    rs = build_root_system(LieType.parse("A2"))
    w = (1, -1)
    assert pairing_numerator(w, rs.coroot_of((1, 0))) == 1
    assert pairing_numerator(w, rs.coroot_of((0, 1))) == -1
    assert pairing_numerator(w, rs.coroot_of((1, 1))) == 0
    g2 = build_root_system(LieType.parse("G2"))
    # alpha1 short: <alpha1, alpha2^vee> = -1, <alpha2, alpha1^vee> = -3.
    a1 = g2.root_to_weight_coords((1, 0))
    a2 = g2.root_to_weight_coords((0, 1))
    assert pairing_numerator(a1, g2.coroot_of((0, 1))) == -1
    assert pairing_numerator(a2, g2.coroot_of((1, 0))) == -3
    # over a weight's denominator: <(1/2, 1/3), (2, 1)^vee> = 4/3
    half_third = Weight.of(Fraction(1, 2), Fraction(1, 3))
    assert (half_third.den, pairing_numerator(half_third.num, (2, 1))) == (6, 8)


def test_antidominance():
    rs = build_root_system(LieType.parse("A2"))
    assert is_antidominant(rs, Weight.of(-1, -1))
    assert is_antidominant(rs, Weight.of(0, 0))
    assert is_antidominant(rs, Weight.of(0, -3))
    assert is_antidominant(rs, Weight.of(Fraction(-1, 2), Fraction(-1, 2)))
    # 1/2 on a simple root is fine (not a positive integer), but the sum
    # alpha1 + alpha2 then pairs to 1, which is not.
    assert not is_antidominant(rs, Weight.of(Fraction(1, 2), Fraction(1, 2)))
    assert is_antidominant(rs, Weight.of(Fraction(1, 2), -1))
    assert not is_antidominant(rs, Weight.of(1, -1))
    a1 = build_root_system(LieType.parse("A1"))
    assert is_antidominant(a1, Weight.of(Fraction(1, 2)))
    assert not is_antidominant(a1, Weight.of(3))


def test_kostant_partition_against_dp_oracle():
    for name, bound in (("A2", 6), ("A3", 5), ("B2", 6), ("C3", 4), ("G2", 6)):
        rs = build_root_system(LieType.parse(name))
        oracle = kostant_counts(rs, bound)
        for beta, expected in oracle.items():
            assert partition_count(rs, beta) == expected, (name, beta)


def test_kostant_partition_small_values():
    rs = build_root_system(LieType.parse("A2"))
    assert partition_count(rs, (0, 0)) == 1
    assert partition_count(rs, (1, 0)) == 1
    assert partition_count(rs, (1, 1)) == 2
    assert partition_count(rs, (2, 1)) == 2
    assert partition_count(rs, (2, 2)) == 3
    assert partition_count(rs, (-1, 0)) == 0
    with pytest.raises(ValueError):
        partition_count(rs, (1, 0, 0))
    # a non-integral coordinate is an error, not a truncation
    for beta in ((Fraction(1, 2), 0), (Fraction(3, 2), Fraction(3, 2))):
        with pytest.raises(ValueError, match="non-integral"):
            partition_count(rs, beta)
    g2 = build_root_system(LieType.parse("G2"))
    assert partition_count(g2, (1, 1)) == 2
    assert partition_count(g2, (2, 1)) == 3
    assert partition_count(g2, (3, 1)) == 4
    assert partition_count(g2, (3, 2)) == 7


def test_partition_count_restricted_roots():
    # partition counts over a root subset come from the reference alone,
    # which the convolution tests and the parabolic character test read
    rs = build_root_system(LieType.parse("A2"))
    # Only the two simple roots allowed: unique way for any (a, b) >= 0.
    counts = kostant_counts(rs, 6, [root_index(rs, (1, 0)), root_index(rs, (0, 1))])
    assert all(counts[(a, b)] == 1 for a in range(4) for b in range(4))
    counts = kostant_counts(rs, 3, [root_index(rs, (1, 1))])
    assert counts[(1, 1)] == 1
    assert counts[(2, 1)] == 0


def test_height_vectors():
    # The zero vector, then the rest sorted by height and lexicographically.
    assert boxes(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(boxes(3, 4)) == 35  # C(4+3,3)
    assert boxes(3, 0) == [(0, 0, 0)]
    assert boxes(3, -1) == []


def test_boxes_are_height_vectors_with_zero():
    for rank in range(1, 5):
        for depth in range(-1, 5):
            every = itertools.product(range(depth + 1), repeat=rank)
            want = sorted(
                (v for v in every if sum(v) <= depth), key=lambda v: (sum(v), v)
            )
            assert boxes(rank, depth) == want


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
def test_partition_table_matches_partition_count(name):
    rs = build_root_system(LieType.parse(name))
    depth = 4
    table = partition_table(rs, depth)
    assert list(table) == boxes(rs.rank, depth)
    assert len(table) <= 35
    assert table == kostant_counts(rs, depth), name
    for beta, count in table.items():
        assert count == partition_count(rs, beta), (name, beta)
    assert partition_table(rs, depth) is table
    assert partition_table(rs, -1) == {}


@pytest.mark.parametrize("name", ACCEPTANCE_TYPES)
def test_full_partition_table_is_levi_times_nilradical(name):
    # For every subset I of the simple roots, counting partitions over all
    # positive roots is convolving the counts over the Levi roots (those
    # supported on I) with the counts over the rest
    rs = build_root_system(LieType.parse(name))
    full = partition_table(rs, 4)
    for r in range(rs.rank + 1):
        for I in itertools.combinations(range(rs.rank), r):
            levi = [
                k for k, vec in enumerate(rs.positive_roots)
                if all(c == 0 for j, c in enumerate(vec) if j not in I)
            ]
            nil = [k for k in range(len(rs.positive_roots)) if k not in levi]
            terms = [(m, g) for g, m in kostant_counts(rs, 4, levi).items() if m]
            assert shifted_sum(kostant_counts(rs, 4, nil), terms) == full, (name, I)


def test_partition_table_refuses_too_many_boxes(monkeypatch):
    from jantzen import clear_caches, roots

    rs = build_root_system(LieType.parse("A3"))
    stored = roots.partition_table.cache_info().currsize
    # C(100003, 3) boxes, about 1.7e14: refused before any is built
    with pytest.raises(ValueError, match="over the limit of 100000"):
        partition_table(rs, 100_000)
    assert roots.partition_table.cache_info().currsize == stored
    # the limit is on the box count: C(4 + 3, 3) = 35 and C(5 + 3, 3) = 56
    clear_caches()
    monkeypatch.setattr(roots, "MAX_BOXES", 35)
    assert len(partition_table(rs, 4)) == 35
    with pytest.raises(ValueError, match="needs 56 partition table boxes"):
        partition_table(rs, 5)
    with pytest.raises(ValueError, match="limit of 35"):
        partition_count(rs, (2, 2, 1))


def _per_box_sum(table, terms):
    """shifted_sum by its definition: every box reads every term."""
    out = {}
    for b in table:
        want = 0
        for c, d in terms:
            shifted = tuple(x - y for x, y in zip(b, d))
            if min(shifted) >= 0:
                want += c * table[shifted]
        out[b] = want
    return out


def test_shifted_sum_matches_per_box_sum():
    rs = build_root_system(LieType.parse("B2"))
    table = partition_table(rs, 5)
    # the shifts push every box somewhere to negative coordinates
    terms = [(1, (0, 0)), (-2, (1, 0)), (3, (0, 2)), (-1, (2, 3)), (4, (6, 0))]
    got = shifted_sum(table, terms)
    assert list(got) == list(table)
    assert got == _per_box_sum(table, terms)
    assert shifted_sum(table, []) == dict.fromkeys(table, 0)
    assert shifted_sum({}, terms) == {}


def test_shifted_sum_refuses_a_negative_shift_or_a_partial_table():
    rs = build_root_system(LieType.parse("B2"))
    table = partition_table(rs, 3)
    for terms in ([(1, (0, -1))], [(1, (0, 0)), (-1, (-2, 4))]):
        with pytest.raises(ValueError, match="negative coordinate"):
            shifted_sum(table, terms)
        with pytest.raises(ValueError, match="negative coordinate"):
            shifted_sum({}, terms)
    # a table missing a box below its last key breaks the scatter's slices
    partial = {b: v for b, v in table.items() if b != (1, 0)}
    with pytest.raises(ValueError, match="does not hold every box up to height 3"):
        shifted_sum(partial, [(1, (0, 0))])


@st.composite
def _shifted_sum_cases(draw):
    """A full or nilradical partition table of A2, B2, G2 or A3 and signed
    terms whose shifts may be zero or reach beyond the table's depth."""
    rs = build_root_system(LieType.parse(draw(st.sampled_from(("A2", "B2", "G2", "A3")))))
    # I empty gives the full table; otherwise the roots outside the Levi of I
    I = draw(st.sets(st.integers(0, rs.rank - 1)))
    nil = [
        k for k, vec in enumerate(rs.positive_roots)
        if any(c for j, c in enumerate(vec) if j not in I)
    ]
    depth = draw(st.integers(0, 5))
    zero = st.just((0,) * rs.rank)
    shift = st.tuples(*[st.integers(0, depth + 2)] * rs.rank)
    terms = draw(st.lists(st.tuples(st.integers(-3, 3), zero | shift), max_size=6))
    return kostant_counts(rs, depth, nil), terms


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_shifted_sum_cases())
def test_shifted_sum_scatter_matches_per_box_sum(case):
    table, terms = case
    got = shifted_sum(table, terms)
    assert list(got) == list(table)
    assert got == _per_box_sum(table, terms)


def test_clear_caches_empties_partition_caches():
    from jantzen import clear_caches

    rs = build_root_system(LieType.parse("B2"))
    table = partition_table(rs, 3)
    assert partition_table(rs, 3) is table
    clear_caches()
    fresh = partition_table(rs, 3)
    assert fresh is not table and fresh == table


def test_weight_parse_serialize():
    w = Weight.parse("-1/2,3,0")
    assert w.coords == (Fraction(-1, 2), Fraction(3), Fraction(0))
    assert w.serialize() == "-1/2,3,0"
    assert Weight.parse(w.serialize()) == w
    assert Weight.of(1, Fraction(-2, 3)).serialize() == "1,-2/3"
    with pytest.raises(ValueError):
        Weight.parse("1,,2")
    with pytest.raises(ValueError):
        Weight.parse("a,b")
    # int() and Fraction() read these, the last ones as decimal and
    # exponent forms; a coordinate is an optional sign, ASCII digits and
    # an optional "/" with ASCII digits
    for bad in (
        "1_0,0", "1/2_0,0", "\u0661,0", "1,\u00bd", "1\u00a0,0",
        "1e1,0.5", "0.5,1", ".5,1", "1.,0", "1E1,0", "1/2e1,0", "1 /2,0", "+-1,0",
    ):
        with pytest.raises(ValueError, match="cannot parse weight"):
            Weight.parse(bad)
    assert Weight.parse(" 1 , -1/2 ") == Weight.of(1, Fraction(-1, 2))
    assert Weight.parse("+1,-3/6,007") == Weight.of(1, Fraction(-1, 2), 7)


def test_lie_type_parse():
    assert LieType.parse("a2") == LieType("A", 2)
    assert LieType.parse(" G2 ") == LieType("G", 2)
    assert str(LieType.parse("C3")) == "C3"
    assert LieType.parse("B03") == LieType("B", 3)
    for bad in ("", "A", "A0", "B1", "X5", "G3", "E5", "F5", "Ax"):
        with pytest.raises(ValueError):
            LieType.parse(bad)
    # int() reads these as A2, A20 and A2; they are not Lie types
    for bad in ("A\u0662", "A2_0", "A 2", "A+2", "A\u00b2", "A2\u00a0x"):
        with pytest.raises(ValueError, match="cannot parse Lie type"):
            LieType.parse(bad)


def test_positive_integral_pairings_match_pairing():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(LieType.parse(name))
        half = Fraction(1, 2)
        for coords in [(1, 1), (1, 0), (-1, 2), (half, 1), (3 * half, 2)]:
            w = Weight.of(*coords)
            pairings = [
                _ref_pairing(w.coords, rs.coroot_of(root)) for root in rs.positive_roots
            ]
            want = [
                (i, p)
                for i, p in enumerate(pairings)
                if p > 0 and Fraction(p).denominator == 1
            ]
            assert list(positive_integral_pairings(rs, w)) == want
            assert is_antidominant(rs, w) == (not want)


def test_weight_integer_form_and_identity():
    # equal weights hash equal, whichever constructor built them
    forms = [
        Weight.of(1, 0),
        Weight.of(Fraction(1), Fraction(0)),
        Weight.scaled(1, (1, 0)),
        Weight.scaled(3, (3, 0)),
    ]
    assert all(x == forms[0] and hash(x) == hash(forms[0]) for x in forms)
    w = Weight.of(Fraction(-1, 2), Fraction(2, 3), 1)
    assert (w.den, w.num) == (6, (-3, 4, 6))
    # the same weight from unreduced numerators over any denominator
    same = Weight.scaled(12, (-6, 8, 12))
    assert same == w and hash(same) == hash(w) and same.coords == w.coords
    assert (same.den, same.num) == (6, (-3, 4, 6))
    assert same.serialize() == "-1/2,2/3,1"
    assert repr(same) == repr(w)
    with pytest.raises(AttributeError):
        w.den = 1


# Types of the property tests; every example draws one weight per type.
_PROPERTY_TYPES = ("A2", "B2", "G2", "A3", "B3")


@st.composite
def _weights(draw):
    """{type: weight} with signed rational coordinates of denominator <= 6."""
    out = {}
    for name in _PROPERTY_TYPES:
        rank = int(name[1:])
        out[name] = Weight.of(
            *(Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 6))) for _ in range(rank))
        )
    return out


def _ref_pairing(coords, coroot) -> Fraction:
    """<lambda, alpha^vee> by Fraction arithmetic on the coordinates."""
    return sum((Fraction(c) * x for c, x in zip(coords, coroot)), Fraction(0))


def _ref_reflect(rs, coords, root) -> tuple:
    """s_root(lambda) by Fraction arithmetic on the coordinates."""
    p = _ref_pairing(coords, rs.coroot_of(root))
    n = rs.rank
    image = [sum(rs.cartan[i][k] * root[k] for k in range(n)) for i in range(n)]
    return tuple(c - p * x for c, x in zip(coords, image))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_weights())
def test_integer_arithmetic_matches_fraction_reference(weights):
    for name, w in weights.items():
        rs = build_root_system(LieType.parse(name))
        coords = w.coords
        assert w.den == math.lcm(*(c.denominator for c in coords))
        assert w.num == tuple(c * w.den for c in coords)
        for root, coroot in zip(rs.positive_roots, rs.coroots):
            assert Fraction(pairing_numerator(w.num, coroot), w.den) == _ref_pairing(
                coords, coroot
            )
            for r in (root, tuple(-x for x in root)):
                image = reflect(rs, w, r)
                assert image.coords == _ref_reflect(rs, coords, r)
                assert image == Weight.of(*image.coords)
        # the orbit of w's antidominant representative, element by element
        block, y = normalize(rs, w)
        assert block.apply(y) == w
        sys = block.system
        for u in sys.elements():
            want = block.mu.coords
            for i in reversed(sys.word(u)):
                want = _ref_reflect(rs, want, sys.simple_roots[i])
            got = block.apply(u)
            assert got.coords == want
            assert got == Weight.of(*want) and hash(got) == hash(Weight.of(*want))


def test_sum_formula_path_builds_no_fraction(monkeypatch):
    """normalize and sum_formula_check run on integer weight forms alone:
    on the seed-0 suite weights of A3, B3 and G2 and on every module's
    nu, no Fraction is built, neither for a pairing nor for a hash."""
    cases = []
    for name in ("A3", "B3", "G2"):
        rs = build_root_system(LieType.parse(name))
        for _, mu in suite_weights(rs, 0):
            block, _ = normalize(rs, mu)
            cases += [(rs, mu)] + [(rs, block.apply(w)) for w in block.coset_reps()]
    clear_caches()
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(roots, "Fraction", CountingFraction)
    for rs, nu in cases:
        normalize(rs, nu)
        assert sum_formula_check(rs, nu).passed
    assert built == []
