"""Kazhdan-Lusztig polynomial tables and their ``.kl`` file format.

The main correctness test recomputes every polynomial through the Hecke
algebra: B_w = sum_x P(x, w) T_x satisfies B_w = B_v B_s - sum_z mu(z, v)
q^((l(v)+1-l(z))/2) B_z for any right descent s of w (v = ws, z running
over elements with zs < z).  T-basis multiplication uses only
T_x T_s = T_{xs} (if l(xs) > l(x)) and q T_{xs} + (q-1) T_x otherwise,
so the oracle shares nothing with the production recursion.
"""

import hashlib
import os
import pathlib

import pytest

from jantzen.blocks import integral_block
from jantzen.kl import (
    CACHE_VERSION,
    KLDefectError,
    KLTable,
    Poly,
    build_table,
    cache_key,
    cache_path,
    entry_defect,
    load_table,
    save_table,
    table_for,
)
from jantzen.roots import LieType, Weight, build_root_system
from jantzen.weyl import CoxeterSystem, format_word, weyl_group
from reference import QPoly, word_apply


def _system(name):
    return weyl_group(build_root_system(LieType.parse(name)))


def _table(name):
    return table_for(_system(name))


def _mul_by_gen(sys, vec, i):
    """Multiply sum_x vec[x] T_x by (T_e + T_s) in the Hecke algebra."""
    q = QPoly((0, 1))
    qm1 = QPoly((-1, 1))
    out = {}

    def add(x, p):
        if x in out:
            out[x] = out[x] + p
        else:
            out[x] = p

    for x, p in vec.items():
        add(x, p)
        xs = sys.right_mul(x, i)
        if sys.length(xs) > sys.length(x):
            add(xs, p)
        else:
            add(xs, p * q)
            add(x, p * qm1)
    return {x: p for x, p in out.items() if not p.is_zero()}


def _hecke_oracle(sys):
    """P(x, w) for all pairs, from the canonical-basis recursion."""
    basis = {sys.identity: {sys.identity: QPoly.const(1)}}
    for w in sys.elements():
        if w == sys.identity:
            continue
        i = sys.first_right_descent(w)
        v = sys.right_mul(w, i)
        vec = _mul_by_gen(sys, basis[v], i)
        lv = sys.length(v)
        for z, pz in list(basis[v].items()):
            lz = sys.length(z)
            d = lv - lz
            if d <= 0 or d % 2 == 0:
                continue
            if sys.length(sys.right_mul(z, i)) >= lz:
                continue
            mu = pz.coeff((d - 1) // 2)
            if mu == 0:
                continue
            correction = QPoly.const(mu).shift((lv + 1 - lz) // 2)
            for x, px in basis[z].items():
                got = vec.get(x, QPoly()) - px * correction
                if got.is_zero():
                    vec.pop(x, None)
                else:
                    vec[x] = got
        basis[w] = vec
    return basis


def test_hecke_algebra_oracle():
    for name in ("A2", "B2", "G2", "A3", "B3", "A4", "D4"):
        sys = _system(name)
        table = table_for(sys)
        oracle = _hecke_oracle(sys)
        for w in sys.elements():
            vec = oracle[w]
            for x in sys.elements():
                expected = vec.get(x, QPoly())
                assert table.polynomial(x, w).coeffs == expected.coeffs, (name, x, w)


def test_dihedral_polynomials_all_one():
    one = Poly((1,))
    for name in ("A1", "A2", "B2", "C2", "G2"):
        sys = _system(name)
        table = table_for(sys)
        for w in sys.elements():
            for x in sys.elements():
                p = table.polynomial(x, w)
                if sys.bruhat_leq(x, w):
                    assert p == one, (name, x, w)
                else:
                    assert p == Poly()


def test_a3_nontrivial_polynomial():
    sys = _system("A3")
    table = _table("A3")
    x = sys.element_from_word((1,))
    w = sys.element_from_word((1, 0, 2, 1))
    assert table.polynomial(x, w) == Poly((1, 1))  # 1 + q
    # the same element written with the commuting letters swapped
    assert sys.element_from_word((1, 2, 0, 1)) == w


def test_a3_nontrivial_pairs():
    # S4 has exactly six Bruhat pairs with a nonconstant polynomial, all
    # equal to 1 + q: x in {e, s2} under s2 s1 s3 s2, and x in
    # {e, s1, s3, s1 s3} under s1 s2 s3 s2 s1.
    sys = _system("A3")
    table = _table("A3")
    nontrivial = {
        (sys.word(x), sys.word(w)): table.polynomial(x, w)
        for w in sys.elements()
        for x in sys.elements()
        if sys.bruhat_leq(x, w) and table.polynomial(x, w) != Poly((1,))
    }
    one_plus_q = Poly((1, 1))
    assert all(p == one_plus_q for p in nontrivial.values())
    w1 = sys.word(sys.element_from_word((1, 0, 2, 1)))
    w2 = sys.word(sys.element_from_word((0, 1, 2, 1, 0)))
    assert set(nontrivial) == {
        ((), w1),
        ((1,), w1),
        ((), w2),
        ((0,), w2),
        ((2,), w2),
        ((0, 2), w2),
    }


def test_inverse_polynomial_agrees_on_dihedral():
    # every P on a dihedral interval is constant 1, so Q(x, w) =
    # P(w0 w, w0 x) collapses to P(x, w) there
    for name in ("A2", "B2", "G2"):
        sys = _system(name)
        table = _table(name)
        for w in sys.elements():
            for x in sys.elements():
                assert table.inverse_polynomial(x, w) == table.polynomial(x, w)


def test_inverse_polynomial_a3_differs():
    # Q carries the Verma multiplicities: on S4 the repeated composition
    # factors sit in the modules at s2 s1 s3 s2 and above it, with the
    # doubled simples at s2 and s1 s3, not at the identity as plain P
    # would have it.
    sys = _system("A3")
    table = _table("A3")
    e = sys.identity
    w0 = sys.longest_times(sys.identity)
    s2 = sys.element_from_word((1,))
    s1s3 = sys.element_from_word((0, 2))
    v = sys.element_from_word((1, 0, 2, 1))
    one_plus_q = Poly((1, 1))
    assert table.inverse_polynomial(s2, v) == one_plus_q
    assert table.inverse_polynomial(e, v) == Poly((1,))
    assert table.polynomial(e, v) == one_plus_q
    assert table.inverse_polynomial(s2, w0) == one_plus_q
    assert table.inverse_polynomial(s1s3, w0) == one_plus_q
    assert table.polynomial(s2, w0) == Poly((1,))
    assert table.polynomial(s1s3, w0) == Poly((1,))


def test_alternating_inversion_identity():
    # sum_z (-1)^(l(z)-l(x)) P(x, z)(1) Q(z, w)(1) = delta(x, w): the
    # expansion of simples into Vermas (alternating P) and of Vermas into
    # simples (Q) must invert each other.  A2 cannot tell P from Q; A3
    # can, and plain P in the second slot fails this identity there.
    for name in ("A2", "A3"):
        sys = _system(name)
        table = _table(name)
        els = sys.elements()
        for x in els:
            for w in els:
                total = 0
                for z in els:
                    p = sum(table.polynomial(x, z).coeffs)
                    if p == 0:
                        continue
                    qv = sum(table.inverse_polynomial(z, w).coeffs)
                    if qv == 0:
                        continue
                    sign = -1 if (sys.length(z) - sys.length(x)) % 2 else 1
                    total += sign * p * qv
                assert total == (1 if x == w else 0), (name, sys.word(x), sys.word(w))


def test_invariants_small_groups():
    for name in ("A3", "G2", "B3"):
        sys = _system(name)
        table = _table(name)
        for w in sys.elements():
            assert table.polynomial(w, w) == Poly((1,))
            for x in sys.bruhat_interval_below(w):
                p = table.polynomial(x, w)
                assert p.coeff(0) == 1
                assert all(c >= 0 for c in p.coeffs)
                if x != w:
                    bound = (sys.length(w) - sys.length(x) - 1) // 2
                    assert len(p.coeffs) - 1 <= bound


def test_inverse_symmetry():
    for name in ("A3", "B2", "G2"):
        sys = _system(name)
        table = _table(name)
        for w in sys.elements():
            for x in sys.bruhat_interval_below(w):
                assert table.polynomial(x, w) == table.polynomial(
                    sys.inverse(x), sys.inverse(w)
                )


def test_not_comparable_gives_zero():
    sys = _system("A2")
    table = _table("A2")
    s1, s2 = sys.gens
    assert table.polynomial(s1, s2).coeffs == ()
    assert table.polynomial(sys.longest_times(sys.identity), sys.identity).coeffs == ()


def test_mu_values():
    # mu(x, w), the coefficient of q^((l(w)-l(x)-1)/2) in P(x, w), is 1
    # whenever l(w) - l(x) = 1, and is read from a zero polynomial (so is
    # 0) whenever x is not below w
    sys = _system("A3")
    table = _table("A3")
    for w in sys.elements():
        for x in sys.elements():
            d = sys.length(w) - sys.length(x)
            if d <= 0 or d % 2 == 0:
                continue
            m = table.polynomial(x, w).coeff((d - 1) // 2)
            if not sys.bruhat_leq(x, w):
                assert m == 0
            elif d == 1:
                assert m == 1


@pytest.mark.parametrize("name", ["B3", "A4", "D4"])
def test_columns_reached_out_of_order(name):
    # a fresh table asked first for the top of the group reaches its
    # columns through the recursion, not in length order; every entry must
    # still match a full build on a separate system
    rs = build_root_system(LieType.parse(name))
    ref = build_table(CoxeterSystem(rs, rs.simple_indices, range(len(rs.positive_roots))))
    sys = _system(name)
    lazy = KLTable(sys)
    e, w0 = sys.identity, sys.longest_times(sys.identity)
    assert lazy.polynomial(e, w0) == ref.polynomial(e, w0)
    assert lazy.inverse_polynomial(e, w0) == ref.inverse_polynomial(e, w0)
    for w in reversed(sys.elements()):
        for x in sys.elements():
            assert lazy.polynomial(x, w) == ref.polynomial(x, w), (name, x, w)
    assert [(x, w, p.coeffs) for x, w, p in lazy.entries()] == [
        (x, w, p.coeffs) for x, w, p in ref.entries()
    ]


def _poly_column(sys, cols, w):
    """Column w in QPoly arithmetic from the columns below it in ``cols``,
    the reference for the build's integer coefficient lists: the same
    recursion, P(x, w) as a sum of shifted polynomials with each mu-term
    subtracted as a QPoly."""
    one, zero = QPoly((1,)), QPoly()
    s = sys.first_right_descent(w)
    if s is None:
        return {w: one}
    v = sys.right_mul(w, s)
    below = cols[v]
    lw = sys.length(w)
    mus = []
    for z, p in below.items():
        d = lw - 1 - sys.length(z)
        if d % 2 and sys.length(sys.right_mul(z, s)) < sys.length(z):
            m = p.coeff((d - 1) // 2)
            if m:
                mus.append((cols[z], m, (d + 1) // 2))
    col = {}
    for x in sorted({u for y in below for u in (y, sys.right_mul(y, s))}):
        if lw - sys.length(x) <= 2:
            col[x] = one  # the degree bound forces 1
            continue
        xs = sys.right_mul(x, s)
        if sys.length(xs) < sys.length(x):
            p = below[xs] + below.get(x, zero).shift(1)
        else:
            p = below.get(xs, zero).shift(1) + below[x]
        for cz, m, k in mus:
            pz = cz.get(x)
            if pz is not None:
                p = p - m * pz.shift(k)
        col[x] = p
    return col


def _poly_columns(sys):
    """Every column by _poly_column, in index order, which is length order."""
    cols = {}
    for w in sys.elements():
        cols[w] = _poly_column(sys, cols, w)
    return cols


def _coeffs(col) -> dict:
    return {x: p.coeffs for x, p in col.items()}


@pytest.mark.parametrize("name", ["B4", "C4"])
def test_build_matches_poly_arithmetic(name):
    sys = _system(name)
    ref = _poly_columns(sys)
    want = [(x, w, p.coeffs) for w in sorted(ref) for x, p in ref[w].items()]
    assert [(x, w, p.coeffs) for x, w, p in build_table(sys).entries()] == want


def _descents(sys, u):
    """The right and the left descents of u, as two sets of generators."""
    lu, gens = sys.length(u), range(sys.num_gens)
    return (
        {i for i in gens if sys.length(sys.right_mul(u, i)) < lu},
        {i for i in gens if sys.length(sys.left_mul(i, u)) < lu},
    )


def _extremal(sys, x, w):
    """Whether x has every right and every left descent of w: the pairs
    whose P(x, w) the build forms by the recursion, not as a copy."""
    (rx, lx), (rw, lw) = _descents(sys, x), _descents(sys, w)
    return rw <= rx and lw <= lx


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_mu_term_is_scaled_by_mu(name):
    # Every group under the cap has mu in {0, 1}, so plant mu(s, v) = 2 in
    # a built column v = w s, w of odd length whose one right and one left
    # descent is s: the top coefficient of P(s, v) that the degree bound
    # allows becomes 2.  Column w then subtracts 2 q^k P(x, s) at x in
    # {e, s}, the only x below s, where the planted coefficient enters the
    # plain part q P(s, v) at the same q^k; so the column keeps every KL
    # invariant and equals the true one only if the mu-term is scaled by
    # mu.  The build forms P(s, w) by the recursion, s having every descent
    # of w, and copies P(e, w) = P(s, w).
    sys = _system(name)
    lengths = [sys.length(u) for u in sys.elements()]

    def one_descent(u):
        right, left = _descents(sys, u)
        return len(right) == 1 and right == left

    w = max(u for u in sys.elements() if lengths[u] % 2 and lengths[u] >= 5 and one_descent(u))
    s = sys.first_right_descent(w)
    v, gen = sys.right_mul(w, s), sys.gens[s]
    assert _extremal(sys, gen, w) and not _extremal(sys, sys.identity, w)
    true = _poly_columns(sys)
    top = (lengths[v] - lengths[gen] - 1) // 2
    coeffs = true[v][gen].coeffs + (0,) * top
    planted = coeffs[:top] + (2,)
    table = KLTable(sys)
    table._cols[v] = {**table.column(v), gen: Poly(planted)}
    ref = dict(true)
    ref[v] = {**true[v], gen: QPoly(planted)}
    got = {x: p.coeffs for x, p in table.column(w).items()}
    assert table.polynomial(gen, v).coeff(top) == 2
    assert got == _coeffs(_poly_column(sys, ref, w)) == _coeffs(true[w])


def test_build_table_pair_count():
    sys = _system("B2")
    table = build_table(sys)
    entries = list(table.entries())
    assert len(entries) == table.expected_pair_count()
    # entries() is sorted and deterministic
    again = list(build_table(sys).entries())
    assert [(sys.word(x), sys.word(w), p.coeffs) for x, w, p in entries] == [
        (sys.word(x), sys.word(w), p.coeffs) for x, w, p in again
    ]


def test_cache_round_trip(tmp_path):
    sys = _system("B2")
    table = build_table(sys)
    path = save_table(table, str(tmp_path))
    assert os.path.exists(path)
    assert path == cache_path(sys, str(tmp_path))
    loaded = load_table(sys, str(tmp_path))
    assert loaded is not None
    for x, w, p in table.entries():
        assert loaded.polynomial(x, w) == p
    # byte-identical on re-save
    with open(path, "rb") as fh:
        first = fh.read()
    save_table(table, str(tmp_path))
    with open(path, "rb") as fh:
        second = fh.read()
    assert first == second


def test_cache_rejects_corruption(tmp_path):
    sys = _system("A2")
    table = build_table(sys)
    path = save_table(table, str(tmp_path))
    with open(path) as fh:
        lines = fh.read().splitlines()
    # truncated file
    with open(path, "w") as fh:
        fh.write("\n".join(lines[: len(lines) // 2]))
    assert load_table(sys, str(tmp_path)) is None
    # garbage coefficients
    with open(path, "w") as fh:
        fh.write(lines[0] + "\n")
        fh.write("0 0 not,a,number\n")
    assert load_table(sys, str(tmp_path)) is None
    # wrong header
    with open(path, "w") as fh:
        fh.write("KLCACHE v0 deadbeef\n")
    assert load_table(sys, str(tmp_path)) is None
    # missing file
    os.remove(path)
    assert load_table(sys, str(tmp_path)) is None


def test_cache_key_distinguishes_systems():
    keys = {
        cache_key(_system(name).coxeter_matrix())
        for name in ("A1", "A2", "A3", "B2", "B3", "G2")
    }
    assert len(keys) == 6
    # same Coxeter matrix -> same key (C3 and B3 share one)
    assert cache_key(_system("B3").coxeter_matrix()) == cache_key(
        _system("C3").coxeter_matrix()
    )


def test_registry_reuse():
    sys = _system("G2")
    t1 = table_for(sys)
    t2 = table_for(sys)
    assert t1 is t2


def test_cache_rejects_tampered_entry(tmp_path):
    # One coefficient changed from 1,1 to 1,7 keeps the degree bound and
    # positivity, so only the body digest in the header can catch it.
    sys = _system("A3")
    path = save_table(build_table(sys), str(tmp_path))
    with open(path) as fh:
        lines = fh.read().split("\n")
    hit = next(i for i, line in enumerate(lines) if line.endswith(";1,1"))
    lines[hit] = lines[hit][: -len("1,1")] + "1,7"
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    assert load_table(sys, str(tmp_path)) is None


def test_cache_v1_file_is_refused(tmp_path):
    sys = _system("B2")
    path = save_table(build_table(sys), str(tmp_path))
    with open(path) as fh:
        lines = fh.read().split("\n")
    # the previous format: version and key, no digest
    lines[0] = f"KLCACHE v1 {cache_key(sys.coxeter_matrix())}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    assert load_table(sys, str(tmp_path)) is None


def test_table_for_uses_interned_system():
    sys = _system("B3")
    assert table_for(sys).system is sys
    # a system built directly is replaced by its interned twin
    twin = CoxeterSystem(sys.rs, sys.simple_idx, sys.pos_idx)
    assert table_for(twin).system is sys


def test_longest_times_matches_weight_action():
    for name in ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "A4"):
        sys = _system(name)
        w0 = sys.longest_times(sys.identity)
        block = integral_block(sys.rs, Weight.of(*[-1] * sys.rs.rank))
        for x in sys.elements():
            w0x = sys.longest_times(x)
            # (w0 x)(-rho) from the block's orbit entries against w0 applied
            # by the reference walk to x(-rho)
            assert block.apply(w0x) == word_apply(sys, w0, block.apply(x))
            assert sys.length(w0x) == sys.length(w0) - sys.length(x)


def _write_cache(path, sys, lines):
    """Write cache lines under a header whose digest matches them."""
    body = "".join(line + "\n" for line in lines).encode()
    key = cache_key(sys.coxeter_matrix())
    header = f"{CACHE_VERSION} {key} {hashlib.sha256(body).hexdigest()}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode() + body)


def _swap_for_incomparable(sys, lines):
    # the diagonal line of s1 s2 becomes the pair (s2 s1, s1 s2), and s2 s1
    # is not below s1 s2: the line count stays that of the Bruhat pairs
    x, w = sys.element_from_word((1, 0)), sys.element_from_word((0, 1))
    assert not sys.bruhat_leq(x, w)
    return ["2 1;1 2;1" if line == "1 2;1 2;1" else line for line in lines]


def _non_canonical_word(sys, lines):
    # s1 s3 written as s3 s1: the same element, not its canonical word
    assert format_word(sys.word(sys.element_from_word((2, 0)))) == "1 3"
    return [
        ";".join("3 1" if part == "1 3" else part for part in line.split(";"))
        for line in lines
    ]


def _duplicate_pair(sys, lines):
    # one pair read twice, every other pair once
    return lines + [lines[len(lines) // 2]]


def _replace_first(lines, pred, coeffs):
    hit = next(i for i, line in enumerate(lines) if pred(line))
    x, w, _ = lines[hit].split(";")
    return lines[:hit] + [f"{x};{w};{coeffs}"] + lines[hit + 1 :]


def _zero_constant_term(sys, lines):
    return _replace_first(lines, lambda line: line.endswith(";1,1"), "0,1")


def _negative_coefficient(sys, lines):
    return _replace_first(lines, lambda line: line.endswith(";1,1"), "1,-1")


def _over_degree(sys, lines):
    # degree 2 for e under s2 s1 s3 s2, a length difference of 4 where the
    # bound 2 deg < 4 allows degree 1
    return _replace_first(lines, lambda line: line.endswith(";1,1"), "1,0,1")


def _nonconstant_diagonal(sys, lines):
    # P(w, w) must be 1
    return _replace_first(lines, lambda line: line == "1 2;1 2;1", "1,1")


def _non_canonical_coefficient(label, text):
    # the constant 1 of one pair in a spelling that int() and Poly() accept
    def corrupt(sys, lines):
        return _replace_first(lines, lambda line: line.endswith(";1"), text)

    corrupt.__name__ = f"_coefficient_{label}"
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _swap_for_incomparable,
        _non_canonical_word,
        _duplicate_pair,
        _zero_constant_term,
        _negative_coefficient,
        _over_degree,
        _nonconstant_diagonal,
        _non_canonical_coefficient("plus_sign", "+1"),
        _non_canonical_coefficient("leading_space", " 1"),
        _non_canonical_coefficient("trailing_zero", "1,0"),
        _non_canonical_coefficient("underscore", "0_1"),
    ],
)
def test_cache_with_valid_digest_fails_closed(tmp_path, corrupt):
    sys = _system("A3")
    path = save_table(build_table(sys), str(tmp_path))
    with open(path, "rb") as fh:
        lines = fh.read().decode().splitlines()[1:]
    # the digest is recomputed correctly: the unchanged lines load
    _write_cache(path, sys, lines)
    assert load_table(sys, str(tmp_path)) is not None
    bad = corrupt(sys, lines)
    assert bad != lines
    _write_cache(path, sys, bad)
    assert load_table(sys, str(tmp_path)) is None


def test_one_entry_invariant_for_build_and_load():
    # the messages of the one KL entry invariant; load_table treats any of
    # them as a miss (the planted caches above), the build raises them
    assert entry_defect((1,), 0) is None and entry_defect((1, 2), 3) is None
    assert entry_defect((), 3) == "constant term 0 != 1 for pair of length difference 3"
    assert entry_defect((2, 1), 5) == "constant term 2 != 1 for pair of length difference 5"
    assert entry_defect((1, 1), 2) == "degree 1 exceeds bound for length difference 2"
    assert entry_defect((1, 1), 0) == "degree 1 exceeds bound for length difference 0"
    assert entry_defect((1, -1), 3) == "negative coefficient in (1, -1)"
    # s2 has every descent of w = s2 s1 s3 s2, so the build forms
    # P(s2, w) = q P(s2, v) + P(e, v), v = w s2, by the recursion: a
    # planted P(e, v) = 1 - 5q makes it 1 - 4q
    sys = _system("A3")
    w = sys.element_from_word((1, 0, 2, 1))
    s = sys.first_right_descent(w)
    v, x = sys.right_mul(w, s), sys.gens[s]
    assert _extremal(sys, x, w)
    table = KLTable(sys)
    table._cols[v] = {**table.column(v), sys.identity: Poly((1, -5))}
    with pytest.raises(KLDefectError, match=r"^negative coefficient in \(1, -4\)$"):
        table.column(w)


def test_cache_format_golden(tmp_path):
    # a B3 cache file written by an earlier version of this module: saving
    # reproduces it byte for byte, and it reads back as a fresh build
    golden = pathlib.Path(__file__).resolve().parent / "golden" / "klcache-B3.kl"
    sys = _system("B3")
    fresh = build_table(sys)
    path = save_table(fresh, str(tmp_path))
    with open(path, "rb") as fh:
        assert fh.read() == golden.read_bytes()
    loaded = load_table(sys, str(tmp_path))
    assert loaded is not None
    assert [(x, w, p.coeffs) for x, w, p in loaded.entries()] == [
        (x, w, p.coeffs) for x, w, p in fresh.entries()
    ]
