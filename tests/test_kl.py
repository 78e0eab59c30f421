"""Kazhdan-Lusztig polynomial tables and the disk cache.

The main correctness test recomputes every polynomial through the Hecke
algebra: B_w = sum_x P(x, w) T_x satisfies B_w = B_v B_s - sum_z mu(z, v)
q^((l(v)+1-l(z))/2) B_z for any right descent s of w (v = ws, z running
over elements with zs < z).  T-basis multiplication uses only
T_x T_s = T_{xs} (if l(xs) > l(x)) and q T_{xs} + (q-1) T_x otherwise,
so the oracle shares nothing with the production recursion.
"""

import os

import pytest

from jantzen import clear_caches
from jantzen.kl import (
    CACHE_VERSION,
    KLTable,
    build_table,
    cache_key,
    cache_path,
    load_table,
    save_table,
    table_for,
)
from jantzen.poly import Poly
from jantzen.roots import LieType, Weight, build_root_system
from jantzen.weyl import weyl_group


def _system(name):
    return weyl_group(build_root_system(LieType.parse(name)))


def _table(name):
    return table_for(_system(name))


def _mul_by_gen(sys, vec, i):
    """Multiply sum_x vec[x] T_x by (T_e + T_s) in the Hecke algebra."""
    q = Poly.x()
    qm1 = Poly((-1, 1))
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
    basis = {sys.identity: {sys.identity: Poly.const(1)}}
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
            correction = Poly.x() ** ((lv + 1 - lz) // 2) * Poly.const(mu)
            for x, px in basis[z].items():
                got = vec.get(x, Poly()) - px * correction
                if got.is_zero():
                    vec.pop(x, None)
                else:
                    vec[x] = got
        basis[w] = vec
    return basis


def test_hecke_algebra_oracle():
    for name in ("A2", "B2", "G2", "A3", "B3"):
        sys = _system(name)
        table = table_for(sys)
        oracle = _hecke_oracle(sys)
        for w in sys.elements():
            vec = oracle[w]
            for x in sys.elements():
                expected = vec.get(x, Poly())
                assert table.polynomial(x, w) == expected, (name, x, w)


def test_dihedral_polynomials_all_one():
    one = Poly.const(1)
    for name in ("A1", "A2", "B2", "C2", "G2"):
        sys = _system(name)
        table = table_for(sys)
        for w in sys.elements():
            for x in sys.elements():
                p = table.polynomial(x, w)
                if sys.bruhat_leq(x, w):
                    assert p == one, (name, x, w)
                else:
                    assert p.is_zero()


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
        if sys.bruhat_leq(x, w) and table.polynomial(x, w) != Poly.const(1)
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
    w0 = sys.longest_element()
    s2 = sys.element_from_word((1,))
    s1s3 = sys.element_from_word((0, 2))
    v = sys.element_from_word((1, 0, 2, 1))
    one_plus_q = Poly((1, 1))
    assert table.inverse_polynomial(s2, v) == one_plus_q
    assert table.inverse_polynomial(e, v) == Poly.const(1)
    assert table.polynomial(e, v) == one_plus_q
    assert table.inverse_polynomial(s2, w0) == one_plus_q
    assert table.inverse_polynomial(s1s3, w0) == one_plus_q
    assert table.polynomial(s2, w0) == Poly.const(1)
    assert table.polynomial(s1s3, w0) == Poly.const(1)


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
                    p = table.polynomial(x, z)(1)
                    if p == 0:
                        continue
                    qv = table.inverse_polynomial(z, w)(1)
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
            assert table.polynomial(w, w) == Poly.const(1)
            for x in sys.bruhat_interval_below(w):
                p = table.polynomial(x, w)
                assert p.coeff(0) == 1
                assert all(c >= 0 for c in p.coeffs)
                if x != w:
                    bound = (sys.length(w) - sys.length(x) - 1) // 2
                    assert p.degree <= bound


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
    assert table.polynomial(s1, s2).is_zero()
    assert table.polynomial(sys.longest_element(), sys.identity).is_zero()


def test_mu_values():
    sys = _system("A3")
    table = _table("A3")
    for w in sys.elements():
        for x in sys.elements():
            m = table.mu(x, w)
            d = sys.length(w) - sys.length(x)
            if d <= 0 or d % 2 == 0 or not sys.bruhat_leq(x, w):
                assert m == 0
            else:
                assert m == table.polynomial(x, w).coeff((d - 1) // 2)
    # mu(x, w) = 1 whenever l(w) - l(x) = 1
    for w in sys.elements():
        for x in sys.bruhat_interval_below(w):
            if sys.length(w) - sys.length(x) == 1:
                assert table.mu(x, w) == 1


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


def test_table_for_disk_cache(tmp_path):
    clear_caches()
    sys = _system("B2")
    path = cache_path(sys, str(tmp_path))
    assert not os.path.exists(path)
    t1 = table_for(sys, cache_dir=str(tmp_path), use_disk=True)
    assert os.path.exists(path)
    with open(path, "rb") as fh:
        first = fh.read()
    # a second, fresh process-level lookup reuses the file
    clear_caches()
    t2 = table_for(sys, cache_dir=str(tmp_path), use_disk=True)
    with open(path, "rb") as fh:
        second = fh.read()
    assert first == second
    for x, w, p in t1.entries():
        assert t2.polynomial(x, w) == p
    # a corrupt cache is rebuilt, not trusted
    clear_caches()
    with open(path, "w") as fh:
        fh.write("garbage\n")
    t3 = table_for(sys, cache_dir=str(tmp_path), use_disk=True)
    for x, w, p in t1.entries():
        assert t3.polynomial(x, w) == p


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


def test_cache_v1_file_is_rebuilt(tmp_path):
    sys = _system("B2")
    table = build_table(sys)
    path = save_table(table, str(tmp_path))
    with open(path) as fh:
        lines = fh.read().split("\n")
    # the previous format: version and key, no digest
    lines[0] = f"KLCACHE v1 {cache_key(sys.coxeter_matrix())}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    assert load_table(sys, str(tmp_path)) is None
    clear_caches()
    rebuilt = table_for(sys, cache_dir=str(tmp_path), use_disk=True)
    for x, w, p in table.entries():
        assert rebuilt.polynomial(x, w) == p
    with open(path) as fh:
        assert fh.readline().startswith(CACHE_VERSION + " ")
    assert load_table(sys, str(tmp_path)) is not None


def test_table_for_uses_interned_system():
    from jantzen.weyl import CoxeterSystem

    sys = _system("B3")
    assert table_for(sys).system is sys
    # a system built directly is replaced by its interned twin
    twin = CoxeterSystem(sys.rs, sys.simple_idx, sys.pos_idx)
    assert table_for(twin).system is sys


def test_longest_times_matches_matrix_product():
    for name in ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "A4"):
        sys = _system(name)
        w0 = sys.longest_element()
        rho = Weight.of(*[1] * sys.rs.rank)
        for x in sys.elements():
            w0x = sys.longest_times(x)
            # the weight action is the matrix product, independent of the
            # table walks
            assert sys.apply(w0x, rho) == sys.apply(w0, sys.apply(x, rho))
            assert sys.length(w0x) == sys.length(w0) - sys.length(x)
