"""Batch acceptance checks over the full verification suite.

Seven numbered criteria, each a single test that prints one line
"criterion N: pass (...)" or "criterion N: fail (...)" and then asserts.
Criterion 1 starts from an empty polynomial cache and carries a hard
runtime budget; so does criterion 2.  Layer tables for the later
criteria are computed once per block and shared.

The weight suite (jantzen.suite) covers, per type: the regular integral
block, one singular integral block for every nonempty subset of simple
roots, and three nonintegral blocks.  Types: A1 A2 A3 B2 B3 C3 G2; the
KL sanity criterion also checks the full A4, D4, B4 and F4 tables.
"""

import hashlib
import time

from jantzen import clear_caches
from jantzen.blocks import DefectError, integral_block, normalize
from jantzen.filtration import domination_check, layers, sum_formula_check
from jantzen.kl import Poly, save_table, table_for
from jantzen.parabolic import (
    enumerate_IWJ,
    parabolic_character_check,
    parabolic_layers,
    parabolic_layers_dual_path,
)
from jantzen.roots import LieType, Weight, build_root_system
from jantzen.shapovalov import oracle_compare
from jantzen.suite import ACCEPTANCE_TYPES, suite_weights
from reference import phi_plus_count, solve_square

_RS = {}
_SUITE = {}
_TABLES = {}


def _rs(name):
    if name not in _RS:
        _RS[name] = build_root_system(LieType.parse(name))
    return _RS[name]


def _suite(name):
    # (label, mu, block) per suite weight; blocks are shared across criteria.
    if name not in _SUITE:
        rs = _rs(name)
        _SUITE[name] = tuple(
            (label, mu, integral_block(rs, mu)) for label, mu in suite_weights(rs)
        )
    return _SUITE[name]


def _layer_tables(name, label, block):
    key = (name, label)
    if key not in _TABLES:
        table = table_for(block.system)
        _TABLES[key] = {w: layers(block, w, table) for w in block.coset_reps()}
    return _TABLES[key]


def _emit(num, failures, detail):
    status = "pass" if not failures else "fail"
    print(f"criterion {num}: {status} ({detail})")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def test_criterion_1_sum_formula_exactness():
    # Every module of every suite block satisfies the sum formula exactly,
    # with all polynomial tables rebuilt from scratch, within 300 seconds.
    clear_caches()
    t0 = time.monotonic()
    failures = []
    checks = 0
    blocks = 0
    for name in ACCEPTANCE_TYPES:
        rs = _rs(name)
        for label, mu, block in _suite(name):
            blocks += 1
            for w in block.coset_reps():
                res = sum_formula_check(rs, block.apply(w))
                checks += 1
                if not res.passed:
                    failures.append((name, label, block.system.word(w)))
    elapsed = time.monotonic() - t0
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 300s budget")
    _emit(1, failures, f"{checks} identities over {blocks} blocks, {elapsed:.1f}s")


def test_criterion_2_shapovalov_oracle():
    # Valuation dims from the deformed contravariant form agree with the
    # predicted layer tables for every module of the designated blocks.
    cases = (
        ("A1", "regular", 8),
        ("A1", "singular-J1", 8),
        ("A1", "nonintegral-half", 8),
        ("A2", "regular", 5),
        ("A2", "singular-J1", 5),
        ("B2", "regular", 4),
        # every G2 block, at the default depth cap
        *(("G2", label, 3) for label, _, _ in _suite("G2")),
    )
    t0 = time.monotonic()
    failures = []
    modules = 0
    comparisons = 0
    for name, wanted, depth in cases:
        rs = _rs(name)
        block = next(b for label, _, b in _suite(name) if label == wanted)
        for w in block.coset_reps():
            nu = block.apply(w)
            rep = oracle_compare(rs, nu, depth)
            modules += 1
            comparisons += rep.comparisons
            if not rep.passed or rep.failures:
                failures.append((name, wanted, nu.serialize(), rep.failures[:3]))
    elapsed = time.monotonic() - t0
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 600s budget")
    _emit(
        2,
        failures,
        f"{modules} modules, {comparisons} weight-space comparisons, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_layer_domination():
    # For x <= w in W^J with r = l(w) - l(x): layer j of M(x mu) is
    # dominated entrywise by layer j + r of M(w mu).
    failures = []
    pairs = 0
    for name in ACCEPTANCE_TYPES:
        for label, mu, block in _suite(name):
            sys = block.system
            tabs = _layer_tables(name, label, block)
            for w in block.coset_reps():
                for x in sys.bruhat_interval_below(w):
                    if not block.is_rep(x):
                        continue
                    res = domination_check(tabs[x], tabs[w])
                    pairs += 1
                    if not res.passed:
                        failures.append(
                            (name, label, sys.word(x), sys.word(w), res.violations[:3])
                        )
    _emit(3, failures, f"{pairs} Bruhat pairs, zero violations required")


def test_criterion_4_rigidity():
    # Every layer table has exactly l(w) + 1 nonzero layers, with simple
    # head L(w mu) and simple socle L(mu).
    failures = []
    count = 0
    for name in ACCEPTANCE_TYPES:
        for label, mu, block in _suite(name):
            sys = block.system
            tabs = _layer_tables(name, label, block)
            for w, lt in tabs.items():
                count += 1
                try:
                    lt.validate()
                except DefectError as err:
                    failures.append((name, label, sys.word(w), str(err)))
                    continue
                if (
                    len(lt.rows) != sys.length(w) + 1
                    or any(not row for row in lt.rows)
                    or lt.rows[0] != {w: 1}
                    or lt.rows[-1] != {sys.identity: 1}
                ):
                    failures.append((name, label, sys.word(w), "shape"))
    _emit(4, failures, f"{count} layer tables")


def test_criterion_5_kl_sanity(tmp_path):
    failures = []
    entries = 0
    # rank <= 2 systems have only trivial polynomials
    for name in ("A1", "A2", "B2", "G2"):
        rs = _rs(name)
        block = integral_block(rs, Weight.of(*([-1] * rs.rank)))
        table = table_for(block.system).build()
        for x, w, poly in table.entries():
            if poly != Poly((1,)):
                failures.append((name, "nontrivial dihedral entry"))
    # first nontrivial polynomial: x = s2 under w = s2 s1 s3 s2 in A3
    a3 = integral_block(_rs("A3"), Weight.of(-1, -1, -1))
    sys3 = a3.system
    p = table_for(sys3).polynomial(
        sys3.element_from_word((1,)), sys3.element_from_word((1, 0, 2, 1))
    )
    if p != Poly((1, 1)):
        failures.append(("A3", "expected 1 + q", p.coeffs))
    # invariants on every entry of every table, and at rank 4 the Bruhat
    # pair counts of the full groups and the SHA-256 of the saved cache
    # body, so a change to the KL core must reproduce these tables byte for
    # byte; F4 is the group whose build copies most entries along descents
    pair_counts = {"A4": 3781, "D4": 9817, "B4": 40249, "F4": 396809}
    body_sha256 = {
        "A4": "0d59b7061bc7a5bfd7a3c3284cac2642892095f8a4fd917689734c524ef4d4ec",
        "D4": "6063095aa2c5b09bc1ce4328998c877a74127383bdfdeee2a15fc33b08bdad56",
        "B4": "97d49d0c71826c96f236ef6a0b1962a6b720ef932f8c844dc8f61558da133c8e",
        "F4": "0487a4b6937eac99877acbbb19e77a49f337228ac9789e850a3456a31bf90dd5",
    }
    types = ACCEPTANCE_TYPES + tuple(pair_counts)
    for name in types:
        rs = _rs(name)
        block = integral_block(rs, Weight.of(*([-1] * rs.rank)))
        sys = block.system
        table = table_for(sys).build()
        seen = 0
        for x, w, poly in table.entries():
            seen += 1
            if poly.coeff(0) != 1 or any(c < 0 for c in poly.coeffs):
                failures.append((name, sys.word(x), sys.word(w), poly.coeffs))
            if x == w:
                if poly != Poly((1,)):
                    failures.append((name, sys.word(w), "diagonal must be 1"))
            elif 2 * (len(poly.coeffs) - 1) > sys.length(w) - sys.length(x) - 1:
                failures.append((name, sys.word(x), sys.word(w), "degree bound"))
        if seen != table.expected_pair_count():
            failures.append((name, "pair count", seen, table.expected_pair_count()))
        if seen != pair_counts.get(name, seen):
            failures.append((name, "pair count", seen, pair_counts[name]))
        if name in body_sha256:
            with open(save_table(table, str(tmp_path)), "rb") as fh:
                fh.readline()
                digest = hashlib.sha256(fh.read()).hexdigest()
            if digest != body_sha256[name]:
                failures.append((name, "cache body digest", digest))
        entries += seen
    _emit(5, failures, f"{entries} polynomials over {len(types)} types")


def test_criterion_6_integral_length():
    # The number of positive roots with positive integral pairing against
    # w mu equals the length of w in the block's Coxeter system.
    failures = []
    count = 0
    for name in ACCEPTANCE_TYPES:
        rs = _rs(name)
        for label, mu, block in _suite(name):
            sys = block.system
            for w in block.coset_reps():
                count += 1
                if phi_plus_count(rs, block.apply(w)) != sys.length(w):
                    failures.append((name, label, sys.word(w)))
    _emit(6, failures, f"{count} (mu, w) pairs")


def _unit(i, n):
    return tuple(1 if k == i else 0 for k in range(n))


def _regular_companion(rs, block):
    # A weight whose block has the same simple subsystem but empty singular
    # set: pairings on wall roots move from 0 to -1, all other simple
    # pairings stay fixed.  Solved exactly; any drift in the subsystem or
    # leftover wall is an error.
    rows = [rs.coroot_of(d) for d in block.delta_roots]
    rhs = [-1 if i in block.J else 0 for i in range(len(rows))]
    m, n = len(rows), rs.rank
    # x = A^T y with (A A^T) y = rhs; the Gram matrix of the independent
    # coroot rows is invertible over Q, and symmetric, so its rows are its
    # columns
    gram = [[sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(m)] for i in range(m)]
    solved = solve_square(gram, [rhs])
    if solved is None:
        raise DefectError(f"dependent coroots in the block of {block.mu.serialize()}")
    y = solved[0]
    shift = [sum(y[i] * rows[i][k] for i in range(m)) for k in range(n)]
    # scaling the shift keeps the wall pairings negative integral and the
    # other simple pairings fixed; scan for a scale that does not turn any
    # nonintegral pairing integral
    for k in range(1, 25):
        mu2 = Weight.of(*(c + k * s for c, s in zip(block.mu.coords, shift)))
        comp, _ = normalize(rs, mu2)
        if comp.delta_roots == block.delta_roots and not comp.J:
            return comp
    raise DefectError(f"no regular companion found for {block.mu.serialize()}")


def test_criterion_7_parabolic_consistency():
    # For every subset I of simple roots that stay simple for the block and
    # every upper coset representative w: nonnegative layer multiplicities,
    # agreement with the signed superposition of ordinary tables, exact
    # character comparison to depth 4, and (for singular blocks) equality
    # with the regular companion's table restricted to the singular columns.
    failures = []
    modules = 0
    restricted = 0
    for name in ACCEPTANCE_TYPES:
        rs = _rs(name)
        for label, mu, block in _suite(name):
            sys = block.system
            table = table_for(sys)
            valid = [
                i for i in range(rs.rank) if _unit(i, rs.rank) in set(block.delta_roots)
            ]
            companion = None
            if block.J:
                try:
                    companion = _regular_companion(rs, block)
                except DefectError as err:
                    failures.append((name, label, str(err)))
            for mask in range(1 << len(valid)):
                I = tuple(valid[k] for k in range(len(valid)) if mask >> k & 1)
                pb = enumerate_IWJ(block, I)
                pbr = None
                if companion is not None:
                    pbr = enumerate_IWJ(companion, I)
                    if not set(pb.reps) <= set(pbr.reps):
                        failures.append((name, label, I, "reps not nested"))
                        pbr = None
                for w in pb.reps:
                    modules += 1
                    try:
                        tab = parabolic_layers(pb, w, table)
                        dual = parabolic_layers_dual_path(pb, w, table)
                    except DefectError as err:
                        failures.append((name, label, I, sys.word(w), str(err)))
                        continue
                    if tab.rows != dual.rows:
                        failures.append((name, label, I, sys.word(w), "dual path"))
                    if any(c < 0 for row in tab.rows for c in row.values()):
                        failures.append((name, label, I, sys.word(w), "negative"))
                    cc = parabolic_character_check(pb, w, 4)
                    if not cc.passed:
                        failures.append((name, label, I, sys.word(w), "character"))
                    if pbr is not None:
                        keep = set(pb.reps)
                        w2 = companion.system.element_from_word(sys.word(w))
                        rtab = parabolic_layers(pbr, w2)
                        expect = [
                            {z: c for z, c in row.items() if z in keep}
                            for row in rtab.rows
                        ]
                        if list(tab.rows) != expect:
                            failures.append(
                                (name, label, I, sys.word(w), "restriction")
                            )
                        restricted += 1
    _emit(
        7,
        failures,
        f"{modules} parabolic modules, {restricted} singular-vs-regular "
        "restrictions",
    )
