"""Self-test of the benchmark's output checks.

    PYTHONPATH=src python3 bench/selftest.py

Plants one wrong answer per workload, on small inputs, and requires that
the workload's checks count exactly that operation as failed, while the
untouched run counts none.  Also checks the independent root-system
reference against the known numbers of positive roots.  Takes about ten
seconds; exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile
from unittest import mock

import workloads as wl
from layertrace import NullTracer

TRACER = NullTracer()
CLOCK = wl.HostClock()
POSITIVE_ROOTS = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9, "G2": 6, "A4": 10, "D4": 12}


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest: FAIL: {what}")
        sys.exit(1)
    print(f"selftest: ok: {what}")


def failed_ids(out) -> set:
    return {tuple(f) for f in out.failed}


def test_reference(tmp):
    from jantzen.roots import LieType, build_root_system

    for name, count in POSITIVE_ROOTS.items():
        rs = build_root_system(LieType.parse(name))
        pairs = wl.root_coroot_pairs(rs.cartan)
        expect(len(pairs) == count, f"{name} has {count} positive roots")


def test_sumformula(tmp):
    from jantzen import filtration

    state = wl.setup_sumformula(0, types=("A2",))
    out = wl.pass_sumformula(state, tmp, TRACER, CLOCK)
    expect(not out.failed and out.attempted > 0, "sumformula: clean A2 pass has no failure")

    name, label, rs, mu, block, nus = state["suite"][0]
    target = nus[-1]

    def drop_reflection(orig):
        def wrapper(rs_, nu):
            res = orig(rs_, nu)
            if nu == target:
                res = dataclasses.replace(res, reflected=res.reflected[:-1])
            return res

        return wrapper

    with mock.patch.object(filtration, "sum_formula_check", drop_reflection(filtration.sum_formula_check)):
        out = wl.pass_sumformula(state, tmp, TRACER, CLOCK)
    expect(
        failed_ids(out) == {("identity", name, label, target.serialize())},
        "sumformula: a dropped reflected weight fails its identity",
    )

    state["suite"][0] = (name, label, rs, mu, block, nus[:-1])
    out = wl.pass_sumformula(state, tmp, TRACER, CLOCK)
    expect(
        failed_ids(out) == {("block", name, label)},
        "sumformula: a missing module fails the dot-orbit check",
    )


def test_kl(tmp):
    from jantzen import kl

    state = wl.setup_kl(0, groups=("A3",))
    cache_dir = tempfile.mkdtemp(dir=tmp)
    out = wl.Pass()
    tables = wl.kl_build(state, cache_dir, TRACER, CLOCK, out)
    loaded = wl.kl_load(state, cache_dir, CLOCK, out)
    wl.check_kl(state, tables, loaded, out)
    expect(not out.failed and out.attempted == 24 + 2, "kl: clean A3 tables have no failure")

    table, columns = tables["A3"]
    path = kl.cache_path(table.system, cache_dir)
    with open(path) as fh:
        lines = fh.read().split("\n")
    hit = next(i for i, line in enumerate(lines) if line.endswith(";1,1"))
    lines[hit] = lines[hit][: -len("1,1")] + "1,7"
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    out = wl.Pass()
    loaded = wl.kl_load(state, cache_dir, CLOCK, out)
    wl.check_kl(state, tables, loaded, out)
    expect(failed_ids(out) == {("load", "A3")}, "kl: a cache entry changed from 1,1 to 1,7 fails the load")

    w, col = columns[-1]
    x, p = col[0]
    system = table.system
    raised = type(p)(p.coeffs[:-1] + (p.coeffs[-1] + 1,))
    columns[-1] = (w, [(x, raised)] + col[1:])
    out = wl.Pass()
    wl.check_kl(state, tables, wl.kl_load(state, tempfile.mkdtemp(dir=tmp), CLOCK, out), out)
    expect(
        ("column", "A3", system.word(w)) in failed_ids(out),
        "kl: a coefficient raised by one fails its column",
    )


def test_oracle(tmp):
    from jantzen import shapovalov

    state = wl.setup_oracle(0, types=("A2",))
    out = wl.pass_oracle(state, tmp, TRACER, CLOCK)
    expect(not out.failed, "oracle: clean A2 pass has no failure")

    regular = state["suite"][0][3]

    def raise_one(orig):
        def wrapper(block, w, table=None):
            lt = orig(block, w, table)
            # The head L(w mu) gains multiplicity 1 in layer 1, where it has
            # 0.  (Raising a nonzero multiplicity would go unseen: the oracle
            # drops multiplicities, see KNOWN_FAULTS.)
            if block.mu == regular and len(lt.rows) > 1:
                rows = [dict(r) for r in lt.rows]
                rows[1][w] = 1
                lt = dataclasses.replace(lt, rows=tuple(rows))
            return lt

        return wrapper

    with mock.patch.object(shapovalov, "layers", raise_one(shapovalov.layers)):
        out = wl.pass_oracle(state, tmp, TRACER, CLOCK)
    expect(
        failed_ids(out) == {("oracle", "A2", "regular")},
        "oracle: a layer multiplicity raised from 0 to 1 fails its block",
    )

    state = wl.setup_oracle(0, types=("A3",))
    state["suite"] = [b for b in state["suite"] if b[1] == "singular-J1,3"]
    out = wl.pass_oracle(state, tmp, TRACER, CLOCK)
    expect(
        failed_ids(out) == {("oracle", "A3", "singular-J1,3")} and failed_ids(out) <= wl.KNOWN_FAULTS,
        "oracle: the known A3 fault is counted as failed and as known",
    )


def test_parabolic(tmp):
    from jantzen import parabolic

    state = wl.setup_parabolic(0, types=("A2",))
    out = wl.pass_parabolic(state, tmp, TRACER, CLOCK)
    expect(not out.failed and out.attempted > 0, "parabolic: clean A2 pass has no failure")

    planted = []

    def raise_one(orig):
        def wrapper(pb, w, table=None):
            tab = orig(pb, w, table)
            if not planted and len(tab.rows) > 1 and tab.rows[1]:
                rows = [dict(r) for r in tab.rows]
                z = next(iter(rows[1]))
                rows[1][z] += 1
                tab = dataclasses.replace(tab, rows=tuple(rows))
                planted.append(w)
            return tab

        return wrapper

    with mock.patch.object(parabolic, "parabolic_layers", raise_one(parabolic.parabolic_layers)):
        out = wl.pass_parabolic(state, tmp, TRACER, CLOCK)
    expect(len(planted) == 1 and len(out.failed) == 1, "parabolic: a multiplicity raised by one fails its module")


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(root, ".bench_tmp"))
    try:
        with CLOCK:
            for test in (test_reference, test_sumformula, test_kl, test_oracle, test_parabolic):
                test(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # a benchmark run is using it
    print("selftest: all checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
