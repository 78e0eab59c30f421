"""The benchmark's four workloads: set-up, one timed pass, output checks.

Each workload is a pair of functions.  ``setup_<name>(seed)`` imports the
package and generates the inputs; ``pass_<name>(state, tmp, tracer, clock)``
runs the program over every input once, timing only the calls into the
package with the HostClock, and checks every output outside the timed
regions.  A pass returns a ``Pass`` record.

Every check rests on an independent computation or on a property the
method must have; the reference computations below use only the Cartan
matrix and the program's outputs, never the program's own root, orbit or
pairing code.

Run by run.py, one process per pass, as

    python3 bench/workloads.py --workload NAME --seed N --mode pass|setup \
        --trace 0|1 --tmp DIR

which prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

from layertrace import NullTracer, Tracer

ACCEPTANCE_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")
ORACLE_TYPES = ("A1", "A2", "B2", "A3")
KL_GROUPS = ("A4", "D4")
KL_ITEM_GROUP = "D4"
PARABOLIC_DEPTH = 4
# Number of Bruhat-comparable pairs (x <= w, x = w included): A4 by the
# tableau criterion for S5 (Bjorner-Brenti, Thm 2.1.5); D4 as recorded when
# this benchmark was written.  Fixed by the group.
PAIR_COUNTS = {"A4": 3781, "D4": 9817}
# Inversion-identity pairs checked per group and pass, drawn from the seed.
INVERSION_SAMPLE = 48
# Disk-cache round trips of the workload's groups per pass (build_s and
# load_s are their medians, see CacheRounds); fixed so every pass attempts
# the same work.
CACHE_ROUNDS = {"sumformula-suite": 5, "oracle": 12, "parabolic-suite": 5}
# HostClock: seconds between two host probes, and the probe time that
# defines reference speed.
PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 0.002

# Operations that fail today because of a fault in the program, by id.
# ("oracle", "A3", "singular-J1,3"): oracle_compare drops the multiplicity
# of a simple that occurs in several layers (CHANGES.md, FOUND line on
# shapovalov.oracle_compare); the block's module 0,1,0 fails.
KNOWN_FAULTS = {("oracle", "A3", "singular-J1,3")}


@dataclass
class Pass:
    """What one pass measured and checked."""

    wall_s: float = 0.0
    build_s: float = 0.0
    load_s: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: list = field(default_factory=list)  # operation ids

    def op(self, op_id, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(op_id)


def host_probe() -> int:
    """Fixed pure-Python work (1 to 2.5 ms on the reference host) in the
    style of the package's inner loops: small integer matrix products as
    tuples, hashed into a dict.  Its time tracks the speed of the host,
    never of the program."""
    a = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    m = a
    seen: dict = {}
    for _ in range(100):
        m = tuple(
            tuple(sum(m[r][k] * a[k][c] for k in range(3)) % 97 for c in range(3))
            for r in range(3)
        )
        seen[m] = seen.get(m, 0) + 1
    return len(seen)


class HostClock:
    """A wall clock that reports seconds at a fixed reference speed of the
    host.

    The host is a shared virtual machine whose speed changes by up to a
    factor of two within a fraction of a second (see README).  While the
    clock runs, a timer signal times ``host_probe`` every PROBE_EVERY_S.
    ``since(mark)`` returns the time since ``mark`` with the probe time
    removed and scaled by REFERENCE_PROBE_S over the mean probe time of the
    samples taken in that interval (at least the last three).  A change to
    the program moves these seconds as it moves wall time; a change of the
    host's speed largely cancels out.
    """

    def __init__(self):
        self.samples: list = []  # probe seconds, in order
        self.probe_total = 0.0
        self._busy = False

    def __enter__(self):
        for _ in range(3):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        if not self._busy:
            self._probe()

    def _probe(self):
        self._busy = True
        t0 = time.perf_counter()
        host_probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.probe_total += dt
        self._busy = False

    def mark(self):
        return time.perf_counter(), self.probe_total, len(self.samples)

    def since(self, mark) -> float:
        t0, p0, n0 = mark
        raw = time.perf_counter() - t0 - (self.probe_total - p0)
        window = self.samples[min(n0, len(self.samples) - 3):]
        return raw * REFERENCE_PROBE_S / statistics.fmean(window)


# -- independent reference computations ----------------------------------


def root_coroot_pairs(cartan) -> dict:
    """Positive roots mapped to their coroots, both in simple coordinates.

    cartan[i][j] = <alpha_j, alpha_i^vee>.  Every positive root is reached
    from a simple root by simple reflections that keep it positive, and
    s_j(beta)^vee = s_j(beta^vee).
    """
    n = len(cartan)
    unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    pairs = {u: u for u in unit}
    frontier = list(pairs.items())
    while frontier:
        new = []
        for root, coroot in frontier:
            for j in range(n):
                a = sum(cartan[j][k] * root[k] for k in range(n))
                b = sum(cartan[k][j] * coroot[k] for k in range(n))
                r2 = tuple(c - a * (k == j) for k, c in enumerate(root))
                c2 = tuple(c - b * (k == j) for k, c in enumerate(coroot))
                if min(r2) >= 0 and r2 not in pairs:
                    pairs[r2] = c2
                    new.append((r2, c2))
        frontier = new
    return pairs


def _pair(coords, coroot) -> Fraction:
    return sum((Fraction(c) * d for c, d in zip(coords, coroot)), Fraction(0))


def positive_integral_count(pairs, coords) -> int:
    """#{beta > 0 : <nu, beta^vee> is a positive integer}."""
    count = 0
    for coroot in pairs.values():
        p = _pair(coords, coroot)
        if p > 0 and p.denominator == 1:
            count += 1
    return count


def dot_orbit(cartan, pairs, coords) -> set:
    """Orbit of a weight (rho-shifted pairing coordinates) under the
    reflections in its integral roots, by search on coordinates."""
    n = len(cartan)
    integral = []
    for root, coroot in pairs.items():
        if _pair(coords, coroot).denominator == 1:
            wc = tuple(sum(cartan[i][k] * root[k] for k in range(n)) for i in range(n))
            integral.append((wc, coroot))
    start = tuple(Fraction(c) for c in coords)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for lam in frontier:
            for wc, coroot in integral:
                p = _pair(lam, coroot)
                img = tuple(c - p * x for c, x in zip(lam, wc))
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return seen


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _padd(acc, p, sign):
    if len(acc) < len(p):
        acc.extend([0] * (len(p) - len(acc)))
    for i, c in enumerate(p):
        acc[i] += sign * c


def kl_entry_ok(lx: int, lw: int, coeffs) -> bool:
    """Degree bound, positivity and constant term of one P(x, w), x <= w."""
    if lx == lw:
        return tuple(coeffs) == (1,)
    return (
        bool(coeffs)
        and coeffs[0] == 1
        and min(coeffs) >= 0
        and 2 * (len(coeffs) - 1) <= lw - lx - 1
    )


def inversion_ok(system, table, x, w) -> bool:
    """sum_z (-1)^(l(z)-l(x)) P(x, z) Q(z, w) = delta(x, w) over x <= z <= w."""
    acc: list = []
    lx = system.length(x)
    for z in system.bruhat_interval_below(w):
        if not system.bruhat_leq(x, z):
            continue
        prod = _pmul(table.polynomial(x, z).coeffs, table.inverse_polynomial(z, w).coeffs)
        _padd(acc, prod, -1 if (system.length(z) - lx) % 2 else 1)
    while acc and acc[-1] == 0:
        acc.pop()
    return acc == ([1] if x == w else [])


def table_words(table) -> list:
    """Entries as (word x, word w, coefficients), for comparing two tables
    built on different system objects."""
    sys_ = table.system
    return [(sys_.word(x), sys_.word(w), p.coeffs) for x, w, p in table.entries()]


# -- shared phases -------------------------------------------------------


def _percentile_ok(n: int, p: int) -> bool:
    return n * (100 - p) / 100 >= 10


class CacheRounds:
    """Disk-cache round trips of the workload's groups: build and save the
    full table of every distinct group, then read each back.  This is the
    disk-cache work of the CLI: the first call on a group builds and saves,
    every later call reads.  ``groups`` maps a cache key to (root system,
    antidominant weight of a block with that group).

    The rounds are spread evenly over the pass (``at`` runs the ones due
    before a block), so their median sees the same drift of the host as the
    items do.  Each round uses fresh group objects and never the KL
    registry, so the items' in-process caches stay cold, and starts after a
    garbage collection, so a full collection cannot land in it.
    """

    def __init__(self, groups, rounds: int, blocks: int, tmp: str, out: Pass, clock: HostClock):
        self.groups = groups
        self.clock = clock
        self.tmp = tmp
        self.out = out
        self.due = [r * blocks // rounds for r in range(rounds)]
        self.builds: list = []
        self.loads: list = []

    def at(self, block: int) -> None:
        while self.due and self.due[0] == block:
            self.due.pop(0)
            self._round()

    def _round(self) -> None:
        from jantzen import blocks, kl

        r = len(self.builds)
        cache_dir = tempfile.mkdtemp(prefix=f"round{r}-", dir=self.tmp)
        built = {}
        gc.collect()
        m = self.clock.mark()
        for key, (rs, mu) in self.groups.items():
            table = kl.build_table(blocks.integral_block(rs, mu).system)
            kl.save_table(table, cache_dir)
            built[key] = table
        self.builds.append(self.clock.since(m))
        m = self.clock.mark()
        loaded = {
            key: kl.load_table(blocks.integral_block(rs, mu).system, cache_dir)
            for key, (rs, mu) in self.groups.items()
        }
        self.loads.append(self.clock.since(m))
        ok = all(
            loaded[key] is not None and table_words(loaded[key]) == table_words(built[key])
            for key in self.groups
        )
        self.out.op(("cache-round", r), ok)

    def finish(self) -> None:
        self.out.build_s = sorted(self.builds)[len(self.builds) // 2]
        self.out.load_s = sorted(self.loads)[len(self.loads) // 2]


def _suite_blocks(types, seed, with_reps: bool):
    from jantzen import blocks, kl
    from jantzen.roots import LieType, build_root_system
    from jantzen.suite import suite_weights

    out = []
    groups = {}
    for name in types:
        rs = build_root_system(LieType.parse(name))
        for label, mu in suite_weights(rs, seed):
            block = blocks.integral_block(rs, mu)
            nus = [block.apply(w) for w in block.coset_reps()] if with_reps else None
            out.append((name, label, rs, mu, block, nus))
            # The disk-cache rounds cover the groups of the fixed suite
            # weights only: the seeded weight's group is new on some seeds
            # and not on others, which would make build_s depend on the seed.
            if label != "nonintegral-seeded":
                groups.setdefault(kl.cache_key(block.system.coxeter_matrix()), (rs, mu))
    return out, groups


# -- sumformula-suite ------------------------------------------------------


def setup_sumformula(seed, types=ACCEPTANCE_TYPES):
    suite, groups = _suite_blocks(types, seed, with_reps=True)
    return {"suite": suite, "groups": groups}


def pass_sumformula(state, tmp, tracer, clock) -> Pass:
    """sum_formula_check on every module of every suite block, from empty
    in-process caches (a fresh process)."""
    from jantzen import filtration

    out = Pass()
    suite = state["suite"]
    rounds = CacheRounds(state["groups"], CACHE_ROUNDS["sumformula-suite"], len(suite), tmp, out, clock)
    refs = {}
    for b, (name, label, rs, mu, block, nus) in enumerate(suite):
        rounds.at(b)
        if name not in refs:
            refs[name] = root_coroot_pairs(rs.cartan)
        orbit = dot_orbit(rs.cartan, refs[name], mu.coords)
        got = {nu.coords for nu in nus}
        out.op(("block", name, label), len(nus) == len(orbit) and got == orbit)
        for nu in nus:
            m = clock.mark()
            res = filtration.sum_formula_check(rs, nu)
            out.latencies.append(clock.since(m))
            want = positive_integral_count(refs[name], nu.coords)
            ok = res.passed and len(res.reflected) == want
            out.op(("identity", name, label, nu.serialize()), ok)
    out.wall_s = sum(out.latencies)
    rounds.finish()
    return out


# -- kl-rank4 ----------------------------------------------------------------


def setup_kl(seed, groups=KL_GROUPS):
    from jantzen.roots import LieType, build_root_system

    return {"groups": groups, "seed": seed, "rs": {g: build_root_system(LieType.parse(g)) for g in groups}}


def kl_build(state, cache_dir, tracer, clock, out: Pass) -> dict:
    """Full tables from empty caches, column by column through the public
    KLTable.polynomial in the order KLTable.build uses, then saved.  One
    item is one column of the largest group, D4: every P(x, w) with x <= w
    for one w.  (Pooled with the A4 columns, the median would fall in the
    gap between the two groups' clusters, near 5 and 14 ms, and jump.)"""
    from jantzen import kl, weyl

    tables = {}
    for g in state["groups"]:
        m0 = clock.mark()
        system = weyl.weyl_group(state["rs"][g])
        table = kl.KLTable(system)
        columns = []
        for w in sorted(system.elements(), key=system.length):
            m = clock.mark()
            with tracer.span("kl.build"):
                col = [(x, table.polynomial(x, w)) for x in system.bruhat_interval_below(w)]
            if g == KL_ITEM_GROUP:
                out.latencies.append(clock.since(m))
            tracer.count("kl.pairs_computed", len(col))
            columns.append((w, col))
        tracer.count("kl.tables_built")
        kl.save_table(table, cache_dir)
        out.build_s += clock.since(m0)
        tables[g] = (table, columns)
    return tables


def kl_load(state, cache_dir, clock, out: Pass) -> dict:
    """Read every table back into a fresh system, as a later CLI call does."""
    from jantzen import kl, weyl

    loaded = {}
    for g in state["groups"]:
        rs = state["rs"][g]
        m = clock.mark()
        system = weyl.CoxeterSystem(rs, rs.simple_indices, range(len(rs.positive_roots)))
        loaded[g] = kl.load_table(system, cache_dir)
        out.load_s += clock.since(m)
    return loaded


def pass_kl(state, tmp, tracer, clock) -> Pass:
    out = Pass()
    cache_dir = tempfile.mkdtemp(prefix="kl-", dir=tmp)
    gc.collect()
    tables = kl_build(state, cache_dir, tracer, clock, out)
    loaded = kl_load(state, cache_dir, clock, out)
    out.wall_s = out.build_s + out.load_s
    check_kl(state, tables, loaded, out)
    return out


def check_kl(state, tables, loaded, out: Pass) -> None:
    rng = random.Random(state["seed"])
    for g, (table, columns) in tables.items():
        system = table.system
        pairs = [(x, w) for w, col in columns for x, _ in col]
        sample = set(rng.sample(pairs, min(INVERSION_SAMPLE, len(pairs))))
        for w, col in columns:
            lw = system.length(w)
            wi = system.inverse(w)
            ok = True
            for x, p in col:
                ok = (
                    ok
                    and kl_entry_ok(system.length(x), lw, p.coeffs)
                    and table.polynomial(system.inverse(x), wi) == p
                    and ((x, w) not in sample or inversion_ok(system, table, x, w))
                )
            out.op(("column", g, system.word(w)), ok)
        out.op(("pair-count", g), len(pairs) == PAIR_COUNTS.get(g, len(pairs)) == table.expected_pair_count())
        got = loaded.get(g)
        out.op(("load", g), got is not None and table_words(got) == table_words(table))


# -- oracle ------------------------------------------------------------------


def setup_oracle(seed, types=ORACLE_TYPES):
    suite, groups = _suite_blocks(types, seed, with_reps=True)
    return {"suite": suite, "groups": groups}


def pass_oracle(state, tmp, tracer, clock) -> Pass:
    """oracle_compare at the default depth caps on every module of every
    suite block.  One operation is one block, so that the seeded block's
    module count, which varies with the seed, does not change the share of
    failed operations."""
    from jantzen import shapovalov

    out = Pass()
    suite = state["suite"]
    rounds = CacheRounds(state["groups"], CACHE_ROUNDS["oracle"], len(suite), tmp, out, clock)
    for b, (name, label, rs, mu, block, nus) in enumerate(suite):
        rounds.at(b)
        ok = True
        for nu in nus:
            m = clock.mark()
            rep = shapovalov.oracle_compare(rs, nu)
            out.latencies.append(clock.since(m))
            ok = ok and rep.passed and not rep.failures
        out.op(("oracle", name, label), ok)
    out.wall_s = sum(out.latencies)
    rounds.finish()
    return out


# -- parabolic-suite -----------------------------------------------------------


def setup_parabolic(seed, types=ACCEPTANCE_TYPES):
    suite, groups = _suite_blocks(types, seed, with_reps=False)
    subsets = []
    for name, label, rs, mu, block, _ in suite:
        n = rs.rank
        simple = set(block.delta_roots)
        valid = [i for i in range(n) if tuple(int(k == i) for k in range(n)) in simple]
        subsets.append(
            [tuple(valid[k] for k in range(len(valid)) if m >> k & 1) for m in range(1 << len(valid))]
        )
    return {"suite": suite, "groups": groups, "subsets": subsets}


def pass_parabolic(state, tmp, tracer, clock) -> Pass:
    """For every suite block, every subset I of its block-simple ambient
    simple roots and every w in {}^I W^J: both parabolic layer paths and
    the character check.  Group and KL table are built once per block, in
    the timed pass; one item is the three calls for one module."""
    from jantzen import kl, parabolic

    out = Pass()
    suite = state["suite"]
    rounds = CacheRounds(state["groups"], CACHE_ROUNDS["parabolic-suite"], len(suite), tmp, out, clock)
    prep = 0.0
    for b, ((name, label, rs, mu, block, _), subsets) in enumerate(zip(suite, state["subsets"])):
        rounds.at(b)
        m = clock.mark()
        table = kl.table_for(block.system)
        prep += clock.since(m)
        for I in subsets:
            m = clock.mark()
            pb = parabolic.enumerate_IWJ(block, I)
            prep += clock.since(m)
            for w in pb.reps:
                m = clock.mark()
                tab = parabolic.parabolic_layers(pb, w, table)
                dual = parabolic.parabolic_layers_dual_path(pb, w, table)
                cc = parabolic.parabolic_character_check(pb, w, PARABOLIC_DEPTH)
                out.latencies.append(clock.since(m))
                nonneg = all(c >= 0 for row in tab.rows for c in row.values())
                ok = tab.rows == dual.rows and nonneg and cc.passed
                out.op(("module", name, label, I, block.system.word(w)), ok)
    out.wall_s = prep + sum(out.latencies)
    rounds.finish()
    return out


# name -> (setup, pass, tail percentile).  The tail is the highest
# percentile with at least ten items beyond it at the smallest item count
# any seed gives: sumformula 481 identities, oracle 126 modules, parabolic
# 1169 modules at seed 0 (asserted per run), kl 192 D4 columns.
WORKLOADS = {
    "sumformula-suite": (setup_sumformula, pass_sumformula, 97),
    "kl-rank4": (setup_kl, pass_kl, 94),
    "oracle": (setup_oracle, pass_oracle, 92),
    "parabolic-suite": (setup_parabolic, pass_parabolic, 99),
}


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args(argv)
    setup, run_pass, tail = WORKLOADS[args.workload]

    with HostClock() as clock:
        result = run(args, setup, run_pass, tail, clock)
    print(json.dumps(result))
    return 0


def run(args, setup, run_pass, tail, clock) -> dict:
    m = clock.mark()
    state = setup(args.seed)
    result = {"setup_s": clock.since(m)}
    if args.mode == "pass":
        # The inputs live for the whole pass; a CLI process would not hold
        # them, so full collections should not have to scan them.
        gc.collect()
        gc.freeze()
        tracer = Tracer(clock) if args.trace else NullTracer()
        if args.trace:
            tracer.install()
        res = run_pass(state, args.tmp, tracer, clock)
        if args.trace:
            tracer.uninstall()
        result.update(
            wall_s=res.wall_s,
            probe_mean_s=statistics.fmean(clock.samples),
            build_s=res.build_s,
            load_s=res.load_s,
            latencies=res.latencies,
            tail_percentile=tail,
            tail_ok=_percentile_ok(len(res.latencies), tail),
            attempted=res.attempted,
            failed=len(res.failed),
            unexpected=[list(map(str, f)) for f in res.failed if tuple(f) not in KNOWN_FAULTS],
            rss_mb=_rss_mb(),
        )
        if args.trace:
            result["layers"] = tracer.layer_metrics()
            result["spans"] = tracer.spans_summary()
    return result


if __name__ == "__main__":
    sys.exit(main())
