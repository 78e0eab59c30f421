"""Layer tracing from outside the package.

``Tracer.install`` replaces selected functions of the ``jantzen`` modules
with timing wrappers, at the module or class attribute where each caller
looks the function up (``normalize`` is looked up in ``jantzen.filtration``
and ``jantzen.shapovalov``, for example), and ``Tracer.uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

Spans nest on one stack because the workloads are single-threaded.  A
span's self time is its duration minus the durations of the spans opened
directly inside it.  Spans are aggregated in memory per name (calls, total
and self seconds) and written out once, when the traced pass ends.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

# Per-layer metrics in report order.  Each maps to the span, counter or
# derived value it is read from (see ``Tracer.layer_metrics``).
LAYER_METRICS = (
    ("roots.partition_count.calls", "count"),
    ("roots.partition_count.self_s", "s"),
    ("weyl.systems_built", "count"),
    ("weyl.enumerate.self_s", "s"),
    ("weyl.downsets.self_s", "s"),
    ("weyl.element_from_word.calls", "count"),
    ("blocks.normalize.calls", "count"),
    ("blocks.normalize.self_s", "s"),
    ("blocks.integral_block.self_s", "s"),
    ("kl.table_for.calls", "count"),
    ("kl.registry_hit_ratio", "ratio"),
    ("kl.tables_built", "count"),
    ("kl.pairs_computed", "count"),
    ("kl.build.self_s", "s"),
    ("kl.save.self_s", "s"),
    ("kl.load.self_s", "s"),
    ("kl.cache_bytes", "bytes"),
    ("filtration.layers.calls", "count"),
    ("filtration.layers.self_s", "s"),
    ("filtration.sum_formula.self_s", "s"),
    ("filtration.simple_weight_dims.self_s", "s"),
    ("parabolic.layers.self_s", "s"),
    ("parabolic.dual_path.self_s", "s"),
    ("parabolic.char_check.self_s", "s"),
    ("shapovalov.chevalley.self_s", "s"),
    ("shapovalov.gram.calls", "count"),
    ("shapovalov.gram.self_s", "s"),
    ("shapovalov.gram.max_dim", "count"),
    ("shapovalov.pbw.memo_words", "count"),
    ("shapovalov.smith.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class NullTracer:
    """Stand-in used by untraced passes: spans and counters cost nothing."""

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, n=1):
        pass


class Tracer:
    """Spans and counters of one traced pass.  Span durations are wall
    seconds without the host probes that ran inside them (``clock`` is the
    workload's HostClock)."""

    def __init__(self, clock):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, probe total, child seconds]
        self._patches: list[tuple] = []

    # -- spans and counters ----------------------------------------------

    def _open(self, name):
        self._stack.append([name, time.perf_counter(), self.clock.probe_total, 0.0])

    def _close(self):
        name, start, probes, child = self._stack.pop()
        dur = time.perf_counter() - start - (self.clock.probe_total - probes)
        if self._stack:
            self._stack[-1][3] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def note_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr, None)
        if orig is None:
            # A hook on a private name that a later version of the package
            # no longer has: its layer reads 0 instead of breaking the run.
            warn(f"trace hook {getattr(owner, '__name__', owner)}.{attr} not found")
            return
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _timed(self, name, after=None, skip=None):
        """Wrapper factory: one span per call, ``after(args, result)`` runs
        outside the span, and calls for which ``skip(args)`` holds pass
        straight through (used for the no-op early returns of lazily built
        group data, which would otherwise dominate the counts)."""

        def make(orig):
            def wrapper(*args, **kwargs):
                if skip is not None and skip(args):
                    return orig(*args, **kwargs)
                self._open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self._close()
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return make

    def install(self):
        from jantzen import blocks, filtration, kl, parabolic, roots, shapovalov, weyl

        t = self._timed
        part = t("roots.partition_count")
        for mod in (roots, filtration, parabolic):
            self._patch(mod, "partition_count", part)

        cs = weyl.CoxeterSystem

        def count_system(orig):
            def init(obj, *args, **kwargs):
                self.count("weyl.systems_built")
                orig(obj, *args, **kwargs)

            return init

        self._patch(cs, "__init__", count_system)
        # The group and its Bruhat downsets are built lazily on first use;
        # later calls return at once and are not spans.
        self._patch(cs, "_enumerate", t("weyl.enumerate", skip=lambda a: a[0]._info is not None))
        self._patch(
            cs, "_build_downsets", t("weyl.downsets", skip=lambda a: a[0]._downsets is not None)
        )

        def count_words(orig):
            def element_from_word(obj, word):
                self.count("weyl.element_from_word.calls")
                return orig(obj, word)

            return element_from_word

        self._patch(cs, "element_from_word", count_words)

        norm = t("blocks.normalize")
        for mod in (filtration, shapovalov):
            self._patch(mod, "normalize", norm)
        self._patch(blocks, "integral_block", t("blocks.integral_block"))

        def table_for(orig):
            def wrapper(*args, **kwargs):
                before = self.counters.get("kl.tables_built", 0) + self.calls.get("kl.load", 0)
                self.count("kl.table_for.calls")
                result = orig(*args, **kwargs)
                if self.counters.get("kl.tables_built", 0) + self.calls.get("kl.load", 0) == before:
                    self.count("kl.registry_hits")
                return result

            return wrapper

        for mod in (kl, filtration, parabolic):
            self._patch(mod, "table_for", table_for)

        def built(args, table):
            self.count("kl.tables_built")
            self.count("kl.pairs_computed", table.expected_pair_count())

        self._patch(kl, "build_table", t("kl.build", after=built))
        self._patch(kl, "save_table", t("kl.save"))

        def loaded(args, table):
            path = kl.cache_path(args[0], args[1])
            if table is not None and os.path.exists(path):
                self.count("kl.cache_bytes", os.path.getsize(path))

        self._patch(kl, "load_table", t("kl.load", after=loaded))

        self._patch(filtration, "layers", t("filtration.layers"))
        for mod in (parabolic, shapovalov):
            self._patch(mod, "layers", t("filtration.layers"))
        self._patch(filtration, "sum_formula_check", t("filtration.sum_formula"))
        self._patch(shapovalov, "simple_weight_dims", t("filtration.simple_weight_dims"))

        self._patch(parabolic, "parabolic_layers", t("parabolic.layers"))
        self._patch(parabolic, "parabolic_layers_dual_path", t("parabolic.dual_path"))
        self._patch(parabolic, "parabolic_character_check", t("parabolic.char_check"))

        self._patch(shapovalov, "chevalley_basis", t("shapovalov.chevalley"))

        def gram(args, result):
            self.note_max("shapovalov.gram.max_dim", len(result[0]))
            engine = args[3] if len(args) > 3 else None
            if engine is not None:
                memo = getattr(engine, "_memo", ())
                self.note_max("shapovalov.pbw.memo_words", len(memo))

        self._patch(shapovalov, "gram_matrix", t("shapovalov.gram", after=gram))
        self._patch(shapovalov, "smith_normal_form", t("shapovalov.smith"))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- report ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced pass (``trace.*`` are filled in by
        the caller, which knows the untraced pass time)."""
        calls = self.counters.get("kl.table_for.calls", 0)
        derived = {
            "roots.partition_count.calls": self.calls.get("roots.partition_count", 0),
            "weyl.systems_built": self.counters.get("weyl.systems_built", 0),
            "weyl.element_from_word.calls": self.counters.get(
                "weyl.element_from_word.calls", 0
            ),
            "blocks.normalize.calls": self.calls.get("blocks.normalize", 0),
            "kl.table_for.calls": calls,
            "kl.registry_hit_ratio": (
                self.counters.get("kl.registry_hits", 0) / calls if calls else 0.0
            ),
            "kl.tables_built": self.counters.get("kl.tables_built", 0),
            "kl.pairs_computed": self.counters.get("kl.pairs_computed", 0),
            "kl.cache_bytes": self.counters.get("kl.cache_bytes", 0),
            "filtration.layers.calls": self.calls.get("filtration.layers", 0),
            "shapovalov.gram.calls": self.calls.get("shapovalov.gram", 0),
            "shapovalov.gram.max_dim": self.maxima.get("shapovalov.gram.max_dim", 0),
            "shapovalov.pbw.memo_words": self.maxima.get("shapovalov.pbw.memo_words", 0),
        }
        out = {}
        for name, unit in LAYER_METRICS:
            if name.startswith("trace."):
                continue
            if name in derived:
                out[name] = derived[name]
            else:
                out[name] = self.self_time.get(name[: -len(".self_s")], 0.0)
        return out

    def spans_summary(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in sorted(self.calls)
        }


def warn(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
