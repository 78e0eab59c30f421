"""The benchmark's layer tracer (bench/layertrace.py) finds every hook.

The tracer wraps package functions at the module and class attributes
where their callers look them up, and warns "trace hook ... not found" when
one is missing, so a renamed or moved function would silently read 0 in the
per-layer report.  This pins those attributes.
"""

import importlib.util
import pathlib

from jantzen import filtration, kl, parabolic, shapovalov, weyl


def _layertrace():
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("_bench_layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _StubClock:
    probe_total = 0.0


def test_every_trace_hook_is_found(capsys):
    originals = [
        filtration.normalize,
        shapovalov.layers,
        parabolic.partition_count,
        kl.build_table,
        weyl.CoxeterSystem._enumerate,
    ]
    tracer = _layertrace().Tracer(_StubClock())
    tracer.install()
    try:
        err = capsys.readouterr().err
        installed = len(tracer._patches)
    finally:
        tracer.uninstall()
    assert "trace hook" not in err, err
    assert installed > 0
    assert [
        filtration.normalize,
        shapovalov.layers,
        parabolic.partition_count,
        kl.build_table,
        weyl.CoxeterSystem._enumerate,
    ] == originals


def test_traced_build_reads_the_sentinels(capsys):
    # One small traced build: the enumeration and downset hooks test
    # CoxeterSystem._info and _downsets to tell a first build, which is
    # timed, from a later call, which passes straight through.
    from jantzen import clear_caches
    from jantzen.roots import LieType, build_root_system

    clear_caches()
    tracer = _layertrace().Tracer(_StubClock())
    tracer.install()
    try:
        system = weyl.weyl_group(build_root_system(LieType.parse("A3")))
        table = kl.build_table(system)
        system._enumerate()
        system._build_downsets()
        assert system.word(system.element_from_word((1, 0))) == (1, 0)
    finally:
        tracer.uninstall()
        clear_caches()
    assert "trace hook" not in capsys.readouterr().err
    assert tracer.calls["weyl.enumerate"] == 1
    assert tracer.calls["weyl.downsets"] == 1
    assert tracer.calls["kl.build"] == 1
    metrics = tracer.layer_metrics()
    assert metrics["weyl.systems_built"] == 1
    assert metrics["weyl.element_from_word.calls"] == 1
    assert metrics["kl.tables_built"] == 1
    assert metrics["kl.pairs_computed"] == table.expected_pair_count()


def test_traced_oracle_reads_the_memoised_layers(capsys):
    # The memos of simple characters and weight space bases sit inside the
    # functions the tracer patches, so a traced oracle pass over one block
    # still counts every simple_weight_dims call, and one gram_matrix and
    # one smith_normal_form call per weight space of every module.
    from jantzen import clear_caches
    from jantzen.blocks import integral_block
    from jantzen.roots import LieType, Weight, build_root_system

    rs = build_root_system(LieType.parse("A2"))
    block = integral_block(rs, Weight.of(-1, -1))
    clear_caches()
    tracer = _layertrace().Tracer(_StubClock())
    tracer.install()
    try:
        reports = [
            shapovalov.oracle_compare(rs, block.apply(w)) for w in block.coset_reps()
        ]
    finally:
        tracer.uninstall()
        clear_caches()
    assert "trace hook" not in capsys.readouterr().err
    assert all(rep.passed for rep in reports)
    assert tracer.calls["filtration.simple_weight_dims"] > 0
    metrics = tracer.layer_metrics()
    assert metrics["filtration.simple_weight_dims.self_s"] > 0
    assert metrics["shapovalov.gram.calls"] == sum(rep.spaces for rep in reports)
    assert tracer.calls["shapovalov.smith"] == sum(rep.spaces for rep in reports)
    assert metrics["shapovalov.gram.max_dim"] > 0


def test_traced_oracle_reads_the_type_action_memo(capsys):
    # gram_matrix's fourth argument is the module, whose _memo is its
    # type's action memo over Z[lambda]: the tracer reads a nonzero size
    # from it, and still sees one gram_matrix call per weight space
    from jantzen import clear_caches
    from jantzen.blocks import integral_block
    from jantzen.roots import LieType, Weight, build_root_system

    rs = build_root_system(LieType.parse("A2"))
    block = integral_block(rs, Weight.of(0, -1))
    clear_caches()
    tracer = _layertrace().Tracer(_StubClock())
    tracer.install()
    try:
        reports = [
            shapovalov.oracle_compare(rs, block.apply(w)) for w in block.coset_reps()
        ]
        memo = shapovalov._generic_verma(rs.lie_type)._memo
    finally:
        tracer.uninstall()
        clear_caches()
    assert "trace hook" not in capsys.readouterr().err
    assert len(reports) > 1 and all(rep.passed for rep in reports)
    metrics = tracer.layer_metrics()
    assert metrics["shapovalov.pbw.memo_words"] == len(memo) > 0
    assert metrics["shapovalov.gram.calls"] == sum(rep.spaces for rep in reports)
