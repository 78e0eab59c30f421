"""Command-line surface, exercised in process through main(argv).

Checks cover the report JSON shapes, the text renderings, exit codes for
pass/fail/usage, flag-value handling for weights with a leading minus,
and the disk-cache controls.
"""

import json
import os
import pathlib
import re
import shlex

import pytest

from jantzen import cli, clear_caches
from jantzen.blocks import DefectError
from jantzen.cli import main
from jantzen.kl import KLDefectError
from jantzen.parabolic import ConventionDefectError
from jantzen.roots import Weight
from jantzen.shapovalov import DegenerateFormError


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def _readme_transcripts():
    """(argv, stdout) of every "$ jantzen ..." example block in the README."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    out = []
    for block in re.findall(r"```\n(\$ jantzen .*?)```", readme.read_text(), re.S):
        command, _, expected = block.partition("\n")
        out.append((shlex.split(command)[2:], expected))
    return out


_TRANSCRIPTS = _readme_transcripts()


@pytest.mark.parametrize(
    "argv, expected", _TRANSCRIPTS, ids=[argv[0] for argv, _ in _TRANSCRIPTS]
)
def test_readme_transcript(argv, expected, capsys):
    code, out = _run(capsys, argv + ["--no-cache"])
    assert code == 0
    assert out == expected


def test_readme_transcripts_found():
    assert [argv for argv, _ in _TRANSCRIPTS] == [
        ["layers", "--type", "B2", "--weight", "1,1"],
        ["block", "--type", "A2", "--weight=-1/3,-1/3"],
    ]


def test_layers_json_a1(capsys):
    code, rep = _run_json(capsys, ["layers", "--type", "A1", "--weight", "1", "--json"])
    assert code == 0
    assert rep["type"] == "A1"
    assert rep["weight"] == "1"
    assert rep["mu"] == "-1"
    assert rep["w_word"] == "1"
    assert rep["J"] == []
    assert rep["loewy_length"] == 2
    assert rep["sum_formula"] == "pass"
    assert rep["layers"] == [
        {"j": 0, "simples": [{"z_word": "1", "mult": 1}]},
        {"j": 1, "simples": [{"z_word": "e", "mult": 1}]},
    ]
    cols = rep["details"]["sum_formula_columns"]
    assert {c["z_word"]: (c["lhs"], c["rhs"]) for c in cols} == {
        "e": (1, 1),
        "1": (0, 0),
    }


def test_layers_text(capsys):
    code, out = _run(capsys, ["layers", "--type", "A1", "--weight", "1"])
    assert code == 0
    assert "Loewy length 2" in out
    assert "sum formula: pass" in out
    assert "layer 0: 1 x1" in out
    assert "layer 1: e x1" in out


def test_layers_json_deterministic(capsys):
    argv = ["layers", "--type", "B2", "--weight", "1,1", "--json"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_block_trivial_nonintegral(capsys):
    code, rep = _run_json(
        capsys, ["block", "--type", "A2", "--weight", "-1/3,-1/3", "--json"]
    )
    assert code == 0
    assert rep["mu"] == "-1/3,-1/3"
    assert rep["w_word"] == "e"
    assert rep["delta"] == []
    assert rep["J"] == []
    assert rep["group_order"] == 1
    assert rep["coset_reps"] == 1


def test_block_b2_halfintegral(capsys):
    # integral system of (-1/2, -1) in B2: the long roots alpha2 and
    # alpha1 + alpha2, an A1 x A1 inside B2
    code, rep = _run_json(
        capsys, ["block", "--type", "B2", "--weight", "-1/2,-1", "--json"]
    )
    assert code == 0
    assert rep["delta"] == [[0, 1], [1, 1]]
    assert rep["group_order"] == 4
    assert rep["coset_reps"] == 4
    assert rep["J"] == []


def test_kl_text_a3(capsys):
    code, out = _run(capsys, ["kl", "--type", "A3", "--x", "2", "--w", "2 1 3 2"])
    assert code == 0
    assert out == "P(2, 2 1 3 2) = 1 + q\n"


def test_kl_json_identity(capsys):
    code, rep = _run_json(
        capsys, ["kl", "--type", "A2", "--x", "e", "--w", "e", "--json"]
    )
    assert code == 0
    assert rep["polynomial"] == "1"
    assert rep["value_at_1"] == 1


def test_kl_block_of(capsys):
    code, rep = _run_json(
        capsys,
        ["kl", "--type", "B2", "--block-of", "-1/2,-1", "--x", "1", "--w", "2 1",
         "--json"],
    )
    assert code == 0
    assert rep["value_at_1"] == 1
    assert rep["x_word"] == "1"


def test_sumcheck_single_weight(capsys):
    code, rep = _run_json(
        capsys, ["sumcheck", "--type", "A2", "--weight", "1,1", "--json"]
    )
    assert code == 0
    assert rep["passed"] is True
    assert rep["columns"]
    for col in rep["columns"]:
        assert col["lhs"] == col["rhs"]


def test_sumcheck_suite_b2(capsys):
    code, rep = _run_json(capsys, ["sumcheck", "--type", "B2", "--suite", "--json"])
    assert code == 0
    assert rep["passed"] is True
    assert [c["label"] for c in rep["cases"]] == [
        "regular",
        "singular-J1",
        "singular-J2",
        "singular-J1,2",
        "nonintegral-half",
        "nonintegral-mixed",
        "nonintegral-seeded",
    ]
    assert all(c["passed"] and not c["failed_words"] for c in rep["cases"])


def test_conjecture_b2(capsys):
    code, rep = _run_json(
        capsys, ["conjecture", "--type", "B2", "--weight", "-1,-1", "--json"]
    )
    assert code == 0
    assert rep["passed"] is True
    assert rep["violations"] == []
    # 8 elements graded by length (1,2,2,2,1); dihedral Bruhat order is
    # full between distinct lengths: (64 - 14)/2 + 8 diagonal pairs
    assert rep["pairs"] == 33


def test_parabolic_a2_all_modules(capsys):
    code, rep = _run_json(
        capsys,
        ["parabolic", "--type", "A2", "--weight", "-1,-1", "--I", "1", "--json"],
    )
    assert code == 0
    assert rep["passed"] is True
    assert rep["I"] == [1]
    assert rep["wI_word"] == "1"
    got = [
        (m["w_word"], m["loewy_length"], m["dual_path"], m["char_check"])
        for m in rep["modules"]
    ]
    assert got == [
        ("e", 1, "pass", "pass"),
        ("2", 2, "pass", "pass"),
        ("2 1", 2, "pass", "pass"),
    ]


def test_parabolic_single_w(capsys):
    code, rep = _run_json(
        capsys,
        ["parabolic", "--type", "A2", "--weight", "-1,-1", "--I", "1",
         "--w", "2 1", "--json"],
    )
    assert code == 0
    assert len(rep["modules"]) == 1
    assert rep["modules"][0]["w_word"] == "2 1"


def test_parabolic_bad_w_is_usage_error(capsys):
    # s1 is not in {}^I W^J for I = {1}
    code = main(
        ["parabolic", "--type", "A2", "--weight", "-1,-1", "--I", "1", "--w", "1"]
    )
    capsys.readouterr()
    assert code == 2


def test_oracle_cli(capsys):
    code, rep = _run_json(
        capsys,
        ["oracle", "--type", "A1", "--weight", "1", "--depth", "4", "--json"],
    )
    assert code == 0
    assert rep["passed"] is True
    assert rep["failures"] == []
    assert rep["depth"] == 4


def test_oracle_depth_over_cap_is_usage_error(capsys):
    code = main(["oracle", "--type", "A1", "--weight", "1", "--depth", "99"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--type", "A1", "--weight", "1", "--depth", "-3"],
        ["parabolic", "--type", "A2", "--weight", "-1,-1", "--I", "1", "--depth", "-1"],
        # {}^I W^J is empty here, so no character check ever runs
        ["parabolic", "--type", "A2", "--weight", "0,0", "--I", "1", "--depth", "-1"],
    ],
    ids=["oracle", "parabolic", "parabolic-no-parameters"],
)
def test_negative_depth_is_usage_error(argv, capsys):
    code = main(argv + ["--no-cache"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "depth must be nonnegative" in captured.err


def test_layers_builds_one_layer_table(monkeypatch, capsys):
    # the sum-formula check hands the CLI the layer table it compared
    from jantzen import filtration

    nu = Weight.of(1, 1)
    layer_calls = []
    input_normalizations = []

    def count_layers(orig):
        def wrapper(*args, **kwargs):
            layer_calls.append(args[1])
            return orig(*args, **kwargs)

        return wrapper

    def count_normalize(orig):
        def wrapper(rs, weight):
            if weight == nu:
                input_normalizations.append(weight)
            return orig(rs, weight)

        return wrapper

    monkeypatch.setattr(filtration, "layers", count_layers(filtration.layers))
    for module in (cli, filtration):
        monkeypatch.setattr(module, "normalize", count_normalize(module.normalize))
    argv = ["layers", "--type", "B2", "--weight", "1,1", "--no-cache"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert "sum formula: pass" in out
    assert len(layer_calls) == 1
    assert len(input_normalizations) <= 2


def test_usage_errors(capsys):
    bad = [
        ["block", "--type", "Z9", "--weight", "1"],
        ["block", "--type", "A2", "--weight", "1"],  # wrong rank
        ["block", "--type", "A2", "--weight", "one,two"],
        ["layers", "--type", "A1"],  # missing --weight
        ["sumcheck", "--type", "A2"],  # neither --weight nor --suite
        ["nosuchcommand"],
        ["kl", "--type", "A2", "--x", "9", "--w", "1"],  # generator range
        ["parabolic", "--type", "A2", "--weight", "-1,-1", "--I", "x"],
    ]
    for argv in bad:
        code = main(argv)
        capsys.readouterr()
        assert code == 2, argv


def test_weight_leading_minus_without_equals(capsys):
    code = main(["block", "--type", "A2", "--weight", "-1,-1"])
    capsys.readouterr()
    assert code == 0


def test_cache_flag_writes_table(tmp_path, capsys):
    clear_caches()
    code = main(
        ["kl", "--type", "B2", "--x", "1", "--w", "2 1", "--cache", str(tmp_path)]
    )
    capsys.readouterr()
    assert code == 0
    assert any(name.endswith(".kl") for name in os.listdir(tmp_path))
    clear_caches()


def test_no_cache_writes_nothing(tmp_path, capsys):
    clear_caches()
    code = main(
        ["kl", "--type", "B2", "--x", "1", "--w", "2 1", "--cache", str(tmp_path),
         "--no-cache"]
    )
    capsys.readouterr()
    assert code == 0
    assert os.listdir(tmp_path) == []
    clear_caches()


def test_cache_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("JANTZEN_CACHE", str(tmp_path))
    clear_caches()
    code = main(["layers", "--type", "A2", "--weight", "1,1"])
    capsys.readouterr()
    assert code == 0
    assert any(name.endswith(".kl") for name in os.listdir(tmp_path))
    clear_caches()


def _raising(exc):
    def command(args):
        raise exc

    return command


@pytest.mark.parametrize(
    "exc",
    [
        DefectError("structural invariant"),
        KLDefectError("negative coefficient"),
        DegenerateFormError("singular Gram matrix"),
        ConventionDefectError("negative graded multiplicity"),
    ],
)
def test_defect_exits_1(exc, monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_block", _raising(exc))
    code = main(["block", "--type", "A1", "--weight", "1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CHECK_FAILED == 1
    assert err.startswith("check failed: ")


def test_value_error_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_block", _raising(ValueError("bad input")))
    code = main(["block", "--type", "A1", "--weight", "1"])
    assert capsys.readouterr().err == "error: bad input\n"
    assert code == cli.EXIT_USAGE == 2


@pytest.mark.parametrize(
    "exc",
    [
        RecursionError("maximum recursion depth exceeded"),
        AssertionError("inconsistent coroot closure"),
        RuntimeError("not a verification defect"),
        KeyError("missing"),
    ],
)
def test_internal_error_exits_3(exc, monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_block", _raising(exc))
    code = main(["block", "--type", "A1", "--weight", "1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL == 3
    assert err.startswith(f"internal error: {type(exc).__name__}: ")
    assert "Traceback (most recent call last)" in err
