"""Command-line surface, exercised in process through main(argv).

Checks cover the report JSON shapes, the text renderings, exit codes for
pass/fail/usage and flag-value handling for weights with a leading
minus, and that no command writes under the user's cache directory.
"""

import argparse
import dataclasses
import json
import os
import pathlib
import re
import shlex

import pytest

from jantzen import cli, clear_caches, kl
from jantzen.blocks import DefectError
from jantzen.cli import main
from jantzen.kl import KLDefectError
from jantzen.parabolic import ConventionDefectError
from jantzen.roots import Weight
from jantzen.shapovalov import DegenerateFormError


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


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
    code, out = _run(capsys, argv)
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


@pytest.mark.parametrize(
    "broken, message",
    [("head", "layer 0 is not the simple head"), ("count", "expected 2 layers, found 3")],
)
def test_parabolic_validates_its_table(broken, message, monkeypatch, capsys):
    # the table printed must have the head {w: 1} and l(w) + 1 layers, as
    # jantzen layers checks; a broken one is a failed check, exit 1
    built = cli.parabolic_layers

    def parabolic_layers(pb, w, table=None):
        tab = built(pb, w, table)
        if broken == "head":
            rows = ({w: 2},) + tab.rows[1:]
        else:
            rows = tab.rows + ({},)
        return dataclasses.replace(tab, rows=rows)

    monkeypatch.setattr(cli, "parabolic_layers", parabolic_layers)
    code = main(
        ["parabolic", "--type", "A2", "--weight", "-1,-1", "--I", "1",
         "--w", "2"]
    )
    err = capsys.readouterr().err
    assert code == cli.EXIT_CHECK_FAILED
    assert err == f"check failed: {message}\n"


def test_kl_word_out_of_range_is_usage_error(capsys):
    code = main(["kl", "--type", "A2", "--x", "e", "--w", "1 3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: generator index 3 out of range; the system has 2 generators\n"
    )


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
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "depth must be nonnegative" in captured.err


def test_parabolic_depth_over_box_limit_is_usage_error(capsys):
    # the character check's partition table would need C(100003, 3) boxes;
    # on the A2 wall {}^I W^J is empty, so no character check asks for one
    for name, coords in (("A3", "-1,-1,-1"), ("A2", "0,0")):
        code = main(
            ["parabolic", "--type", name, "--weight", coords, "--I", "1",
             "--depth", "100000"]
        )
        captured = capsys.readouterr()
        assert code == 2, name
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "over the limit of 100000" in captured.err


@pytest.mark.parametrize("name", ["A2", "B2", "A3", "G2"])
def test_block_builds_no_kl_table(name, monkeypatch, capsys):
    # block reports the group order and the coset count; neither needs KL
    index = json.loads((GOLDEN / "index.json").read_text())

    def no_table(*args, **kwargs):
        raise AssertionError("block built a KL table")

    monkeypatch.setattr(kl, "build_table", no_table)
    for case in (f"block-{name}", f"block-{name}-json"):
        clear_caches()
        code, out = _run(capsys, index[case]["argv"])
        assert code == 0
        assert out == (GOLDEN / f"{case}.out").read_text()
    clear_caches()


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
    argv = ["layers", "--type", "B2", "--weight", "1,1"]
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["block", "--type", "A2_0", "--weight", "0,0"], "cannot parse Lie type 'A2_0'"),
        (["block", "--type", "A 2", "--weight", "0,0"], "cannot parse Lie type 'A 2'"),
        (["block", "--type", "A2", "--weight", "1_0,0"], "cannot parse weight '1_0,0'"),
        (["block", "--type", "A2", "--weight", "1e1,0.5"], "cannot parse weight '1e1,0.5'"),
        (["kl", "--type", "A2", "--x", "e", "--w", "1_0"], "cannot parse word '1_0'"),
        (["parabolic", "--type", "A2", "--weight", "-1,-1", "--I", "1_0"],
         "cannot parse I list '1_0'"),
        (["oracle", "--type", "A1", "--weight", "1", "--depth", "1_0"],
         "argument --depth: cannot parse integer '1_0'"),
        (["oracle", "--type", "A1", "--weight", "1", "--depth", "\u0662"],
         "argument --depth: cannot parse integer '\u0662'"),
        (["sumcheck", "--type", "A1", "--suite", "--seed", "1_0"],
         "argument --seed: cannot parse integer '1_0'"),
    ],
    ids=["type", "type-space", "weight", "weight-decimal", "word", "I", "depth",
         "depth-arabic-indic", "seed"],
)
def test_lenient_number_forms_are_usage_errors(capsys, argv, message):
    # int() and Fraction() read "A2_0" as A20, "A 2" as A2, "1_0" as 10,
    # int() reads the Arabic-Indic digit two as 2, and Fraction() reads
    # "1e1,0.5" as 10,1/2
    code = main(argv)
    assert code == 2
    assert message in capsys.readouterr().err


_PARABOLIC_A2 = ["parabolic", "--type", "A2", "--weight=-1,-1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sumcheck", "--type", "A2", "--weight", "1,1", "--seed", "5"],
         "--seed applies only to --suite"),
        (["sumcheck", "--type", "A2", "--weight", "1,1", "--seed", "0"],
         "--seed applies only to --suite"),
        ([*_PARABOLIC_A2, "--I", "1,,2"], "cannot parse I list '1,,2'"),
        ([*_PARABOLIC_A2, "--I", ",1"], "cannot parse I list ',1'"),
        ([*_PARABOLIC_A2, "--I", "1,"], "cannot parse I list '1,'"),
        ([*_PARABOLIC_A2, "--I", ","], "cannot parse I list ','"),
    ],
    ids=["seed-without-suite", "seed-0-without-suite", "I-inner-empty", "I-leading-empty",
         "I-trailing-empty", "I-only-comma"],
)
def test_ignored_input_is_a_usage_error(capsys, argv, message):
    # an option the command would ignore, or an empty item it would
    # drop, is refused rather than read as something else
    code = main(argv)
    assert code == 2
    assert message in capsys.readouterr().err


def test_empty_I_is_the_empty_set_and_seed_goes_with_suite(capsys):
    code, empty = _run_json(capsys, [*_PARABOLIC_A2, "--I", "", "--json"])
    assert code == 0 and empty["I"] == []
    code, spaced = _run_json(capsys, [*_PARABOLIC_A2, "--I", " 2 , 1 ", "--json"])
    assert code == 0 and spaced["I"] == [1, 2]
    code, out = _run(capsys, ["sumcheck", "--type", "A1", "--suite", "--seed", "5"])
    assert code == 0 and out.endswith("overall: pass\n")


# a minimal valid command line per subcommand, every required option set
_MINIMAL = {
    "block": ["--weight", "0,0"],
    "kl": ["--x", "e", "--w", "e"],
    "layers": ["--weight", "0,0"],
    "sumcheck": ["--weight", "0,0"],
    "conjecture": ["--weight", "0,0"],
    "parabolic": ["--I", "1", "--weight", "0,0"],
    "oracle": ["--weight", "0,0"],
}


def test_every_value_option_takes_a_leading_minus():
    # each value option of each subcommand, given "-..." as its next
    # token, reads that token as its value
    parser = cli.build_parser()
    flags = cli._value_flags(parser)
    subcommands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert set(subcommands) == set(_MINIMAL)
    seen = set()
    for name, sub in subcommands.items():
        for action in sub._actions:
            if action.nargs == 0:
                continue
            for flag in action.option_strings:
                value = "-1" if action.type is cli._integer else "-1/2,0"
                argv = [name, "--type", "A2", *_MINIMAL[name], flag, value]
                merged = cli._merge_flag_values(argv, flags)
                assert f"{flag}={value}" in merged
                args = parser.parse_args(merged)
                assert getattr(args, action.dest) == (action.type or str)(value), flag
                seen.add(flag)
    assert seen == flags >= {"--type", "--weight", "--I", "--depth", "--seed"}


def test_weight_leading_minus_without_equals(capsys):
    code = main(["block", "--type", "A2", "--weight", "-1,-1"])
    capsys.readouterr()
    assert code == 0


def test_cli_leaves_the_user_cache_directory_alone(tmp_path, monkeypatch, capsys):
    # every golden command line runs with HOME and XDG_CACHE_HOME at an
    # empty directory, and nothing is written there; --cache and
    # --no-cache are not options
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    for case in json.loads((GOLDEN / "index.json").read_text()).values():
        clear_caches()
        assert main(case["argv"]) == case["exit"], case["argv"]
    kl_argv = ["kl", "--type", "B2", "--x", "1", "--w", "2 1"]
    assert main(kl_argv + ["--cache", str(tmp_path)]) == cli.EXIT_USAGE
    assert main(kl_argv + ["--no-cache"]) == cli.EXIT_USAGE
    capsys.readouterr()
    clear_caches()
    assert os.listdir(tmp_path) == []


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
    # an OSError of the host is an input error too, never a traceback
    for exc in (ValueError("bad input"), OSError("bad input")):
        monkeypatch.setattr(cli, "cmd_block", _raising(exc))
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
