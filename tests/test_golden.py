"""CLI outputs pinned byte for byte.

Every subcommand runs in process on A2, B2, A3 and G2, in text and with
``--json``, and its stdout, stderr and exit code are compared with the
files under ``tests/golden/``: ``<case>.out`` holds stdout, and
``index.json`` maps each case to its argv, exit code and stderr.

The files are written by running this module as a script from the root of
a checkout (``PYTHONPATH=src python tests/test_golden.py``).  Regenerate
them only for an intended change of output, and review the diff.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from jantzen import clear_caches
from jantzen.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# type -> (weight, kl lower word, kl upper word)
_TYPES = {
    "A2": ("0,1", "e", "1 2 1"),
    "B2": ("1,1", "e", "1 2 1 2"),
    "A3": ("0,1,0", "2", "2 1 3 2"),
    "G2": ("1,1", "1", "1 2 1 2 1"),
}


def _cases() -> dict:
    cases = {}
    for t, (weight, x, w) in _TYPES.items():
        common = ["--type", t]
        per_command = {
            "block": ["--weight", weight],
            "kl": ["--x", x, "--w", w],
            "layers": ["--weight", weight],
            "sumcheck": ["--weight", weight],
            "conjecture": ["--weight", weight],
            "parabolic": ["--weight", weight, "--I", "1"],
            "oracle": ["--weight", weight],
        }
        for command, args in per_command.items():
            argv = [command, *common, *args]
            cases[f"{command}-{t}"] = argv
            cases[f"{command}-{t}-json"] = argv + ["--json"]
    return cases


CASES = _cases()


def _run(argv) -> tuple[int, str, str]:
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _index() -> dict:
    return json.loads((GOLDEN / "index.json").read_text())


def test_golden_index_matches_cases():
    assert {name: entry["argv"] for name, entry in _index().items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    entry = _index()[name]
    code, out, err = _run(entry["argv"])
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert err == entry["stderr"]
    assert code == entry["exit"]


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in CASES.items():
        code, out, err = _run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        index[name] = {"argv": argv, "exit": code, "stderr": err}
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
