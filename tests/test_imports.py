"""Every name a package module, test module or benchmark script imports
is used in that module, and no package module imports the package inside
a function.

A stdlib ``ast`` stand-in for a linter's unused-import rule (F401).  A
name counts as used when it appears as a name anywhere in the module or
in its ``__all__``; an import line marked ``# noqa: F401`` is exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jantzen"
# the package modules by file name, the tests and benchmark scripts by
# directory and file name
CHECKED = [p for d in (SRC, ROOT / "tests", ROOT / "bench") for p in sorted(d.glob("*.py"))]


def _module_id(path):
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


def unused_imports(source: str) -> list:
    """(line, name) of each import the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", CHECKED, ids=_module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = (
        "from fractions import Fraction\n"
        "import os, sys\n"
        "from operator import add  # noqa: F401\n"
        "from operator import sub\n"
        "__all__ = ['sub']\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == [(1, "Fraction"), (2, "os")]


def function_level_package_imports(source: str) -> list:
    """(line, module) of each import of ``jantzen`` made inside a function."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            out += [(node.lineno, n) for n in names if n.split(".")[0] == "jantzen"]
    return sorted(set(out))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    assert function_level_package_imports(path.read_text()) == []


def test_function_level_package_import_is_caught():
    source = (
        "import jantzen\n"
        "def f():\n"
        "    from jantzen import kl\n"
        "    import os\n"
        "    def g():\n"
        "        import jantzen.roots\n"
    )
    assert function_level_package_imports(source) == [(3, "jantzen"), (6, "jantzen.roots")]
