"""The oracles in tests/oracles.py must not lean on the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Call):
            # __import__("x") and importlib.import_module("x")
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("__import__", "import_module") and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    yield arg.value


def _offending(source):
    modules = _imported_modules(ast.parse(source))
    return [m for m in modules if m.split(".")[0] == "llc_params" or m.startswith(".")]


def test_oracles_import_nothing_from_the_package():
    assert _offending(ORACLES.read_text(encoding="utf-8")) == []


def test_guard_catches_every_import_form():
    for line in (
        "import llc_params",
        "import llc_params.lattice as lat",
        "from llc_params.abgroups import cokernel",
        "from . import lattice",
        "def f():\n    from llc_params import cli",
        "__import__('llc_params.sweep')",
        "importlib.import_module('llc_params')",
    ):
        assert _offending(line), line
    assert _offending("from fractions import Fraction\nimport math") == []
