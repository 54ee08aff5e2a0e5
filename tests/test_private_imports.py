"""No module of the package imports a private (underscore) name from a sibling."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "llc_params"


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")  # dunders are public


def _private_imports(source):
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            sibling = node.level > 0 or (node.module or "").split(".")[0] == "llc_params"
            if sibling:
                names += [a.name for a in node.names if _is_private(a.name)]
    return names


def test_modules_import_no_private_names():
    offending = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _private_imports(path.read_text(encoding="utf-8")))
    }
    assert offending == {}


def test_guard_catches_every_sibling_import_form():
    for line in (
        "from .glparams import _scan",
        "from . import _helpers",
        "from llc_params.glparams import ZBAR, _scan",
        "def f():\n    from .arith import _too_large",
    ):
        assert _private_imports(line), line
    assert _private_imports("from __future__ import annotations") == []
    assert _private_imports("from .glparams import GLFamily\nimport os") == []
    assert _private_imports("from . import __version__") == []
