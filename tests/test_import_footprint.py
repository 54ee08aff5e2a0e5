"""What a fresh ``python -m llc_params`` imports: none of the costly stdlib modules.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
``typing`` is large too; every CLI process would pay for them at start-up.
The check runs in a child without ``site`` and counts modules, not time, so
it cannot flake.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COSTLY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


def _loaded_after(prelude):
    code = (
        f"import sys\n{prelude}\nimport llc_params.cli as c\nc.build_parser()\n"
        f"print(' '.join(m for m in {COSTLY!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return child.stdout.split()


def test_the_cli_imports_none_of_the_costly_modules():
    assert _loaded_after("") == []


def test_the_guard_sees_a_costly_import():
    assert {"dataclasses", "inspect"} <= set(_loaded_after("import dataclasses"))
