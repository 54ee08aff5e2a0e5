"""What a fresh ``python -m llc_params`` imports: none of the costly stdlib
modules, and of the package only the layers its command runs.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
``typing`` is large too; every CLI process would pay for them at start-up.
Each package module a child loads is also compiled again when bytecode
caching is off, so ``import llc_params`` loads no layer and each command
imports the layers it calls.  The checks run in a child without ``site`` and
count modules, not time, so they cannot flake.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from llc_params import cli

SRC = Path(__file__).resolve().parent.parent / "src"
COSTLY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")

GEOMETRY = ["--n", "2", "--q", "11", "--ell", "5"]
FRONT = {"cli", "errors"}
TWIST = FRONT | {"arith", "abgroups", "rootdata"}
COMPONENT = TWIST | {"cocycles"}
PARAMS = FRONT | {"arith", "glparams"}
# a tiny input per command -> the package modules its child loads
FOOTPRINTS = {
    "--version": (["--version"], FRONT),
    "usage-error": (["component", "--n", "2"], FRONT),
    "component": (["component", *GEOMETRY], COMPONENT),
    "weyl-identity": (["component", *GEOMETRY, "--weyl", "identity"], COMPONENT),
    "weyl-matrix": (["component", *GEOMETRY, "--weyl", "[[0,1],[1,0]]"], COMPONENT | {"lattice"}),
    "enumerate": (["enumerate", *GEOMETRY], PARAMS),
    "verify": (["verify", *GEOMETRY, "--a", "1"], PARAMS),
    "block": (["block", *GEOMETRY], COMPONENT | {"blocks"}),
    "match": (["match", *GEOMETRY], COMPONENT | {"blocks"}),
    "summary": (["summary", *GEOMETRY], COMPONENT | {"blocks"}),
    "grid": (["grid"], COMPONENT | PARAMS | {"blocks", "sweep"}),
}


def _child(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return child.stdout.splitlines()[-1].split()  # --version prints a line of its own first


def _loaded_after(prelude):
    return _child(
        f"import sys\n{prelude}\nimport llc_params.cli as c\nc.build_parser()\n"
        f"print(' '.join(m for m in {COSTLY!r} if m in sys.modules))"
    )


def _modules_after(code):
    """The llc_params modules a child loads to run ``code``, without the package itself."""
    return set(_child(
        f"import io, sys\n{code}\n"
        "print(' '.join(m.split('.', 1)[1] for m in sys.modules if m.startswith('llc_params.')))"
    ))


def _package_modules(argv, prelude=""):
    return _modules_after(f"{prelude}\nimport llc_params.cli as c\nc.run({argv!r}, io.StringIO())")


def test_the_cli_imports_none_of_the_costly_modules():
    assert _loaded_after("") == []


def test_the_guard_sees_a_costly_import():
    assert {"dataclasses", "inspect"} <= set(_loaded_after("import dataclasses"))


def test_importing_the_package_loads_no_module_of_it():
    assert _child(
        "import sys\nimport llc_params\n"
        "print(' '.join(m for m in sys.modules if m.startswith('llc_params.')))"
    ) == []


def test_every_command_has_a_footprint():
    assert set(cli.COMMANDS) <= FOOTPRINTS.keys()


@pytest.mark.parametrize("case", FOOTPRINTS)
def test_each_command_loads_only_the_layers_it_runs(case):
    argv, expected = FOOTPRINTS[case]
    assert _package_modules(argv) == expected


@pytest.mark.parametrize("layer", ["abgroups", "rootdata"])
def test_the_normal_form_and_the_root_data_load_no_matrix_layer(layer):
    # the Smith-form layer sits on top of the normal form: only an explicit
    # matrix (or a library caller) loads it
    assert _modules_after(f"import llc_params.{layer}") == {"errors", "arith", "abgroups", layer}


def test_the_footprint_guard_sees_an_eager_layer_import():
    argv, expected = FOOTPRINTS["component"]
    assert _package_modules(argv, "import llc_params.sweep") == expected | {
        "blocks", "glparams", "sweep"
    }
