"""The package namespace: ``__all__`` resolves lazily to the home modules' objects."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import llc_params
from llc_params import _HOME, _HOMES

SRC = Path(__file__).resolve().parent.parent / "src"


def _child(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return child.stdout.split()


@pytest.mark.parametrize("name", llc_params.__all__)
def test_each_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"llc_params.{_HOME[name]}")
    value = getattr(llc_params, name)
    assert value is getattr(home, name)
    if callable(value):  # the home is where it is defined, not a module that imports it
        assert value.__module__ == home.__name__


def test_each_name_has_one_home_and_dir_lists_it():
    assert sum(map(len, _HOMES.values())) == len(_HOME)  # no name under two modules
    assert set(llc_params.__all__) <= set(dir(llc_params))
    assert "__version__" in dir(llc_params)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        llc_params.no_such_name


def test_star_import_binds_exactly_all():
    bound = _child(
        "before = set(globals())\nfrom llc_params import *\n"
        "print(' '.join(sorted(set(globals()) - before - {'before'})))"
    )
    assert bound == sorted(llc_params.__all__)


def test_a_name_loads_only_its_home_module_and_what_that_imports():
    loaded = _child(
        "import sys\nimport llc_params\nllc_params.GLFamily\n"
        "print(' '.join(m for m in sys.modules if m.startswith('llc_params.')))"
    )
    assert "llc_params.glparams" in loaded
    assert not {"llc_params.blocks", "llc_params.cocycles", "llc_params.sweep"} & set(loaded)

