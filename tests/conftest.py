"""Fixtures shared across test modules."""

import pytest

from llc_params.sweep import run_grid


@pytest.fixture(scope="session")
def grid_checks():
    """One grid sweep for every test that reads its checks (about a second)."""
    return run_grid()
