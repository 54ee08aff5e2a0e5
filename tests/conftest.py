"""Fixtures shared across test modules, and a wall-clock limit on every test."""

import contextlib
import signal
import sys

import pytest

from llc_params import lattice, rootdata
from llc_params.sweep import run_grid

# well above the slowest test (under two seconds), so that a test which stalls,
# say in a Smith form that never finishes, fails instead of holding the suite
TEST_LIMIT_S = 20


class WallClockExceeded(BaseException):
    """A test's setup or call ran past TEST_LIMIT_S.

    A BaseException, so that no ``except Exception`` in the code under test,
    nor hypothesis's failure handling, swallows it or retries the test.
    """


def _exceeded(signum, frame):
    raise WallClockExceeded(f"ran past the {TEST_LIMIT_S} s wall-clock limit on a test")


@contextlib.contextmanager
def _wall_clock_limit():
    # pytest runs the tests on the main thread, where SIGALRM is delivered
    previous = signal.signal(signal.SIGALRM, _exceeded)
    signal.setitimer(signal.ITIMER_REAL, TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    # setup builds the session fixtures, the grid sweep among them
    with _wall_clock_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _wall_clock_limit():
        return (yield)


@pytest.fixture(scope="session")
def grid_checks():
    """One grid sweep for every test that reads its checks (about a second)."""
    return run_grid()


def _replace_smith_form(monkeypatch, replacement):
    # `lattice` binds the Smith form, and so would any module that took it by name
    snf = lattice.smith_normal_form
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "llc_params" and getattr(module, "smith_normal_form", None) is snf:
            monkeypatch.setattr(module, "smith_normal_form", replacement)


@pytest.fixture
def smith_forms(monkeypatch):
    """Record every matrix handed to the Smith form, by whichever module's name."""
    calls, snf = [], lattice.smith_normal_form
    _replace_smith_form(monkeypatch, lambda a: calls.append(a) or snf(a))
    return calls


@pytest.fixture
def no_smith_form_or_roots(monkeypatch):
    """Make every Smith form, and every preset's list of roots, raise."""

    def refuse(*args):
        raise AssertionError("a Smith form or a root list was computed")

    _replace_smith_form(monkeypatch, refuse)
    monkeypatch.setattr(rootdata.RootDatum, "_roots_and_coroots", refuse)
