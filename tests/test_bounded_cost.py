"""Every (q, ell) the parser accepts ends fast: an answer or a structured error.

Inputs that used to hang in trial division, q and ell beyond the certified
primality bound, and a guard that component, block and match never factor.
"""

import io
import json
import sys
from time import perf_counter

import pytest

import llc_params
from llc_params import arith, cli
from llc_params.sweep import GRID_N_COMPONENT, GRID_Q, admissible_ells

BUDGET_S = 1.5
PSI_12 = 318665857834031151167461  # strong pseudoprime to 2..37; base 41 catches it
PSI_13 = 3317044064679887385961981  # strong pseudoprime to all of 2..41


def run_timed(argv):
    out = io.StringIO()
    start = perf_counter()
    code = cli.run(argv, stream=out)
    elapsed = perf_counter() - start
    assert elapsed < BUDGET_S, f"{argv[:7]} took {elapsed:.2f} s"
    return code, out.getvalue()


def component_argv(n, q, ell):
    return ["component", "--n", str(n), "--q", str(q), "--ell", str(ell), "--output", "json"]


@pytest.mark.parametrize(
    "n,q", [(17, 11), (2, 1000000000000000003)], ids=["gl17-q11", "gl2-q1e18"]
)
def test_former_hangs_answer(n, q):
    code, text = run_timed(component_argv(n, q, 3))
    assert code == 0
    assert json.loads(text)["input"]["q"] == q


@pytest.mark.parametrize(
    "q,ell,code",
    [
        (2**89 - 1, 3, "q-too-large"),
        (PSI_13, 3, "q-too-large"),
        (PSI_12, 3, "q-not-prime-power"),
        (10**4000 + 1, 3, "q-too-large"),
        (11, 2**89 - 1, "ell-too-large"),
    ],
    ids=["mersenne-89", "psi13", "psi12", "1e4000-plus-1", "ell-mersenne-89"],
)
def test_large_inputs_get_structured_errors(q, ell, code):
    rc, text = run_timed(component_argv(2, q, ell))
    assert rc == 2
    error = json.loads(text)["error"]
    assert error["code"] == code
    assert error["hint"]


def test_matching_never_factors(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorint({n}) called")

    # modules bind the function by name, so replace every binding of it
    original = arith.factorint
    for name, module in list(sys.modules.items()):
        if name.startswith(llc_params.__name__) and getattr(module, "factorint", None) is original:
            monkeypatch.setattr(module, "factorint", refuse)
    assert arith.factorint is refuse
    arith.check_admissible.cache_clear()
    inputs = [(17, 11, 3), (17, 11, 5)]
    inputs += [(n, q, ell) for n in GRID_N_COMPONENT for q in GRID_Q for ell in admissible_ells(q)]
    for n, q, ell in inputs:
        for cmd in ("component", "block", "match"):
            argv = [cmd, "--n", str(n), "--q", str(q), "--ell", str(ell), "--output", "json"]
            code, text = run_timed(argv)
            assert code == 0, text
