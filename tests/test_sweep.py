"""Grid sweep: stable check ids, everything passes, JSON shape."""

from llc_params.sweep import GRID_N_COMPONENT, GRID_Q, GridCheck, admissible_ells

# grid_checks (conftest.py) is the one sweep the suite shares


def test_grid_constants():
    assert GRID_Q == (3, 5, 7, 11, 13)
    assert tuple(GRID_N_COMPONENT) == (1, 2, 3, 4, 5, 6)


def test_admissible_ells():
    assert admissible_ells(3) == (5, 7, 11, 13, 17, 19)
    assert admissible_ells(11) == (3, 5, 7, 13, 17, 19)
    assert 2 not in admissible_ells(3)


def test_grid_check_ids_are_stable(grid_checks):
    assert [c.check_id for c in grid_checks] == [
        "golden-component",
        "fixed-scheme-cyclic",
        "mu-exponent-law",
        "match-law",
        "cocycle-relation",
        "count-oracle",
        "lift-torsor",
        "nilpotent-support",
    ]


def test_grid_case_counts_are_pinned(grid_checks):
    # the grid walks exponents where it needs no parameter objects; a check
    # that silently lost cases would change its count
    assert {c.check_id: c.detail for c in grid_checks} == {
        "golden-component": "fixed=Z/120, mu=Z/5, rank=1",
        "fixed-scheme-cyclic": "30 cases",
        "mu-exponent-law": "180 cases",
        "match-law": "180 cases",
        "cocycle-relation": "13013 parameters",
        "count-oracle": "240 cases",
        "lift-torsor": "3100 sampled parameters",
        "nilpotent-support": "13028 cases",
    }


def test_grid_all_pass(grid_checks):
    failing = [c for c in grid_checks if not c.passed]
    assert failing == [], [f"{c.check_id}: {c.detail}" for c in failing]


def test_grid_check_json(grid_checks):
    j = grid_checks[0].to_json()
    assert set(j) == {"id", "label", "pass", "detail"}
    assert j["id"] == "golden-component"
    assert j["pass"] is True


def test_grid_check_type(grid_checks):
    assert all(isinstance(c, GridCheck) for c in grid_checks)
    assert all(c.detail for c in grid_checks)


def test_the_grid_takes_each_fixed_scheme_once_per_n_and_q(monkeypatch):
    # fixed-scheme-cyclic and mu-exponent-law read match-law's component
    # descriptors, so they take no Smith form of their own, and match-law
    # takes its cokernels once per (n, q) for all of its ells: the fixed
    # scheme, the stabilizer and the center, then the finite torus and the
    # centralizer.  With the golden component's 3 and those 5 for each of
    # the 30 (n, q) pairs, the grid takes 153
    from llc_params import abgroups
    from llc_params.sweep import run_grid

    calls = []
    snf = abgroups.smith_normal_form

    def counting_snf(a):
        calls.append(a)
        return snf(a)

    monkeypatch.setattr(abgroups, "smith_normal_form", counting_snf)
    assert all(c.passed for c in run_grid())
    assert len(calls) == 153


def test_the_grid_compares_what_categorical_summary_gives(monkeypatch):
    # the ell-free route the grid takes gives, at every (n, q, ell), the
    # component, block and match report of the one-ell route
    from llc_params import sweep
    from llc_params.blocks import categorical_summary

    seen = []
    summaries = sweep.categorical_summaries

    def recording(n, q, ells):
        seen.extend(out := summaries(n, q, ells))
        return out

    monkeypatch.setattr(sweep, "categorical_summaries", recording)
    assert all(c.passed for c in sweep.run_grid())
    assert [(s.n, s.q, s.ell) for s in seen] == [
        (n, q, ell) for n in GRID_N_COMPONENT for q in GRID_Q for ell in admissible_ells(q)
    ]
    for s in seen:
        # a summary holds the component, the block and their match report
        assert s == categorical_summary(s.n, s.q, s.ell)
