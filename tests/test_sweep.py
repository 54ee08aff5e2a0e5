"""Grid sweep: stable check ids, everything passes, JSON shape."""

from llc_params.sweep import GRID_N_COMPONENT, GRID_N_PARAMS, GRID_Q, GridCheck, admissible_ells

# grid_checks (conftest.py) is the one sweep the suite shares


def test_grid_constants():
    assert GRID_Q == (3, 5, 7, 11, 13)
    assert tuple(GRID_N_COMPONENT) == (1, 2, 3, 4, 5, 6)
    # the parameter checks run inside the component checks' pass over (n, q)
    assert GRID_N_PARAMS == (1, 2, 3, 4)


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
    # descriptors, so they take no cokernel of their own, and match-law
    # takes its cokernels once per (n, q) for all of its ells: the fixed
    # scheme and the stabilizer, then the finite torus and the centralizer.
    # With the golden component's 2 and those 4 for each of the 30 (n, q)
    # pairs, the grid takes 122.  Every one is on GL's lattice Z^n, read off
    # the twist's cycle type, so none takes a Smith form
    from llc_params import abgroups
    from llc_params.rootdata import WeylTwist
    from llc_params.sweep import run_grid

    taken, calls = [], []
    cokernel, snf = WeylTwist.cokernel, abgroups.smith_normal_form
    monkeypatch.setattr(WeylTwist, "cokernel", lambda w, s, t: taken.append(w) or cokernel(w, s, t))
    monkeypatch.setattr(abgroups, "smith_normal_form", lambda a: calls.append(a) or snf(a))
    assert all(c.passed for c in run_grid())
    assert len(taken) == 122 and {w.kind for w in taken} == {"gl"}
    assert calls == []


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


PINNED_FAILURES = [
    ("golden-component", True, "fixed=Z/120, mu=Z/5, rank=1"),
    ("fixed-scheme-cyclic", False, "30 cases; failures: [(2, 5)]"),
    ("mu-exponent-law", False, "180 cases; failures: [(2, 5, 3)]"),
    (
        "match-law",
        False,
        "180 cases; failures: [(4, 3, 13), (4, 5, 13), (4, 7, 13), (4, 11, 13), "
        "(6, 3, 13), (6, 5, 13), (6, 7, 13), (6, 11, 13)]",
    ),
    ("cocycle-relation", False, "13013 parameters; failures: [(1, 11, 7), (1, 13, 7), (2, 5, 7)]"),
    (
        "count-oracle",
        False,
        "240 cases; failures: [(1, 11, 3, 'fbar', 10, 10, 11), "
        "(1, 11, 17, 'fbar', 10, 10, 11), (2, 11, 3, 'fbar', 15, 15, 16)]",
    ),
    (
        "lift-torsor",
        False,
        "3100 sampled parameters; failures: [(1, 11, 3, 9), (1, 11, 7, 9), (1, 11, 13, 9)]",
    ),
    ("nilpotent-support", False, "13028 cases; failures: [(2, 3, 5), (2, 3, 'degenerate'), (3, 3, 5)]"),
]


def test_failing_cases_are_reported_in_grid_order(monkeypatch):
    # a fault injected into each route the grid checks: checks 2-4 list every
    # failure, the parameter checks the first three, each in grid order
    from llc_params import sweep
    from llc_params.blocks import CategoricalSummary, MatchReport
    from llc_params.glparams import FBAR, GLFamily

    summaries, law = sweep.categorical_summaries, sweep.cocycle_law
    lifts, support, count = GLFamily.lifts, GLFamily.support, GLFamily.count

    def skewed(s, component, free_ranks_agree):
        m = s.match
        match = MatchReport(component, m.block, m.isomorphic, free_ranks_agree, m.context_mismatch)
        return CategoricalSummary(s.n, s.q, s.ell, match)

    def skewed_summaries(n, q, ells):
        out = summaries(n, q, ells)
        if (n, q) == (2, 5):  # GL_3's components: mu_124 and no 3-part
            out = tuple(
                skewed(s, t.match.component, s.match.free_ranks_agree)
                for s, t in zip(out, summaries(3, q, ells))
            )
        return tuple(
            skewed(s, s.match.component, False) if n in (4, 6) and s.ell == 13 else s
            for s in out
        )

    def skewed_support(fam, coeff, a):
        if fam.q == 3 and fam.n >= 2 and a in (0, 5):
            return []
        return support(fam, coeff, a)

    def skewed_lifts(fam, a):
        out = list(lifts(fam, a))
        return out[1:] if a % 10 == 9 else out

    def skewed_count(fam, coeff):
        return count(fam, coeff) + (fam.q == 11 and fam.ell in (3, 17) and coeff == FBAR)

    monkeypatch.setattr(sweep, "categorical_summaries", skewed_summaries)
    monkeypatch.setattr(
        sweep, "cocycle_law", lambda diag, q, m: diag[0] % 1000 != 7 and law(diag, q, m)
    )
    monkeypatch.setattr(GLFamily, "support", skewed_support)
    monkeypatch.setattr(GLFamily, "lifts", skewed_lifts)
    monkeypatch.setattr(GLFamily, "count", skewed_count)
    assert [(c.check_id, c.passed, c.detail) for c in sweep.run_grid()] == PINNED_FAILURES


def test_each_modulus_is_scanned_and_walked_once_per_n_and_q(monkeypatch):
    # a full exponent list walks every exponent of its modulus, and the ZBAR
    # modulus q^n - 1 is the same at every ell: the grid lists each (n, q,
    # modulus) once, and walks it once by the direct orbit count
    from llc_params import sweep
    from llc_params.glparams import GLFamily

    scanned, walked = [], []
    exponents, walk = GLFamily.exponents, sweep._direct_orbit_count

    def counting_exponents(fam, coeff, offset=0, limit=None):
        if (offset, limit) == (0, None):
            scanned.append((fam.n, fam.q, fam.modulus(coeff)))
        return exponents(fam, coeff, offset, limit)

    def counting_walk(n, q, modulus):
        walked.append((n, q, modulus))
        return walk(n, q, modulus)

    monkeypatch.setattr(GLFamily, "exponents", counting_exponents)
    monkeypatch.setattr(sweep, "_direct_orbit_count", counting_walk)
    assert all(c.passed for c in sweep.run_grid())
    assert sorted(scanned) == sorted(walked) == sorted(set(walked))


def test_the_grid_reads_each_integral_parameter_once(monkeypatch):
    # checks 5 and 8 read each integral exponent in one pass through the
    # family kernels: one diagonal, one cocycle law and one support for
    # each, plus the degenerate a = 0 support for n >= 2.  Check 7 takes one
    # lift set per sampled residue exponent.  One run_grid() mints no
    # parameter and no matrix pair, checked or unchecked
    from llc_params import sweep
    from llc_params.glparams import ZBAR, GLFamily, ParamMatrices, TrselpGL

    integral = [
        (n, q, a)
        for n in GRID_N_PARAMS
        for q in GRID_Q
        for a in GLFamily(n, q, admissible_ells(q)[0]).exponents(ZBAR)
    ]
    supported = []
    for n in GRID_N_PARAMS:
        for q in GRID_Q:
            supported += [k for k in integral if k[:2] == (n, q)]
            if n >= 2:
                supported.append((n, q, 0))
    assert (len(integral), len(supported)) == (13013, 13028)

    seen = {name: [] for name in ("diagonal", "cocycle", "support")}
    mints = [(cls, name) for cls in (TrselpGL, ParamMatrices) for name in ("__init__", "_make")]
    calls = {"lifts": 0} | {f"{cls.__name__}.{name}": 0 for cls, name in mints}
    diagonal, law, support, lifts = (
        GLFamily.diagonal, sweep.cocycle_law, GLFamily.support, GLFamily.lifts
    )

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    def seeing_diagonal(fam, a):
        seen["diagonal"].append((fam.n, fam.q, a))
        return diagonal(fam, a)

    def seeing_cocycle(diag, q, m):
        seen["cocycle"].append((len(diag), q, diag[0]))
        return law(diag, q, m)

    def seeing_support(fam, coeff, a):
        seen["support"].append((fam.n, fam.q, a))
        return support(fam, coeff, a)

    monkeypatch.setattr(GLFamily, "diagonal", seeing_diagonal)
    monkeypatch.setattr(sweep, "cocycle_law", seeing_cocycle)
    monkeypatch.setattr(GLFamily, "support", seeing_support)
    monkeypatch.setattr(GLFamily, "lifts", counting("lifts", lifts))
    for cls, name in mints:
        monkeypatch.setattr(cls, name, counting(f"{cls.__name__}.{name}", getattr(cls, name)))
    assert all(c.passed for c in sweep.run_grid())
    assert seen["diagonal"] == seen["cocycle"] == integral
    assert seen["support"] == supported
    assert calls == {
        "lifts": 3100,
        "TrselpGL.__init__": 0, "TrselpGL._make": 0,
        "ParamMatrices.__init__": 0, "ParamMatrices._make": 0,
    }


def test_the_one_pass_reports_a_parameter_under_both_checks(monkeypatch):
    # a parameter that fails both checks of the fused pass is listed under
    # each: the cocycle failure does not skip its support
    from llc_params import sweep

    from llc_params.glparams import GLFamily

    law, support = sweep.cocycle_law, GLFamily.support

    def skewed_cocycle(diag, q, m):
        return (len(diag), q, diag[0]) != (2, 3, 5) and law(diag, q, m)

    def skewed_support(fam, coeff, a):
        return [] if (fam.n, fam.q, a) == (2, 3, 5) else support(fam, coeff, a)

    monkeypatch.setattr(sweep, "cocycle_law", skewed_cocycle)
    monkeypatch.setattr(GLFamily, "support", skewed_support)
    details = {c.check_id: (c.passed, c.detail) for c in sweep.run_grid()}
    assert details["cocycle-relation"] == (False, "13013 parameters; failures: [(2, 3, 5)]")
    assert details["nilpotent-support"] == (False, "13028 cases; failures: [(2, 3, 5)]")
    assert [check for check, (passed, _) in details.items() if not passed] == [
        "cocycle-relation", "nilpotent-support"
    ]
