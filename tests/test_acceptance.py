"""Acceptance gate: the eleven headline claims, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the table.  Each
test prints ``ACCEPTANCE NN PASS`` or ``ACCEPTANCE NN FAIL`` and re-raises,
so the pytest verdict and the printed table always agree.
"""

import random
import time
from pathlib import Path

import pytest

from llc_params.abgroups import FinGenAbGroup
from llc_params.arith import valuation
from llc_params.cocycles import component_descriptor, frob_fixed_scheme
from llc_params.glparams import FBAR, ZBAR, GLFamily, cocycle_law
from llc_params.blocks import match_sides, torus_block_descriptor
from llc_params.lattice import IntMatrix, cokernel, smith_normal_form
from llc_params.rootdata import coxeter_twist, preset

from oracles import brute_count, coset_group_structure, gauss_det, smith_invariants_by_minors

GRID_Q = (3, 5, 7, 11, 13)
ELLS = (3, 5, 7, 11, 13, 17, 19)

MATRIX_SUITE_SEED = 8675309
SAMPLING_SEED = 20260817


def _announce(number, label):
    """Print the gate line for one criterion; re-raise on failure."""

    class _Gate:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number:02d} {verdict} - {label}")
            return False

    return _Gate()


def _admissible(q, ell):
    return ell != 2 and q % ell != 0


def _gl_component(n, q, ell):
    rd = preset("GL", n)
    return component_descriptor(coxeter_twist(rd), q, ell)


def _gl_block(n, q, ell):
    w = coxeter_twist(preset("GL", n))
    return torus_block_descriptor(w.transpose(), q, ell)


# ---------------------------------------------------------------------------


def test_acceptance_01_golden_gl2_component():
    with _announce(1, "GL_2 golden case: mu_120, mu_5, G_m, orbit rank 1, < 1 s"):
        start = time.monotonic()
        d = _gl_component(2, 11, 5)
        elapsed = time.monotonic() - start
        assert d.fixed_scheme == FinGenAbGroup.cyclic(120)
        assert d.mu == FinGenAbGroup.cyclic(5)
        assert d.stabilizer == FinGenAbGroup(1, ())
        assert d.orbit_torus_rank == 1
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_acceptance_02_fixed_scheme_law():
    with _announce(2, "fixed scheme is cyclic of order q^n - 1 for n <= 6, < 10 s"):
        start = time.monotonic()
        for n in range(1, 7):
            rd = preset("GL", n)
            w = coxeter_twist(rd)
            for q in GRID_Q:
                fixed = frob_fixed_scheme(w, q)
                assert fixed == FinGenAbGroup.cyclic(q**n - 1), (n, q)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.3f} s"


def test_acceptance_03_mu_exponent_law():
    with _announce(3, "mu = Z/ell^v_ell(q^n - 1) across the grid"):
        for n in range(1, 7):
            rd = preset("GL", n)
            w = coxeter_twist(rd)
            for q in GRID_Q:
                for ell in ELLS:
                    if not _admissible(q, ell):
                        continue
                    d = component_descriptor(w, q, ell)
                    k = valuation(q**n - 1, ell)
                    assert d.mu == FinGenAbGroup.cyclic(ell**k), (n, q, ell)


def test_acceptance_04_matching_theorem():
    with _announce(4, "match_sides: isomorphic and free ranks agree on the grid"):
        for n in range(1, 7):
            for q in GRID_Q:
                for ell in ELLS:
                    if not _admissible(q, ell):
                        continue
                    report = match_sides(_gl_component(n, q, ell), _gl_block(n, q, ell))
                    assert report.isomorphic, (n, q, ell)
                    assert report.free_ranks_agree, (n, q, ell)
                    assert not report.context_mismatch, (n, q, ell)


def test_acceptance_05_cocycle_relation():
    with _announce(5, "y x y^{-1} = x^q for every enumerated parameter, n <= 4"):
        checked = 0
        for n in range(1, 5):
            for q in GRID_Q:
                for ell in ELLS:
                    if not _admissible(q, ell):
                        continue
                    family = GLFamily(n, q, ell)
                    for a in family.exponents(ZBAR):
                        assert cocycle_law(family.diagonal(a), q, family.full_modulus), (
                            n, q, ell, a
                        )
                        checked += 1
        assert checked > 10_000


def test_acceptance_06_enumeration_oracle():
    with _announce(6, "counts match a brute-force scan for M <= 10^6"):
        # brute_count depends only on (n, q, modulus); the Zbar modulus is
        # the same for every ell, so cache the scans
        brute_cache = {}
        for n in range(1, 7):
            for q in GRID_Q:
                for ell in ELLS:
                    if not _admissible(q, ell):
                        continue
                    family = GLFamily(n, q, ell)
                    for coeff in (ZBAR, FBAR):
                        modulus = family.modulus(coeff)
                        if modulus > 10**6:
                            continue
                        key = (n, q, modulus)
                        if key not in brute_cache:
                            brute_cache[key] = brute_count(n, q, modulus)
                        assert family.count(coeff) == brute_cache[key], (
                            n,
                            q,
                            ell,
                            coeff,
                        )
        # the two frozen examples
        assert GLFamily(2, 11, 5).count(ZBAR) == 55
        assert GLFamily(2, 11, 5).count(FBAR) == 11


def test_acceptance_07_lift_torsor():
    with _announce(7, "50 sampled residue parameters per point: lifts form an ell^k torsor"):
        rng = random.Random(SAMPLING_SEED)
        for n in range(1, 7):
            for q in GRID_Q:
                for ell in ELLS:
                    if not _admissible(q, ell):
                        continue
                    family = GLFamily(n, q, ell)
                    lk = ell**family.k
                    for _ in range(50):
                        a = family.least(FBAR, rng.randrange(family.modulus(FBAR)))
                        lifts = list(family.lifts(a))
                        assert len(lifts) == lk
                        assert len(set(lifts)) == lk
                        for e in lifts:
                            assert family.least(FBAR, e) == a, (n, q, ell, e)
                        # the canonical lift has prime-to-ell order eigenvalues
                        assert lifts[0] % lk == 0


@pytest.fixture(scope="module")
def matrix_suite():
    rng = random.Random(MATRIX_SUITE_SEED)
    suite = []
    for _ in range(1000):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        suite.append(
            IntMatrix([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
        )
    return suite


def test_acceptance_08_snf_property_suite(matrix_suite):
    with _announce(8, "SNF on 1000 pseudorandom matrices + minors and coset oracles"):
        oracle_checked = 0
        for a in matrix_suite:
            diag = smith_normal_form(a)
            assert len(diag) == min(a.rows, a.cols)
            assert diag == smith_invariants_by_minors([list(r) for r in a.data])
            assert all(x >= 0 for x in diag)
            nz = [x for x in diag if x != 0]
            assert diag[: len(nz)] == tuple(nz)
            assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
            if a.rows == a.cols:
                det = gauss_det([list(r) for r in a.data])
                if 0 < abs(det) <= 2000:
                    got = [x for x in nz if x > 1]
                    assert got == coset_group_structure([list(r) for r in a.data])
                    oracle_checked += 1
        assert oracle_checked >= 50, f"only {oracle_checked} oracle comparisons"


def test_acceptance_09_transpose_law(matrix_suite):
    with _announce(9, "coker(A) = coker(A^T) as groups on the same suite"):
        for a in matrix_suite:
            g, gt = cokernel(a), cokernel(a.transpose())
            assert g.invariant_factors == gt.invariant_factors, a
            if a.rows == a.cols:
                assert g == gt, a
            else:
                # free ranks differ by the shape defect exactly
                assert g.free_rank - gt.free_rank == a.rows - a.cols, a


def test_acceptance_10_nilpotent_support():
    with _announce(10, "support is the diagonal for regular, larger for degenerate"):
        for n in range(1, 5):
            diag = [(i, i) for i in range(1, n + 1)]
            for q in GRID_Q:
                ell = next(e for e in ELLS if _admissible(q, e))
                family = GLFamily(n, q, ell)
                for a in family.exponents(ZBAR):
                    assert family.support(ZBAR, a) == diag, (n, q, a)
                if n >= 2:
                    # a = 0 is degenerate: its orbit has size 1
                    assert family.orbit_size(ZBAR, 0) != n
                    support = family.support(ZBAR, 0)
                    assert len(support) > n, (n, q)


def test_acceptance_11_non_reproducible_content_acknowledged():
    with _announce(11, "categorical statements acknowledged as shadows, witnesses re-run"):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert "computable shadows" in readme
        assert "not desk-reproducible" in readme or "not claimed" in readme
        # witness 1: the match law (shadow of the block-equivalence statements)
        report = match_sides(_gl_component(2, 11, 5), _gl_block(2, 11, 5))
        assert report.isomorphic and report.free_ranks_agree
        # witness 2: the transpose-cokernel law (shadow of the two-sided
        # torus identification)
        rng = random.Random(SAMPLING_SEED + 11)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            assert cokernel(a) == cokernel(a.transpose())
