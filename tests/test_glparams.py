"""Tame GL_n parameters: the family kernels, the records, enumeration."""

import io
import json
import random
from bisect import bisect_left
from functools import lru_cache
from itertools import islice
from math import gcd
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from llc_params import cli
from llc_params.errors import InvalidRank, LlcError
from llc_params.glparams import (
    _SCAN_WINDOW,
    COEFFS,
    FBAR,
    GLFamily,
    ParamMatrices,
    TrselpGL,
    ZBAR,
    cocycle_law,
)
from llc_params.rootdata import preset

from oracles import (
    brute_count,
    brute_lifts,
    brute_orbit_reps,
    brute_reduction,
    conjugation_law_holds,
    fixed_positions_by_powers,
    orbit_size_by_powers,
)

GL2 = GLFamily(2, 11, 5)


# ---------------------------------------------------------------------------
# construction and orbits


def test_moduli_and_k():
    phi = TrselpGL(GL2, ZBAR, a=1)
    assert phi.family.full_modulus == 120
    assert phi.modulus == 120
    assert phi.family.k == 1
    psi = TrselpGL(GL2, FBAR, a=1)
    assert psi.modulus == 24
    assert psi.family.full_modulus == 120
    assert GL2.p == 11 and GL2.residue_modulus == 24


def test_exponents_are_reduced_mod_modulus():
    phi = TrselpGL(GL2, ZBAR, a=121, b=-1)
    assert phi.a == 1
    assert phi.b == 119


@pytest.mark.parametrize("n", [0, -3, True, 2.0, "2", None])
def test_a_family_refuses_a_rank_as_the_gl_preset_does(n):
    # the family checks GL's rank rule itself, so that it loads no root datum
    with pytest.raises(InvalidRank) as family:
        GLFamily(n, 11, 5)
    with pytest.raises(InvalidRank) as datum:
        preset("GL", n)
    refusal = (datum.value.message, datum.value.hint, datum.value.code, datum.value.exit_code)
    assert (family.value.message, family.value.hint, family.value.code,
            family.value.exit_code) == refusal


def test_construction_validation():
    # the GL preset's rank rule, under its code
    with pytest.raises(InvalidRank, match=r"^GL needs n >= 1, got 0$"):
        GLFamily(0, 11, 5)
    with pytest.raises(InvalidRank, match=r"^n must be an integer, got True$"):
        GLFamily(True, 11, 5)
    with pytest.raises(LlcError):
        GLFamily(2, 12, 5)
    # 11.0 used to give the modulus 120.0, and its parameters a bare TypeError
    for q, ell, code in ((11.0, 5, "q-not-prime-power"), (11, 5.0, "ell-not-prime")):
        with pytest.raises(LlcError) as exc:
            GLFamily(2, q, ell)
        assert exc.value.code == code
    with pytest.raises(LlcError):
        TrselpGL(GL2, "padic")
    with pytest.raises(LlcError):
        TrselpGL(GL2, ZBAR, a=1.5)
    with pytest.raises(LlcError):
        TrselpGL(GL2, ZBAR, b=True)
    with pytest.raises(LlcError):
        TrselpGL((2, 11, 5), ZBAR, a=1)


def test_orbit_generation_order():
    assert GL2.orbit(ZBAR, 1) == (1, 11)
    assert GL2.orbit(ZBAR, 11) == (11, 1)
    # the exponent is read mod the modulus of its flavor
    assert GL2.orbit(ZBAR, 121) == (1, 11) and GL2.orbit(FBAR, 25) == (1, 11)


def test_regularity():
    assert GL2.orbit_size(ZBAR, 1) == GL2.n
    # 12 * 11 = 132 = 12 mod 120: fixed point, orbit size 1
    assert GL2.orbit_size(ZBAR, 12) == 1
    assert GL2.orbit_size(ZBAR, 0) == 1
    # n = 1: every exponent is regular
    assert GLFamily(1, 11, 5).orbit_size(ZBAR, 0) == 1


def test_order_three_eigenvalue_parameter():
    # exponent 40 has order 3 in Z/120; its orbit {40, 80} still has size 2
    assert GL2.orbit(ZBAR, 40) == (40, 80)
    assert GL2.orbit_size(ZBAR, 40) == GL2.n


def test_canonical():
    assert GL2.least(ZBAR, 11) == 1 == min(GL2.orbit(ZBAR, 11))
    assert GL2.least(ZBAR, 1) == 1
    assert GL2.least(ZBAR, 131) == 1  # unreduced: 131 = 11 mod 120


def test_equality_and_hash():
    # equal families need not be the same object
    assert TrselpGL(GL2, ZBAR, a=1) == TrselpGL(GLFamily(2, 11, 5), ZBAR, a=121)
    assert TrselpGL(GL2, ZBAR, a=1) != TrselpGL(GL2, FBAR, a=1)
    assert TrselpGL(GL2, ZBAR, a=1) != TrselpGL(GLFamily(2, 11, 7), ZBAR, a=1)
    assert len({TrselpGL(GL2, ZBAR, a=1), TrselpGL(GLFamily(2, 11, 5), ZBAR, a=1)}) == 1


def test_to_json():
    j = TrselpGL(GL2, ZBAR, a=1, b=3).to_json()
    assert j == {"n": 2, "q": 11, "ell": 5, "coeff": "zbar", "a": 1, "b": 3, "modulus": 120}


# ---------------------------------------------------------------------------
# matrices and the cocycle relation


def test_matrices_frozen_gl2():
    m = ParamMatrices(GL2.full_modulus, GL2.diagonal(1), 7)
    assert m.diagonal == (1, 11)
    assert m.corner == 7
    assert m.modulus == 120 and m.n == 2


def test_matrices_n1():
    fam = GLFamily(1, 11, 5)
    m = ParamMatrices(fam.full_modulus, fam.diagonal(3), 4)
    assert m.diagonal == (3,)
    assert m.corner == 4
    assert m.to_json() == {"n": 1, "modulus": 10, "x": [[{"exp": 3}]], "y": [[{"exp": 4}]]}


def test_matrices_need_integral_coefficients():
    # the diagonal takes an integral exponent, read mod q^n - 1: a residue
    # exponent is not one (1 and 1 + 24 agree mod 24 but not mod 120), so a
    # residue parameter's matrices are those of its canonical lift, whose
    # eigenvalues have prime-to-ell order
    assert GL2.diagonal(121) == GL2.diagonal(1) == (1, 11)
    assert GL2.diagonal(1 + GL2.residue_modulus) == (25, 35) != GL2.diagonal(1)
    lift = GL2.diagonal(next(GL2.lifts(1)))
    assert lift == (25, 35) and all(e % 5 == 0 for e in lift)
    assert cocycle_law(lift, 11, GL2.full_modulus)


def test_matrices_json_entries():
    j = ParamMatrices(GL2.full_modulus, GL2.diagonal(1), 0).to_json()
    assert j["x"][0][0] == {"exp": 1}
    assert j["x"][0][1] == {"zero": True}
    assert j["y"][0][1] == {"exp": 0}


def test_param_matrices_shape_errors():
    for args in [
        (120, [1, True], 0),
        (120, [1, "x"], 0),
        (120, [1, 11], False),
        (120, [1, 11], "7"),
        (120, [], 0),
        (0, [1, 11], 0),
        (True, [1, 11], 0),
    ]:
        with pytest.raises(LlcError) as exc:
            ParamMatrices(*args)
        assert exc.value.code == "invalid-argument"
    # the least modulus is 1, where every exponent is 0
    m = ParamMatrices(1, [0], 0)
    assert (m.modulus, m.diagonal, m.corner) == (1, (0,), 0)


def test_verify_cocycle_holds_for_built_matrices():
    for a in (1, 7, 40):
        assert cocycle_law(GL2.diagonal(a), 11, GL2.full_modulus)


def test_verify_cocycle_rejects_corrupted_diagonal():
    # diag (1, 12): conjugation rotates to (12, 1) but x^q is (11, 12)
    m = ParamMatrices(120, [1, 12], 5)
    assert not cocycle_law(m.diagonal, 11, m.modulus)
    # the last exponent must wrap around to the first: (1, 11, 121 = 1 mod 120)
    assert cocycle_law(ParamMatrices(120, [1, 11], 5).diagonal, 11, 120)
    assert not cocycle_law(ParamMatrices(120, [1, 11, 1], 5).diagonal, 11, 120)


def test_verify_cocycle_is_ell_independent():
    # the relation only involves n, q, a; both ell choices agree
    for ell in (5, 7, 13):
        fam = GLFamily(3, 3, ell)
        assert fam.full_modulus == 26
        assert cocycle_law(fam.diagonal(5), 3, fam.full_modulus)


# ---------------------------------------------------------------------------
# reduction and lifts: the reduction of an integral exponent is the least
# exponent of its orbit at FBAR, and GLFamily.lifts lifts a residue exponent


def test_reduction_frozen_values():
    assert GL2.least(FBAR, 25) == 1
    assert GL2.least(FBAR, 49) == 1
    assert GL2.least(FBAR, 23) == 13
    assert GL2.least(FBAR, 1) == 1 and GL2.modulus(FBAR) == 24


def test_reduction_requires_integral_source():
    # reduction starts from an integral exponent: least at FBAR reads it mod
    # M' = 24, so every integral exponent of Z/120 reduces, and a reduced
    # exponent reduces to itself
    reduced = [GL2.least(FBAR, a) for a in range(GL2.full_modulus)]
    assert reduced == [GL2.least(FBAR, a % 24) for a in range(GL2.full_modulus)]
    assert all(GL2.least(FBAR, r) == r for r in reduced)
    assert reduced == [brute_reduction(a, 11, 24, 2) for a in range(GL2.full_modulus)]


def test_lifts_frozen_example():
    lifts = list(GL2.lifts(1))
    assert lifts == [25, 1, 49, 73, 97]
    assert all(0 <= e < GL2.full_modulus for e in lifts)


def test_lifts_when_k_is_zero():
    # v_7(3^2 - 1) = 0: the lift is unique and keeps the exponent
    assert list(GLFamily(2, 3, 7).lifts(5)) == [5]


def test_lifts_require_residue_source():
    # lifts start from a residue exponent: an integral exponent is read mod
    # M' = 24, so 1 and its lift 49 have the same lifts
    assert list(GL2.lifts(49)) == list(GL2.lifts(1)) == list(GL2.lifts(1 - 24))


def test_lift_torsor_properties():
    lifts = list(GL2.lifts(13))
    assert len(lifts) == 5
    # all congruent to a mod M', pairwise distinct, canonical first
    assert all(e % 24 == 13 for e in lifts)
    assert len(set(lifts)) == 5
    assert lifts[0] % 5 == 0
    assert lifts[1:] == sorted(lifts[1:])
    # reduction round-trips onto the canonical residue exponent
    for e in lifts:
        assert GL2.least(FBAR, e) == GL2.least(FBAR, 13)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=119))
def test_reduction_after_lift_is_identity_gl2(a):
    least = GL2.least(FBAR, a)
    for e in GL2.lifts(least):
        assert GL2.least(FBAR, e) == least


def test_lift_preserves_regularity_both_ways_here():
    # regularity depends only on a mod M' when the orbit map is compatible;
    # check it concretely on the frozen example
    assert GL2.orbit_size(FBAR, 1) == GL2.n
    assert all(GL2.orbit_size(ZBAR, e) == GL2.n for e in GL2.lifts(1))


# ---------------------------------------------------------------------------
# equivalence


def test_a_parameters_modulus_cannot_be_overwritten():
    # a modulus that does not divide q^n - 1 would leave an orbit open: 1 mod
    # 9 under q = 3 runs 3, 0, 0, ... and never returns.  The orbit walks
    # rely on the modulus dividing q^n - 1, so neither a parameter nor its
    # family takes the write
    fam = GLFamily(2, 3, 5)
    phi = TrselpGL(fam, ZBAR, a=1)
    with pytest.raises(AttributeError):
        phi.modulus = 9
    with pytest.raises(AttributeError):
        fam.full_modulus = 9
    assert phi.modulus == fam.modulus(ZBAR) == 8 and fam.orbit(ZBAR, phi.a) == (1, 3)
    assert fam.least(ZBAR, phi.a) == phi.a
    assert fam.support(ZBAR, phi.a) == [(1, 1), (2, 2)]


def test_equivalent_same_orbit():
    # equivalent parameters (same q-power orbit, same corner unit) share
    # their canonical exponent, the representative enumeration lists; the
    # corner tells the records apart
    assert GL2.least(ZBAR, 11) == GL2.least(ZBAR, 1) == 1
    assert GL2.least(ZBAR, 2) != 1
    assert 1 in GL2.exponents(ZBAR) and 11 not in GL2.exponents(ZBAR)
    assert TrselpGL(GL2, ZBAR, a=1, b=1) != TrselpGL(GL2, ZBAR, a=1)


# ---------------------------------------------------------------------------
# nilpotent support


def test_nilpotent_support_diagonal_for_regular():
    assert GL2.support(ZBAR, 1) == [(1, 1), (2, 2)]
    assert GLFamily(3, 3, 13).support(ZBAR, 1) == [(1, 1), (2, 2), (3, 3)]


def test_nilpotent_support_grows_for_degenerate_exponent():
    # a = 0: every position is fixed
    assert GL2.support(ZBAR, 0) == [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]
    # a = 12 is a nonzero fixed point of multiplication by q
    assert len(GL2.support(ZBAR, 12)) == 4


def test_nilpotent_support_uses_own_modulus():
    # over residue coefficients the modulus is M', not q^n - 1: at q = 9,
    # ell = 5 the exponent 2 is fixed mod M' = 16 (9 * 2 = 18) but not mod 80
    assert GL2.support(FBAR, 1) == [(1, 1), (2, 2)]
    fam = GLFamily(2, 9, 5)
    assert fam.support(FBAR, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert fam.support(ZBAR, 2) == [(1, 1), (2, 2)]


def test_powers_are_taken_once_per_flavor():
    fam = GLFamily(4, 7, 5)
    for coeff in COEFFS:
        m = fam.modulus(coeff)
        assert fam.powers(coeff) == tuple(7**i % m for i in range(4))
    assert fam.powers(ZBAR) != fam.powers(FBAR)
    with pytest.raises(LlcError):
        fam.powers("qbar")


# n = 1..6, prime and prime-power q, ell-parts from none to 121 (GL_5 at q = 3,
# ell = 11 leaves the residue modulus 2, so GL_5 at q = 7 gives its size-5 orbits)
KERNEL_FAMILIES = [
    (1, 11, 5), (1, 13, 3), (1, 13, 5), (2, 11, 5), (2, 9, 5), (2, 19, 3), (3, 7, 3), (3, 3, 13),
    (3, 25, 3), (4, 3, 5), (4, 7, 5), (5, 3, 11), (5, 7, 3), (6, 5, 7), (6, 3, 7), (6, 7, 3),
]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_nilpotent_support_matches_fresh_powers_across_flavors():
    # one family serves both flavors; each keeps its own modulus.  The
    # reference is the definition, positions where a q^(i-1) and a q^(j-1)
    # agree, from fresh powers; the net reaches every orbit size s | n
    rng = random.Random(20261020)
    sizes = {coeff: set() for coeff in COEFFS}
    for n, q, ell in KERNEL_FAMILIES:
        fam = GLFamily(n, q, ell)
        for coeff in COEFFS:
            m = fam.modulus(coeff)
            # orbits of size 1, small orbits, full ones, and the multiples of
            # m / ell^j, whose orbits the ell-power roots of unity shorten
            exps = {0, 1, 2, m // 2, m - 1}
            exps |= {m // ell**j for j in range(1, fam.k + 1) if coeff == ZBAR}
            exps |= {m // d for d in range(2, 10) if m % d == 0}
            # and seeded exponents fixed by q^s for each s | n: the multiples
            # of m / gcd(q^s - 1, m)
            for s in divisors(n):
                g = gcd(q**s - 1, m)
                exps |= {m // g * k for k in rng.sample(range(g), min(g, 12))}
            for a in sorted(exps):
                expected = fixed_positions_by_powers(a, q, m, n)
                assert fam.support(coeff, a) == expected, (n, q, ell, coeff, a)
                s = orbit_size_by_powers(a, q, m, n)
                assert len(expected) == n * n // s
                sizes[coeff].add((n, s))
    every = {(n, s) for n, _, _ in KERNEL_FAMILIES for s in divisors(n)}
    assert sizes[ZBAR] == sizes[FBAR] == every


# ---------------------------------------------------------------------------
# enumeration and counting


def test_enumeration_frozen_counts():
    assert len(GL2.exponents(ZBAR)) == 55
    assert len(GL2.exponents(FBAR)) == 11


def test_enumeration_yields_canonical_ascending_regulars():
    exps = GL2.exponents(FBAR)
    assert all(GL2.orbit_size(FBAR, a) == GL2.n and GL2.least(FBAR, a) == a for a in exps)
    assert exps == sorted(exps)


def test_enumeration_matches_brute_oracle():
    for n, q, ell in ((1, 11, 5), (2, 11, 5), (2, 3, 5), (3, 3, 13), (4, 3, 5)):
        family = GLFamily(n, q, ell)
        for coeff in (ZBAR, FBAR):
            got = family.exponents(coeff)
            assert got == brute_orbit_reps(n, q, family.modulus(coeff)), (n, q, ell, coeff)


def test_count_params_closed_form_matches_enumeration():
    for n, q, ell in ((1, 3, 7), (2, 11, 5), (3, 5, 11), (4, 3, 5), (6, 3, 7)):
        family = GLFamily(n, q, ell)
        for coeff in (ZBAR, FBAR):
            assert family.count(coeff) == brute_count(n, q, family.modulus(coeff))


def test_count_matches_enumerate_exactly():
    gl3 = GLFamily(3, 3, 13)
    for coeff in (ZBAR, FBAR):
        assert GL2.count(coeff) == len(GL2.exponents(coeff))
        assert gl3.count(coeff) == len(gl3.exponents(coeff))


def test_all_enumerated_parameters_pass_verify():
    fam = GLFamily(3, 3, 13)
    exps = fam.exponents(ZBAR)
    assert len(exps) == 8
    for a in exps:
        assert cocycle_law(fam.diagonal(a), 3, fam.full_modulus), a


# ---------------------------------------------------------------------------
# the windowed scan against the brute oracle

ODD_PRIME_POWERS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53)
SMALL_FAMILIES = [
    (n, q, ell)
    for n in (1, 2, 3, 4)
    for q in ODD_PRIME_POWERS
    for ell in (3, 5, 7, 11, 13)
    if q % ell and q**n - 1 <= 3000
]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_FAMILIES), st.sampled_from(COEFFS))
def test_scan_matches_brute_oracle_on_small_families(family, coeff):
    fam = GLFamily(*family)
    assert fam.exponents(coeff) == brute_orbit_reps(fam.n, fam.q, fam.modulus(coeff))


# Moduli at the scan window's edges: 4096 (one full window, GL_1 q=12289
# fbar), 4098 and 8190 (just past one and two windows), 12288 (three full
# windows), and n >= 2 families that cross a boundary.  q is odd, so q^n - 1
# is even and no admissible family has modulus 1: modulus 2 (GL_1 q=7 ell=3
# fbar, GL_3 q=3 ell=13 fbar) is the smallest there is.
EDGE_FAMILIES = [
    (1, 12289, 3), (1, 4099, 3), (1, 8191, 3), (2, 67, 5), (3, 17, 5), (4, 9, 7),
    (1, 7, 3), (3, 3, 13),
]


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("n,q,ell", EDGE_FAMILIES)
def test_scan_matches_brute_oracle_at_window_edges(n, q, ell, coeff):
    fam = GLFamily(n, q, ell)
    assert fam.exponents(coeff) == brute_orbit_reps(n, q, fam.modulus(coeff))


def test_edge_families_hit_the_edges():
    moduli = {GLFamily(*f).modulus(c) for f in EDGE_FAMILIES for c in COEFFS}
    assert {2, _SCAN_WINDOW, _SCAN_WINDOW + 2, 2 * _SCAN_WINDOW - 2, 3 * _SCAN_WINDOW} <= moduli


def enumerate_page(fam, coeff, offset, limit):
    argv = ["enumerate", "--n", str(fam.n), "--q", str(fam.q), "--ell", str(fam.ell),
            "--coeff", coeff, "--offset", str(offset), "--limit", str(limit), "--output", "json"]
    out = io.StringIO()
    assert cli.run(argv, stream=out) == 0
    return [p["a"] for p in json.loads(out.getvalue())["parameters"]]


@pytest.mark.parametrize("n,q,ell,coeff", [(1, 12289, 3, ZBAR), (2, 131, 3, ZBAR), (2, 131, 3, FBAR)])
def test_pages_across_window_boundaries_are_slices(n, q, ell, coeff):
    fam = GLFamily(n, q, ell)
    full = fam.exponents(coeff)
    edges = range(_SCAN_WINDOW, fam.modulus(coeff), _SCAN_WINDOW)
    assert len(edges) >= 1
    for edge in edges:
        first = bisect_left(full, edge)  # the first exponent of the window at edge
        for offset, limit in ((first - 3, 7), (first - 1, 1), (first, 1), (first - 2, _SCAN_WINDOW + 5)):
            assert fam.exponents(coeff, offset, limit) == full[offset:offset + limit]
        assert enumerate_page(fam, coeff, first - 3, 7) == full[first - 3:first + 4]
    assert fam.exponents(coeff, 5) == full[5:]
    assert fam.exponents(coeff, len(full) - 2, 10)[-1] == full[-1]
    assert fam.exponents(coeff, len(full) + 5, 3) == []
    assert fam.exponents(coeff, 3, 0) == []


def test_parameters_reject_negative_paging():
    # and paging that is no int: True used to page as 1, and 1.5 ended in a
    # bare TypeError
    for offset, limit in ((-1, 3), (0, -1), (True, 3), (0, True), (1.5, 3), (0, 2.0), ("1", None)):
        with pytest.raises(LlcError) as exc:
            GL2.exponents(ZBAR, offset, limit)
        assert exc.value.code == "invalid-argument"


def test_a_page_builds_no_window_past_the_one_that_fills_it(monkeypatch):
    # GL_3 at q = 101 has 4055 canonical exponents in each of its first two windows
    fam = GLFamily(3, 101, 5)
    first = [size for size, _ in islice(fam._windows(ZBAR), 3)]
    assert first[:2] == [4055, 4055]
    built = []
    windows = GLFamily._windows

    def counting(self, coeff):
        for window in windows(self, coeff):
            built.append(window)
            yield window

    monkeypatch.setattr(GLFamily, "_windows", counting)
    for offset, limit, expected in (
        (0, 1, 1), (4054, 1, 1), (0, 4055, 1), (4055, 1, 2), (5000, 100, 2), (0, 4056, 2),
        (0, 0, 0), (5000, 0, 0),
    ):
        built.clear()
        page = fam.exponents(ZBAR, offset, limit)
        assert len(page) == limit and len(built) == expected, (offset, limit)
        assert [size for size, _ in built] == first[:expected]


# ---------------------------------------------------------------------------
# the kernels' exponents, minted unchecked, equal the validated records


def assert_same_as_validated(fam, coeff, a, b=0):
    # _make stores what it is given, as copies and pickles do: the kernel's
    # exponent must already be reduced for the mint to equal the record
    phi = TrselpGL._make(fam, coeff, fam.modulus(coeff), a, b)
    ref = TrselpGL(fam, coeff, a, b)
    assert phi == ref and hash(phi) == hash(ref)
    assert repr(phi) == repr(ref)
    assert phi.to_json() == ref.to_json()


def validated_matrices(fam, a, b):
    n, q, m = fam.n, fam.q, fam.full_modulus
    # left unreduced, and the corner shifted by a modulus: the constructor reduces
    return ParamMatrices(m, [a * q**i for i in range(n)], b - m)


def dense_json(n, modulus, a, b, q):
    """The matrices' JSON written out from their definition, entry by entry."""
    def entry(e):
        return {"zero": True} if e is None else {"exp": e % modulus}

    x = [[entry(a * q**i if i == j else None) for j in range(n)] for i in range(n)]
    y = [[entry(None) for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        y[i][i + 1] = entry(0)
    y[n - 1][0] = entry(b)
    return {"n": n, "modulus": modulus, "x": x, "y": y}


@pytest.mark.parametrize(
    "n,q,ell", [(1, 11, 5), (2, 11, 5), (3, 3, 13), (4, 3, 5), (2, 131, 3), (5, 3, 11), (6, 3, 7)]
)
def test_minted_parameters_equal_validated_ones(n, q, ell):
    fam = GLFamily(n, q, ell)
    for coeff in COEFFS:
        listed = fam.exponents(coeff)
        page = fam.exponents(coeff, len(listed) // 3, 40)
        assert page == listed[len(listed) // 3:len(listed) // 3 + 40]
        for a in listed + page:
            assert_same_as_validated(fam, coeff, a)
            assert_same_as_validated(fam, coeff, fam.least(coeff, a + fam.modulus(coeff)), 3)
    for a in fam.exponents(FBAR)[:25]:
        for e in fam.lifts(a):
            assert_same_as_validated(fam, ZBAR, e, 2)
            assert_same_as_validated(fam, FBAR, fam.least(FBAR, e), 2)
    full = fam.full_modulus
    extra = [(7, b % full) for b in (1, -3)]
    # M / (q^d - 1) has an orbit of size d, so the diagonal repeats n / d times
    extra += [((q**n - 1) // (q**d - 1), 5 % full) for d in range(1, n + 1) if n % d == 0]
    for a, b in [(a, 0) for a in fam.exponents(ZBAR)[:60]] + extra:
        m = ParamMatrices._make(full, fam.diagonal(a), b)
        ref = validated_matrices(fam, a, b)
        assert m == ref and repr(m) == repr(ref)
        assert m.to_json() == dense_json(n, full, a, b, q)


# ---------------------------------------------------------------------------
# the band scan against the brute oracle

# (n, q, ell, coeff) with moduli up to ~7 * 10^5.  Each window cuts the bands
# of every power, so the net holds windows with few bands (GL_2 q=1999 fbar:
# q is 0.014 M, 56 bands a window), with many (GL_2 q=647 fbar: 513 bands a
# window), and a largest power of 0.54 M (GL_6 q=13 fbar).
NET_CASES = [
    (2, 523, 5, ZBAR), (2, 1871, 3, FBAR), (2, 1999, 3, FBAR), (2, 647, 3, FBAR),
    (3, 43, 3, ZBAR), (3, 19, 5, FBAR), (3, 67, 3, FBAR), (4, 11, 7, ZBAR), (4, 23, 3, FBAR),
    (5, 9, 5, ZBAR), (5, 11, 3, FBAR), (6, 13, 7, FBAR), (6, 7, 5, ZBAR), (7, 5, 3, ZBAR),
    (7, 7, 3, FBAR),
]


@lru_cache(maxsize=None)
def net_reps(n, q, ell, coeff):
    return brute_orbit_reps(n, q, GLFamily(n, q, ell).modulus(coeff))


@lru_cache(maxsize=None)
def page_anchors(case):
    """Indices where a page is most likely to go wrong: the first exponent
    after each rejected band, the first exponent of each scan window, and the
    end of the list."""
    reps = net_reps(*case)
    after_band = [i for i in range(1, len(reps)) if reps[i] - reps[i - 1] > 1]
    window_starts = [bisect_left(reps, w) for w in range(_SCAN_WINDOW, reps[-1] + 1, _SCAN_WINDOW)]
    return tuple(anchors for anchors in (after_band, window_starts, [len(reps)]) if anchors)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(NET_CASES), st.data())
def test_band_scan_pages_match_brute_oracle(case, data):
    n, q, ell, coeff = case
    fam = GLFamily(n, q, ell)
    reps = net_reps(*case)
    anchors = data.draw(st.sampled_from(page_anchors(case)))
    offset = max(data.draw(st.sampled_from(anchors)) + data.draw(st.integers(-1, 1)), 0)
    limit = data.draw(st.sampled_from([0, 1, 2, 7, 100, _SCAN_WINDOW + 3]))
    stop = offset + limit
    assert fam.exponents(coeff, offset, limit) == reps[offset:stop]


@pytest.mark.parametrize("n,q,ell,coeff", NET_CASES)
def test_band_scan_matches_brute_oracle(n, q, ell, coeff):
    fam = GLFamily(n, q, ell)
    assert fam.exponents(coeff) == net_reps(n, q, ell, coeff)
    assert fam.count(coeff) == len(net_reps(n, q, ell, coeff))


def test_scan_windows_hold_only_ranges():
    # every power cuts its bands out of every window, so no window is a list
    for n, q, ell, coeff in NET_CASES:
        for _, chunks in GLFamily(n, q, ell)._windows(coeff):
            assert all(type(chunk) is range for chunk in chunks), (n, q, ell, coeff)


# ---------------------------------------------------------------------------
# the cocycle and lift kernels against independent oracles (the support is
# checked against one in the nilpotent support section)


def test_verify_cocycle_matches_the_conjugation_oracle():
    # built diagonals satisfy y x y^{-1} = x^q; changing one cell breaks the
    # law at that cell's predecessor, so for n >= 2 every single-cell
    # corruption is refused.  At n = 1 the modulus is q - 1 and every
    # exponent e has q e = e, so the oracle accepts the corruptions too
    rng = random.Random(20261019)
    refused = 0
    for n, q, ell in KERNEL_FAMILIES:
        fam = GLFamily(n, q, ell)
        m = fam.full_modulus
        # orbits of every size d | n, the extremes and seeded draws
        exps = {0, 1, m - 1} | {m // (q**d - 1) for d in divisors(n)}
        exps |= {rng.randrange(m) for _ in range(6)}
        for a in sorted(exps):
            built = ParamMatrices(m, fam.diagonal(a), rng.randrange(m))
            assert conjugation_law_holds(built.diagonal, built.corner, q, m)
            assert cocycle_law(built.diagonal, q, m), (n, q, a)
            for i, e in enumerate(built.diagonal):
                for v in {e + 1, e - 1, e + m // 2, rng.randrange(m)}:
                    if (v - e) % m == 0:
                        continue
                    cells = list(built.diagonal)
                    cells[i] = v
                    bad = ParamMatrices(m, cells, built.corner)
                    law = conjugation_law_holds(bad.diagonal, bad.corner, q, m)
                    assert cocycle_law(bad.diagonal, q, m) == law == (n == 1), (n, q, a, i, v)
                    refused += n > 1
            # and diagonals drawn at random, which mostly break the law
            drawn = ParamMatrices(m, [rng.randrange(m) for _ in range(n)], rng.randrange(m))
            law = conjugation_law_holds(drawn.diagonal, drawn.corner, q, m)
            assert cocycle_law(drawn.diagonal, q, m) == law, (n, q, drawn.diagonal)
    assert refused > 1000


def test_lifts_and_reduction_match_brute_chinese_remainders():
    # the lifts of a residue exponent are found by scanning Z/(q^n - 1), the
    # canonical one by its divisibility by ell^k, and each reduction by the
    # least exponent of its orbit from fresh powers
    rng = random.Random(20261021)
    torsor_sizes = set()
    for n, q, ell in KERNEL_FAMILIES:
        fam = GLFamily(n, q, ell)
        m, r = fam.full_modulus, fam.residue_modulus
        if m > 50000:
            continue
        listed = fam.exponents(FBAR)
        residues = rng.sample(listed, min(len(listed), 8))
        # and residue exponents off the list, some of them unreduced
        residues += [rng.randrange(r) for _ in range(2)] + [r + rng.randrange(r) for _ in range(2)]
        for a in residues:
            canonical, lifts = brute_lifts(a % r, r, m)
            torsor_sizes.add(len(lifts))
            got = list(fam.lifts(a))
            assert got == [canonical] + [e for e in lifts if e != canonical], (n, q, ell, a)
            for e in got:
                assert fam.least(FBAR, e) == brute_reduction(e, q, r, n), (n, q, ell, e)
        for a in rng.sample(range(m), min(m, 25)):
            assert fam.least(FBAR, a) == brute_reduction(a, q, r, n), (n, q, ell, a)
    assert {1, 5, 25, 121} <= torsor_sizes


# ---------------------------------------------------------------------------
# the family kernels against the oracles


def kernel_net_exponents(fam, coeff, rng):
    """Exponents of every orbit size s | n at one flavor, a few unreduced."""
    n, q, m = fam.n, fam.q, fam.modulus(coeff)
    exps = {0, 1, 2, m // 2, m - 1} | {m // d for d in range(2, 10) if m % d == 0}
    for s in divisors(n):
        g = gcd(q**s - 1, m)
        exps |= {m // g * k for k in rng.sample(range(g), min(g, 8))}
    return sorted(exps) + [m + 1, 3 * m - 1]


def test_kernels_match_the_oracles():
    # each kernel runs on a family and an exponent, and each is checked
    # against an oracle from fresh powers or a linear scan
    rng = random.Random(20261022)
    sizes = {coeff: set() for coeff in COEFFS}
    for n, q, ell in KERNEL_FAMILIES:
        fam = GLFamily(n, q, ell)
        full, r = fam.full_modulus, fam.residue_modulus
        for coeff in COEFFS:
            m = fam.modulus(coeff)
            for a in kernel_net_exponents(fam, coeff, rng):
                case = (n, q, ell, coeff, a)
                s = orbit_size_by_powers(a, q, m, n)
                sizes[coeff].add((n, s))
                powers = [a * pow(q, i, m) % m for i in range(n)]
                assert fam.orbit(coeff, a) == tuple(powers[:s]), case
                assert fam.orbit_size(coeff, a) == s, case
                assert fam.least(coeff, a) == brute_reduction(a, q, m, n), case
                assert fam.support(coeff, a) == fixed_positions_by_powers(a, q, m, n), case
                if coeff == ZBAR:
                    diag = fam.diagonal(a)
                    assert diag == tuple(powers), case
                    b = rng.randrange(1, full)
                    assert cocycle_law(diag, q, m) and conjugation_law_holds(diag, b, q, m), case
                    # the least exponent at FBAR is the reduction
                    assert fam.least(FBAR, a) == brute_reduction(a, q, r, n), case
                elif full <= 50000:
                    canonical, lifts = brute_lifts(a % r, r, full)
                    assert list(fam.lifts(a)) == [canonical] + [e for e in lifts if e != canonical], case
    every = {(n, s) for n, _, _ in KERNEL_FAMILIES for s in divisors(n)}
    assert sizes[ZBAR] == sizes[FBAR] == every


# ---------------------------------------------------------------------------
# the kernels take integer exponents only


def test_kernels_refuse_an_exponent_that_is_no_int():
    # a float never walks back to its start, so orbit_size(ZBAR, 0.1) used to
    # spin and orbit to grow its list without end; True was read as 1 and
    # "3" ended in a bare TypeError.  Each kernel now refuses them at once,
    # lifts too, before a lift is asked for
    calls = {"diagonal": GL2.diagonal, "lifts": GL2.lifts}
    for coeff in COEFFS:
        for name in ("orbit", "orbit_size", "least", "support"):
            calls[f"{name}({coeff})"] = lambda a, f=getattr(GL2, name), c=coeff: f(c, a)
    calls["TrselpGL a"] = lambda a: TrselpGL(GL2, ZBAR, a)
    calls["TrselpGL b"] = lambda b: TrselpGL(GL2, ZBAR, 1, b)
    start = perf_counter()
    for bad in (0.1, 1.5, True, "3"):
        for name, call in calls.items():
            with pytest.raises(LlcError) as exc:
                call(bad)
            assert exc.value.code == "invalid-argument", (name, bad)
    assert perf_counter() - start < 1.0
