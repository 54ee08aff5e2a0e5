"""Tame GL_n parameters: orbits, matrices, lifts, enumeration."""

import io
import json
import random
from bisect import bisect_left
from functools import lru_cache
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from llc_params import cli, glparams
from llc_params.errors import InvalidRank, LlcError
from llc_params.glparams import (
    _SCAN_WINDOW,
    COEFFS,
    FBAR,
    GLFamily,
    ParamMatrices,
    TrselpGL,
    ZBAR,
    canonical_lift,
    cocycle_law,
    lifts_in_component,
    matrices,
    nilpotent_support_fixed_positions,
    reduction,
    verify_cocycle,
)

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
    phi = TrselpGL(GL2, ZBAR, a=1)
    assert phi.orbit() == (1, 11)
    assert TrselpGL(GL2, ZBAR, a=11).orbit() == (11, 1)


def test_regularity():
    assert TrselpGL(GL2, ZBAR, a=1).is_regular
    # 12 * 11 = 132 = 12 mod 120: fixed point, orbit size 1
    assert not TrselpGL(GL2, ZBAR, a=12).is_regular
    assert not TrselpGL(GL2, ZBAR, a=0).is_regular
    # n = 1: every exponent is regular
    assert TrselpGL(GLFamily(1, 11, 5), ZBAR, a=0).is_regular


def test_order_three_eigenvalue_parameter():
    # exponent 40 has order 3 in Z/120; its orbit {40, 80} still has size 2
    phi = TrselpGL(GL2, ZBAR, a=40)
    assert phi.orbit() == (40, 80)
    assert phi.is_regular


def test_canonical():
    phi = TrselpGL(GL2, ZBAR, a=11)
    assert phi.a != min(phi.orbit())
    assert phi.canonical().a == 1 == min(phi.canonical().orbit())
    assert TrselpGL(GL2, ZBAR, a=1).canonical().a == 1


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
    m = matrices(TrselpGL(GL2, ZBAR, a=1, b=7))
    assert m.diagonal == (1, 11)
    assert m.corner == 7
    assert m.modulus == 120 and m.n == 2


def test_matrices_n1():
    m = matrices(TrselpGL(GLFamily(1, 11, 5), ZBAR, a=3, b=4))
    assert m.diagonal == (3,)
    assert m.corner == 4
    assert m.to_json() == {"n": 1, "modulus": 10, "x": [[{"exp": 3}]], "y": [[{"exp": 4}]]}


def test_matrices_need_integral_coefficients():
    with pytest.raises(LlcError) as exc:
        matrices(TrselpGL(GL2, FBAR, a=1))
    assert exc.value.code == "coefficient-mismatch"


def test_matrices_json_entries():
    j = matrices(TrselpGL(GL2, ZBAR, a=1)).to_json()
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
        m = matrices(TrselpGL(GL2, ZBAR, a=a))
        assert verify_cocycle(m, 11)


def test_verify_cocycle_rejects_corrupted_diagonal():
    # diag (1, 12): conjugation rotates to (12, 1) but x^q is (11, 12)
    m = ParamMatrices(120, [1, 12], 5)
    assert not verify_cocycle(m, 11)
    # the last exponent must wrap around to the first: (1, 11, 121 = 1 mod 120)
    assert verify_cocycle(ParamMatrices(120, [1, 11], 5), 11)
    assert not verify_cocycle(ParamMatrices(120, [1, 11, 1], 5), 11)


def test_verify_cocycle_is_ell_independent():
    # the relation only involves n, q, a; both ell choices agree
    for ell in (5, 7, 13):
        phi = TrselpGL(GLFamily(3, 3, ell), ZBAR, a=5)
        assert verify_cocycle(matrices(phi), 3)


# ---------------------------------------------------------------------------
# reduction and lifts


def test_reduction_frozen_values():
    assert reduction(TrselpGL(GL2, ZBAR, a=25)).a == 1
    assert reduction(TrselpGL(GL2, ZBAR, a=49)).a == 1
    assert reduction(TrselpGL(GL2, ZBAR, a=23)).a == 13
    out = reduction(TrselpGL(GL2, ZBAR, a=1))
    assert out.coeff == FBAR and out.modulus == 24 and out.a == 1


def test_reduction_requires_integral_source():
    with pytest.raises(LlcError):
        reduction(TrselpGL(GL2, FBAR, a=1))


def test_lifts_frozen_example():
    lifts = lifts_in_component(TrselpGL(GL2, FBAR, a=1))
    assert [psi.a for psi in lifts] == [25, 1, 49, 73, 97]
    assert all(psi.coeff == ZBAR for psi in lifts)


def test_lifts_when_k_is_zero():
    # v_7(3^2 - 1) = 0: the lift is unique and keeps the exponent
    lifts = lifts_in_component(TrselpGL(GLFamily(2, 3, 7), FBAR, a=5))
    assert len(lifts) == 1
    assert lifts[0].a == 5 and lifts[0].coeff == ZBAR


def test_lifts_require_residue_source():
    with pytest.raises(LlcError):
        lifts_in_component(TrselpGL(GL2, ZBAR, a=1))


def test_lift_torsor_properties():
    phi = TrselpGL(GL2, FBAR, a=13)
    lifts = lifts_in_component(phi)
    assert len(lifts) == 5
    # all congruent to a mod M', pairwise distinct, canonical first
    assert all(psi.a % 24 == 13 for psi in lifts)
    assert len({psi.a for psi in lifts}) == 5
    assert lifts[0].a % 5 == 0
    assert [psi.a for psi in lifts[1:]] == sorted(psi.a for psi in lifts[1:])
    # reduction round-trips onto the canonicalized source
    for psi in lifts:
        assert reduction(psi) == phi.canonical()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=119))
def test_reduction_after_lift_is_identity_gl2(a):
    phi = TrselpGL(GL2, FBAR, a=a).canonical()
    for psi in lifts_in_component(phi):
        assert reduction(psi) == phi


def test_lift_preserves_regularity_both_ways_here():
    # regularity depends only on a mod M' when the orbit map is compatible;
    # check it concretely on the frozen example
    phi = TrselpGL(GL2, FBAR, a=1)
    assert phi.is_regular
    assert all(psi.is_regular for psi in lifts_in_component(phi))


# ---------------------------------------------------------------------------
# equivalence


def test_a_parameters_modulus_cannot_be_overwritten():
    # a modulus that does not divide q^n - 1 would leave an orbit open: 1 mod
    # 9 under q = 3 runs 3, 0, 0, ... and never returns.  The orbit walks
    # rely on the modulus dividing q^n - 1, so the parameter refuses the write
    phi = TrselpGL(GLFamily(2, 3, 5), ZBAR, a=1)
    with pytest.raises(AttributeError):
        phi.modulus = 9
    assert phi.modulus == 8 and phi.orbit() == (1, 3)
    assert phi.canonical() is phi
    assert nilpotent_support_fixed_positions(phi) == [(1, 1), (2, 2)]


def test_equivalent_same_orbit():
    # equivalent parameters (same q-power orbit, same corner unit) share
    # their canonical form, the representative enumeration lists
    phi = TrselpGL(GL2, ZBAR, a=1)
    assert TrselpGL(GL2, ZBAR, a=11).canonical() == phi
    assert phi.canonical() == phi
    assert TrselpGL(GL2, ZBAR, a=2).canonical() != phi
    assert TrselpGL(GL2, ZBAR, a=1, b=1).canonical() != phi


# ---------------------------------------------------------------------------
# nilpotent support


def test_nilpotent_support_diagonal_for_regular():
    phi = TrselpGL(GL2, ZBAR, a=1)
    assert nilpotent_support_fixed_positions(phi) == [(1, 1), (2, 2)]
    psi = TrselpGL(GLFamily(3, 3, 13), ZBAR, a=1)
    assert nilpotent_support_fixed_positions(psi) == [(1, 1), (2, 2), (3, 3)]


def test_nilpotent_support_grows_for_degenerate_exponent():
    # a = 0: every position is fixed
    phi = TrselpGL(GL2, ZBAR, a=0)
    assert nilpotent_support_fixed_positions(phi) == [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]
    # a = 12 is a nonzero fixed point of multiplication by q
    psi = TrselpGL(GL2, ZBAR, a=12)
    assert len(nilpotent_support_fixed_positions(psi)) == 4


def test_nilpotent_support_uses_own_modulus():
    # over residue coefficients the modulus is M', not q^n - 1
    phi = TrselpGL(GL2, FBAR, a=1)
    assert nilpotent_support_fixed_positions(phi) == [(1, 1), (2, 2)]


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
                phi = TrselpGL(fam, coeff, a, rng.randrange(m))
                expected = fixed_positions_by_powers(a, q, m, n)
                assert nilpotent_support_fixed_positions(phi) == expected, (n, q, ell, coeff, a)
                s = orbit_size_by_powers(a, q, m, n)
                assert len(expected) == n * n // s
                sizes[coeff].add((n, s))
    every = {(n, s) for n, _, _ in KERNEL_FAMILIES for s in divisors(n)}
    assert sizes[ZBAR] == sizes[FBAR] == every


# ---------------------------------------------------------------------------
# enumeration and counting


def test_enumeration_frozen_counts():
    assert len(GL2.parameters(ZBAR)) == 55
    assert len(GL2.parameters(FBAR)) == 11


def test_enumeration_yields_canonical_ascending_regulars():
    params = GL2.parameters(FBAR)
    assert all(phi.is_regular and phi.a == min(phi.orbit()) for phi in params)
    exps = [phi.a for phi in params]
    assert exps == sorted(exps)
    assert all(phi.b == 0 for phi in params)


def test_enumeration_matches_brute_oracle():
    for n, q, ell in ((1, 11, 5), (2, 11, 5), (2, 3, 5), (3, 3, 13), (4, 3, 5)):
        family = GLFamily(n, q, ell)
        for coeff in (ZBAR, FBAR):
            got = [phi.a for phi in family.parameters(coeff)]
            assert got == brute_orbit_reps(n, q, family.modulus(coeff)), (n, q, ell, coeff)
            assert list(family.scan(coeff)) == got


def test_count_params_closed_form_matches_enumeration():
    for n, q, ell in ((1, 3, 7), (2, 11, 5), (3, 5, 11), (4, 3, 5), (6, 3, 7)):
        family = GLFamily(n, q, ell)
        for coeff in (ZBAR, FBAR):
            assert family.count(coeff) == brute_count(n, q, family.modulus(coeff))


def test_count_matches_enumerate_exactly():
    gl3 = GLFamily(3, 3, 13)
    for coeff in (ZBAR, FBAR):
        assert GL2.count(coeff) == len(GL2.parameters(coeff))
        assert gl3.count(coeff) == len(gl3.parameters(coeff))


def test_all_enumerated_parameters_pass_verify():
    for phi in GLFamily(3, 3, 13).parameters(ZBAR):
        assert verify_cocycle(matrices(phi), 3)


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
    assert list(fam.scan(coeff)) == brute_orbit_reps(fam.n, fam.q, fam.modulus(coeff))


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
    assert list(fam.scan(coeff)) == brute_orbit_reps(n, q, fam.modulus(coeff))


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
    full = list(fam.scan(coeff))
    edges = range(_SCAN_WINDOW, fam.modulus(coeff), _SCAN_WINDOW)
    assert len(edges) >= 1
    for edge in edges:
        first = bisect_left(full, edge)  # the first exponent of the window at edge
        for offset, limit in ((first - 3, 7), (first - 1, 1), (first, 1), (first - 2, _SCAN_WINDOW + 5)):
            assert [phi.a for phi in fam.parameters(coeff, offset, limit)] == full[offset:offset + limit]
        assert enumerate_page(fam, coeff, first - 3, 7) == full[first - 3:first + 4]
    assert [phi.a for phi in fam.parameters(coeff, 5)] == full[5:]
    assert fam.parameters(coeff, len(full) - 2, 10)[-1].a == full[-1]
    assert fam.parameters(coeff, len(full) + 5, 3) == []
    assert fam.parameters(coeff, 3, 0) == []


def test_parameters_reject_negative_paging():
    # and paging that is no int: True used to page as 1, and 1.5 ended in a
    # bare TypeError
    for offset, limit in ((-1, 3), (0, -1), (True, 3), (0, True), (1.5, 3), (0, 2.0), ("1", None)):
        with pytest.raises(LlcError) as exc:
            GL2.parameters(ZBAR, offset, limit)
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
        page = fam.parameters(ZBAR, offset, limit)
        assert len(page) == limit and len(built) == expected, (offset, limit)
        assert [size for size, _ in built] == first[:expected]


# ---------------------------------------------------------------------------
# parameters the package mints itself equal the validated ones


def assert_same_as_validated(phi):
    ref = TrselpGL(phi.family, phi.coeff, phi.a, phi.b)
    assert phi == ref and hash(phi) == hash(ref)
    assert repr(phi) == repr(ref)
    assert phi.to_json() == ref.to_json()


def validated_matrices(phi):
    n, q = phi.family.n, phi.family.q
    # left unreduced, and the corner shifted by a modulus: the constructor reduces
    return ParamMatrices(phi.modulus, [phi.a * q**i for i in range(n)], phi.b - phi.modulus)


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
        listed = fam.parameters(coeff)
        page = fam.parameters(coeff, len(listed) // 3, 40)
        assert page == listed[len(listed) // 3:len(listed) // 3 + 40]
        for phi in listed + page:
            assert_same_as_validated(phi)
            assert_same_as_validated(phi.canonical())
    for phi in fam.parameters(FBAR)[:25]:
        assert_same_as_validated(canonical_lift(phi))
        for psi in lifts_in_component(phi):
            assert_same_as_validated(psi)
            assert_same_as_validated(reduction(psi))
    extra = [TrselpGL(fam, ZBAR, a=7, b=b) for b in (1, -3)]
    # M / (q^d - 1) has an orbit of size d, so the diagonal repeats n / d times
    extra += [
        TrselpGL(fam, ZBAR, a=(q**n - 1) // (q**d - 1), b=5) for d in range(1, n + 1) if n % d == 0
    ]
    for phi in fam.parameters(ZBAR)[:60] + extra:
        m = matrices(phi)
        ref = validated_matrices(phi)
        assert m == ref and repr(m) == repr(ref)
        assert m.to_json() == dense_json(n, phi.modulus, phi.a, phi.b, q)


# ---------------------------------------------------------------------------
# the band scan against the brute oracle, on both of its routes

# (n, q, ell, coeff) with moduli up to ~7 * 10^5.  Each window cuts the bands
# of its cheap powers and filters by the others, so the net holds windows
# that only cut bands (GL_2 q=1999 fbar: q is 0.014 M, 56 bands a window),
# windows that only filter (GL_2 q=647 fbar: 513 bands a window), and
# windows that do both (GL_6 q=13 fbar, whose largest power is 0.54 M).
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
    assert [phi.a for phi in fam.parameters(coeff, offset, limit)] == reps[offset:stop]
    assert list(islice(fam.scan(coeff), offset, stop)) == reps[offset:stop]


@pytest.mark.parametrize("n,q,ell,coeff", NET_CASES)
def test_band_scan_matches_brute_oracle(n, q, ell, coeff):
    fam = GLFamily(n, q, ell)
    assert list(fam.scan(coeff)) == net_reps(n, q, ell, coeff)
    assert fam.count(coeff) == len(net_reps(n, q, ell, coeff))


def window_routes(fam, coeff, monkeypatch):
    """How each window of the scan ran: "bands", "filter" or "both"."""
    cuts = []
    cut_bands = glparams._cut_bands
    monkeypatch.setattr(glparams, "_cut_bands", lambda *args: cuts.append(1) or cut_bands(*args))
    routes = []
    for _, chunks in fam._windows(coeff):
        filtered = any(isinstance(chunk, list) for chunk in chunks)
        routes.append(("both" if cuts else "filter") if filtered else "bands")
        cuts.clear()
    return routes


def test_band_net_takes_every_route(monkeypatch):
    taken = {
        case: set(window_routes(GLFamily(*case[:3]), case[3], monkeypatch)) for case in NET_CASES
    }
    assert set().union(*taken.values()) == {"bands", "filter", "both"}
    assert taken[(6, 13, 7, FBAR)] == {"both"}
    assert taken[(2, 647, 3, FBAR)] == {"filter"}
    assert taken[(2, 1999, 3, FBAR)] == {"bands"}
    # some families switch route from one window to the next
    assert any(len(routes) > 1 for routes in taken.values())


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
            built = matrices(TrselpGL(fam, ZBAR, a, rng.randrange(m)))
            assert conjugation_law_holds(built.diagonal, built.corner, q, m)
            assert verify_cocycle(built, q), (n, q, a)
            for i, e in enumerate(built.diagonal):
                for v in {e + 1, e - 1, e + m // 2, rng.randrange(m)}:
                    if (v - e) % m == 0:
                        continue
                    cells = list(built.diagonal)
                    cells[i] = v
                    bad = ParamMatrices(m, cells, built.corner)
                    law = conjugation_law_holds(bad.diagonal, bad.corner, q, m)
                    assert verify_cocycle(bad, q) == law == (n == 1), (n, q, a, i, v)
                    refused += n > 1
            # and diagonals drawn at random, which mostly break the law
            drawn = ParamMatrices(m, [rng.randrange(m) for _ in range(n)], rng.randrange(m))
            law = conjugation_law_holds(drawn.diagonal, drawn.corner, q, m)
            assert verify_cocycle(drawn, q) == law, (n, q, drawn.diagonal)
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
        listed = fam.parameters(FBAR)
        residues = rng.sample(listed, min(len(listed), 8))
        residues += [TrselpGL(fam, FBAR, rng.randrange(r), rng.randrange(m)) for _ in range(4)]
        for phi in residues:
            canonical, lifts = brute_lifts(phi.a, r, m)
            torsor_sizes.add(len(lifts))
            got = lifts_in_component(phi)
            assert [psi.a for psi in got] == [canonical] + [e for e in lifts if e != canonical]
            assert canonical_lift(phi).a == canonical
            assert {(psi.coeff, psi.modulus, psi.b) for psi in got} == {(ZBAR, m, phi.b)}
            for psi in got:
                red = reduction(psi)
                assert (red.coeff, red.modulus, red.a, red.b) == (
                    FBAR, r, brute_reduction(psi.a, q, r, n), phi.b
                ), (n, q, ell, psi.a)
        for a in rng.sample(range(m), min(m, 25)):
            red = reduction(TrselpGL(fam, ZBAR, a, 3))
            assert (red.a, red.b) == (brute_reduction(a, q, r, n), 3), (n, q, ell, a)
    assert {1, 5, 25, 121} <= torsor_sizes


# ---------------------------------------------------------------------------
# the family kernels against the oracles and against their record wrappers


def kernel_net_exponents(fam, coeff, rng):
    """Exponents of every orbit size s | n at one flavor, a few unreduced."""
    n, q, m = fam.n, fam.q, fam.modulus(coeff)
    exps = {0, 1, 2, m // 2, m - 1} | {m // d for d in range(2, 10) if m % d == 0}
    for s in divisors(n):
        g = gcd(q**s - 1, m)
        exps |= {m // g * k for k in rng.sample(range(g), min(g, 8))}
    return sorted(exps) + [m + 1, 3 * m - 1]


def test_kernels_match_the_oracles_and_their_record_wrappers():
    # each kernel runs on a family and an exponent; the records mint over
    # them.  Every kernel is checked against an oracle from fresh powers or a
    # linear scan, and against the record function that wraps it, on
    # parameters with a nonzero corner b
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

                phi = TrselpGL(fam, coeff, a, b := rng.randrange(1, full))
                assert phi.orbit() == fam.orbit(coeff, a), case
                assert phi.is_regular == (fam.orbit_size(coeff, a) == n), case
                least = phi.canonical()
                assert (least.coeff, least.a, least.b) == (coeff, fam.least(coeff, a), b), case
                assert nilpotent_support_fixed_positions(phi) == fam.support(coeff, a), case

                if coeff == ZBAR:
                    diag = fam.diagonal(a)
                    assert diag == tuple(powers), case
                    assert cocycle_law(diag, q, m) and conjugation_law_holds(diag, b, q, m), case
                    pair = matrices(phi)
                    assert (pair.modulus, pair.diagonal, pair.corner) == (m, diag, b), case
                    assert verify_cocycle(pair, q), case
                    # the least exponent at FBAR is the reduction
                    red = reduction(phi)
                    assert (red.coeff, red.a, red.b) == (FBAR, fam.least(FBAR, a), b), case
                    assert red.a == brute_reduction(a, q, r, n), case
                elif full <= 50000:
                    canonical, lifts = brute_lifts(a, r, full)
                    got = list(fam.lifts(a))
                    assert got == [canonical] + [e for e in lifts if e != canonical], case
                    assert [(psi.coeff, psi.a, psi.b) for psi in lifts_in_component(phi)] == [
                        (ZBAR, e, b) for e in got
                    ], case
                    assert canonical_lift(phi) == lifts_in_component(phi)[0], case
    every = {(n, s) for n, _, _ in KERNEL_FAMILIES for s in divisors(n)}
    assert sizes[ZBAR] == sizes[FBAR] == every

