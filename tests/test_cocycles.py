"""Twisted-Frobenius tori: fixed schemes, stabilizers, component structure."""

import pytest

from llc_params.abgroups import FinGenAbGroup
from llc_params.cocycles import (
    POINT_MOD_STABILIZER,
    TORUS_QUOTIENT,
    CocycleSpace,
    cocycle_space,
    component_descriptor,
    frob_fixed_scheme,
    twisted_centralizer,
)
from llc_params.errors import InvalidPrime, InvalidPrimePower, LlcError
from llc_params.lattice import IntMatrix
from llc_params.rootdata import WeylTwist, coxeter_twist, identity_twist, preset, weyl_twist


def _gl_coxeter(n):
    return coxeter_twist(preset("GL", n))


# ---------------------------------------------------------------------------
# validation


def test_component_descriptor_validation():
    rd = preset("GL", 2)
    w = weyl_twist(rd, IntMatrix([[0, 1], [1, 0]]))
    with pytest.raises(LlcError) as exc:
        component_descriptor(w, 12, 5)
    assert exc.value.code == "q-not-prime-power"
    with pytest.raises(LlcError) as exc:
        component_descriptor(w, 11, 11)
    assert exc.value.code == "ell-equals-p"
    # 11.0 used to end in "invariant factors must be integers, got 120.0"
    for q, ell, code in ((11.0, 5, "q-not-prime-power"), (11, 5.0, "ell-not-prime")):
        with pytest.raises(LlcError) as exc:
            component_descriptor(w, q, ell)
        assert exc.value.code == code
    with pytest.raises(LlcError):
        weyl_twist(rd, IntMatrix([[2, 0], [0, 1]]))


@pytest.mark.parametrize("q", [1, 0, -3, 6, 11.0, True])
def test_frob_fixed_scheme_rejects_q_not_a_prime_power(q):
    # q = 1 would otherwise blame the twist with an internal error
    with pytest.raises(InvalidPrimePower) as exc:
        frob_fixed_scheme(identity_twist(preset("GL", 1)), q)
    assert exc.value.code == "q-not-prime-power"


# ---------------------------------------------------------------------------
# fixed schemes and mu


def test_gl2_fixed_scheme_is_mu_120():
    assert frob_fixed_scheme(_gl_coxeter(2), 11) == FinGenAbGroup.cyclic(120)


def test_gl1_fixed_scheme_is_mu_q_minus_1():
    assert frob_fixed_scheme(_gl_coxeter(1), 11) == FinGenAbGroup.cyclic(10)


def test_gl3_fixed_scheme():
    assert frob_fixed_scheme(_gl_coxeter(3), 3) == FinGenAbGroup.cyclic(26)


def test_untwisted_fixed_scheme_is_product_of_mu_q_minus_1():
    assert frob_fixed_scheme(identity_twist(preset("GL", 2)), 11) == FinGenAbGroup(0, (10, 10))


def test_mu_invariant_values():
    # the mu invariant is the ell-primary part of the fixed scheme
    def mu(n, q, ell):
        return frob_fixed_scheme(_gl_coxeter(n), q).ell_primary(ell)

    assert mu(2, 11, 5) == FinGenAbGroup.cyclic(5)
    assert mu(2, 11, 3) == FinGenAbGroup.cyclic(3)
    assert mu(2, 11, 7) == FinGenAbGroup()
    assert mu(2, 3, 7) == FinGenAbGroup()
    # 3^5 - 1 = 242 = 2 * 11^2
    assert mu(5, 3, 11) == FinGenAbGroup.cyclic(121)


def test_a1_fixed_scheme_is_mu_q_plus_1():
    fixed = frob_fixed_scheme(coxeter_twist(preset("SL", 2)), 11)
    assert fixed == FinGenAbGroup.cyclic(12)
    assert fixed.ell_primary(5) == FinGenAbGroup()
    # with ell = 3 the 3-part of 12 survives
    assert fixed.ell_primary(3) == FinGenAbGroup.cyclic(3)


# ---------------------------------------------------------------------------
# twisted centralizers


def test_gl_coxeter_centralizer_is_one_torus():
    for n in range(2, 6):
        assert twisted_centralizer(_gl_coxeter(n)) == FinGenAbGroup(1, ())


def test_a1_centralizer_is_mu_2():
    assert twisted_centralizer(coxeter_twist(preset("SL", 2))) == FinGenAbGroup.cyclic(2)


def test_identity_twist_centralizer_is_full_torus():
    assert twisted_centralizer(identity_twist(preset("GL", 3))) == FinGenAbGroup(3, ())


# ---------------------------------------------------------------------------
# cocycle spaces


def test_gl2_cocycle_space():
    space = cocycle_space(frob_fixed_scheme(_gl_coxeter(2), 11), 2, 5)
    assert isinstance(space, CocycleSpace)
    assert space.free_torus_rank == 2
    assert space.fixed_scheme == FinGenAbGroup.cyclic(120)
    assert space.component_count == 24
    assert space.component_shape == FinGenAbGroup(2, (5,))


def test_cocycle_space_refuses_a_float_ell():
    # it used to end in "invariant factors must be integers, got 24.0"
    fixed = FinGenAbGroup(0, (120,))
    for call in (
        lambda: cocycle_space(fixed, 2, 5.0),
        lambda: fixed.ell_primary(5.0),
        lambda: fixed.prime_to_ell(5.0),
    ):
        with pytest.raises(InvalidPrime) as exc:
            call()
        assert exc.value.message == "ell = 5.0 is not prime"


def test_cocycle_space_component_count_times_mu_order_is_fixed_order():
    for n, q, ell in ((1, 3, 5), (2, 11, 5), (3, 5, 31), (4, 3, 5)):
        space = cocycle_space(frob_fixed_scheme(_gl_coxeter(n), q), n, ell)
        mu_order = space.component_shape.torsion_order()
        assert space.component_count * mu_order == q**n - 1


def test_pgl2_cocycle_space_counts():
    rd = preset("PGL", 2)
    space = cocycle_space(frob_fixed_scheme(coxeter_twist(rd), 11), rd.rank, 5)
    assert space.fixed_scheme == FinGenAbGroup.cyclic(12)
    assert space.component_count == 12


# ---------------------------------------------------------------------------
# ellipticity


def _elliptic(twist):
    return component_descriptor(twist, 11, 5).elliptic


def test_gl_coxeter_is_elliptic():
    for n in range(1, 6):
        rd = preset("GL", n)
        assert _elliptic(coxeter_twist(rd))


def test_gl_identity_twist_is_not_elliptic_for_n_at_least_2():
    rd = preset("GL", 2)
    assert not _elliptic(identity_twist(rd))
    assert _elliptic(identity_twist(preset("GL", 1)))


def test_a1_coxeter_is_elliptic():
    for family in ("SL", "PGL"):
        rd = preset(family, 2)
        assert _elliptic(coxeter_twist(rd))
        assert not _elliptic(identity_twist(rd))


def test_orbit_rank_and_ellipticity_follow_the_stabilizer():
    # orbit torus rank = dim ker(1 - w) = free rank of the stabilizer, and
    # elliptic exactly when that equals the free rank of the center
    for family in ("GL", "SL", "PGL"):
        for n in range(2, 5):
            rd = preset(family, n)
            center_rank = 1 if family == "GL" else 0
            for twist in (coxeter_twist(rd), identity_twist(rd)):
                d = component_descriptor(twist, 7, 3)
                assert d.orbit_torus_rank == d.stabilizer.free_rank
                assert d.elliptic == (d.orbit_torus_rank == center_rank)
            assert component_descriptor(identity_twist(rd), 7, 3).orbit_torus_rank == rd.rank


# ---------------------------------------------------------------------------
# component descriptors


def test_gl2_component_descriptor_golden():
    rd = preset("GL", 2)
    d = component_descriptor(coxeter_twist(rd), 11, 5)
    assert d.fixed_scheme == FinGenAbGroup.cyclic(120)
    assert d.mu == FinGenAbGroup.cyclic(5)
    assert d.stabilizer == FinGenAbGroup(1, ())
    assert d.orbit_torus_rank == 1
    assert d.elliptic
    assert d.product_form == TORUS_QUOTIENT


def test_pgl2_component_descriptor_desk_case():
    # input PGL_2: dual SL_2, center mu_2; elliptic twist collapses the orbit
    rd = preset("PGL", 2)
    d = component_descriptor(coxeter_twist(rd), 11, 5)
    assert d.fixed_scheme == FinGenAbGroup.cyclic(12)
    assert d.mu == FinGenAbGroup.cyclic(1)
    assert d.stabilizer == FinGenAbGroup.cyclic(2)
    assert d.orbit_torus_rank == 0
    assert d.elliptic
    assert d.product_form == POINT_MOD_STABILIZER


def test_pgl2_component_descriptor_with_mu_part():
    # q = 5, ell = 3: fixed scheme mu_6, mu invariant mu_3
    rd = preset("PGL", 2)
    d = component_descriptor(coxeter_twist(rd), 5, 3)
    assert d.fixed_scheme == FinGenAbGroup.cyclic(6)
    assert d.mu == FinGenAbGroup.cyclic(3)
    assert d.product_form == POINT_MOD_STABILIZER


def test_sl2_component_descriptor_desk_case():
    # input SL_2: dual PGL_2 has trivial center, twist -1 on the lattice
    rd = preset("SL", 2)
    d = component_descriptor(coxeter_twist(rd), 11, 5)
    assert d.fixed_scheme == FinGenAbGroup.cyclic(12)
    assert d.stabilizer == FinGenAbGroup.cyclic(2)
    assert d.orbit_torus_rank == 0
    assert d.elliptic
    assert d.product_form == POINT_MOD_STABILIZER


def test_gl_identity_twist_descriptor():
    rd = preset("GL", 2)
    d = component_descriptor(identity_twist(rd), 11, 5)
    assert d.orbit_torus_rank == 2
    assert d.stabilizer == FinGenAbGroup(2, ())
    assert not d.elliptic
    assert d.product_form == TORUS_QUOTIENT
    assert d.fixed_scheme == FinGenAbGroup(0, (10, 10))


def test_descriptor_json_keys():
    rd = preset("GL", 2)
    j = component_descriptor(coxeter_twist(rd), 11, 5).to_json()
    assert set(j) == {
        "orbitTorusRank",
        "stabilizer",
        "mu",
        "elliptic",
        "productForm",
        "fixedScheme",
    }
    assert j["mu"] == {"freeRank": 0, "torsion": [5]}


# ---------------------------------------------------------------------------
# defensive internal error


def test_finite_cokernel_guard_fires_on_non_frobenius_input():
    # no signed permutation has the eigenvalue q, so forge the record
    # e_i -> q e_i past the constructor's check: w - q id is zero and its
    # cokernel infinite
    forged = WeylTwist._make("gl", ((1, 2),), 11)
    with pytest.raises(LlcError) as exc:
        frob_fixed_scheme(forged, 11)
    assert exc.value.code == "internal-error"
    assert exc.value.exit_code == 1


def test_fixed_scheme_is_always_finite_for_root_permuting_twists():
    # no unimodular finite-order matrix has eigenvalue q >= 2, so the guard
    # never fires through the public path
    for family in ("GL", "SL", "PGL"):
        for n in range(2, 6):
            rd = preset(family, n)
            for q in (3, 11, 13):
                assert frob_fixed_scheme(coxeter_twist(rd), q).is_finite
