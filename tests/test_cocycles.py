"""Twisted-Frobenius tori: fixed schemes, stabilizers, component structure."""

import pytest

from llc_params.abgroups import FinGenAbGroup
from llc_params.cocycles import (
    POINT_MOD_STABILIZER,
    TORUS_QUOTIENT,
    CocycleSpace,
    FrobTorus,
    _finite_cokernel,
    cocycle_space,
    component_descriptor,
    frob_fixed_scheme,
    mu_invariant,
    twisted_centralizer,
)
from llc_params.diag import mu, product, torus
from llc_params.errors import LlcError
from llc_params.lattice import IntMatrix
from llc_params.rootdata import WeylTwist, coxeter_twist, identity_twist, preset


def _gl_frob(n, q, ell):
    rd = preset("GL", n)
    return FrobTorus(rd.rank, coxeter_twist(rd), q, ell)


# ---------------------------------------------------------------------------
# FrobTorus validation


def test_frob_torus_validation():
    w = WeylTwist(IntMatrix([[0, 1], [1, 0]]))
    with pytest.raises(LlcError) as exc:
        FrobTorus(0, WeylTwist(IntMatrix([], cols=0)), 11, 5)
    assert exc.value.code == "invalid-rank"
    with pytest.raises(LlcError) as exc:
        FrobTorus(3, w, 11, 5)
    assert exc.value.code == "dimension-mismatch"
    with pytest.raises(LlcError) as exc:
        FrobTorus(2, w, 12, 5)
    assert exc.value.code == "q-not-prime-power"
    with pytest.raises(LlcError) as exc:
        FrobTorus(2, w, 11, 11)
    assert exc.value.code == "ell-equals-p"
    with pytest.raises(LlcError):
        FrobTorus(2, WeylTwist(IntMatrix([[2, 0], [0, 1]])), 11, 5)


# ---------------------------------------------------------------------------
# fixed schemes and mu


def test_gl2_fixed_scheme_is_mu_120():
    assert frob_fixed_scheme(_gl_frob(2, 11, 5)) == mu(120)


def test_gl1_fixed_scheme_is_mu_q_minus_1():
    assert frob_fixed_scheme(_gl_frob(1, 11, 5)) == mu(10)


def test_gl3_fixed_scheme():
    assert frob_fixed_scheme(_gl_frob(3, 3, 13)) == mu(26)


def test_untwisted_fixed_scheme_is_product_of_mu_q_minus_1():
    ft = FrobTorus(2, WeylTwist(IntMatrix.identity(2)), 11, 5)
    assert frob_fixed_scheme(ft) == product(mu(10), mu(10))


def test_mu_invariant_values():
    assert mu_invariant(_gl_frob(2, 11, 5)) == mu(5)
    assert mu_invariant(_gl_frob(2, 11, 3)) == mu(3)
    assert mu_invariant(_gl_frob(2, 11, 7)) == mu(1)
    assert mu_invariant(_gl_frob(2, 3, 7)).char_group.is_trivial
    # 3^5 - 1 = 242 = 2 * 11^2
    assert mu_invariant(_gl_frob(5, 3, 11)) == mu(121)


def test_a1_fixed_scheme_is_mu_q_plus_1():
    rd = preset("SL", 2)
    ft = FrobTorus(rd.rank, coxeter_twist(rd), 11, 5)
    assert frob_fixed_scheme(ft) == mu(12)
    assert mu_invariant(ft) == mu(1)
    # with ell = 3 the 3-part of 12 survives
    assert mu_invariant(FrobTorus(rd.rank, coxeter_twist(rd), 11, 3)) == mu(3)


# ---------------------------------------------------------------------------
# twisted centralizers


def test_gl_coxeter_centralizer_is_one_torus():
    for n in range(2, 6):
        assert twisted_centralizer(_gl_frob(n, 11, 5)) == torus(1)


def test_a1_centralizer_is_mu_2():
    rd = preset("SL", 2)
    ft = FrobTorus(rd.rank, coxeter_twist(rd), 11, 5)
    assert twisted_centralizer(ft) == mu(2)


def test_identity_twist_centralizer_is_full_torus():
    ft = FrobTorus(3, WeylTwist(IntMatrix.identity(3)), 11, 5)
    assert twisted_centralizer(ft) == torus(3)


# ---------------------------------------------------------------------------
# cocycle spaces


def test_gl2_cocycle_space():
    ft = _gl_frob(2, 11, 5)
    space = cocycle_space(frob_fixed_scheme(ft), ft.rank, ft.ell)
    assert isinstance(space, CocycleSpace)
    assert space.free_torus_rank == 2
    assert space.fixed_scheme == mu(120)
    assert space.component_count == 24
    assert space.component_shape == product(torus(2), mu(5))


def test_cocycle_space_component_count_times_mu_order_is_fixed_order():
    for n, q, ell in ((1, 3, 5), (2, 11, 5), (3, 5, 31), (4, 3, 5)):
        ft = _gl_frob(n, q, ell)
        space = cocycle_space(frob_fixed_scheme(ft), ft.rank, ell)
        mu_order = space.component_shape.char_group.torsion_order()
        assert space.component_count * mu_order == q**n - 1


def test_pgl2_cocycle_space_counts():
    rd = preset("PGL", 2)
    ft = FrobTorus(rd.rank, coxeter_twist(rd), 11, 5)
    space = cocycle_space(frob_fixed_scheme(ft), ft.rank, ft.ell)
    assert space.fixed_scheme == mu(12)
    assert space.component_count == 12


# ---------------------------------------------------------------------------
# ellipticity


def _elliptic(rd, twist):
    return component_descriptor(rd, twist, 11, 5).elliptic


def test_gl_coxeter_is_elliptic():
    for n in range(1, 6):
        rd = preset("GL", n)
        assert _elliptic(rd, coxeter_twist(rd))


def test_gl_identity_twist_is_not_elliptic_for_n_at_least_2():
    rd = preset("GL", 2)
    assert not _elliptic(rd, identity_twist(rd))
    assert _elliptic(preset("GL", 1), identity_twist(preset("GL", 1)))


def test_a1_coxeter_is_elliptic():
    for family in ("SL", "PGL"):
        rd = preset(family, 2)
        assert _elliptic(rd, coxeter_twist(rd))
        assert not _elliptic(rd, identity_twist(rd))


def test_ellipticity_shape_check():
    with pytest.raises(LlcError) as exc:
        component_descriptor(preset("GL", 3), WeylTwist(IntMatrix([[0, 1], [1, 0]])), 11, 5)
    assert exc.value.code == "dimension-mismatch"


def test_orbit_rank_and_ellipticity_follow_the_stabilizer():
    # orbit torus rank = dim ker(1 - w) = free rank of the stabilizer, and
    # elliptic exactly when that equals the free rank of the center
    for family in ("GL", "SL", "PGL"):
        for n in range(2, 5):
            rd = preset(family, n)
            center_rank = 1 if family == "GL" else 0
            for twist in (coxeter_twist(rd), identity_twist(rd)):
                d = component_descriptor(rd, twist, 7, 3)
                assert d.orbit_torus_rank == d.stabilizer.rank
                assert d.elliptic == (d.orbit_torus_rank == center_rank)
            assert component_descriptor(rd, identity_twist(rd), 7, 3).orbit_torus_rank == rd.rank


# ---------------------------------------------------------------------------
# component descriptors


def test_gl2_component_descriptor_golden():
    rd = preset("GL", 2)
    d = component_descriptor(rd, coxeter_twist(rd), 11, 5)
    assert d.fixed_scheme == mu(120)
    assert d.mu == mu(5)
    assert d.stabilizer == torus(1)
    assert d.orbit_torus_rank == 1
    assert d.elliptic
    assert d.product_form == TORUS_QUOTIENT


def test_pgl2_component_descriptor_desk_case():
    # input PGL_2: dual SL_2, center mu_2; elliptic twist collapses the orbit
    rd = preset("PGL", 2)
    d = component_descriptor(rd, coxeter_twist(rd), 11, 5)
    assert d.fixed_scheme == mu(12)
    assert d.mu == mu(1)
    assert d.stabilizer == mu(2)
    assert d.orbit_torus_rank == 0
    assert d.elliptic
    assert d.product_form == POINT_MOD_STABILIZER


def test_pgl2_component_descriptor_with_mu_part():
    # q = 5, ell = 3: fixed scheme mu_6, mu invariant mu_3
    rd = preset("PGL", 2)
    d = component_descriptor(rd, coxeter_twist(rd), 5, 3)
    assert d.fixed_scheme == mu(6)
    assert d.mu == mu(3)
    assert d.product_form == POINT_MOD_STABILIZER


def test_sl2_component_descriptor_desk_case():
    # input SL_2: dual PGL_2 has trivial center, twist -1 on the lattice
    rd = preset("SL", 2)
    d = component_descriptor(rd, coxeter_twist(rd), 11, 5)
    assert d.fixed_scheme == mu(12)
    assert d.stabilizer == mu(2)
    assert d.orbit_torus_rank == 0
    assert d.elliptic
    assert d.product_form == POINT_MOD_STABILIZER


def test_gl_identity_twist_descriptor():
    rd = preset("GL", 2)
    d = component_descriptor(rd, identity_twist(rd), 11, 5)
    assert d.orbit_torus_rank == 2
    assert d.stabilizer == torus(2)
    assert not d.elliptic
    assert d.product_form == TORUS_QUOTIENT
    assert d.fixed_scheme == product(mu(10), mu(10))


def test_component_descriptor_shape_check():
    with pytest.raises(LlcError):
        component_descriptor(preset("GL", 3), WeylTwist(IntMatrix([[0, 1], [1, 0]])), 11, 5)


def test_descriptor_json_keys():
    rd = preset("GL", 2)
    j = component_descriptor(rd, coxeter_twist(rd), 11, 5).to_json()
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
    # eigenvalue 1 with q folded in already: feed a singular difference directly
    with pytest.raises(LlcError) as exc:
        _finite_cokernel(IntMatrix.zeros(2, 2), "test context")
    assert exc.value.code == "internal-error"
    assert exc.value.exit_code == 1


def test_fixed_scheme_is_always_finite_for_root_permuting_twists():
    # no unimodular finite-order matrix has eigenvalue q >= 2, so the guard
    # never fires through the public path
    for family in ("GL", "SL", "PGL"):
        for n in range(2, 6):
            rd = preset(family, n)
            for q, ell in ((3, 5), (11, 5), (13, 7)):
                ft = FrobTorus(rd.rank, coxeter_twist(rd), q, ell)
                assert frob_fixed_scheme(ft).is_finite
