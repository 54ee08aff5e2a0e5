"""Diagonalizable groups: duality with character groups, kernels, components."""

import pytest
from hypothesis import given, strategies as st

from llc_params.abgroups import FinGenAbGroup, cokernel
from llc_params.diag import (
    DiagGroup,
    component_group,
    identity_component,
    mu,
    product,
    torus,
)
from llc_params.errors import LlcError
from llc_params.lattice import IntMatrix


def kernel(char_map):
    """ker(f) for a map of tori f: S -> T, from f*: X*(T) -> X*(S).

    ``char_map`` is rank S x rank T.  Duality makes the kernel the cokernel
    of f*, the contravariance behind the fixed schemes and stabilizers that
    `cocycles` builds as DiagGroup(cokernel(...)).
    """
    return DiagGroup(cokernel(IntMatrix(char_map)))


def test_torus_and_mu_constructors():
    assert torus(2).char_group == FinGenAbGroup(2, ())
    assert torus(0).char_group.is_trivial
    assert mu(12).char_group == FinGenAbGroup.cyclic(12)
    assert mu(1).char_group.is_trivial


def test_constructor_validation():
    with pytest.raises(LlcError):
        torus(-1)
    with pytest.raises(LlcError):
        mu(0)
    with pytest.raises(LlcError):
        DiagGroup("not a group")


def test_equality_ignores_label():
    assert DiagGroup(FinGenAbGroup.cyclic(6), label="a") == DiagGroup(
        FinGenAbGroup.cyclic(6), label="b"
    )
    assert mu(6) == product(mu(2), mu(3))
    assert mu(4) != product(mu(2), mu(2))


def test_predicates_and_rank():
    assert torus(3).is_torus
    assert not torus(3).is_finite
    assert torus(3).rank == 3
    assert mu(5).is_finite
    assert not mu(5).is_torus
    assert mu(5).rank == 0
    t = product(torus(1), mu(4))
    assert not t.is_torus and not t.is_finite and t.rank == 1


def test_product_adds_character_groups():
    d = product(torus(2), mu(6))
    assert d.char_group == FinGenAbGroup(2, (6,))


def test_kernel_of_multiplication_map():
    # G_m^2 -> G_m, (s, t) |-> st: kernel is the antidiagonal G_m
    assert kernel([[1], [1]]) == torus(1)


def test_kernel_of_power_map():
    # G_m -> G_m, t |-> t^2: kernel mu_2
    assert kernel([[2]]) == mu(2)


def test_kernel_of_isomorphism_is_trivial():
    assert kernel([[0, 1], [1, 0]]).char_group.is_trivial


def test_kernel_mixed():
    # (s, t) |-> (s^2 t^-2): kernel has a 1-dimensional torus times mu_2
    assert kernel([[2], [-2]]) == product(torus(1), mu(2))


@given(st.integers(min_value=1, max_value=50))
def test_kernel_of_power_map_is_mu_n(n):
    assert kernel([[n]]) == mu(n)


def test_identity_component_and_pi0():
    d = mu(120)
    assert identity_component(d, 5) == mu(5)
    assert component_group(d, 5) == FinGenAbGroup.cyclic(24)
    assert identity_component(d, 7) == mu(1)
    assert component_group(d, 7) == FinGenAbGroup.cyclic(120)
    t = product(torus(1), mu(10))
    assert identity_component(t, 5) == product(torus(1), mu(5))
    assert component_group(t, 5) == FinGenAbGroup.cyclic(2)


def test_identity_component_of_torus_is_itself():
    assert identity_component(torus(3), 5) == torus(3)
    assert component_group(torus(3), 5).is_trivial


@given(
    st.integers(min_value=1, max_value=300),
    st.sampled_from([3, 5, 7, 11]),
)
def test_component_decomposition_reassembles(n, ell):
    d = mu(n)
    ic = identity_component(d, ell)
    pi0 = component_group(d, ell)
    assert product(ic, DiagGroup(pi0)) == d
    assert ic.char_group.torsion_order() * pi0.torsion_order() == n
