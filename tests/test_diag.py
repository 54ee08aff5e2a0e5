"""Diagonalizable groups through their character groups.

D -> X*(D) is an anti-equivalence, so the library holds each diagonalizable
group as a FinGenAbGroup: G_m^r as Z^r and mu_n as Z/n.  These tests pin the
dictionary: products are direct sums, kernels of torus maps are cokernels on
characters, and over Z-bar_ell the identity component keeps the free part and
the ell-primary torsion while pi_0 is the prime-to-ell torsion.
"""

from hypothesis import given, strategies as st

from llc_params.abgroups import FinGenAbGroup, cokernel
from llc_params.cocycles import cocycle_space
from llc_params.lattice import IntMatrix


def kernel(char_map):
    """X*(ker f) for a map of tori f: S -> T, from f*: X*(T) -> X*(S).

    ``char_map`` is rank S x rank T.  Duality makes it the cokernel of f*,
    the contravariance behind the fixed schemes and stabilizers that
    `cocycles` builds as cokernels.
    """
    return cokernel(IntMatrix(char_map))


def identity_component(chars, ell):
    """The identity component as `cocycle_space` builds it over a rank-0 torus."""
    return cocycle_space(chars, 0, ell).component_shape


def test_product_adds_character_groups():
    # G_m^2 x mu_6
    assert FinGenAbGroup(2, ()).direct_sum(FinGenAbGroup.cyclic(6)) == FinGenAbGroup(2, (6,))


def test_kernel_of_multiplication_map():
    # G_m^2 -> G_m, (s, t) |-> st: kernel is the antidiagonal G_m
    assert kernel([[1], [1]]) == FinGenAbGroup(1, ())


def test_kernel_of_power_map():
    # G_m -> G_m, t |-> t^2: kernel mu_2
    assert kernel([[2]]) == FinGenAbGroup.cyclic(2)


def test_kernel_of_isomorphism_is_trivial():
    assert kernel([[0, 1], [1, 0]]).is_trivial


def test_kernel_mixed():
    # (s, t) |-> (s^2 t^-2): kernel has a 1-dimensional torus times mu_2
    assert kernel([[2], [-2]]) == FinGenAbGroup(1, (2,))


@given(st.integers(min_value=1, max_value=50))
def test_kernel_of_power_map_is_mu_n(n):
    assert kernel([[n]]) == FinGenAbGroup.cyclic(n)


def test_identity_component_and_pi0():
    d = FinGenAbGroup.cyclic(120)
    assert identity_component(d, 5) == FinGenAbGroup.cyclic(5)
    assert d.prime_to_ell(5) == FinGenAbGroup.cyclic(24)
    assert identity_component(d, 7).is_trivial
    assert d.prime_to_ell(7) == FinGenAbGroup.cyclic(120)
    # G_m x mu_10
    t = FinGenAbGroup(1, (10,))
    assert identity_component(t, 5) == FinGenAbGroup(1, (5,))
    assert t.prime_to_ell(5) == FinGenAbGroup.cyclic(2)
    assert cocycle_space(t, 0, 5).component_count == 2


def test_identity_component_of_torus_is_itself():
    assert identity_component(FinGenAbGroup(3, ()), 5) == FinGenAbGroup(3, ())
    assert cocycle_space(FinGenAbGroup(3, ()), 0, 5).component_count == 1


@given(
    st.integers(min_value=1, max_value=300),
    st.sampled_from([3, 5, 7, 11]),
)
def test_component_decomposition_reassembles(n, ell):
    d = FinGenAbGroup.cyclic(n)
    space = cocycle_space(d, 0, ell)
    assert space.component_shape.direct_sum(d.prime_to_ell(ell)) == d
    assert space.component_shape.torsion_order() * space.component_count == n
