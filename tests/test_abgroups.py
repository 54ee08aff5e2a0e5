"""Finitely generated abelian groups: normalization, parts, cokernels."""

import pytest
from hypothesis import given, settings, strategies as st

from llc_params.abgroups import FinGenAbGroup
from llc_params.errors import LlcError
from llc_params.lattice import IntMatrix, cokernel

from oracles import coset_group_structure, gauss_det, identity, primary_invariant_factors


# ---------------------------------------------------------------------------
# normal form


def test_normalization_recombines_prime_powers():
    g = FinGenAbGroup(0, (4, 2, 3))
    assert g.invariant_factors == (2, 12)
    assert FinGenAbGroup(0, (6, 4)) == FinGenAbGroup(0, (2, 12))


def test_normalization_drops_ones_and_lifts_zeros():
    assert FinGenAbGroup(0, (1, 1)) == FinGenAbGroup()
    assert FinGenAbGroup(0, (0, 6)) == FinGenAbGroup(1, (6,))
    assert FinGenAbGroup(2, (1,)) == FinGenAbGroup(2, ())


def test_equality_is_isomorphism_not_presentation():
    # Z/2 + Z/3 presented two ways
    assert FinGenAbGroup(0, (2, 3)) == FinGenAbGroup(0, (6,))
    # but Z/2 + Z/2 is not Z/4
    assert FinGenAbGroup(0, (2, 2)) != FinGenAbGroup(0, (4,))


def test_constructor_validation():
    with pytest.raises(LlcError):
        FinGenAbGroup(-1, ())
    with pytest.raises(LlcError):
        FinGenAbGroup(0, (-2,))
    with pytest.raises(LlcError):
        FinGenAbGroup(0, (2.5,))
    with pytest.raises(LlcError):
        FinGenAbGroup(True, ())


def test_classmethods():
    assert FinGenAbGroup() == FinGenAbGroup(0, ())
    assert FinGenAbGroup.cyclic(12).invariant_factors == (12,)
    assert FinGenAbGroup.cyclic(0) == FinGenAbGroup(1, ())
    assert FinGenAbGroup.cyclic(1) == FinGenAbGroup()


def test_chain_divisibility_always_holds():
    g = FinGenAbGroup(0, (8, 12, 18, 5))
    chain = g.invariant_factors
    assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))
    assert g.torsion_order() == 8 * 12 * 18 * 5


@given(st.lists(st.integers(min_value=0, max_value=400), max_size=6))
def test_normal_form_preserves_order_and_chain(factors):
    g = FinGenAbGroup(0, factors)
    chain = g.invariant_factors
    assert all(d >= 2 for d in chain)
    assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))
    expected_order = 1
    for d in factors:
        if d != 0:
            expected_order *= d
    assert g.torsion_order() == expected_order
    assert g.free_rank == sum(1 for d in factors if d == 0)


@given(st.lists(st.integers(min_value=0, max_value=5000), max_size=8))
def test_normal_form_matches_primary_decomposition(factors):
    free, chain = primary_invariant_factors(factors)
    assert FinGenAbGroup(0, factors) == FinGenAbGroup(free, chain)
    assert FinGenAbGroup(0, factors).invariant_factors == tuple(chain)


def test_normal_form_passes_a_chain_through_without_factoring():
    # 11^17 - 1 = 2 * 5 * 50544702849929377: trial division would run to 2.2e8
    d = 11**17 - 1
    assert FinGenAbGroup(0, (d, 3 * d)).invariant_factors == (d, 3 * d)
    assert FinGenAbGroup(0, (5 * d, 2 * 5)).invariant_factors == (10, 5 * d)


@given(
    st.lists(st.integers(min_value=2, max_value=100), max_size=5),
    st.lists(st.integers(min_value=2, max_value=100), max_size=5),
)
def test_normal_form_is_order_of_presentation_independent(xs, ys):
    assert FinGenAbGroup(0, xs + ys) == FinGenAbGroup(0, ys + xs)


# ---------------------------------------------------------------------------
# order, parts, sums


def test_order_and_finiteness():
    assert FinGenAbGroup(0, (2, 12)).order() == 24
    assert FinGenAbGroup(1, (5,)).order() is None
    assert FinGenAbGroup().order() == 1
    assert FinGenAbGroup(2, ()).order() is None
    assert FinGenAbGroup(1, (5,)).torsion_order() == 5


def test_ell_primary_and_prime_to_ell():
    g = FinGenAbGroup(0, (120,))
    assert g.ell_primary(5) == FinGenAbGroup.cyclic(5)
    assert g.ell_primary(2) == FinGenAbGroup.cyclic(8)
    assert g.ell_primary(7) == FinGenAbGroup()
    assert g.prime_to_ell(5) == FinGenAbGroup.cyclic(24)
    assert g.prime_to_ell(7) == FinGenAbGroup.cyclic(120)
    # the free part never survives into either torsion part
    assert FinGenAbGroup(3, (10,)).ell_primary(5) == FinGenAbGroup.cyclic(5)
    assert FinGenAbGroup(3, (10,)).prime_to_ell(5) == FinGenAbGroup.cyclic(2)


def test_ell_primary_requires_prime():
    with pytest.raises(LlcError):
        FinGenAbGroup.cyclic(12).ell_primary(6)
    with pytest.raises(LlcError):
        FinGenAbGroup.cyclic(12).prime_to_ell(1)


def test_ell_parts_refuse_a_huge_prime_as_ell():
    # the refusal names the argument, as check_admissible does
    from llc_params.arith import PRIME_BOUND

    for part in (FinGenAbGroup.ell_primary, FinGenAbGroup.prime_to_ell):
        with pytest.raises(LlcError) as exc:
            part(FinGenAbGroup.cyclic(12), PRIME_BOUND + 6)
        assert exc.value.code == "ell-too-large"
        assert str(exc.value).startswith(f"ell = {PRIME_BOUND + 6} is too large")


@given(st.lists(st.integers(min_value=2, max_value=200), max_size=5))
def test_parts_reassemble(factors):
    g = FinGenAbGroup(0, factors)
    for ell in (2, 3, 5, 7):
        left = g.ell_primary(ell)
        right = g.prime_to_ell(ell)
        assert left.direct_sum(right) == g
        assert left.torsion_order() * right.torsion_order() == g.torsion_order()


def test_direct_sum():
    a = FinGenAbGroup(1, (2,))
    b = FinGenAbGroup(0, (3,))
    assert a.direct_sum(b) == FinGenAbGroup(1, (6,))
    assert a.direct_sum(FinGenAbGroup()) == a


def test_describe():
    assert FinGenAbGroup().describe() == "0"
    assert FinGenAbGroup(1, ()).describe() == "Z"
    assert FinGenAbGroup(2, (2, 12)).describe() == "Z^2 + Z/2 + Z/12"


def test_to_json():
    assert FinGenAbGroup(1, (5,)).to_json() == {"freeRank": 1, "torsion": [5]}
    assert FinGenAbGroup().to_json() == {"freeRank": 0, "torsion": []}


def test_hashable():
    assert len({FinGenAbGroup(0, (2, 3)), FinGenAbGroup(0, (6,))}) == 1


# ---------------------------------------------------------------------------
# cokernels


def test_cokernel_frozen_values():
    assert cokernel(IntMatrix([[1, -1], [-1, 1]])) == FinGenAbGroup(1, ())
    assert cokernel(IntMatrix([[-11, 1], [1, -11]])) == FinGenAbGroup.cyclic(120)
    assert cokernel(IntMatrix([[2, 0], [0, 4]])) == FinGenAbGroup(0, (2, 4))
    assert cokernel(IntMatrix(identity(3))) == FinGenAbGroup()
    assert cokernel(IntMatrix([[0, 0], [0, 0]])) == FinGenAbGroup(2, ())


def test_cokernel_of_wide_and_tall():
    # wide surjective: trivial cokernel
    assert cokernel(IntMatrix([[1, 0, 7], [0, 1, -2]])) == FinGenAbGroup()
    # tall: free rank at least rows - cols
    assert cokernel(IntMatrix([[1], [0], [0]])) == FinGenAbGroup(2, ())
    # no columns at all: full free rank
    assert cokernel(IntMatrix([[], [], []])) == FinGenAbGroup(3, ())


_entry = st.integers(min_value=-15, max_value=15)


@st.composite
def square_matrices(draw, max_dim=4):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    return IntMatrix([[draw(_entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_cokernel_order_is_abs_det(m):
    g = cokernel(m)
    det = gauss_det([list(r) for r in m.data])
    if det == 0:
        assert g.free_rank > 0
        assert g.order() is None
    else:
        assert g.order() == abs(det)


@settings(max_examples=80, deadline=None)
@given(square_matrices(max_dim=3))
def test_cokernel_transpose_law(m):
    assert cokernel(m) == cokernel(m.transpose())


@settings(max_examples=60, deadline=None)
@given(square_matrices(max_dim=3))
def test_cokernel_matches_coset_enumeration_oracle(m):
    det = gauss_det([list(r) for r in m.data])
    if det == 0 or abs(det) > 1500:
        return
    assert list(cokernel(m).invariant_factors) == coset_group_structure(
        [list(r) for r in m.data]
    )
