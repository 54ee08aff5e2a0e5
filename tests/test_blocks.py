"""Block-side invariants and the two-sided matcher."""

import pytest

from llc_params.abgroups import FinGenAbGroup
from llc_params.blocks import (
    GRADING_IDENTIFICATIONS,
    GRADING_INDEX,
    BlockDescriptor,
    categorical_summary,
    finite_torus,
    match_sides,
    torus_block_descriptor,
)
from llc_params.cocycles import component_descriptor
from llc_params.errors import InvalidPrimePower, LlcError
from llc_params.lattice import IntMatrix
from llc_params.rootdata import coxeter_twist, identity_twist, preset, weyl_twist

from oracles import gln_block_descriptor


# ---------------------------------------------------------------------------
# finite tori


def test_finite_torus_gl2_coxeter():
    t = finite_torus(coxeter_twist(preset("GL", 2)), 11)
    assert t == FinGenAbGroup.cyclic(120)


def test_finite_torus_gl_n_is_cyclic_of_order_q_n_minus_1():
    for n in range(1, 6):
        for q in (3, 5, 11):
            t = finite_torus(coxeter_twist(preset("GL", n)), q)
            assert t == FinGenAbGroup.cyclic(q**n - 1), (n, q)


def test_finite_torus_untwisted():
    t = finite_torus(identity_twist(preset("GL", 2)), 11)
    assert t == FinGenAbGroup(0, (10, 10))


def test_finite_torus_rank_one_negation():
    t = finite_torus(weyl_twist(preset("GL", 1), IntMatrix([[-1]])), 11)
    assert t == FinGenAbGroup.cyclic(12)


@pytest.mark.parametrize("q", [1, 0, -3, 6])
def test_finite_torus_rejects_q_not_a_prime_power(q):
    # q = 1 used to blame the twist with an internal error; 0, -3 and 6
    # used to return a group
    with pytest.raises(InvalidPrimePower) as exc:
        finite_torus(identity_twist(preset("GL", 1)), q)
    assert exc.value.code == "q-not-prime-power"


def test_ell_block_invariant():
    # the block torsion is the ell-primary part of the finite torus Z/120
    w = coxeter_twist(preset("GL", 2)).transpose()
    torsion = {ell: torus_block_descriptor(w, 11, ell).torsion for ell in (3, 5, 7)}
    assert torsion[3] == FinGenAbGroup.cyclic(3)
    assert torsion[5] == FinGenAbGroup.cyclic(5)
    assert torsion[7] == FinGenAbGroup()


# ---------------------------------------------------------------------------
# block descriptors


def _gl_block(n, q, ell):
    """The GL_n block at the Coxeter torus, through the transposed twist."""
    w = coxeter_twist(preset("GL", n))
    return torus_block_descriptor(w.transpose(), q, ell)


def _without_flags(block):
    j = block.to_json()
    del j["applicabilityFlags"]
    return j


def test_gln_block_descriptor_frozen():
    b = _gl_block(2, 11, 5)
    assert b.torsion == FinGenAbGroup.cyclic(5)
    assert b.free_rank == 1
    assert b.finite_torus_order == 120
    assert b.k == 1
    assert len(b.applicability) == 1
    flag = b.applicability[0]
    assert flag.code == "q-above-coxeter-number"
    assert flag.holds


def test_gln_block_descriptor_trivial_ell_part():
    b = _gl_block(2, 3, 7)
    assert b.torsion == FinGenAbGroup()
    assert b.k == 0
    assert b.finite_torus_order == 8


def test_gln_block_coxeter_flag_can_fail():
    # q = 3 is not above the Coxeter number of GL_5
    b = _gl_block(5, 3, 11)
    assert not b.applicability[0].holds
    # the numbers are still computed
    assert b.finite_torus_order == 242
    assert b.torsion == FinGenAbGroup.cyclic(121)
    # every block flags q against n = len(perm), the Coxeter number of the
    # twist's datum A_{n-1}, whichever lattice the twist acts on
    for family in ("GL", "SL", "PGL"):
        for n in (2, 3, 5):
            for make in (coxeter_twist, identity_twist):
                w = make(preset(family, n))
                for twist in (w, w.transpose()):
                    for q in (3, 5, 7):
                        (flag,) = torus_block_descriptor(twist, q, 11).applicability
                        assert flag.code == "q-above-coxeter-number"
                        assert flag.holds == (q > n), (family, n, twist, q)
                        assert flag.detail == f"q = {q}, Coxeter number = {n}"


def test_gln_block_descriptor_validation():
    w = weyl_twist(preset("GL", 2), IntMatrix([[0, 1], [1, 0]]))
    with pytest.raises(LlcError) as exc:
        torus_block_descriptor(w, 12, 5)
    assert exc.value.code == "q-not-prime-power"


def test_torus_block_descriptor_a1():
    # cocharacter twist -1 for the rank-one elliptic torus: order q + 1
    b = torus_block_descriptor(coxeter_twist(preset("SL", 2)).transpose(), 11, 3)
    assert b.finite_torus_order == 12
    assert b.torsion == FinGenAbGroup.cyclic(3)
    assert b.free_rank == 0
    assert b.applicability[0].holds


def test_torus_block_descriptor_matches_gln_numbers():
    # the twisted-torus route reproduces the closed-form GL_n block
    for n in range(1, 9):
        for q, ell in ((3, 5), (11, 5), (7, 3), (3, 13), (5, 31)):
            assert _without_flags(_gl_block(n, q, ell)) == gln_block_descriptor(n, q, ell)


def test_torus_block_free_rank_counts_fixed_directions():
    # the identity twist fixes every direction; a transposition fixes n - 1
    assert torus_block_descriptor(identity_twist(preset("GL", 3)), 7, 3).free_rank == 3
    swap = weyl_twist(preset("GL", 3), IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert torus_block_descriptor(swap, 7, 3).free_rank == 2


def test_block_json_keys():
    j = _gl_block(2, 11, 5).to_json()
    assert set(j) == {"torsion", "freeRank", "finiteTorusOrder", "k", "applicabilityFlags"}
    assert j["applicabilityFlags"][0]["code"] == "q-above-coxeter-number"


# ---------------------------------------------------------------------------
# matching


def _gl_component(n, q, ell):
    return component_descriptor(coxeter_twist(preset("GL", n)), q, ell)


def test_match_gl2_golden():
    report = match_sides(_gl_component(2, 11, 5), _gl_block(2, 11, 5))
    assert report.isomorphic
    assert report.free_ranks_agree
    assert report.component.mu == FinGenAbGroup.cyclic(5)
    assert report.block.torsion == FinGenAbGroup.cyclic(5)
    assert report.to_json()["grading"]["index"] == GRADING_INDEX == "Z"
    assert not report.context_mismatch


def test_match_q3_ell7_trivial_torsion():
    report = match_sides(_gl_component(2, 3, 7), _gl_block(2, 3, 7))
    assert report.isomorphic
    assert report.free_ranks_agree
    assert report.component.mu == FinGenAbGroup()


def test_match_context_mismatch_when_sides_disagree():
    # a GL_2 component against a GL_3 block: the mu parts at ell = 7 are both
    # trivial (7 divides neither 120 nor 242), so isomorphic is true, yet the
    # ambient finite tori differ and the mismatch is flagged
    report = match_sides(_gl_component(2, 11, 7), _gl_block(3, 3, 7))
    assert report.isomorphic
    assert report.context_mismatch


def test_match_detects_genuine_disagreement():
    # GL_2 at q=11, ell=5 has mu_5; the GL_3 block at q=3, ell=5
    # has 3^3 - 1 = 26 with trivial 5-part
    report = match_sides(_gl_component(2, 11, 5), _gl_block(3, 3, 5))
    assert not report.isomorphic
    assert report.context_mismatch


def test_match_free_rank_disagreement_with_identity_twist():
    comp = component_descriptor(identity_twist(preset("GL", 2)), 11, 5)
    report = match_sides(comp, _gl_block(2, 11, 5))
    # orbit torus rank 2 vs block free rank 1
    assert not report.free_ranks_agree
    assert report.context_mismatch


def test_match_json_shape():
    j = match_sides(_gl_component(2, 11, 5), _gl_block(2, 11, 5)).to_json()
    assert set(j) == {
        "muCharGroup",
        "blockTorsion",
        "isomorphic",
        "freeRanksAgree",
        "grading",
        "applicabilityFlags",
        "contextMismatch",
    }
    assert j["grading"] == {
        "index": "Z",
        "identifications": ["X*(Z(G-hat))", "pi_1(G)_Gamma"],
    }
    assert GRADING_IDENTIFICATIONS == ("X*(Z(G-hat))", "pi_1(G)_Gamma")


def test_match_desk_case_pgl2():
    # both sides computed by this package's own machinery
    w = coxeter_twist(preset("PGL", 2))
    comp = component_descriptor(w, 11, 3)
    block = torus_block_descriptor(w.transpose(), 11, 3)
    report = match_sides(comp, block)
    assert comp.mu == FinGenAbGroup.cyclic(3)
    assert report.isomorphic
    assert report.free_ranks_agree
    assert not report.context_mismatch


def test_match_desk_case_sl2():
    w = coxeter_twist(preset("SL", 2))
    comp = component_descriptor(w, 11, 3)
    block = torus_block_descriptor(w.transpose(), 11, 3)
    report = match_sides(comp, block)
    assert report.isomorphic
    assert report.free_ranks_agree
    assert not report.context_mismatch


# ---------------------------------------------------------------------------
# summary


def test_categorical_summary_golden():
    s = categorical_summary(2, 11, 5)
    cell = s.to_json()["cell"]
    assert s.to_json()["gradingIndex"] == GRADING_INDEX == "Z"
    assert cell["freeRank"] == s.match.block.free_rank == 1
    assert cell["torsion"] == s.match.block.torsion.to_json()
    assert s.match.component.mu == FinGenAbGroup.cyclic(5)
    assert s.match.block.torsion == FinGenAbGroup.cyclic(5)
    assert s.match.isomorphic and s.match.free_ranks_agree


def test_categorical_summary_json():
    j = categorical_summary(2, 11, 5).to_json()
    assert j["gradingIndex"] == "Z"
    assert j["cell"] == {"freeRank": 1, "torsion": {"freeRank": 0, "torsion": [5]}}
    assert j["match"]["isomorphic"] is True
    assert j["n"] == 2 and j["q"] == 11 and j["ell"] == 5
