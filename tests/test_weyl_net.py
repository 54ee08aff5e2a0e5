"""The match law over whole Weyl groups at small rank.

For every twist w in the Weyl group, the component side (coker(w - q) on
characters) and the block side (coker(q w^T - 1) on cocharacters) must give
isomorphic ell-parts, equal free ranks and the same ambient finite torus.
GL_n runs over all permutation matrices; SL_n and PGL_n over the closure of
the root reflections s_alpha(x) = x - <x, alpha_vee> alpha.  Over the same
twists, ellipticity is checked against the oracle's free ranks of
coker(1 - w) and of the center.
"""

import json
from itertools import permutations

import pytest

from llc_params import cli
from llc_params.blocks import match_sides, torus_block_descriptor
from llc_params.cocycles import POINT_MOD_STABILIZER, component_descriptor
from llc_params.lattice import IntMatrix
from llc_params.rootdata import preset, weyl_twist

from oracles import (
    center_by_roots,
    gauss_det,
    identity,
    json_roots,
    matmul,
    shifted,
    textbook_cokernel,
)


def printed(rd):
    """The datum's JSON as a component report prints it: its roots as lists."""
    return json.loads(cli._dumps(rd.to_json()))


Q_ELL = ((7, 3), (11, 5))
_DUAL = {"GL": "GL", "SL": "PGL", "PGL": "SL"}


def _permutation_matrices(n):
    for p in permutations(range(n)):
        yield IntMatrix([[int(p[j] == i) for j in range(n)] for i in range(n)], cols=n)


def _weyl_group(rd):
    r = rd.rank
    gens = [
        [[int(i == j) - a[i] * c[j] for j in range(r)] for i in range(r)]
        for a, c in zip(*json_roots(printed(rd)))
    ]
    seen = frontier = {tuple(map(tuple, identity(r)))}
    while frontier:
        frontier = {tuple(map(tuple, matmul(x, g))) for x in frontier for g in gens} - seen
        seen = seen | frontier
    return [IntMatrix(m, cols=r) for m in sorted(seen)]


def _cases():
    for n in range(1, 5):
        for w in _permutation_matrices(n):
            yield "GL", n, w
    for family in ("SL", "PGL"):
        for n in range(2, 5):
            for w in _weyl_group(preset(family, n)):
                yield family, n, w


def test_weyl_group_sizes():
    # |W(A_{n-1})| = n!
    assert [len(_weyl_group(preset("SL", n))) for n in (2, 3, 4)] == [2, 6, 24]
    assert [len(_weyl_group(preset("PGL", n))) for n in (2, 3, 4)] == [2, 6, 24]


@pytest.mark.parametrize("q,ell", Q_ELL)
def test_match_law_over_whole_weyl_groups(q, ell):
    cases = points = 0
    for family, n, w in _cases():
        rd = preset(family, n)
        twist, case = weyl_twist(rd, w), (family, n, w)
        comp = component_descriptor(twist, q, ell)
        # the cocharacter twist is w^T, read in the dual preset's basis
        cotwist = twist.transpose()
        assert cotwist == weyl_twist(preset(_DUAL[family], n), w.transpose()), case
        block = torus_block_descriptor(cotwist, q, ell)
        report = match_sides(comp, block)
        assert report.isomorphic, case
        assert report.free_ranks_agree, case
        assert not report.context_mismatch, case
        # anchor the shared finite torus to an independent determinant
        shifted = [[x - (q if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(w.data)]
        assert block.finite_torus_order == abs(gauss_det(shifted)), case
        # the component notation writes a point-form orbit as the rank-0 torus "*"
        if comp.product_form == POINT_MOD_STABILIZER:
            assert comp.orbit_torus_rank == 0, case
            points += 1
        cases += 1
    assert cases == 33 + 2 * (2 + 6 + 24)
    assert points > 0


def test_ellipticity_is_the_centers_free_rank_over_whole_weyl_groups():
    # elliptic: dim ker(1 - w), the free rank of coker(1 - w), equals the
    # free rank of the center X* / ZPhi, both from the textbook Smith form
    elliptic = 0
    for family, n, w in _cases():
        rd, case = preset(family, n), (family, n, w)
        comp = component_descriptor(weyl_twist(rd, w), 7, 3)
        orbit_rank, _ = textbook_cokernel(shifted(w.data, -1, 1), rd.rank)
        center_rank, _ = center_by_roots(rd.rank, json_roots(printed(rd))[0])
        assert comp.orbit_torus_rank == orbit_rank, case
        assert comp.elliptic == (orbit_rank == center_rank), case
        point = comp.product_form == POINT_MOD_STABILIZER
        assert point == (comp.elliptic and center_rank == 0), case
        elliptic += comp.elliptic
    # the elliptic elements of S_n are its (n - 1)! n-cycles: 1 + 1 + 2 + 6
    # for GL_1..GL_4, and 1 + 2 + 6 for each of SL and PGL at n = 2..4
    assert elliptic == 10 + 2 * 9
