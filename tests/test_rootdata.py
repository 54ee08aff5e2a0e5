"""Root data presets, centers, Coxeter twists, validation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from llc_params.abgroups import FinGenAbGroup, cokernel
from llc_params.errors import InvalidArgument, LlcError
from llc_params.lattice import IntMatrix
from llc_params.rootdata import (
    RootDatum,
    WeylTwist,
    center_char_group,
    coxeter_twist,
    identity_twist,
    preset,
    weyl_twist,
)

from oracles import root_datum_problems, smith_invariants_by_minors


def validate(rd):
    return root_datum_problems(rd.rank, rd.roots, rd.coroots)


# ---------------------------------------------------------------------------
# presets


def test_gl_preset_structure():
    rd = preset("GL", 3)
    assert rd.rank == 3
    assert rd.name == "GL_3"
    assert len(rd.roots) == 6
    assert rd.roots == rd.coroots
    assert (1, -1, 0) in rd.roots
    assert (-1, 0, 1) in rd.roots


def test_gl1_has_no_roots():
    rd = preset("GL", 1)
    assert rd.rank == 1
    assert rd.roots == ()


def test_sl_preset_is_adjoint_type_a():
    # input SL_n; the datum built is that of the dual group PGL_n
    rd = preset("SL", 3)
    assert rd.rank == 2
    assert rd.name == "PGL_3"
    assert len(rd.roots) == 6
    # adjoint datum: roots are consecutive-ones blocks in the simple basis
    assert (1, 0) in rd.roots
    assert (1, 1) in rd.roots
    # coroots are Cartan column sums
    assert (2, -1) in rd.coroots
    assert (1, 1) in rd.coroots


def test_pgl_preset_is_simply_connected_type_a():
    rd = preset("PGL", 3)
    assert rd.rank == 2
    assert rd.name == "SL_3"
    # mirror of the adjoint datum
    assert (2, -1) in rd.roots
    assert (1, 0) in rd.coroots


def test_sl_and_pgl_presets_are_mirror_duals():
    a, b = preset("SL", 4), preset("PGL", 4)
    assert set(a.roots) == set(b.coroots)
    assert set(a.coroots) == set(b.roots)


def _dense_cartan_column_sum(m, i, j):
    cartan = [[2 if r == c else (-1 if abs(r - c) == 1 else 0) for c in range(m)] for r in range(m)]
    return tuple(sum(cartan[r][c] for c in range(i, j + 1)) for r in range(m))


@pytest.mark.parametrize("family", ["SL", "PGL"])
def test_type_a_presets_match_dense_cartan_column_sums(family):
    for m in range(1, 13):
        blocks = [(i, j) for i in range(m) for j in range(i, m)]
        ones = [tuple(1 if i <= k <= j else 0 for k in range(m)) for i, j in blocks]
        sums = [_dense_cartan_column_sum(m, i, j) for i, j in blocks]
        pos_roots, pos_coroots = (ones, sums) if family == "SL" else (sums, ones)
        rd = preset(family, m + 1)
        assert rd.roots == tuple(pos_roots + [tuple(-x for x in v) for v in pos_roots])
        assert rd.coroots == tuple(pos_coroots + [tuple(-x for x in v) for v in pos_coroots])


def test_preset_validation_errors():
    with pytest.raises(LlcError):
        preset("SO", 3)
    with pytest.raises(LlcError):
        preset("GL", 0)
    with pytest.raises(LlcError):
        preset("SL", 1)
    with pytest.raises(LlcError):
        preset("PGL", 1)


def test_all_presets_satisfy_the_axioms():
    for family in ("GL", "SL", "PGL"):
        for n in range(2, 7):
            assert validate(preset(family, n)) == [], (family, n)
    assert validate(preset("GL", 1)) == []


def test_validate_reports_violations():
    rd = preset("GL", 2)
    corrupted = RootDatum(rd.rank, rd.roots, ((1, 0), (-1, 0)), "bad")
    problems = validate(corrupted)
    assert problems
    assert any("expected 2" in p for p in problems)
    assert validate(RootDatum(2, ((0, 0),), ((1, 1),), "zero"))
    assert validate(RootDatum(2, ((1, -1),), ((1, -1), (0, 1)), "count"))


# ---------------------------------------------------------------------------
# centers


def test_center_of_gl_n_is_a_torus():
    for n in range(1, 6):
        assert center_char_group(preset("GL", n)) == FinGenAbGroup(1, ())


def test_center_of_adjoint_datum_is_trivial():
    # dual of SL_n is adjoint PGL_n whose center is trivial
    for n in range(2, 6):
        assert center_char_group(preset("SL", n)).is_trivial


def test_center_of_simply_connected_datum_is_mu_n():
    # dual of PGL_n is SL_n with center mu_n
    for n in range(2, 6):
        assert center_char_group(preset("PGL", n)) == FinGenAbGroup.cyclic(n)


def _root_matrix(rd):
    return IntMatrix.from_columns([list(a) for a in rd.roots], rows=rd.rank)


def _ranks(family, top):
    return range(1 if family == "GL" else 2, top + 1)


@pytest.mark.parametrize("family,top", [("GL", 4), ("SL", 5), ("PGL", 5)])
def test_center_is_the_quotient_by_all_roots_by_minors(family, top):
    for n in _ranks(family, top):
        rd = preset(family, n)
        invariants = smith_invariants_by_minors(
            [list(r) for r in _root_matrix(rd).data], cols=len(rd.roots)
        )
        nonzero = [d for d in invariants if d]
        expected = FinGenAbGroup(rd.rank - len(nonzero), nonzero)
        assert center_char_group(rd) == expected, (family, n)


@pytest.mark.parametrize("family", ["GL", "SL", "PGL"])
def test_center_is_the_cokernel_of_all_roots(family):
    for n in _ranks(family, 12):
        rd = preset(family, n)
        assert center_char_group(rd) == cokernel(_root_matrix(rd)), (family, n)


def test_center_of_a_hand_built_datum_uses_every_root():
    # the simply connected A_1 datum written out by hand: X* / 2Z
    rd = RootDatum(1, ((2,), (-2,)), ((1,), (-1,)), "custom")
    assert center_char_group(rd) == FinGenAbGroup.cyclic(2)
    rd = RootDatum(2, ((1, -1), (-1, 1)), ((1, -1), (-1, 1)), "custom")
    assert center_char_group(rd) == FinGenAbGroup(1, ())


# ---------------------------------------------------------------------------
# twists


def test_gl_coxeter_twist_is_the_cycle_matrix():
    assert coxeter_twist(preset("GL", 2)).matrix == IntMatrix([[0, 1], [1, 0]])
    assert coxeter_twist(preset("GL", 3)).matrix == IntMatrix(
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    )


def _matrix_order(m, cap=50):
    acc = m
    for k in range(1, cap + 1):
        if acc == IntMatrix.identity(m.rows):
            return k
        acc = acc @ m
    raise AssertionError("order not found within cap")


def test_coxeter_twist_has_order_n():
    for family in ("GL", "SL", "PGL"):
        for n in range(2, 7):
            w = coxeter_twist(preset(family, n)).matrix
            assert _matrix_order(w) == n, (family, n)


def test_coxeter_twist_permutes_the_roots():
    for family in ("GL", "SL", "PGL"):
        for n in range(2, 6):
            rd = preset(family, n)
            w = coxeter_twist(rd).matrix
            # weyl_twist re-runs the permutation check; it must accept
            assert weyl_twist(rd, w).matrix == w


def _simple_reflections(family, n):
    """s_i = 1 - alpha_i alpha_i_vee^T, in order, for the A_{n-1} presets."""
    m = n - 1
    units = [[int(i == k) for i in range(m)] for k in range(m)]
    cartan = [[2 if i == k else -1 if abs(i - k) == 1 else 0 for i in range(m)] for k in range(m)]
    # SL_n gives the adjoint datum (simple roots are unit vectors), PGL_n its mirror
    pairs = zip(units, cartan) if family == "SL" else zip(cartan, units)
    return [
        IntMatrix([[int(i == j) - root[i] * coroot[j] for j in range(m)] for i in range(m)])
        for root, coroot in pairs
    ]


@pytest.mark.parametrize("family", ["SL", "PGL"])
def test_coxeter_twist_is_the_product_of_simple_reflections(family):
    for n in range(2, 13):
        rd = preset(family, n)
        product = IntMatrix.identity(rd.rank)
        for s in _simple_reflections(family, n):
            product = product @ s
        w = coxeter_twist(rd).matrix
        assert w == product, (family, n)
        assert _matrix_order(w) == n, (family, n)
        assert weyl_twist(rd, w).matrix == w


@pytest.mark.parametrize("family", ["GL", "SL", "PGL"])
def test_weyl_twist_rejects_a_transvection(family):
    for rank in range(3, 9):
        rd = preset(family, rank if family == "GL" else rank + 1)
        # I + E_12 is unimodular but sends some root off the root set
        m = IntMatrix([[int(i == j or (i, j) == (0, 1)) for j in range(rank)] for i in range(rank)])
        assert m.is_unimodular()
        with pytest.raises(InvalidArgument, match="does not permute the roots"):
            weyl_twist(rd, m)


def _permutes_the_roots(rd, m):
    roots = set(rd.roots)
    r = rd.rank
    return all(
        tuple(sum(m[i, j] * a[j] for j in range(r)) for i in range(r)) in roots for a in rd.roots
    )


def _preserves_every_coroot(rd, m):
    """w^T (w alpha)^vee = alpha^vee for every (alpha, alpha^vee), by brute force."""
    r = rd.rank
    coroot = dict(zip(rd.roots, rd.coroots))
    for a, a_vee in zip(rd.roots, rd.coroots):
        image_vee = coroot[tuple(sum(m[i, j] * a[j] for j in range(r)) for i in range(r))]
        if tuple(sum(m[i, j] * image_vee[i] for i in range(r)) for j in range(r)) != a_vee:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("GL", 3), ("SL", 4), ("PGL", 4)]),
    st.lists(st.integers(min_value=-1, max_value=1), min_size=9, max_size=9),
)
# fixes every root of GL_3 but moves the coroots
@example(("GL", 3), [0, -1, -1, -1, 0, -1, 0, 0, 1])
def test_weyl_twist_accepts_exactly_the_root_permuting_automorphisms(datum, entries):
    rd = preset(*datum)
    m = IntMatrix([entries[0:3], entries[3:6], entries[6:9]])
    expected = (
        m.is_unimodular() and _permutes_the_roots(rd, m) and _preserves_every_coroot(rd, m)
    )
    try:
        weyl_twist(rd, m)
    except InvalidArgument:
        assert not expected
    else:
        assert expected


def test_rank_one_coxeter_is_negation():
    assert coxeter_twist(preset("SL", 2)).matrix == IntMatrix([[-1]])
    assert coxeter_twist(preset("PGL", 2)).matrix == IntMatrix([[-1]])


def test_gl1_coxeter_is_identity():
    assert coxeter_twist(preset("GL", 1)).matrix == IntMatrix.identity(1)


def test_identity_twist():
    rd = preset("GL", 3)
    assert identity_twist(rd).matrix == IntMatrix.identity(3)
    assert identity_twist(rd).rank == 3


def test_coxeter_twist_requires_preset():
    rd = RootDatum(2, ((1, -1), (-1, 1)), ((1, -1), (-1, 1)), "custom")
    with pytest.raises(LlcError):
        coxeter_twist(rd)


def test_weyl_twist_validation():
    rd = preset("GL", 2)
    with pytest.raises(LlcError):
        weyl_twist(rd, IntMatrix([[1, 0]]))
    with pytest.raises(LlcError):
        weyl_twist(rd, IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(LlcError):
        weyl_twist(rd, IntMatrix([[1, 2], [0, 1]]))
    # the diagonal-swap permutation is fine
    assert weyl_twist(rd, IntMatrix([[0, 1], [1, 0]])).rank == 2
    # unimodular and fixing every root, but moving the coroots: unipotent of
    # infinite order on GL_2 (a hand-built copy has every pair checked), and
    # a map on GL_3
    for datum, rows in (
        (rd, [[6, 5], [-5, -4]]),
        (RootDatum(2, rd.roots, rd.coroots, "custom"), [[6, 5], [-5, -4]]),
        (preset("GL", 3), [[0, -1, -1], [-1, 0, -1], [0, 0, 1]]),
    ):
        assert _permutes_the_roots(datum, IntMatrix(rows))
        with pytest.raises(InvalidArgument, match="does not preserve the coroots"):
            weyl_twist(datum, IntMatrix(rows))


def test_a_twist_takes_its_determinant_once(monkeypatch):
    calls = []
    det = IntMatrix.det

    def counting_det(self):
        calls.append(self.rows)
        return det(self)

    monkeypatch.setattr(IntMatrix, "det", counting_det)
    w = WeylTwist(IntMatrix([[0, 1], [1, 0]]))
    w.check_unimodular()
    w.check_unimodular()
    bad = WeylTwist(IntMatrix([[2, 0], [0, 1]]))
    for _ in range(2):
        with pytest.raises(InvalidArgument, match="not unimodular"):
            bad.check_unimodular()
    assert calls == [2, 2]


def test_weyl_twist_accepts_longest_element():
    rd = preset("GL", 3)
    rev = IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert weyl_twist(rd, rev).matrix == rev


def test_twist_equality_and_hash():
    a = WeylTwist(IntMatrix([[0, 1], [1, 0]]))
    b = WeylTwist(IntMatrix([[0, 1], [1, 0]]))
    assert a == b and hash(a) == hash(b)


def test_to_json_shape():
    j = preset("GL", 2).to_json()
    assert j["name"] == "GL_2"
    assert j["charLatticeRank"] == 2
    assert j["cocharLatticeRank"] == 2
    assert j["pairing"] == "dot"
    assert [1, -1] in j["roots"]
