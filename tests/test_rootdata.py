"""Root data presets, centers, Coxeter twists, validation."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from llc_params.abgroups import FinGenAbGroup, cokernel
from llc_params.errors import InvalidArgument, LlcError
from llc_params.lattice import IntMatrix
from llc_params.rootdata import (
    RootDatum,
    WeylTwist,
    _block_pairs,
    coxeter_twist,
    identity_twist,
    preset,
    weyl_twist,
)

from oracles import (
    center_by_roots,
    gauss_det,
    identity,
    json_roots,
    matmul,
    preset_twist_matrix,
    root_datum_problems,
    smith_invariants_by_minors,
)

NOT_A_TWIST = "twist matrix is no signed permutation of the {} lattice"
NOT_A_TWIST_HINT = "a twist is a Weyl group element times 1 or -1, written in the preset's basis"

# ---------------------------------------------------------------------------
# presets


def test_gl_preset_structure():
    rd = preset("GL", 3)
    roots, coroots = json_roots(rd.to_json())
    assert rd.rank == 3
    assert rd.name == "GL_3"
    assert len(roots) == 6
    assert roots == coroots
    assert (1, -1, 0) in roots
    assert (-1, 0, 1) in roots


def test_gl1_has_no_roots():
    rd = preset("GL", 1)
    assert rd.rank == 1
    assert json_roots(rd.to_json()) == ((), ())


def test_sl_preset_is_adjoint_type_a():
    # input SL_n; the datum built is that of the dual group PGL_n
    rd = preset("SL", 3)
    roots, coroots = json_roots(rd.to_json())
    assert rd.rank == 2
    assert rd.name == "PGL_3"
    assert len(roots) == 6
    # adjoint datum: roots are consecutive-ones blocks in the simple basis
    assert (1, 0) in roots
    assert (1, 1) in roots
    # coroots are Cartan column sums
    assert (2, -1) in coroots
    assert (1, 1) in coroots


def test_pgl_preset_is_simply_connected_type_a():
    rd = preset("PGL", 3)
    roots, coroots = json_roots(rd.to_json())
    assert rd.rank == 2
    assert rd.name == "SL_3"
    # mirror of the adjoint datum
    assert (2, -1) in roots
    assert (1, 0) in coroots


def test_sl_and_pgl_presets_are_mirror_duals():
    (a_roots, a_coroots), (b_roots, b_coroots) = (
        json_roots(preset(family, 4).to_json()) for family in ("SL", "PGL")
    )
    assert set(a_roots) == set(b_coroots)
    assert set(a_coroots) == set(b_roots)


def _dense_cartan_column_sum(m, i, j):
    cartan = [[2 if r == c else (-1 if abs(r - c) == 1 else 0) for c in range(m)] for r in range(m)]
    return tuple(sum(cartan[r][c] for c in range(i, j + 1)) for r in range(m))


@pytest.mark.parametrize("family", ["GL", "SL", "PGL"])
def test_type_a_presets_match_dense_cartan_column_sums(family):
    # the order is pinned too: component JSON prints the roots as listed
    for n in range(1 if family == "GL" else 2, 14):
        if family == "GL":
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            pos_roots = [tuple(int(k == i) - int(k == j) for k in range(n)) for i, j in pairs]
            pos_coroots = pos_roots
        else:
            m = n - 1
            blocks = [(i, j) for i in range(m) for j in range(i, m)]
            ones = [tuple(1 if i <= k <= j else 0 for k in range(m)) for i, j in blocks]
            sums = [_dense_cartan_column_sum(m, i, j) for i, j in blocks]
            pos_roots, pos_coroots = (ones, sums) if family == "SL" else (sums, ones)
        rd = preset(family, n)
        roots = tuple(pos_roots + [tuple(-x for x in v) for v in pos_roots])
        coroots = tuple(pos_coroots + [tuple(-x for x in v) for v in pos_coroots])
        doc = rd.to_json()
        assert doc["roots"] == [list(v) for v in roots]
        assert doc["coroots"] == [list(v) for v in coroots]


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
    for family, n in [("GL", 1)] + [(f, n) for f in ("GL", "SL", "PGL") for n in range(2, 7)]:
        rd = preset(family, n)
        assert root_datum_problems(rd.rank, *json_roots(rd.to_json())) == [], (family, n)


def test_validate_reports_violations():
    rd = preset("GL", 2)
    roots, _ = json_roots(rd.to_json())
    problems = root_datum_problems(rd.rank, roots, ((1, 0), (-1, 0)))
    assert problems
    assert any("expected 2" in p for p in problems)
    assert root_datum_problems(2, ((0, 0),), ((1, 1),))
    assert root_datum_problems(2, ((1, -1),), ((1, -1), (0, 1)))


# ---------------------------------------------------------------------------
# centers


# The library reads the center's free rank off the datum as rank X* - |Delta|
# (component descriptors' ellipticity); the oracle takes the cokernel of
# every root.


def _center(rd):
    return center_by_roots(rd.rank, json_roots(rd.to_json())[0])


def test_center_of_gl_n_is_a_torus():
    for n in range(1, 6):
        assert _center(preset("GL", n)) == (1, ())


def test_center_of_adjoint_datum_is_trivial():
    # dual of SL_n is adjoint PGL_n whose center is trivial
    for n in range(2, 6):
        assert _center(preset("SL", n)) == (0, ())


def test_center_of_simply_connected_datum_is_mu_n():
    # dual of PGL_n is SL_n with center mu_n
    for n in range(2, 6):
        assert _center(preset("PGL", n)) == (0, (n,))


def _root_matrix(rd):
    # the roots as columns
    return IntMatrix(rd.to_json()["roots"], cols=rd.rank).transpose()


def _ranks(family, top):
    return range(1 if family == "GL" else 2, top + 1)


@pytest.mark.parametrize("family,top", [("GL", 4), ("SL", 5), ("PGL", 5)])
def test_center_is_the_quotient_by_all_roots_by_minors(family, top):
    # two oracles, determinantal divisors and the textbook Smith form, agree
    for n in _ranks(family, top):
        rd = preset(family, n)
        root_matrix = _root_matrix(rd)
        invariants = smith_invariants_by_minors(
            [list(r) for r in root_matrix.data], cols=root_matrix.cols
        )
        nonzero = [d for d in invariants if d]
        expected = (rd.rank - len(nonzero), tuple(d for d in nonzero if d > 1))
        assert _center(rd) == expected, (family, n)


@pytest.mark.parametrize("family", ["GL", "SL", "PGL"])
def test_center_is_the_cokernel_of_all_roots(family):
    # the package's cokernel of every root is the oracle's, and its free rank
    # is the rank X* - |Delta| = rank - (n - 1) that ellipticity reads
    for n in _ranks(family, 12):
        rd = preset(family, n)
        free_rank, factors = _center(rd)
        assert cokernel(_root_matrix(rd)) == FinGenAbGroup(free_rank, factors), (family, n)
        assert free_rank == rd.rank - (n - 1), (family, n)


# ---------------------------------------------------------------------------
# twists


def test_gl_coxeter_twist_is_the_cycle_matrix():
    gl2, gl3 = preset("GL", 2), preset("GL", 3)
    assert coxeter_twist(gl2) == weyl_twist(gl2, IntMatrix([[0, 1], [1, 0]]))
    assert coxeter_twist(gl3) == weyl_twist(gl3, IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))


def _matrix_order(m, cap=50):
    acc = m.data
    for k in range(1, cap + 1):
        if acc == tuple(map(tuple, identity(m.rows))):
            return k
        acc = tuple(map(tuple, matmul(acc, m.data)))
    raise AssertionError("order not found within cap")


def _coxeter_matrix(family, n):
    """The n-cycle e_j -> e_{j+1}, written densely in the preset's basis."""
    return IntMatrix(preset_twist_matrix(family, [(j + 1) % n for j in range(n)], 1))


def test_coxeter_twist_has_order_n():
    for family in ("GL", "SL", "PGL"):
        for n in range(2, 7):
            w = _coxeter_matrix(family, n)
            assert weyl_twist(preset(family, n), w) == coxeter_twist(preset(family, n))
            assert _matrix_order(w) == n, (family, n)


def test_coxeter_twist_permutes_the_roots():
    for family in ("GL", "SL", "PGL"):
        for n in range(2, 6):
            rd = preset(family, n)
            w = _coxeter_matrix(family, n)
            assert _permutes_the_roots(rd, w) and _preserves_every_coroot(rd, w)
            assert weyl_twist(rd, w) == coxeter_twist(rd)


def _simple_reflections(family, n):
    """s_i = 1 - alpha_i alpha_i_vee^T, in order, for the A_{n-1} presets."""
    m = n - 1
    units = [[int(i == k) for i in range(m)] for k in range(m)]
    cartan = [[2 if i == k else -1 if abs(i - k) == 1 else 0 for i in range(m)] for k in range(m)]
    # SL_n gives the adjoint datum (simple roots are unit vectors), PGL_n its mirror
    pairs = zip(units, cartan) if family == "SL" else zip(cartan, units)
    return [
        [[int(i == j) - root[i] * coroot[j] for j in range(m)] for i in range(m)]
        for root, coroot in pairs
    ]


@pytest.mark.parametrize("family", ["SL", "PGL"])
def test_coxeter_twist_is_the_product_of_simple_reflections(family):
    for n in range(2, 13):
        rd = preset(family, n)
        product = identity(rd.rank)
        for s in _simple_reflections(family, n):
            product = matmul(product, s)
        w = IntMatrix(product, cols=rd.rank)
        assert w == _coxeter_matrix(family, n), (family, n)
        assert _matrix_order(w) == n, (family, n)
        assert weyl_twist(rd, w) == coxeter_twist(rd)


@pytest.mark.parametrize("family", ["GL", "SL", "PGL"])
def test_simple_roots_are_the_one_root_blocks_as_sparse_rows(family):
    # the simple roots, GL's e_i - e_{i+1}, e_i in the adjoint basis and the
    # i-th Cartan matrix column in the simply connected one, are the roots of
    # the one-root blocks; each has at most three nonzeros, and the n - 1 of
    # them span the root lattice, so |Delta| = n - 1 is what the center's
    # free rank rank X* - |Delta| subtracts
    for n in _ranks(family, 11):
        rd = preset(family, n)
        m = rd.rank
        if family == "GL":
            simple = [tuple(int(k == i) - int(k == i + 1) for k in range(m)) for i in range(n - 1)]
        elif family == "SL":
            simple = [tuple(int(k == i) for k in range(m)) for i in range(m)]
        else:
            simple = [_dense_cartan_column_sum(m, i, i) for i in range(m)]
        blocks = _block_pairs(rd.kind, rd.rank, ((i, i) for i in range(n - 1)))
        assert [root for root, _ in blocks] == simple, (family, n)
        assert all(len([a for a in v if a]) <= 3 for v in simple), (family, n)
        assert center_by_roots(m, simple) == _center(rd), (family, n)


@pytest.mark.parametrize("family", ["GL", "SL", "PGL"])
def test_weyl_twist_rejects_a_transvection(family):
    for rank in range(3, 9):
        rd = preset(family, rank if family == "GL" else rank + 1)
        # I + E_12 is unimodular but sends some root off the root set
        m = IntMatrix([[int(i == j or (i, j) == (0, 1)) for j in range(rank)] for i in range(rank)])
        assert abs(gauss_det([list(r) for r in m.data])) == 1
        assert not _permutes_the_roots(rd, m)
        _assert_refused(rd, m)


def _assert_refused(rd, m):
    """weyl_twist refuses m with its one message, hint, code and exit code."""
    with pytest.raises(InvalidArgument) as exc:
        weyl_twist(rd, m)
    err = exc.value
    assert (err.message, err.hint) == (NOT_A_TWIST.format(rd.name), NOT_A_TWIST_HINT)
    assert (err.code, err.exit_code) == ("invalid-argument", 2)


def _permutes_the_roots(rd, m):
    roots, _ = json_roots(rd.to_json())
    root_set, r, m = set(roots), rd.rank, m.data
    return all(
        tuple(sum(m[i][j] * a[j] for j in range(r)) for i in range(r)) in root_set for a in roots
    )


def _preserves_every_coroot(rd, m):
    """w^T (w alpha)^vee = alpha^vee for every (alpha, alpha^vee), by brute force."""
    r, m = rd.rank, m.data
    roots, coroots = json_roots(rd.to_json())
    coroot = dict(zip(roots, coroots))
    for a, a_vee in zip(roots, coroots):
        image_vee = coroot[tuple(sum(m[i][j] * a[j] for j in range(r)) for i in range(r))]
        if tuple(sum(m[i][j] * image_vee[i] for i in range(r)) for j in range(r)) != a_vee:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("GL", 3), ("SL", 4), ("PGL", 4)]),
    st.lists(st.integers(min_value=-1, max_value=1), min_size=9, max_size=9),
)
# fixes every root of GL_3 but moves the coroots
@example(("GL", 3), [0, -1, -1, -1, 0, -1, 0, 0, 1])
# unimodular, moves a root of each datum
@example(("GL", 3), [1, 1, 0, 0, 1, 0, 0, 0, 1])
@example(("SL", 4), [1, 1, 0, 0, 1, 0, 0, 0, 1])
@example(("PGL", 4), [1, 1, 0, 0, 1, 0, 0, 0, 1])
def test_weyl_twist_accepts_exactly_the_root_permuting_automorphisms(datum, entries):
    rd = preset(*datum)
    rows = [entries[0:3], entries[3:6], entries[6:9]]
    m = IntMatrix(rows)
    expected = (
        abs(gauss_det(rows)) == 1
        and _permutes_the_roots(rd, m)
        and _preserves_every_coroot(rd, m)
    )
    # the brute-force oracle judges acceptance; every refusal is the one message
    if expected:
        assert weyl_twist(rd, m).datum == rd
    else:
        _assert_refused(rd, m)


@pytest.mark.parametrize(
    "datum,accepted",
    [(("GL", 3), 12), (("SL", 4), 48), (("PGL", 4), 48)],
    ids=["GL3", "SL4", "PGL4"],
)
def test_weyl_twist_accepts_exactly_the_signed_permutations_over_small_entries(
    datum, accepted, no_smith_form_or_roots
):
    # every 3x3 matrix with entries in {-1, 0, 1}: |W x {+-1}| is 2 * 3! for
    # GL_3 and 2 * 4! for the rank 3 semisimple data; none takes a Smith
    # form or a root list, and every refusal is the one message
    rd, count = preset(*datum), 0
    refusal = (NOT_A_TWIST.format(rd.name), NOT_A_TWIST_HINT, "invalid-argument", 2)
    for e in itertools.product((-1, 0, 1), repeat=9):
        try:
            weyl_twist(rd, IntMatrix([e[0:3], e[3:6], e[6:9]]))
        except InvalidArgument as err:
            assert (err.message, err.hint, err.code, err.exit_code) == refusal, e
            continue
        count += 1
    assert count == accepted


def test_rank_one_coxeter_is_negation():
    for family in ("SL", "PGL"):
        rd = preset(family, 2)
        assert coxeter_twist(rd) == weyl_twist(rd, IntMatrix([[-1]]))
        assert identity_twist(rd) == weyl_twist(rd, IntMatrix([[1]]))


def test_gl1_coxeter_is_identity():
    rd = preset("GL", 1)
    assert coxeter_twist(rd) == identity_twist(rd) == weyl_twist(rd, IntMatrix([[1]]))


def test_identity_twist():
    rd = preset("GL", 3)
    assert identity_twist(rd) == weyl_twist(rd, IntMatrix(identity(3)))
    assert identity_twist(rd).datum == rd
    assert identity_twist(rd).datum.rank == 3


def test_weyl_twist_validation():
    rd = preset("GL", 2)
    with pytest.raises(LlcError):
        weyl_twist(rd, IntMatrix([[1, 0]]))
    with pytest.raises(LlcError):
        weyl_twist(rd, IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(LlcError):
        weyl_twist(rd, IntMatrix([[1, 2], [0, 1]]))
    # the diagonal-swap permutation is fine
    assert weyl_twist(rd, IntMatrix([[0, 1], [1, 0]])).datum.rank == 2
    # unimodular and fixing every root, but moving the coroots: unipotent of
    # infinite order on GL_2, and a map on GL_3
    for datum, rows in (
        (rd, [[6, 5], [-5, -4]]),
        (preset("GL", 3), [[0, -1, -1], [-1, 0, -1], [0, 0, 1]]),
    ):
        assert _permutes_the_roots(datum, IntMatrix(rows))
        assert not _preserves_every_coroot(datum, IntMatrix(rows))
        _assert_refused(datum, IntMatrix(rows))


def test_a_twist_takes_no_smith_form_and_no_roots(no_smith_form_or_roots):
    """An explicit matrix is read as a signed permutation or refused, with no
    Smith form and no root list; twists built in closed form, and transposes,
    take none either."""
    gl2, swap = preset("GL", 2), IntMatrix([[0, 1], [1, 0]])
    w = weyl_twist(gl2, swap)
    assert w.transpose() == weyl_twist(gl2, swap.transpose())
    for bad in ([[2, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 0], [0, 0]], [[6, 5], [-5, -4]]):
        _assert_refused(gl2, IntMatrix(bad))
    with pytest.raises(InvalidArgument, match="must be 2x2"):
        weyl_twist(gl2, IntMatrix([[1, 0]]))
    for family, n in (("GL", 5), ("SL", 5), ("PGL", 5), ("GL", 1)):
        rd = preset(family, n)
        for twist in (coxeter_twist(rd), identity_twist(rd)):
            assert twist.transpose().transpose() == twist


def test_weyl_twist_accepts_longest_element():
    rd = preset("GL", 3)
    rev = IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert weyl_twist(rd, rev) == WeylTwist("gl", (2, 1, 0), 1)


@pytest.mark.parametrize("family,other", [("GL", "GL"), ("SL", "PGL"), ("PGL", "SL")])
def test_weyl_twist_reads_each_signed_permutation(family, other):
    # e_i -> eps e_perm[i], written in the preset's basis, reads back as
    # itself (at SL_2 and PGL_2, -1 lies in the Weyl group, so (swap, -1) is
    # (id, 1)), and its transpose, in the dual preset's basis, as its transpose
    rng, kind = random.Random(f"read/{family}"), preset(family, 2).kind
    for _ in range(60):
        n, eps = rng.randint(1 if family == "GL" else 2, 7), rng.choice((1, -1))
        perm = tuple(rng.sample(range(n), n))
        rows = preset_twist_matrix(family, perm, eps)
        twist = weyl_twist(preset(family, n), IntMatrix(rows, cols=len(rows)))
        if family == "GL" or n > 2:
            assert twist == WeylTwist(kind, perm, eps), (perm, eps)
        else:
            assert twist in (WeylTwist(kind, perm, eps), WeylTwist(kind, perm[::-1], -eps))
        dual = IntMatrix(rows, cols=len(rows)).transpose()
        assert weyl_twist(preset(other, n), dual) == twist.transpose(), (perm, eps)
        # the twist names its preset, and its transpose the dual kind at the same n
        assert twist.datum == preset(family, n)
        assert twist.transpose().datum == preset(other, n)


@pytest.mark.parametrize("kind, perm, sign", [
    ("gl", (0, 0), 1),  # no permutation: it used to give GL_2 the scheme Z/10 + Z/10
    ("gl", (0, 1), 2),  # sign 2 used to give GL_2 at q = 11 the scheme Z/117
    ("gl", (1, 2), 1),
    ("gl", (), 1),
    ("sc", (0,), 1),
    ("adjoint", (0,), -1),
    ("GL", (0, 1), 1),
    ("dual", (0, 1), 1),
    ("gl", (0, 1.0), 1),
    ("gl", (0, True), 1),
    ("gl", (0, 1), True),
    ("gl", (0, 1), -1.0),
    ("sc", (1, 0), 0),
    ("gl", [1, 0], 1),  # a list perm used to make an unhashable record
])
def test_a_record_that_is_no_signed_permutation_is_refused(kind, perm, sign):
    with pytest.raises(InvalidArgument) as exc:
        WeylTwist(kind, perm, sign)
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("kind, n", [
    ("xx", 3),  # its repr used to raise KeyError
    ("adjoint", 1),  # weyl_twist on it used to end in a bare IndexError
    ("sc", 1),
    ("gl", 0),
    ("gl", 2.0),
    ("gl", True),
])
def test_a_datum_no_preset_has_is_refused(kind, n):
    with pytest.raises(InvalidArgument) as exc:
        RootDatum(kind, n)
    assert exc.value.code == "invalid-argument"


def test_twist_equality_and_hash():
    a = weyl_twist(preset("GL", 2), IntMatrix([[0, 1], [1, 0]]))
    b = WeylTwist("gl", (1, 0), 1)
    assert a == b and hash(a) == hash(b)
    assert a != WeylTwist("sc", (1, 0), 1)


def test_to_json_shape():
    j = preset("GL", 2).to_json()
    assert j["name"] == "GL_2"
    assert j["charLatticeRank"] == 2
    assert j["cocharLatticeRank"] == 2
    assert j["pairing"] == "dot"
    assert [1, -1] in j["roots"]


def test_datum_equality_keys_on_what_it_stores():
    a, b = preset("GL", 3), preset("GL", 3)
    assert a == b and hash(a) == hash(b)
    assert preset("SL", 3) != preset("PGL", 3)
    assert preset("SL", 3) != preset("SL", 4)


def test_a_datum_is_frozen():
    rd = preset("SL", 4)
    held = {rd}
    for field, value in (("n", 0), ("kind", "gl"), ("rank", 9)):
        with pytest.raises(AttributeError):
            setattr(rd, field, value)
        with pytest.raises(AttributeError):
            delattr(rd, field)
    assert (rd.kind, rd.n, repr(rd)) == ("adjoint", 4, "RootDatum('PGL_4', rank=3)")
    assert rd in held and preset("SL", 4) in held
    assert RootDatum(kind="adjoint", n=4) == rd
