"""Exact integer matrices and their Smith invariants."""

import itertools
import json
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from llc_params import cli
from llc_params.abgroups import FinGenAbGroup, cokernel
from llc_params.errors import InvalidArgument, LlcError
from llc_params.lattice import IntMatrix, diagonal_invariants, smith_normal_form
from llc_params.rootdata import preset, weyl_twist

from oracles import (
    center_by_roots,
    determinantal_divisors,
    gauss_det,
    identity,
    json_roots,
    pairwise_diagonal_invariants,
    preset_twist_matrix,
    shifted,
    smith_invariants_by_minors,
)


def printed(rd):
    """The datum's JSON as a component report prints it: its roots as lists."""
    return json.loads(cli._dumps(rd.to_json()))


# ---------------------------------------------------------------------------
# strategies

_dims = st.integers(min_value=0, max_value=5)
_entry = st.integers(min_value=-30, max_value=30)


@st.composite
def matrices(draw, min_dim=0, max_dim=5, square=False):
    r = draw(st.integers(min_value=min_dim, max_value=max_dim))
    c = r if square else draw(st.integers(min_value=min_dim, max_value=max_dim))
    data = [[draw(_entry) for _ in range(c)] for _ in range(r)]
    return IntMatrix(data, cols=c)


# ---------------------------------------------------------------------------
# IntMatrix basics


def test_constructor_and_accessors():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.data[1] == (4, 5, 6)
    assert m.data == ((1, 2, 3), (4, 5, 6))


def test_constructor_rejects_ragged_rows():
    with pytest.raises(LlcError):
        IntMatrix([[1, 2], [3]])


def test_constructor_rejects_non_integers():
    with pytest.raises(LlcError):
        IntMatrix([[1.5]])
    with pytest.raises(LlcError):
        IntMatrix([[True]])


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "3", None],
                         ids=["true", "false", "float-1.0", "float-2.5", "str", "none"])
def test_a_non_integer_entry_is_refused_by_name(bad):
    # alone, among ints, in a later row, and ahead of a ragged-row error
    for rows in ([[bad]], [[1, bad], [3, 4]], [[1, 2, 3], [4, 5, bad]], [[1, 2], [bad]]):
        with pytest.raises(InvalidArgument) as err:
            IntMatrix(rows)
        assert err.value.message == f"matrix entries must be plain integers, got {bad!r}"


def test_the_first_bad_entry_in_row_major_order_is_named():
    with pytest.raises(InvalidArgument, match=r"got 2\.5$"):
        IntMatrix([[1, 2.5], [None, True]])
    with pytest.raises(InvalidArgument, match=r"got None$"):
        IntMatrix(((0, 1), (None, 2.5)))


def test_an_int_subclass_entry_is_accepted_and_equals_its_int():
    class Small(IntEnum):
        TWO = 2

    m = IntMatrix([[Small.TWO, 1], [0, 1]])
    assert m == IntMatrix([[2, 1], [0, 1]])
    assert m.data[0][0] is Small.TWO
    assert IntMatrix([[Small.TWO]], cols=1).cols == 1


def test_empty_shapes():
    z = IntMatrix([], cols=3)
    assert (z.rows, z.cols) == (0, 3)
    assert IntMatrix([[], []]).cols == 0
    assert cokernel(IntMatrix([], cols=0)) == FinGenAbGroup()


def test_a_matrix_is_held_as_its_nonzeros():
    m = IntMatrix([[0, 3, 0, -1], [0, 0, 0, 0], [5, 0, 0, 0]])
    assert m.nonzeros == (((1, 3), (3, -1)), (), ((0, 5),))
    assert m.data == ((0, 3, 0, -1), (0, 0, 0, 0), (5, 0, 0, 0))
    assert IntMatrix(identity(3)).nonzeros == (((0, 1),), ((1, 1),), ((2, 1),))
    assert m.transpose().nonzeros == (((2, 5),), ((0, 3),), (), ((0, -1),))


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3)])
def test_repr_round_trips_every_shape(rows, cols):
    m = IntMatrix([[i - j for j in range(cols)] for i in range(rows)], cols=cols)
    back = eval(repr(m), {"IntMatrix": IntMatrix})
    assert (back, back.rows, back.cols) == (m, rows, cols)


def test_transpose():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert m.transpose() == IntMatrix([[1, 4], [2, 5], [3, 6]])


def test_immutability_and_hash():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[1, 2], [3, 4]])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def _signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield [[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)]


def _random_signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return [[rng.choice((1, -1)) * (perm[i] == j) for j in range(n)] for i in range(n)]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _unimodularity_net():
    """Square matrices of size 0 to 8: twists, other units, singular matrices
    and other determinants.

    Signed permutations (all of them up to size 3, seeded ones to size 8,
    with mixed signs and with one sign),
    seeded signed permutations times transvections (unimodular, not
    permutations), seeded small random matrices, singular ones made by
    repeating or scaling a row or by a zero row, and products with a
    singular factor.
    """
    rng = random.Random(20251101)
    cases = [rows for n in range(4) for rows in _signed_permutations(n)]
    cases += [_random_signed_permutation(rng, rng.randint(4, 8)) for _ in range(40)]
    for _ in range(40):
        n, sign = rng.randint(4, 8), rng.choice((1, -1))
        perm = rng.sample(range(n), n)
        cases.append([[sign * (perm[i] == j) for j in range(n)] for i in range(n)])
    for _ in range(40):
        n = rng.randint(2, 6)
        t = [[int(i == j) for j in range(n)] for i in range(n)]
        i, j = rng.sample(range(n), 2)
        t[i][j] = rng.randint(-5, 5)
        cases.append(_product(_random_signed_permutation(rng, n), t))
    for k in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1 and k % 3 == 0:
            i, j = rng.sample(range(n), 2)
            rows[i] = [rng.choice((0, 1, -2)) * x for x in rows[j]]
        cases.append(rows)
    for _ in range(30):
        n = rng.randint(2, 4)
        singular = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)] + [[0] * n]
        cases.append(_product(_random_signed_permutation(rng, n), singular))
    cases += [[[0, 1], [1, 0]], [[2, 0], [0, 1]], [[1, 2], [2, 4]]]
    cases.append([[int(i == j) for j in range(4)] for i in range(4)])
    return cases


def test_a_twist_is_accepted_only_with_a_unit_determinant(no_smith_form_or_roots):
    # weyl_twist reads a signed permutation, or refuses the matrix with one
    # message, without a Smith form or a root list
    outcomes = {"accepted": 0, "unimodular, refused": 0, "singular": 0, "other": 0}
    for rows in _unimodularity_net():
        if not rows:  # no datum has rank 0
            continue
        n = len(rows)
        m, rd, det = IntMatrix(rows, cols=n), preset("GL", n), gauss_det(rows)
        try:
            twist = weyl_twist(rd, m)
        except InvalidArgument as err:
            assert (err.message, err.hint, err.code, err.exit_code) == (
                f"twist matrix is no signed permutation of the GL_{n} lattice",
                "a twist is a Weyl group element times 1 or -1, written in the preset's basis",
                "invalid-argument",
                2,
            ), rows
            if abs(det) == 1:
                outcomes["unimodular, refused"] += 1
            else:
                outcomes["singular" if det == 0 else "other"] += 1
        else:
            assert abs(det) == 1, rows
            assert weyl_twist(rd, m.transpose()) == twist.transpose()
            outcomes["accepted"] += 1
    # the net takes every route: twists, other units, singular matrices and
    # other determinants
    assert min(outcomes.values()) >= 50, outcomes


def test_a_twist_must_be_square():
    for m in (IntMatrix([[1, 2]]), IntMatrix([[1], [0]]), IntMatrix([], cols=2)):
        with pytest.raises(InvalidArgument, match=r"^twist must be 2x2 for GL_2, got "):
            weyl_twist(preset("GL", 2), m)


# ---------------------------------------------------------------------------
# Smith invariants


def _is_descendingly_divisible(diag):
    pos = [d for d in diag if d != 0]
    return all(pos[i + 1] % pos[i] == 0 for i in range(len(pos) - 1))


def assert_snf_contract(a):
    """The invariants have the Smith shape and equal the minors-gcd oracle."""
    inv = smith_normal_form(a)
    assert isinstance(inv, tuple)
    assert len(inv) == min(a.rows, a.cols)
    assert all(x >= 0 for x in inv)
    # nonzero entries first, each dividing the next
    nz = [x for x in inv if x != 0]
    assert inv[: len(nz)] == tuple(nz)
    assert _is_descendingly_divisible(inv)
    assert inv == smith_invariants_by_minors([list(r) for r in a.data], a.cols)
    return inv


def _nonzero(inv):
    return sum(1 for x in inv if x != 0)


def test_snf_frozen_2x2():
    assert assert_snf_contract(IntMatrix([[2, 4], [6, 8]])) == (2, 4)


def test_snf_frozen_coxeter_style():
    # matrix of 1 - w for the rank-2 cyclic twist at q = 11: columns span
    # index-120 sublattice
    assert assert_snf_contract(IntMatrix([[-11, 1], [1, -11]])) == (1, 120)


def test_snf_zero_and_empty():
    assert assert_snf_contract(IntMatrix([[0, 0, 0], [0, 0, 0]])) == (0, 0)
    assert smith_normal_form(IntMatrix([], cols=2)) == ()
    assert smith_normal_form(IntMatrix([[], [], []])) == ()


def test_snf_identity():
    assert assert_snf_contract(IntMatrix(identity(3))) == (1, 1, 1)


def test_snf_rectangular():
    assert assert_snf_contract(IntMatrix([[2, 4, 6], [4, 8, 12]])) == (2, 0)


def test_snf_needs_divisibility_fixup():
    # diag(2, 3) is already diagonal but violates the chain; SNF must fix it
    assert assert_snf_contract(IntMatrix([[2, 0], [0, 3]])) == (1, 6)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_snf_contract_random(m):
    assert_snf_contract(m)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True, min_dim=1))
def test_snf_diag_product_is_abs_det(m):
    prod = 1
    for x in smith_normal_form(m):
        prod *= x
    assert prod == abs(gauss_det([list(r) for r in m.data]))


def test_snf_seeded_batch_against_det_oracle():
    rng = random.Random(424242)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = IntMatrix([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
        inv = assert_snf_contract(a)
        prod = 1
        for x in inv:
            prod *= x
        assert prod == abs(gauss_det([list(r) for r in a.data]))


# ---------------------------------------------------------------------------
# the sparse elimination: a derandomized net against the minors oracle


@st.composite
def sparse_or_dense(draw):
    """Up to 6x6, empty and zero shapes included, with a drawn density."""
    r = draw(st.integers(min_value=0, max_value=6))
    c = draw(st.integers(min_value=0, max_value=6))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    cells = st.integers(min_value=-12, max_value=12)
    data = [
        [draw(cells) if draw(st.floats(0, 1)) < density else 0 for _ in range(c)]
        for _ in range(r)
    ]
    return IntMatrix(data, cols=c)


@st.composite
def signed_permutations(draw, min_dim=1, max_dim=6):
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return IntMatrix([[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)], cols=n)


_small = st.integers(min_value=-4, max_value=4)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(sparse_or_dense())
def test_sparse_snf_matches_minors_oracle(m):
    assert_snf_contract(m)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(signed_permutations(), _small, _small)
def test_sparse_snf_of_shifted_signed_permutations(w, s, t):
    assert_snf_contract(_shifted(w, s, t))


def test_diagonal_invariants_is_the_snf_of_a_diagonal():
    assert diagonal_invariants([2, 3]) == (1, 6)
    assert diagonal_invariants([0, 4, 1, 6]) == (1, 2, 12, 0)
    assert diagonal_invariants([]) == ()
    for diag in ([12, 18, 8], [5, 0, 10, 1], [9, 6, 4, 2]):
        m = IntMatrix([[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)])
        assert diagonal_invariants(diag) == smith_invariants_by_minors([list(r) for r in m.data])


def _diagonal_draws():
    """Seeded chains with repeats, ones and zeros, from a few small values."""
    rng = random.Random(20261019)
    draws = []
    for _ in range(400):
        values = [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 27, 30, 36, 60]
        pool = rng.sample(values, rng.randint(1, 5))
        draws.append([rng.choice(pool) for _ in range(rng.randint(0, 14))])
    return draws + [[6] * 40 + [4] * 25 + [9] * 10, [0, 1] * 5 + [2] * 30, [12] * 7 + [18, 8]]


def test_diagonal_invariants_match_the_pairwise_pass():
    # equal entries pass as one group; the pairwise pass is the oracle
    for diag in _diagonal_draws():
        assert diagonal_invariants(diag) == pairwise_diagonal_invariants(diag), diag


# ---------------------------------------------------------------------------
# the pivot search: remainder steps, signs, ties, empty lines and shapes


def test_the_pivot_moves_to_another_row_then_along_it():
    # the pivot -4 leaves the remainder -2 in row 1, which becomes the pivot;
    # reducing row 1 modulo -2 leaves 5 % -2 = -1 in column 0, so the pivot
    # moves along row 1 to a negative entry
    assert assert_snf_contract(IntMatrix([[0, -4], [5, -6]])) == (1, 20)
    assert assert_snf_contract(IntMatrix([[0, 4], [-5, 6]])) == (1, 20)


def test_a_key_whose_cost_grew_is_pushed_back():
    # the pivot 1 at (0, 0) clears rows 1 and 3, and both gain an entry in
    # column 2; the 2 at (2, 2) is then the least entry, keyed by the
    # Markowitz cost of its filled-in column.  It does not divide the -15
    # that row 1 gained, so a remainder moves the pivot.  The three filler
    # rows are lone entries that the scan passes over until their turn
    core = [[1, 0, 5, 0, 0], [3, 7, 0, 0, 0], [0, 0, 2, 9, 0], [4, 0, 0, 0, 11]]
    filler = [11, 13, 17]
    rows = [row + [0] * len(filler) for row in core]
    rows += [[0] * 5 + [f * (k == j) for k in range(len(filler))] for j, f in enumerate(filler)]
    expected = pairwise_diagonal_invariants(smith_invariants_by_minors(core) + tuple(filler))
    assert smith_normal_form(IntMatrix(rows)) == expected == (1,) * 6 + (2431,)


# no units: pivots seldom divide their line, so remainders move them; equal
# magnitudes of both signs make ties
_REMAINDER_HEAVY = (0, 0, 0, 2, -2, 3, -3, 4, 5, -5, 6, 7, -7)


def _block(rng):
    r, c = rng.randint(0, 4), rng.randint(0, 4)
    rows = [[rng.choice(_REMAINDER_HEAVY) for _ in range(c)] for _ in range(r)]
    if r and rng.random() < 0.3:
        rows[rng.randrange(r)] = [0] * c  # an empty row
    if c and rng.random() < 0.3:
        j = rng.randrange(c)
        for row in rows:
            row[j] = 0  # an empty column
    return rows, c


def _scrambled_block_diagonal(rng):
    """A block diagonal of small blocks, rows and columns shuffled, with its invariants.

    The Smith invariants of a block diagonal are those of the diagonal of
    all its blocks' invariants, padded with zeros; each block's come from
    the minors.  Up to 32 x 32, and sparse, with many equal magnitudes of
    both signs, so the Markowitz cost and then (row, column) break the
    ties, and remainders move the pivots.
    """
    blocks = [_block(rng) for _ in range(rng.randint(1, 8))]
    height = sum(len(rows) for rows, _ in blocks)
    width = sum(c for _, c in blocks)
    dense = [[0] * width for _ in range(height)]
    top = left = 0
    invariants = []
    for rows, c in blocks:
        for i, row in enumerate(rows):
            dense[top + i][left:left + c] = row
        invariants += smith_invariants_by_minors(rows, c)
        top, left = top + len(rows), left + c
    row_order, col_order = rng.sample(range(height), height), rng.sample(range(width), width)
    dense = [[dense[i][j] for j in col_order] for i in row_order]
    expected = pairwise_diagonal_invariants(invariants)
    return IntMatrix(dense, cols=width), expected + (0,) * (min(height, width) - len(expected))


def test_the_heap_net_against_block_minors():
    rng = random.Random(20261020)
    for _ in range(300):
        m, expected = _scrambled_block_diagonal(rng)
        assert smith_normal_form(m) == expected, m
        assert smith_normal_form(m.transpose()) == expected, m


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (2, 6), (6, 2), (3, 5), (5, 3), (4, 4)])
def test_the_remainder_net_against_the_minors_oracle(shape):
    # tall and wide shapes, drawn without units so the remainder steps run
    rng = random.Random(f"remainders/{shape}")
    r, c = shape
    for _ in range(40):
        rows = [[rng.choice(_REMAINDER_HEAVY) for _ in range(c)] for _ in range(r)]
        assert_snf_contract(IntMatrix(rows, cols=c))


def _coxeter(family, n):
    """The preset Coxeter element e_j -> e_{j+1}, written densely in the preset's basis."""
    return IntMatrix(preset_twist_matrix(family, [(j + 1) % n for j in range(n)], 1))


def _shifted(w, s, t):
    return IntMatrix(shifted(w.data, s, t), cols=w.cols)


@pytest.mark.parametrize(
    "family,n", [("GL", 24), ("GL", 96), ("GL", 150), ("SL", 40), ("PGL", 40)]
)
@pytest.mark.parametrize("q", [3, 7])
def test_coxeter_twisted_tori_have_closed_forms(family, n, q):
    # the Coxeter element's characteristic polynomial is x^n - 1, divided by
    # x - 1 on the rank n - 1 semisimple lattices; both w - q and q w^T - 1
    # are cyclic of order its value at q, and coker(1 - w) is Z once the
    # centre is a torus (GL) and Z/n otherwise
    w = _coxeter(family, n)
    rank = w.rows
    order = q**n - 1 if family == "GL" else (q**n - 1) // (q - 1)
    ones = (1,) * (rank - 1)
    assert smith_normal_form(_shifted(w, 1, -q)) == ones + (order,)
    assert smith_normal_form(_shifted(w.transpose(), q, -1)) == ones + (order,)
    fixed = smith_normal_form(_shifted(w, -1, 1))
    assert fixed == ones + ((0,) if family == "GL" else (n,))
    if family == "PGL":
        # the Coxeter twist's centralizer is the whole center Z/n of SL_n
        rd = preset("PGL", n)
        free_rank, factors = center_by_roots(rd.rank, json_roots(printed(rd))[0])
        assert cokernel(_shifted(w, -1, 1)) == FinGenAbGroup(free_rank, factors)


# ---------------------------------------------------------------------------
# the trusted results agree with the validating constructor


def _public(rows, cols):
    return IntMatrix([list(r) for r in rows], cols=cols)


def _same_matrix(got, expected):
    assert got == expected
    assert hash(got) == hash(expected)
    assert repr(got) == repr(expected)
    assert (got.rows, got.cols, got.data) == (expected.rows, expected.cols, expected.data)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices())
def test_trusted_results_equal_validated_ones(a):
    r, c = a.rows, a.cols
    _same_matrix(a.transpose(), _public([[a.data[i][j] for i in range(r)] for j in range(c)], r))
    _same_matrix(IntMatrix._make(a.nonzeros, r, c), _public(a.data, c))


# ---------------------------------------------------------------------------
# rank and kernel dimension, read off the invariants


def test_rank_values():
    assert _nonzero(smith_normal_form(IntMatrix(identity(3)))) == 3
    assert _nonzero(smith_normal_form(IntMatrix([[1, 2], [2, 4]]))) == 1
    assert _nonzero(smith_normal_form(IntMatrix([[0, 0], [0, 0]]))) == 0
    assert _nonzero(smith_normal_form(IntMatrix([], cols=4))) == 0


def test_kernel_frozen():
    # ker of [[1, -1], [-1, 1]] is the line through (1, 1): coker is Z
    a = IntMatrix([[1, -1], [-1, 1]])
    assert smith_normal_form(a) == (1, 0)
    assert cokernel(a) == FinGenAbGroup(1, ())


def test_kernel_of_injective_map_is_empty():
    inv = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert 2 - _nonzero(inv) == 0


def test_kernel_of_zero_map_is_identity_sized():
    inv = smith_normal_form(IntMatrix([[0, 0, 0], [0, 0, 0]]))
    assert 3 - _nonzero(inv) == 3


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_contract_random(m):
    # kernel dimension = cols - rank, where the rank over Q is the size of
    # the largest nonvanishing minor
    q_rank = sum(1 for d in determinantal_divisors([list(r) for r in m.data], m.cols) if d)
    assert _nonzero(smith_normal_form(m)) == q_rank


@settings(max_examples=100, deadline=None)
@given(matrices(min_dim=1))
def test_rank_matches_kernel_dimension(m):
    # rank-nullity through the cokernel: its free rank is rows - rank
    assert cokernel(m).free_rank == m.rows - _nonzero(smith_normal_form(m))
    assert cokernel(m.transpose()).free_rank == m.cols - _nonzero(smith_normal_form(m))
