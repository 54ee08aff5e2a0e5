"""Root data for the dual groups in play, with their standard twists.

A RootDatum is the based root datum of a maximal torus of the dual group,
on its character lattice; the pairing is always the dot product because the
presets pick dual bases.  Three preset families are provided, named by the
INPUT group (the datum built is that of the dual):

* ``preset("GL", n)``  -> dual GL_n: lattice Z^n in the coordinate basis,
  roots e_i - e_j, coroots the same vectors.
* ``preset("SL", n)``  -> dual PGL_n: adjoint datum of type A_{n-1} in the
  simple-root basis; roots are 0/1 consecutive-block vectors, coroots are
  sums of Cartan matrix columns.  The center here is trivial.
* ``preset("PGL", n)`` -> dual SL_n: simply connected datum in the
  fundamental-weight basis, the mirror image of the adjoint one; the center
  character group is Z/n.

A preset is held by its kind and n.  One routine gives the positive (root,
coroot) of each block of consecutive simple roots, and all n(n - 1) roots
are generated only where they are printed (component JSON) or checked (an
explicit Weyl matrix), at most once per datum.  The simple roots, the
one-root blocks, are also written as sparse rows of at most three
nonzeros, so that the center costs O(n); so does the Coxeter twist,
written in closed form.

A WeylTwist is a finite-order automorphism of the character lattice (the
candidates for a Frobenius action).  It is unimodular by construction: the
constructor checks it once, by the invariants-only Smith form (w is
unimodular iff coker(w) is trivial), and the Coxeter, identity and transposed
twists are unimodular without a check.  ``weyl_twist`` also checks that w
permutes the roots, and that the simple coroots follow.
"""

from __future__ import annotations

from .abgroups import FinGenAbGroup, cokernel
from .errors import InvalidArgument, InvalidRank, UnsupportedFamily
from .lattice import IntMatrix

FAMILIES = ("GL", "SL", "PGL")
# the dual group each kind of datum belongs to
_DUAL_NAMES = {"gl": "GL", "adjoint": "PGL", "sc": "SL"}


class RootDatum:
    """The based root datum of a preset, held by its kind and n; `preset` makes one.

    >>> gl2 = preset("GL", 2)
    >>> gl2.rank, len(gl2.roots)
    (2, 2)
    >>> gl2.roots[0]
    (1, -1)
    """

    __slots__ = ("kind", "n", "_lists")

    def __init__(self, kind: str, n: int):
        self.kind = kind
        self.n = n
        self._lists = None

    @property
    def rank(self) -> int:
        return self.n if self.kind == "gl" else self.n - 1

    @property
    def name(self) -> str:
        return f"{_DUAL_NAMES[self.kind]}_{self.n}"

    def _roots_and_coroots(self) -> tuple[tuple, tuple]:
        """(roots, coroots): the positive blocks in order, then their negatives."""
        n = self.n
        blocks = ((i, j) for i in range(n - 1) for j in range(i, n - 1))
        pos = list(_block_pairs(self.kind, self.rank, blocks))
        roots = _with_negatives([a for a, _ in pos])
        return roots, roots if self.kind == "gl" else _with_negatives([b for _, b in pos])

    def _root_lists(self) -> tuple[tuple, tuple]:
        """`_roots_and_coroots`, generated at the first call and kept by the datum."""
        if self._lists is None:
            self._lists = self._roots_and_coroots()
        return self._lists

    @property
    def roots(self) -> tuple:
        return self._root_lists()[0]

    @property
    def coroots(self) -> tuple:
        return self._root_lists()[1]

    def to_json(self) -> dict:
        roots, coroots = self._root_lists()
        return {
            "name": self.name,
            "charLatticeRank": self.rank,
            "roots": [list(a) for a in roots],
            "cocharLatticeRank": self.rank,
            "coroots": [list(a) for a in coroots],
            "pairing": "dot",
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootDatum):
            return NotImplemented
        return (self.kind, self.n) == (other.kind, other.n)

    def __hash__(self) -> int:
        return hash((self.kind, self.n))

    def __repr__(self) -> str:
        return f"RootDatum({self.name!r}, rank={self.rank})"


class WeylTwist:
    """A lattice automorphism used to twist Frobenius; unimodular by construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        if not matrix.is_square:
            raise InvalidArgument("a twist must be a square matrix")
        if not cokernel(matrix).is_trivial:
            raise InvalidArgument(
                "twist matrix is not unimodular",
                hint="the determinant must be 1 or -1",
            )
        self.matrix = matrix

    @classmethod
    def _trusted(cls, matrix: IntMatrix) -> "WeylTwist":
        """A twist from a matrix that is unimodular by construction, taken as it is."""
        twist = object.__new__(cls)
        twist.matrix = matrix
        return twist

    @property
    def rank(self) -> int:
        return self.matrix.rows

    def transpose(self) -> "WeylTwist":
        """The twist on the dual lattice (cocharacters for a character twist)."""
        return WeylTwist._trusted(self.matrix.transpose())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylTwist):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"WeylTwist({self.matrix!r})"


def _block_pairs(kind: str, rank: int, blocks):
    """The positive (root, coroot) of each block i..j of simple roots of a preset.

    GL: e_i - e_{j+1}, its own coroot.  Adjoint basis: the 0/1 vector on
    i..j with the sum of the type A Cartan matrix's columns i..j, which
    telescopes to +1 at i and at j (2 when i = j) and -1 just outside the
    block; the simply connected basis swaps the two.
    """
    for i, j in blocks:
        if kind == "gl":
            v = [0] * rank
            v[i], v[j + 1] = 1, -1
            v = tuple(v)
            yield v, v
            continue
        ones = (0,) * i + (1,) * (j + 1 - i) + (0,) * (rank - 1 - j)
        sums = [0] * (rank + 2)  # one spare slot at each end
        sums[i] = sums[j + 2] = -1
        sums[i + 1] += 1
        sums[j + 1] += 1
        sums = tuple(sums[1:-1])
        yield (ones, sums) if kind == "adjoint" else (sums, ones)


def _with_negatives(pos: list) -> tuple:
    return tuple(pos) + tuple([tuple([-x for x in v]) for v in pos])


def _simple_roots(rd: RootDatum) -> list:
    """The simple roots of a preset, as sparse rows.

    They are the roots of `_block_pairs`'s one-root blocks, written as
    (coordinate, entry) pairs with at most three nonzeros: GL's e_i -
    e_{i+1}; e_i in the adjoint basis; in the simply connected basis the
    i-th Cartan matrix column (2 at i, -1 at i - 1 and i + 1).
    """
    if rd.kind == "gl":
        return [((i, 1), (i + 1, -1)) for i in range(rd.n - 1)]
    if rd.kind == "adjoint":
        return [((i, 1),) for i in range(rd.rank)]
    return [
        tuple((k, a) for k, a in ((i - 1, -1), (i, 2), (i + 1, -1)) if 0 <= k < rd.rank)
        for i in range(rd.rank)
    ]


def preset(family: str, n: int) -> RootDatum:
    """The root datum of the dual group of ``family``_n; see module docstring."""
    if family not in FAMILIES:
        raise UnsupportedFamily(
            f"unsupported family {family!r}",
            hint=f"choose one of {', '.join(FAMILIES)}",
        )
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidRank(f"n must be an integer, got {n!r}")
    if family == "GL":
        if n < 1:
            raise InvalidRank(f"GL needs n >= 1, got {n}")
        return RootDatum("gl", n)
    if n < 2:
        raise InvalidRank(f"{family} needs n >= 2, got {n}")
    return RootDatum("adjoint" if family == "SL" else "sc", n)


def center_char_group(rd: RootDatum) -> FinGenAbGroup:
    """Character group of the center: the lattice modulo the root lattice.

    The simple roots of a preset span the root lattice, so the quotient is
    the cokernel of the simple roots as columns (rank x (rank - 1) for GL,
    rank x rank for the semisimple presets): the transpose of their sparse
    rows.

    >>> center_char_group(preset("GL", 2))
    FinGenAbGroup(free_rank=1, invariant_factors=())
    >>> center_char_group(preset("PGL", 2))
    FinGenAbGroup(free_rank=0, invariant_factors=(2,))
    >>> center_char_group(preset("SL", 3)).is_trivial
    True
    >>> center_char_group(preset("PGL", 3))
    FinGenAbGroup(free_rank=0, invariant_factors=(3,))
    """
    simple = tuple(_simple_roots(rd))
    return cokernel(IntMatrix._trusted(simple, rd.rank).transpose())


def coxeter_twist(rd: RootDatum) -> WeylTwist:
    """The standard Coxeter element of a datum, as a lattice matrix.

    It is the ordered product of the simple reflections, of order the
    Coxeter number n, and is written in closed form: for GL_n the n-cycle
    permutation matrix; for the semisimple presets a companion matrix of
    1 + x + ... + x^(n-1) ((-1) for the rank-1 A_1 data).

    >>> coxeter_twist(preset("GL", 2)).matrix
    IntMatrix([[0, 1], [1, 0]])
    """
    n = rd.n
    if rd.kind == "gl":  # the n-cycle e_j -> e_{j+1}: row i holds a 1 in column i - 1
        cycle = tuple((((i - 1) % n, 1),) for i in range(n))
        return WeylTwist._trusted(IntMatrix._trusted(cycle, n))
    m = rd.rank
    if rd.kind == "adjoint":  # row i holds 1 in column i - 1 and -1 in the last column
        rows = tuple(((i - 1, 1),) * (i > 0) + ((m - 1, -1),) for i in range(m))
    else:  # simply connected: row 0 is all -1, row i holds 1 in column i - 1
        rows = (tuple((k, -1) for k in range(m)),) + tuple(((i - 1, 1),) for i in range(1, m))
    return WeylTwist._trusted(IntMatrix._trusted(rows, m))


def identity_twist(rd: RootDatum) -> WeylTwist:
    return WeylTwist._trusted(IntMatrix.identity(rd.rank))


def _apply(columns: list, v: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """M v for M given column by column as (row, entry) nonzeros."""
    image = [0] * rank
    for a, column in zip(v, columns):
        if a:
            for i, x in column:
                image[i] += a * x
    return tuple(image)


def weyl_twist(rd: RootDatum, matrix: IntMatrix) -> WeylTwist:
    """Validate a raw lattice matrix as a twist for the given datum.

    w must permute the roots, and w^T (w alpha)^vee = alpha^vee; alpha ->
    alpha^vee is linear, so the simple pairs imply it for every root.
    """
    if matrix.rows != rd.rank or matrix.cols != rd.rank:
        raise InvalidArgument(
            f"twist must be {rd.rank}x{rd.rank} for {rd.name}, got {matrix.rows}x{matrix.cols}"
        )
    twist = WeylTwist(matrix)
    # the columns of w and of w^T as (row, entry) nonzeros
    w, w_t = matrix.transpose().nonzeros, matrix.nonzeros
    roots, coroots = rd._root_lists()
    coroot_of = dict(zip(roots, coroots))
    for alpha in roots:
        image = _apply(w, alpha, rd.rank)
        if image not in coroot_of:
            raise InvalidArgument(f"twist does not permute the roots: image of {alpha} is {image}")
    for alpha, alpha_vee in _block_pairs(rd.kind, rd.rank, ((i, i) for i in range(rd.n - 1))):
        if _apply(w_t, coroot_of[_apply(w, alpha, rd.rank)], rd.rank) != alpha_vee:
            raise InvalidArgument(f"twist does not preserve the coroots at the root {alpha}")
    return twist
