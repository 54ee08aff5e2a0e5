"""Root data for the dual groups in play, with their standard twists.

A RootDatum records the character lattice of a maximal torus of the dual
group together with the root and coroot vectors; the pairing is always the
dot product because the presets pick dual bases.  Three preset families are
provided, named by the INPUT group (the datum built is that of the dual):

* ``preset("GL", n)``  -> dual GL_n: lattice Z^n in the coordinate basis,
  roots e_i - e_j, coroots the same vectors.
* ``preset("SL", n)``  -> dual PGL_n: adjoint datum of type A_{n-1} in the
  simple-root basis; roots are 0/1 consecutive-block vectors, coroots are
  sums of Cartan matrix columns.  The center here is trivial.
* ``preset("PGL", n)`` -> dual SL_n: simply connected datum in the
  fundamental-weight basis, the mirror image of the adjoint one; the center
  character group is Z/n.

A WeylTwist is a finite-order automorphism of the character lattice (the
candidates for a Frobenius action).  It is unimodular by construction: the
constructor checks it once, by the invariants-only Smith form (w is
unimodular iff coker(w) is trivial), and the Coxeter, identity and transposed
twists are unimodular without a check.  ``weyl_twist`` also checks that the
roots and coroots are permuted compatibly.
"""

from __future__ import annotations

from .abgroups import FinGenAbGroup, cokernel
from .errors import InvalidArgument, InvalidRank, UnsupportedFamily
from .lattice import IntMatrix

FAMILIES = ("GL", "SL", "PGL")


class RootDatum:
    """A based root datum with dot-product pairing.

    >>> gl2 = preset("GL", 2)
    >>> gl2.rank, len(gl2.roots)
    (2, 2)
    >>> gl2.roots[0]
    (1, -1)
    """

    __slots__ = ("rank", "roots", "coroots", "name", "_preset")

    def __init__(self, rank, roots, coroots, name, _preset=None):
        self.rank = rank
        self.roots = tuple(tuple(a) for a in roots)
        self.coroots = tuple(tuple(a) for a in coroots)
        self.name = name
        self._preset = _preset

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "charLatticeRank": self.rank,
            "roots": [list(a) for a in self.roots],
            "cocharLatticeRank": self.rank,
            "coroots": [list(a) for a in self.coroots],
            "pairing": "dot",
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootDatum):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.roots == other.roots
            and self.coroots == other.coroots
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.roots, self.coroots))

    def __repr__(self) -> str:
        return f"RootDatum({self.name!r}, rank={self.rank}, roots={len(self.roots)})"


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


def _block_vector(m: int, i: int, j: int) -> list[int]:
    """The 0/1 vector supported on positions i..j (inclusive)."""
    return [1 if i <= k <= j else 0 for k in range(m)]


def _cartan_column_sum(m: int, i: int, j: int) -> list[int]:
    """Sum of the type A_m Cartan matrix's columns i..j (inclusive).

    Column c is 2 at c and -1 at c - 1 and c + 1, so the sum telescopes to
    +1 at i and at j (2 when i = j) and -1 just outside the block.
    """
    v = [0] * m
    v[i] += 1
    v[j] += 1
    if i > 0:
        v[i - 1] = -1
    if j + 1 < m:
        v[j + 1] = -1
    return v


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
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                v = [0] * n
                v[i], v[j] = 1, -1
                pos.append(tuple(v))
        roots = pos + [tuple(-x for x in v) for v in pos]
        return RootDatum(n, roots, roots, f"GL_{n}", _preset=("gl", n))
    if n < 2:
        raise InvalidRank(f"{family} needs n >= 2, got {n}")
    m = n - 1
    blocks = [(i, j) for i in range(m) for j in range(i, m)]
    ones = [_block_vector(m, i, j) for i, j in blocks]
    sums = [_cartan_column_sum(m, i, j) for i, j in blocks]
    if family == "SL":
        # dual group PGL_n: adjoint datum, simple-root basis
        pos_roots, pos_coroots, name, tag = ones, sums, f"PGL_{n}", ("adjoint", n)
    else:
        # dual group SL_n: simply connected datum, fundamental-weight basis
        pos_roots, pos_coroots, name, tag = sums, ones, f"SL_{n}", ("sc", n)
    roots = [tuple(v) for v in pos_roots] + [tuple(-x for x in v) for v in pos_roots]
    coroots = [tuple(v) for v in pos_coroots] + [tuple(-x for x in v) for v in pos_coroots]
    return RootDatum(m, roots, coroots, name, _preset=tag)


def center_char_group(rd: RootDatum) -> FinGenAbGroup:
    """Character group of the center: the lattice modulo the root lattice.

    The simple roots of a preset span the root lattice, so the quotient is
    read from the rank x (rank - 1) simple-root matrix; a hand-built datum
    has no simple system and uses every root.

    >>> center_char_group(preset("GL", 2))
    FinGenAbGroup(free_rank=1, invariant_factors=())
    >>> center_char_group(preset("PGL", 2))
    FinGenAbGroup(free_rank=0, invariant_factors=(2,))
    >>> center_char_group(preset("SL", 3)).is_trivial
    True
    >>> center_char_group(preset("PGL", 3))
    FinGenAbGroup(free_rank=0, invariant_factors=(3,))
    """
    generators = rd.roots if rd._preset is None else _simple_system(rd)[0]
    return cokernel(IntMatrix.from_columns([list(a) for a in generators], rows=rd.rank))


def _simple_system(rd: RootDatum) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    kind, n = rd._preset
    if kind == "gl":
        simples, cosimples = [], []
        for i in range(n - 1):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(v))
            cosimples.append(tuple(v))
        return simples, cosimples
    m = n - 1
    ones = [tuple(_block_vector(m, i, i)) for i in range(m)]
    sums = [tuple(_cartan_column_sum(m, i, i)) for i in range(m)]
    if kind == "adjoint":
        return list(ones), list(sums)
    return list(sums), list(ones)


def coxeter_twist(rd: RootDatum) -> WeylTwist:
    """The standard Coxeter element of a preset datum, as a lattice matrix.

    For GL_n this is the n-cycle permutation matrix (order n); for the rank-1
    A_1 data it is (-1); in general it is the ordered product of the simple
    reflections and has order equal to the Coxeter number n.

    >>> coxeter_twist(preset("GL", 2)).matrix
    IntMatrix([[0, 1], [1, 0]])
    """
    if rd._preset is None:
        raise UnsupportedFamily(
            "coxeter_twist needs a preset datum",
            hint="hand-built data can use weyl_twist with an explicit matrix",
        )
    kind, n = rd._preset
    if kind == "gl":
        return WeylTwist._trusted(
            IntMatrix([[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)], cols=n)
        )
    # w <- w s_alpha = w - (w alpha) alpha_vee^T, a rank-one update of w's rows
    w = [[1 if i == j else 0 for j in range(rd.rank)] for i in range(rd.rank)]
    for root, coroot in zip(*_simple_system(rd)):
        alpha = [(k, a) for k, a in enumerate(root) if a]
        alpha_vee = [(k, a) for k, a in enumerate(coroot) if a]
        for row in w:
            c = sum(row[k] * a for k, a in alpha)
            if c:
                for k, a in alpha_vee:
                    row[k] -= c * a
    return WeylTwist._trusted(IntMatrix(w, cols=rd.rank))


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

    w must permute the roots, and w^T (w alpha)^vee = alpha^vee; on a preset
    alpha -> alpha^vee is linear, so the simple pairs imply it for every root.
    """
    if matrix.rows != rd.rank or matrix.cols != rd.rank:
        raise InvalidArgument(
            f"twist must be {rd.rank}x{rd.rank} for {rd.name}, got {matrix.rows}x{matrix.cols}"
        )
    twist = WeylTwist(matrix)
    # the columns of w and of w^T as (row, entry) nonzeros
    w = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*matrix.data)]
    w_t = [[(i, x) for i, x in enumerate(row) if x] for row in matrix.data]
    coroot_of = dict(zip(rd.roots, rd.coroots))
    for alpha in rd.roots:
        image = _apply(w, alpha, rd.rank)
        if image not in coroot_of:
            raise InvalidArgument(f"twist does not permute the roots: image of {alpha} is {image}")
    pairs = zip(rd.roots, rd.coroots) if rd._preset is None else zip(*_simple_system(rd))
    for alpha, alpha_vee in pairs:
        if _apply(w_t, coroot_of[_apply(w, alpha, rd.rank)], rd.rank) != alpha_vee:
            raise InvalidArgument(f"twist does not preserve the coroots at the root {alpha}")
    return twist
