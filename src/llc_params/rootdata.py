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
are generated only where they are printed (component JSON).  A RootDatum
is a frozen record that refuses any (kind, n) no preset has.

A WeylTwist is a finite-order automorphism of the character lattice (the
candidates for a Frobenius action).  As Aut(A_{n-1}) = W x {+-1}, it is
held as a signed permutation e_i -> sign * e_perm[i] of e-coordinates on
its kind of lattice: Z^n ("gl"), the sum-zero lattice ("adjoint") or
Z^n / Z(1, ..., 1) ("sc").  The record refuses any other (kind, perm,
sign), so a twist names its datum: ``twist.datum`` is the preset of its
kind and n, and the component and block builders take the twist alone.
Its cokernels come from sparse e-coordinate presentations that only this
module writes, and ``weyl_twist`` reads a matrix in the preset's basis as
one in O(nnz), or refuses it: the twists are exactly the signed
permutations, so no Smith form or root list is needed to tell them apart.
"""

from __future__ import annotations

from .abgroups import FinGenAbGroup, cokernel
from .errors import FrozenRecord, InvalidArgument, InvalidRank, UnsupportedFamily
from .lattice import IntMatrix

FAMILIES = ("GL", "SL", "PGL")
# the kind of datum each family's preset builds, that of its dual group
_KINDS = {"GL": "gl", "SL": "adjoint", "PGL": "sc"}
# the least n of each kind: GL_1 is a torus, A_0 has no semisimple part
_LEAST_N = {"gl": 1, "adjoint": 2, "sc": 2}
# the dual group each kind of datum belongs to
_DUAL_NAMES = {"gl": "GL", "adjoint": "PGL", "sc": "SL"}
# the kind of the dual lattice: the coweights of the root lattice, and back
_DUAL_KINDS = {"gl": "gl", "adjoint": "sc", "sc": "adjoint"}


class RootDatum(FrozenRecord):
    """The based root datum of a preset, held by its kind and n; `preset` makes one.

    >>> gl2 = preset("GL", 2)
    >>> gl2
    RootDatum('GL_2', rank=2)
    >>> gl2.to_json()["roots"]
    [[1, -1], [-1, 1]]
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int):
        least = _least_n(kind, "datum")
        if type(n) is not int or n < least:
            raise InvalidArgument(f"a {kind} datum needs an int n >= {least}, got {n!r}")
        super().__init__(kind, n)

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

    def to_json(self) -> dict:
        roots, coroots = self._roots_and_coroots()
        return {
            "name": self.name,
            "charLatticeRank": self.rank,
            "roots": [list(a) for a in roots],
            "cocharLatticeRank": self.rank,
            "coroots": [list(a) for a in coroots],
            "pairing": "dot",
        }

    def __repr__(self) -> str:
        return f"RootDatum({self.name!r}, rank={self.rank})"


class WeylTwist(FrozenRecord):
    """The twist e_i -> sign * e_perm[i], n = len(perm), of a kind of lattice.

    >>> w = coxeter_twist(preset("SL", 3))
    >>> w.transpose()
    WeylTwist(kind='sc', perm=(2, 0, 1), sign=1)
    >>> w.cokernel(1, -3)
    FinGenAbGroup(free_rank=0, invariant_factors=(13,))
    """

    __slots__ = ("kind", "perm", "sign")

    def __init__(self, kind: str, perm: tuple[int, ...], sign: int):
        """Refuse, in O(n), a record that is no signed permutation of a preset's lattice."""
        least = _least_n(kind, "twist")
        if type(perm) is not tuple:
            raise InvalidArgument(f"a twist's perm must be a tuple, got {type(perm).__name__}")
        n = len(perm)
        if n < least or set(map(type, perm)) != {int} or set(perm) != set(range(n)):
            raise InvalidArgument(
                f"a {kind} twist's perm must permute range(n) with n >= {least}; "
                f"got one of length {n}"
            )
        if type(sign) is not int or sign not in (1, -1):
            raise InvalidArgument(f"twist sign must be 1 or -1, got {sign!r}")
        super().__init__(kind, perm, sign)

    @property
    def datum(self) -> RootDatum:
        """The preset whose lattice the twist acts on."""
        return RootDatum(self.kind, len(self.perm))

    def transpose(self) -> "WeylTwist":
        """The twist on the dual lattice: the inverse permutation on the dual kind."""
        return WeylTwist(_DUAL_KINDS[self.kind], self._inverse(), self.sign)

    def _inverse(self) -> tuple[int, ...]:
        return tuple(sorted(range(len(self.perm)), key=self.perm.__getitem__))

    def cokernel(self, s: int, t: int) -> FinGenAbGroup:
        """coker(s w + t) on the twist's lattice, from an e-coordinate presentation.

        Row j of s w + t on Z^n holds s * sign in column perm^-1(j) and t in
        column j.  "sc" adds a column of ones, for Z^n / Z(1, ..., 1); "adjoint"
        takes it times B, whose columns e_i - e_{i+1} span the sum-zero lattice
        L, and Z^n / (s w + t) L is L / (s w + t) L plus Z^n / L = Z.
        """
        n, kind = len(self.perm), self.kind
        width = {"gl": n, "sc": n + 1, "adjoint": n - 1}[kind]
        presentation = []
        for j, i in enumerate(self._inverse()):
            row = {n: 1} if kind == "sc" else {}
            for c, a in ((i, s * self.sign), (j, t)):
                # times B, an entry a in column c is a in c and -a in c - 1
                for k, b in ((c, a), (c - 1, -a)) if kind == "adjoint" else ((c, a),):
                    if 0 <= k < width:
                        row[k] = row.get(k, 0) + b
            presentation.append(tuple(sorted((k, b) for k, b in row.items() if b)))
        group = cokernel(IntMatrix._trusted(tuple(presentation), width))
        if kind == "adjoint":
            return FinGenAbGroup(group.free_rank - 1, group.invariant_factors)
        return group


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


def _least_n(kind: str, record: str) -> int:
    """The least n of a preset of this kind; any other kind is refused."""
    if kind not in _LEAST_N:
        raise InvalidArgument(f"{record} kind must be one of {tuple(_LEAST_N)}, got {kind!r}")
    return _LEAST_N[kind]


def preset(family: str, n: int) -> RootDatum:
    """The root datum of the dual group of ``family``_n; see module docstring."""
    if family not in FAMILIES:
        raise UnsupportedFamily(
            f"unsupported family {family!r}",
            hint=f"choose one of {', '.join(FAMILIES)}",
        )
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidRank(f"n must be an integer, got {n!r}")
    kind = _KINDS[family]
    if n < _LEAST_N[kind]:
        raise InvalidRank(f"{family} needs n >= {_LEAST_N[kind]}, got {n}")
    return RootDatum(kind, n)


def coxeter_twist(rd: RootDatum) -> WeylTwist:
    """The standard Coxeter element of a datum: the n-cycle e_j -> e_{j+1}.

    It is the ordered product of the simple reflections, of order the
    Coxeter number n; for GL_1 it is the identity.

    >>> coxeter_twist(preset("GL", 2))
    WeylTwist(kind='gl', perm=(1, 0), sign=1)
    """
    n = rd.n
    return WeylTwist(rd.kind, tuple((j + 1) % n for j in range(n)), 1)


def identity_twist(rd: RootDatum) -> WeylTwist:
    return WeylTwist(rd.kind, tuple(range(rd.n)), 1)


def _read_signed_permutation(kind: str, n: int, columns) -> WeylTwist | None:
    """The twist of Z^n ("gl") or of the sum-zero lattice ("adjoint") with a
    matrix of these columns, as (row, entry) nonzeros by ascending row; or None.

    On Z^n, column i is sign * e_perm[i].  In the simple-root basis, column i
    is sign * (e_perm[i] - e_perm[i+1]) = +-(e_a - e_{b+1}), ones on rows
    a..b; sign 1 is tried first, since at n = 2 both fit.
    """
    if kind == "gl":
        ones = [column[0] for column in columns if len(column) == 1]
        perm, signs = tuple(i for i, _ in ones), {x for _, x in ones}
        readable = len(ones) == n == len(set(perm)) and len(signs) == 1 and signs <= {1, -1}
        return WeylTwist(kind, perm, signs.pop()) if readable else None
    pairs = []  # (perm[i], perm[i+1]) for sign 1
    for column in columns:
        if not column:
            return None
        (a, x), b = column[0], column[-1][0]
        if abs(x) != 1 or b - a + 1 != len(column) or any(y != x for _, y in column):
            return None
        pairs.append((a, b + 1) if x == 1 else (b + 1, a))
    for sign, chain in ((1, pairs), (-1, [(j, i) for i, j in pairs])):
        perm = tuple(i for i, _ in chain) + (chain[-1][1],)
        if all(chain[i][1] == chain[i + 1][0] for i in range(n - 2)) and len(set(perm)) == n:
            return WeylTwist(kind, perm, sign)
    return None


def weyl_twist(rd: RootDatum, matrix: IntMatrix) -> WeylTwist:
    """Read a raw lattice matrix in the preset's basis as a signed permutation.

    The read is O(nnz); in the weight basis ("sc"), dual to the simple roots,
    the transpose is read as a sum-zero lattice twist and transposed back.
    As Aut(A_{n-1}) = W x {+-1}, a matrix that does not read is no root datum
    automorphism (not unimodular, moving a root off the roots or moving a
    coroot), and is refused with one message.
    """
    if matrix.rows != rd.rank or matrix.cols != rd.rank:
        raise InvalidArgument(
            f"twist must be {rd.rank}x{rd.rank} for {rd.name}, got {matrix.rows}x{matrix.cols}"
        )
    columns = matrix.nonzeros if rd.kind == "sc" else matrix.transpose().nonzeros
    twist = _read_signed_permutation("gl" if rd.kind == "gl" else "adjoint", rd.n, columns)
    if twist is None:
        raise InvalidArgument(
            f"twist matrix is no signed permutation of the {rd.name} lattice",
            hint="a twist is a Weyl group element times 1 or -1, written in the preset's basis",
        )
    return twist.transpose() if rd.kind == "sc" else twist
