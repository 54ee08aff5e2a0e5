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

A preset is held by its kind and n.  One routine gives the (root, coroot)
of each block of consecutive simple roots, and of its negative, as rows of
runs (value, count): five runs on GL, three for a 0/1 block and seven for
a sum of Cartan matrix columns, whatever n.  The n(n - 1) roots are
generated only where they are printed (component JSON), in O(1) steps
each, as a RunRows whose rows the CLI writes with no step per entry.  A
RootDatum is a frozen record that refuses any (kind, n) no preset has.

A WeylTwist is a finite-order automorphism of the character lattice (the
candidates for a Frobenius action).  As Aut(A_{n-1}) = W x {+-1}, it is a
signed permutation e_i -> sign * e_perm[i] of e-coordinates on its kind of
lattice: Z^n ("gl"), the sum-zero lattice ("adjoint") or Z^n / Z(1, ...,
1) ("sc").  Every invariant taken here depends on it only through its
class, perm's cycle type with the sign, so the record holds the class: in
O(1) for the Coxeter and identity twists at any n.  It names its datum:
``twist.datum`` is the preset of its kind and n, and the component and
block builders take the twist alone.  Its cokernels are read off the
cycle type in closed form, with no Smith form, and ``weyl_twist`` reads
a matrix in the preset's basis in O(nnz), or refuses it.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from itertools import chain

from .abgroups import FinGenAbGroup
from .errors import FrozenRecord, InternalError, InvalidArgument, InvalidRank, UnsupportedFamily
from .lattice import IntMatrix, diagonal_invariants

FAMILIES = ("GL", "SL", "PGL")
# the kind of datum each family's preset builds, that of its dual group
_KINDS = {"GL": "gl", "SL": "adjoint", "PGL": "sc"}
# the least n of each kind: GL_1 is a torus, A_0 has no semisimple part
_LEAST_N = {"gl": 1, "adjoint": 2, "sc": 2}
# the dual group each kind of datum belongs to
_DUAL_NAMES = {"gl": "GL", "adjoint": "PGL", "sc": "SL"}
# the kind of the dual lattice: the coweights of the root lattice, and back
_DUAL_KINDS = {"gl": "gl", "adjoint": "sc", "sc": "adjoint"}


class RunRows(FrozenRecord):
    """Rows of ints, each held as its runs: (value, count) pairs, as many on every row.

    A row is its runs' values in order, each count times, and holds at least
    one value; a run of count 0 stands for nothing.  A datum's roots and
    coroots are one each, a record the package builds.  Reports print a
    RunRows as the list of its rows, each the list of its values, and the
    CLI writes each row from ``row_texts``, in as many steps as it has runs.

    >>> rows = RunRows((((0, 1), (1, 2)), ((-1, 3), (0, 0))))
    >>> list(rows.row_texts(", "))
    ['0, 1, 1, ', '-1, -1, -1, ']
    """

    __slots__ = ("rows",)

    def row_texts(self, sep: str) -> Iterator[str]:
        """Each row's values as text, each followed by ``sep``: one join of the
        texts of its runs, each made once per call."""
        if not self.rows:
            return iter(())
        texts = _RunTexts(_small_run_texts(sep))
        texts.sep = sep
        # the runs of all rows in turn, grouped by the rows' common run count
        runs = map(texts.__getitem__, chain.from_iterable(self.rows))
        return map("".join, zip(*[runs] * len(self.rows[0])))


@functools.cache
def _small_run_texts(sep: str) -> dict:
    """The texts of the runs of count 0 or 1 and value -2 to 2, most of a
    datum's runs, made once per separator."""
    return {(value, count): (str(value) + sep) * count
            for value in range(-2, 3) for count in (0, 1)}


class _RunTexts(dict):
    """The text of each run, made on first use: its value and the separator
    after it, count times; nothing for a run of count 0."""

    __slots__ = ("sep",)

    def __missing__(self, run: tuple[int, int]) -> str:
        value, count = run
        text = self[run] = (int.__repr__(value) + self.sep) * count if count else ""
        return text


class RootDatum(FrozenRecord):
    """The based root datum of a preset, held by its kind and n; `preset` makes one.

    >>> gl2 = preset("GL", 2)
    >>> gl2
    RootDatum('GL_2', rank=2)
    >>> roots = gl2.to_json()["roots"]
    >>> roots.rows  # e_0 - e_1 = [1, -1] and its negative, as runs (value, count)
    (((0, 0), (1, 1), (0, 0), (-1, 1), (0, 0)), ((0, 0), (-1, 1), (0, 0), (1, 1), (0, 0)))
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int):
        if kind not in _LEAST_N:
            raise InvalidArgument(f"a kind must be one of {tuple(_LEAST_N)}, got {kind!r}")
        if type(n) is not int or n < _LEAST_N[kind]:
            raise InvalidArgument(f"a {kind} datum needs an int n >= {_LEAST_N[kind]}, got {n!r}")
        self._fill(kind, n)

    @property
    def rank(self) -> int:
        return self.n if self.kind == "gl" else self.n - 1

    @property
    def name(self) -> str:
        return f"{_DUAL_NAMES[self.kind]}_{self.n}"

    def _roots_and_coroots(self) -> tuple[RunRows, RunRows]:
        """(roots, coroots): the positive blocks in order, then their negatives."""
        roots, coroots = _block_runs(self.kind, self.rank)
        roots = RunRows._make(roots)
        return roots, roots if self.kind == "gl" else RunRows._make(coroots)

    def to_json(self) -> dict:
        roots, coroots = self._roots_and_coroots()
        rank = self.rank
        return {
            "name": self.name,
            "charLatticeRank": rank,
            "roots": roots,
            "cocharLatticeRank": rank,
            "coroots": coroots,
            "pairing": "dot",
        }

    def __repr__(self) -> str:
        return f"RootDatum({self.name!r}, rank={self.rank})"


class WeylTwist(FrozenRecord):
    """The class of e_i -> sign * e_perm[i] on a kind of lattice: perm's cycle
    type, as (length, count) pairs by ascending length, and the sign.

    >>> w = coxeter_twist(preset("SL", 3))
    >>> w.transpose()
    WeylTwist(kind='sc', cycles=((3, 1),), sign=1)
    >>> w.cokernel(1, -3)
    FinGenAbGroup(free_rank=0, invariant_factors=(13,))
    """

    __slots__ = ("kind", "cycles", "sign")

    def __init__(self, kind: str, cycles: tuple[tuple[int, int], ...], sign: int):
        """Refuse, in O(distinct lengths), a record that names no preset's twists."""
        if type(cycles) is not tuple:
            raise InvalidArgument(f"a twist's cycles must be a tuple, got {type(cycles).__name__}")
        n = last = 0
        for pair in cycles:
            length, count = pair if type(pair) is tuple and len(pair) == 2 else (None, None)
            if type(length) is not int or type(count) is not int or length <= last or count < 1:
                raise InvalidArgument(f"a twist's cycles must be int pairs (length, count), "
                                      f"lengths ascending from 1, counts >= 1; got {pair!r}")
            last, n = length, n + length * count
        RootDatum(kind, n)  # refuses a kind and n that no preset has
        if type(sign) is not int or sign not in (1, -1):
            raise InvalidArgument(f"twist sign must be 1 or -1, got {sign!r}")
        if sign == -1 and n == 2 and kind != "gl":  # -1 lies in the Weyl group of A_1
            cycles, sign = ((1, 2),) if cycles == ((2, 1),) else ((2, 1),), 1
        self._fill(kind, cycles, sign)

    @classmethod
    def from_permutation(cls, kind: str, perm: tuple[int, ...], sign: int) -> WeylTwist:
        """The class of e_i -> sign * e_perm[i], n = len(perm), read in one walk;
        refuse, in O(n), a perm that does not permute range(n)."""
        if type(perm) is not tuple:
            raise InvalidArgument(f"a twist's perm must be a tuple, got {type(perm).__name__}")
        n, lengths, seen = len(perm), {}, bytearray(len(perm))
        if set(map(type, perm)) != {int} or set(perm) != set(range(n)):
            raise InvalidArgument(f"a twist's perm must permute range(n), got one of length {n}")
        for start in range(n):
            i, length = start, 0
            while not seen[i]:
                seen[i], i, length = 1, perm[i], length + 1  # seen[i] is set first
            if length:
                lengths[length] = lengths.get(length, 0) + 1
        return cls(kind, tuple(sorted(lengths.items())), sign)

    @property
    def n(self) -> int:
        return sum(length * count for length, count in self.cycles)

    @property
    def datum(self) -> RootDatum:
        """The preset whose lattice the twist acts on."""
        return RootDatum(self.kind, self.n)

    def transpose(self) -> WeylTwist:
        """The twist on the dual lattice: w^T = w^-1, of w's class, on the dual kind."""
        return WeylTwist._make(_DUAL_KINDS[self.kind], self.cycles, self.sign)

    def cokernel(self, s: int, t: int) -> FinGenAbGroup:
        """coker(s w + t) on the twist's lattice, read off its cycle type.

        On a cycle of length l, s w + t acts on Z[x]/(x^l - 1) as s * sign * x +
        t.  With s * sign or t a unit, x or its inverse is r = -s * sign * t
        there, and the cycle gives Z/(m e_l), m = |r - 1| and e_l = |1 + r +
        ... + r^(l-1)| (l when r = 1), so m e_l = |r^l - 1| (0 for Z).  "gl" is
        the sum over the cycles.  "sc" is that sum modulo (1, ..., 1), which is
        +-e_l on each cycle: the cokernel of [diag(m e) | e], one row a cycle.
        "adjoint" is "sc" transposed at w^-1 = w^T, of the same cycle type.

        Every j x j minor of [diag(m e) | e] is m^j prod_R e or +-m^(j-1)
        prod_R e over a j-set R of cycles, so its j-th determinantal divisor is
        m^(j-1) f_1 ... f_j, (f_1 | ... | f_c) the Smith invariants of diag(e);
        the cokernel is Z/f_1 + Z/(m f_2) + ... + Z/(m f_c).
        """
        unit = s * self.sign
        if unit not in (1, -1) and t not in (1, -1):
            raise InternalError(f"coker(s w + t) has no unit at s={s}, t={t}, sign={self.sign}")
        r = -unit * t
        m, e = abs(r - 1), []
        for length, count in self.cycles:
            e += [length if r == 1 else abs((r**length - 1) // (r - 1))] * count
        if self.kind == "gl":
            return FinGenAbGroup(0, [m * x for x in e])
        f = diagonal_invariants(e)
        return FinGenAbGroup(0, f[:1] + tuple(m * x for x in f[1:]))


def _block_runs(kind: str, rank: int) -> tuple[tuple, tuple]:
    """(roots, coroots) as rows of runs: those of the blocks i..j of simple
    roots in order, i ascending, then j, and then their negatives.

    GL: e_i - e_{j+1}, its own coroot, (0, i), (1, 1), (0, j - i), (-1, 1),
    (0, rank - j - 2).  Adjoint basis: the 0/1 vector on i..j, (0, i),
    (1, j - i + 1), (0, rank - 1 - j), with the sum of the type A Cartan
    matrix's columns i..j, which telescopes to +1 at i and at j (2 when i =
    j) and -1 just outside the block: seven runs, those past the lattice's
    ends and the two after a 2 of count 0.  The simply connected basis swaps
    the two.
    """
    zeros = [(0, k) for k in range(rank + 1)]
    if kind == "gl":
        roots = tuple([(zeros[i], (s, 1), zeros[j - i], (-s, 1), zeros[rank - j - 2])
                       for s in (1, -1) for i in range(rank - 1) for j in range(i, rank - 1)])
        return roots, roots
    # a block's Cartan sum is heads[i] + spans[j - i] + tails[j]: its runs
    # before i, from i to j and after j
    z0, last, tables = zeros[0], rank - 1, []
    for s in (1, -1):
        up, down = (s, 1), (-s, 1)
        heads, tails, spans = [(z0, z0)], [], [((2 * s, 1), z0, z0)]
        for k in range(last):
            heads.append((zeros[k], down))
            tails.append((down, zeros[last - 1 - k]))
            spans.append((up, zeros[k], up))
        tails.append((z0, z0))
        tables.append((s, heads, spans, tails))
    ones, sums = zip(*[
        ((zeros[i], (s, j - i + 1), zeros[last - j]), heads[i] + spans[j - i] + tails[j])
        for s, heads, spans, tails in tables for i in range(rank) for j in range(i, rank)
    ])
    return (ones, sums) if kind == "adjoint" else (sums, ones)


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
    WeylTwist(kind='gl', cycles=((2, 1),), sign=1)
    """
    return WeylTwist(rd.kind, ((rd.n, 1),), 1)


def identity_twist(rd: RootDatum) -> WeylTwist:
    return WeylTwist(rd.kind, ((1, rd.n),), 1)


def _read_signed_permutation(kind: str, n: int, columns) -> tuple | None:
    """(perm, sign) of the twist of Z^n ("gl") or the sum-zero lattice with these
    columns, (row, entry) nonzeros by ascending row, or None.  Column i is sign
    * e_perm[i] on Z^n; in the simple-root basis it is sign * (e_perm[i] -
    e_perm[i+1]) = +-(e_a - e_{b+1}), ones on rows a..b."""
    if kind == "gl":
        ones = [column[0] for column in columns if len(column) == 1]
        perm, signs = tuple(i for i, _ in ones), {x for _, x in ones}
        readable = len(ones) == n == len(set(perm)) and len(signs) == 1 and signs <= {1, -1}
        return (perm, signs.pop()) if readable else None
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
            return perm, sign
    return None


def weyl_twist(rd: RootDatum, matrix: IntMatrix) -> WeylTwist:
    """Read a raw lattice matrix in the preset's basis as a twist, in O(nnz):
    by rows where that is simpler, as w^T = w^-1 is of w's class, on Z^n and
    in the weight basis ("sc"), read as a sum-zero lattice twist's columns.
    As Aut(A_{n-1}) = W x {+-1}, any other matrix is no root datum
    automorphism (not unimodular, moving a root off the roots or moving a
    coroot), and is refused with one message."""
    if matrix.rows != rd.rank or matrix.cols != rd.rank:
        raise InvalidArgument(f"twist must be {rd.rank}x{rd.rank} for {rd.name}, "
                              f"got {matrix.rows}x{matrix.cols}")
    columns = matrix.transpose().nonzeros if rd.kind == "adjoint" else matrix.nonzeros
    read = _read_signed_permutation(rd.kind, rd.n, columns)
    if read is None:
        raise InvalidArgument(
            f"twist matrix is no signed permutation of the {rd.name} lattice",
            hint="a twist is a Weyl group element times 1 or -1, written in the preset's basis",
        )
    return WeylTwist.from_permutation(rd.kind, *read)
