"""Exact integer matrices and their Smith invariants.

Matrices are immutable, row major, and arbitrary precision.  A matrix with
``rows`` r and ``cols`` c represents a homomorphism Z^c -> Z^r sending the
j-th basis vector to column j.  Empty matrices (r = 0 or c = 0) are legal and
mean what they should.

Everything downstream (fixed schemes of twisted Frobenius maps, kernels of
character maps, centers of root data) reduces to the Smith invariants
computed here, so this module has no dependencies beyond the error types.
The twisted-torus matrices s w + t I (`IntMatrix.shifted`) have two or three
nonzeros per row, so `smith_normal_form` eliminates sparsely: smallest
|entry| first, ties by Markowitz cost, down to any diagonal, whose Smith
invariants the gcd/lcm pass `diagonal_invariants` then takes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from math import gcd

from .errors import DimensionMismatch, InvalidArgument


class IntMatrix:
    """An immutable matrix over Z.

    >>> a = IntMatrix([[2, 4], [6, 8]])
    >>> a.rows, a.cols
    (2, 2)
    >>> a.transpose()
    IntMatrix([[2, 6], [4, 8]])
    """

    __slots__ = ("_data", "rows", "cols")

    def __init__(self, data: Iterable[Sequence[int]], *, cols: int | None = None):
        rows = list(map(tuple, data))
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            # a bool, a non-integer or an int subclass: refuse the first bad
            # entry, or accept int subclasses as they are
            for x in chain.from_iterable(rows):
                self._as_int(x)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InvalidArgument("ragged rows: all rows must have the same length")
            if cols is not None and cols != width:
                raise InvalidArgument(f"cols = {cols} disagrees with row width {width}")
        else:
            width = 0 if cols is None else cols
        if width < 0:
            raise InvalidArgument("cols must be nonnegative")
        self._data = tuple(rows)
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def _trusted(cls, data: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """A matrix from equal-length tuples of plain ints, taken as they are."""
        m = object.__new__(cls)
        m._data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @staticmethod
    def _as_int(x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidArgument(f"matrix entries must be plain integers, got {x!r}")
        return x

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 0:
            raise InvalidArgument("identity size must be nonnegative")
        return cls._trusted(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise InvalidArgument("matrix dimensions must be nonnegative")
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], *, rows: int | None = None) -> "IntMatrix":
        """Build the matrix whose j-th column is columns[j]."""
        cols = list(columns)
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise InvalidArgument("ragged columns: all columns must have the same length")
            if rows is not None and rows != height:
                raise InvalidArgument(f"rows = {rows} disagrees with column height {height}")
        else:
            height = 0 if rows is None else rows
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(height)], cols=len(cols))

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        return self._data

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        if self.rows and self.cols:
            return f"IntMatrix({[list(r) for r in self._data]})"
        return f"IntMatrix.zeros({self.rows}, {self.cols})"

    def shifted(self, s: int, t: int) -> "IntMatrix":
        """s * self + t * I in one pass, for a square matrix.

        >>> IntMatrix([[0, 1], [1, 0]]).shifted(1, -11)
        IntMatrix([[-11, 1], [1, -11]])
        """
        s, t = self._as_int(s), self._as_int(t)
        if not self.is_square:
            raise DimensionMismatch(f"shifted needs a square matrix, got {self.rows}x{self.cols}")
        data = [[s * a for a in row] for row in self._data]
        for i, row in enumerate(data):
            row[i] += t
        return IntMatrix._trusted(tuple(map(tuple, data)), self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self._data)) if self.rows else ((),) * self.cols, self.rows)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def diagonal_invariants(diagonal: Iterable[int]) -> tuple[int, ...]:
    """The Smith invariants of a diagonal matrix with nonnegative entries.

    Ones lead and zeros trail.  Every other pair (a_i, a_j), i < j, with a_i
    not dividing a_j becomes (gcd, lcm), since diag(a, b) and diag(gcd, lcm)
    are equivalent.  After the pass for i, a_i divides every later entry, so
    a chain passes through with divisibility checks alone; nothing is factored.

    >>> diagonal_invariants([0, 4, 1, 6])
    (1, 2, 12, 0)
    """
    diagonal = list(diagonal)
    chain = [d for d in diagonal if d > 1]
    for i, a in enumerate(chain):
        for j in range(i + 1, len(chain)):
            b = chain[j]
            if b % a:
                g = gcd(a, b)
                chain[j] = a // g * b
                a = g
        chain[i] = a
    return (1,) * diagonal.count(1) + tuple(chain) + (0,) * diagonal.count(0)


def smith_normal_form(a: IntMatrix) -> tuple[int, ...]:
    """The Smith invariants of a: d1 | d2 | ... , zeros last, min(rows, cols) of them.

    Only the invariants are computed; no unimodular transforms are built.
    Rows are {column: entry} dicts with a column -> rows index.  The pivot
    is a smallest |entry|, ties broken by the Markowitz cost
    (row nnz - 1)(column nnz - 1), then by (row, column).  Row operations
    clear its column, then the pivot row is reduced modulo the pivot; a
    surviving remainder becomes the pivot and the clearing repeats.  The
    diagonal this reaches goes through `diagonal_invariants`; there is no
    divisibility fix-up.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    (2, 4)
    >>> smith_normal_form(IntMatrix([[2, 4, 6], [4, 8, 12]]))
    (2, 0)
    >>> smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    (1, 6)
    """
    rows = {i: r for i, dense in enumerate(a._data) if (r := {j: e for j, e in enumerate(dense) if e})}
    where = {j: {i for i, e in enumerate(col) if e} for j, col in enumerate(zip(*a._data))}
    diagonal = []
    while rows:
        _, _, pi, pj = min(
            (abs(e), (len(row) - 1) * (len(where[j]) - 1), i, j)
            for i, row in rows.items()
            for j, e in row.items()
        )
        while True:
            prow, d = rows[pi], rows[pi][pj]
            # clear column pj with row operations
            for i in where[pj] - {pi}:
                row = rows[i]
                k = row[pj] // d
                if not k:
                    continue
                for j, e in prow.items():
                    v = row.get(j, 0) - k * e
                    if v:
                        row[j] = v
                        where[j].add(i)
                    else:
                        del row[j]
                        where[j].discard(i)
                if not row:
                    del rows[i]
            if len(where[pj]) > 1:  # remainders survive: the least is the pivot
                pi = min(where[pj] - {pi}, key=lambda i: abs(rows[i][pj]))
                continue
            # column pj is clear, so reducing the pivot row modulo d touches it alone
            for j in [j for j in prow if j != pj]:
                prow[j] %= d
                if not prow[j]:
                    del prow[j]
                    where[j].discard(pi)
            if len(prow) > 1:
                pj = min((j for j in prow if j != pj), key=lambda j: abs(prow[j]))
                continue
            diagonal.append(abs(d))
            del rows[pi]  # a lone pivot: its column holds nothing else either
            break
    return diagonal_invariants(diagonal + [0] * (min(a.rows, a.cols) - len(diagonal)))
