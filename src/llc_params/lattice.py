"""Exact integer matrices and their Smith invariants.

Matrices are frozen records (``errors.FrozenRecord``) of arbitrary
precision.  A matrix with ``rows`` r and ``cols`` c represents a
homomorphism Z^c -> Z^r sending the j-th basis vector to column j.  Empty
matrices (r = 0 or c = 0) are legal and mean what they should.

A matrix is held as its nonzeros: each row is a tuple of (column, entry)
pairs, columns ascending.  Dense rows are only the constructor's input (the
``--weyl`` JSON and the tests), and ``data`` is their read-out.  A matrix
and its transpose cost O(rows + nnz), and `smith_normal_form` takes the rows
as they are.  A ``--weyl`` matrix is read or refused in O(nnz) and takes no
Smith form.

No command takes a Smith form: a twist's cokernels are read off its cycle
type (`rootdata`), so only a ``--weyl`` matrix loads this module.  It sits
on top of the normal form (`abgroups`): `IntMatrix`, `smith_normal_form`
and `cokernel` are the library's route for arbitrary matrices, which
acceptance claims 08, 09 and 11 certify.  `smith_normal_form` eliminates
sparsely: smallest |entry| first, ties by Markowitz cost, down to any
diagonal, whose Smith invariants `diagonal_invariants` then takes.  Each
pivot is found by one scan of the live nonzeros, so the search costs
O(pivots * nnz), quadratic on a sparse n x n matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

from .abgroups import FinGenAbGroup, diagonal_invariants
from .errors import FrozenRecord, InvalidArgument


class IntMatrix(FrozenRecord):
    """An immutable matrix over Z, held as its nonzeros row by row.

    ``IntMatrix._make(nonzeros, rows, cols)`` takes rows of (column, plain
    int) nonzeros, columns ascending, as they are.

    >>> a = IntMatrix([[2, 0], [6, 8]])
    >>> a.rows, a.cols, a.nonzeros
    (2, 2, (((0, 2),), ((0, 6), (1, 8))))
    >>> a.transpose()
    IntMatrix([[2, 6], [0, 8]])
    """

    __slots__ = ("nonzeros", "rows", "cols")

    def __init__(self, data: Iterable[Sequence[int]], *, cols: int | None = None):
        rows = list(map(tuple, data))
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            # a bool, a non-integer or an int subclass: refuse the first bad
            # entry, or accept int subclasses as they are
            for x in chain.from_iterable(rows):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise InvalidArgument(f"matrix entries must be plain integers, got {x!r}")
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
        nonzeros = tuple(tuple((j, e) for j, e in enumerate(r) if e) for r in rows)
        self._fill(nonzeros, len(rows), width)

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows: a read-out, O(rows * cols)."""
        out = []
        for row in self.nonzeros:
            dense = [0] * self.cols
            for j, e in row:
                dense[j] = e
            out.append(tuple(dense))
        return tuple(out)

    def __repr__(self) -> str:
        if self.rows:
            return f"IntMatrix({[list(r) for r in self.data]})"
        return f"IntMatrix([], cols={self.cols})"

    def transpose(self) -> "IntMatrix":
        columns = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzeros):
            for j, e in row:
                columns[j].append((i, e))
        return IntMatrix._make(tuple(map(tuple, columns)), self.cols, self.rows)


def smith_normal_form(a: IntMatrix) -> tuple[int, ...]:
    """The Smith invariants of a: d1 | d2 | ... , zeros last, min(rows, cols) of them.

    Only the invariants are computed; no unimodular transforms are built.
    The stored rows are copied into {column: entry} dicts with a column ->
    rows index.  The pivot is a smallest |entry|, ties broken by the
    Markowitz cost (row nnz - 1)(column nnz - 1), then by (row, column).
    Row operations clear its column, then the pivot row is reduced modulo
    the pivot; a surviving remainder becomes the pivot and the clearing
    repeats.  The diagonal this reaches goes through `diagonal_invariants`;
    there is no divisibility fix-up.

    The pivot search scans the live nonzeros once per pivot, so it costs
    O(pivots * nnz), quadratic on a sparse n x n matrix.  The cost tie-break
    matters: without it, a matrix with many equal magnitudes fills its rows
    in.  The invariants do not depend on the pivot order.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    (2, 4)
    >>> smith_normal_form(IntMatrix([[2, 4, 6], [4, 8, 12]]))
    (2, 0)
    >>> smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    (1, 6)
    """
    rows = {i: dict(r) for i, r in enumerate(a.nonzeros) if r}
    where = {j: set() for j in range(a.cols)}
    for i, row in rows.items():
        for j in row:
            where[j].add(i)
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
            # column pj is clear, so reducing the pivot row modulo d touches it alone;
            # should the pivot leave this row, clearing its new column touches the row
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


def cokernel(a: IntMatrix) -> FinGenAbGroup:
    """Z^rows / (column span of a), from the Smith normal form.

    >>> cokernel(IntMatrix([[1, -1], [-1, 1]]))
    FinGenAbGroup(free_rank=1, invariant_factors=())
    >>> cokernel(IntMatrix([[-11, 1], [1, -11]]))
    FinGenAbGroup(free_rank=0, invariant_factors=(120,))
    """
    nonzero = [e for e in smith_normal_form(a) if e != 0]
    return FinGenAbGroup(a.rows - len(nonzero), tuple(e for e in nonzero if e > 1))
