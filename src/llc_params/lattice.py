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

Everything downstream (fixed schemes of twisted Frobenius maps, finite tori,
centralizers) reduces to the gcd/lcm pass `diagonal_invariants`, which
`rootdata` runs on a twist's cycle data in closed form; no command takes a
Smith form.  So this module has no dependencies beyond the error types.
`smith_normal_form` is the route for an arbitrary matrix
(`abgroups.cokernel`).  It eliminates sparsely: smallest |entry| first,
ties by Markowitz cost, down to any diagonal, whose Smith invariants
`diagonal_invariants` then takes.  Each pivot is found by one scan of the
live nonzeros, so the search costs O(pivots * nnz), quadratic on a sparse
n x n matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from math import gcd

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


def diagonal_invariants(diagonal: Iterable[int]) -> tuple[int, ...]:
    """The Smith invariants of a diagonal matrix with nonnegative entries.

    Ones lead and zeros trail.  The other entries are taken as (value,
    multiplicity) groups, so a run of equal entries costs one group.  Every
    pair of groups (a, b), a before b, with a not dividing b is exchanged
    for gcd and lcm, since diag(a, b) and diag(gcd, lcm) are equivalent: the
    min(#a, #b) pairs become (gcd, lcm) and the surplus copies of a or b
    move to a new group at the end.  After the pass for a group, its value
    divides every later one, so a chain passes through with divisibility
    checks alone; nothing is factored.

    >>> diagonal_invariants([0, 4, 1, 6])
    (1, 2, 12, 0)
    >>> diagonal_invariants([6, 6, 4, 4, 4])
    (2, 2, 4, 12, 12)
    """
    diagonal = list(diagonal)
    counts = {}
    for d in diagonal:
        if d > 1:
            counts[d] = counts.get(d, 0) + 1
    groups = list(counts.items())
    for i, (a, count) in enumerate(groups):  # enumerate visits the groups appended below
        for j in range(i + 1, len(groups)):  # not those appended meanwhile: a divides them
            b, bcount = groups[j]
            if b % a:
                g = gcd(a, b)
                pairs = min(count, bcount)
                groups[j] = (a // g * b, pairs)
                if count > pairs:
                    groups.append((a, count - pairs))
                elif bcount > pairs:
                    groups.append((b, bcount - pairs))
                a, count = g, pairs
        groups[i] = (a, count)
    chain = [1] * diagonal.count(1)
    for a, count in groups:
        chain += [a] * count
    return tuple(chain) + (0,) * diagonal.count(0)


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
