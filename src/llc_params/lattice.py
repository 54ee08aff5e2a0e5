"""Exact integer matrices and their Smith invariants.

Matrices are immutable, row major, and arbitrary precision.  A matrix with
``rows`` r and ``cols`` c represents a homomorphism Z^c -> Z^r sending the
j-th basis vector to column j.  Empty matrices (r = 0 or c = 0) are legal and
mean what they should.

Everything downstream (fixed schemes of twisted Frobenius maps, kernels of
character maps, centers of root data) reduces to the Smith invariants
computed here, so this module has no dependencies beyond the error types.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import DimensionMismatch, InvalidArgument


class IntMatrix:
    """An immutable matrix over Z.

    >>> a = IntMatrix([[2, 4], [6, 8]])
    >>> a.rows, a.cols
    (2, 2)
    >>> a[1, 0]
    6
    >>> a.transpose() @ IntMatrix.identity(2) == a.transpose()
    True
    """

    __slots__ = ("_data", "rows", "cols")

    def __init__(self, data: Iterable[Sequence[int]], *, cols: int | None = None):
        rows = []
        for row in data:
            rows.append(tuple(self._as_int(x) for x in row))
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

    @staticmethod
    def _as_int(x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidArgument(f"matrix entries must be plain integers, got {x!r}")
        return x

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 0:
            raise InvalidArgument("identity size must be nonnegative")
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

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

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self._data[i][j] for i in range(self.rows))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._data[i][j]

    def __iter__(self):
        return iter(self._data)

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

    def _require_same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return IntMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)],
            cols=self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return IntMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)],
            cols=self.cols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in row] for row in self._data], cols=self.cols)

    def __rmul__(self, k: int) -> "IntMatrix":
        if isinstance(k, bool) or not isinstance(k, int):
            return NotImplemented
        return IntMatrix([[k * a for a in row] for row in self._data], cols=self.cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ocols = [other.column(j) for j in range(other.cols)]
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ocols] for row in self._data],
            cols=other.cols,
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise InvalidArgument(f"determinant needs a square matrix, got {self.rows}x{self.cols}")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self._data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # Bareiss update: division is exact
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.is_square and self.det() in (1, -1)


def smith_normal_form(a: IntMatrix) -> tuple[int, ...]:
    """The Smith invariants of a: d1 | d2 | ... , zeros last, min(rows, cols) of them.

    The invariants are the diagonal of the Smith normal form: nonnegative,
    each nonzero one dividing the next, and as many as the shorter side of a.
    Only the invariants are computed; no unimodular transforms are built.
    Pivot selection is the smallest nonzero entry in absolute value, ties
    broken by (row, column) index.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    (2, 4)
    >>> smith_normal_form(IntMatrix([[2, 4, 6], [4, 8, 12]]))
    (2, 0)
    """
    r, c = a.rows, a.cols
    m = [list(row) for row in a.data]

    t = 0
    while t < min(r, c):
        # locate the pivot: smallest absolute nonzero entry, (i, j) tie-break
        piv = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                e = m[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]

        # clear column t below the pivot, then row t to its right; if any
        # remainder survives, a strictly smaller pivot now exists and we loop
        dirty = False
        d = m[t][t]
        top = m[t]
        for i in range(t + 1, r):
            row = m[i]
            k = row[t] // d
            if k:
                for j in range(t, c):
                    row[j] -= k * top[j]
            if row[t]:
                dirty = True
        for j in range(t + 1, c):
            k = top[j] // d
            if k:
                for row in m:
                    row[j] -= k * row[t]
            if top[j]:
                dirty = True
        if dirty:
            continue

        # divisibility fix-up: the pivot must divide the rest of the block
        bad = None
        for i in range(t + 1, r):
            if any(m[i][j] % d for j in range(t + 1, c)):
                bad = i
                break
        if bad is not None:
            for j in range(t, c):
                top[j] += m[bad][j]
            continue
        t += 1

    return tuple(abs(m[i][i]) for i in range(min(r, c)))
