"""Exact linear algebra over the rationals.

Dense matrices of Fractions with fraction-free-ish Gauss-Jordan elimination
(pivoting is exact, so no fill-in tricks are needed at these sizes).  Every
rank, kernel and solvability verdict downstream rests on rref().
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import format_rational, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RatMatrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data):
        data = [tuple(Fraction(x) for x in row) for row in data]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.rows = len(data)
        self.cols = width
        self._data = tuple(data)

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        m = cls([[_ZERO] * cols for _ in range(rows)])
        m.cols = cols  # the column count of a zero-row matrix
        return m

    @classmethod
    def identity(cls, n):
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries):
        return cls([[x] for x in entries])

    @classmethod
    def row_vector(cls, entries):
        return cls([list(entries)])

    @classmethod
    def from_strings(cls, data):
        return cls([[parse_rational(x) for x in row] for row in data])

    # -- access -------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def col(self, j):
        return tuple(self._data[i][j] for i in range(self.rows))

    def column_matrix(self, j):
        return RatMatrix.column(self.col(j))

    def to_lists(self):
        return [list(row) for row in self._data]

    def to_strings(self):
        return [[format_rational(x) for x in row] for row in self._data]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self):
        return all(x == 0 for row in self._data for x in row)

    def is_square(self):
        return self.rows == self.cols

    # -- algebra ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.shape == other.shape
            and self._data == other._data
        )

    def __hash__(self):
        return hash(self._data)

    def __add__(self, other):
        self._check_same_shape(other)
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return RatMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def __neg__(self):
        return self.scale(Fraction(-1))

    def scale(self, c):
        c = Fraction(c)
        return RatMatrix([[c * x for x in row] for row in self._data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch for product: %s @ %s" % (self.shape, other.shape)
            )
        bt = list(zip(*other._data)) if other._data else []
        return RatMatrix(
            [
                [sum((a * b for a, b in zip(row, colb)), _ZERO) for colb in bt]
                for row in self._data
            ]
        )

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            return self.__matmul__(other)
        return self.scale(other)

    __rmul__ = scale

    def transpose(self):
        return RatMatrix(list(zip(*self._data)) if self._data else [])

    def power(self, k):
        if not self.is_square():
            raise ValueError("power of non-square matrix")
        result = RatMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of non-square matrix")
        return sum((self._data[i][i] for i in range(self.rows)), _ZERO)

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %s vs %s" % (self.shape, other.shape))

    # -- stacking -----------------------------------------------------

    @staticmethod
    def hstack(blocks):
        blocks = [b for b in blocks]
        if not blocks:
            return RatMatrix([])
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("hstack row mismatch")
        return RatMatrix(
            [sum((list(b.row(i)) for b in blocks), []) for i in range(rows)]
        )

    @staticmethod
    def vstack(blocks):
        blocks = [b for b in blocks]
        if not blocks:
            return RatMatrix([])
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("vstack column mismatch")
        data = []
        for b in blocks:
            data.extend(b.to_lists())
        return RatMatrix(data)

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns (R, pivot_columns).  rank == len(pivot_columns).
        """
        m = self.to_lists()
        rows, cols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(cols):
            pivot_row = None
            for i in range(r, rows):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == rows:
                break
        return RatMatrix(m), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of {x : Mx = 0} as a list of n x 1 column matrices."""
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [_ZERO] * self.cols
            v[fc] = _ONE
            for r, pc in enumerate(pivots):
                v[pc] = -red[r, fc]
            basis.append(RatMatrix.column(v))
        return basis

    def determinant(self):
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        m = self.to_lists()
        n = self.rows
        det = _ONE
        for c in range(n):
            pivot_row = None
            for i in range(c, n):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                return _ZERO
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def __repr__(self):
        return "RatMatrix(%r)" % (self.to_strings(),)


def solve_affine(a: RatMatrix, b: RatMatrix):
    """Full solution set of A x = b.

    Returns (particular, kernel_basis) with particular an n x 1 column, or
    None when the system is inconsistent.
    """
    if a.rows != b.rows or b.cols != 1:
        raise ValueError("shape mismatch in solve_affine")
    aug = RatMatrix.hstack([a, b])
    red, pivots = aug.rref()
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r, a.cols]
    return RatMatrix.column(x), a.kernel_basis()


def row_space_basis(m: RatMatrix):
    """Canonical (rref) basis of the row space, as a list of row tuples."""
    red, pivots = m.rref()
    return [red.row(i) for i in range(len(pivots))]


class Subspace:
    """Subspace of Q^n held in canonical rref-row form."""

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim, vectors=()):
        """vectors: iterable of n x 1 column matrices (or coordinate tuples)."""
        self.ambient_dim = ambient_dim
        rows = []
        for v in vectors:
            if isinstance(v, RatMatrix):
                if v.shape != (ambient_dim, 1):
                    raise ValueError("vector shape mismatch")
                rows.append([v[i, 0] for i in range(ambient_dim)])
            else:
                if len(v) != ambient_dim:
                    raise ValueError("vector length mismatch")
                rows.append([Fraction(x) for x in v])
        if rows:
            self._rows = tuple(row_space_basis(RatMatrix(rows)))
        else:
            self._rows = ()

    @property
    def dim(self):
        return len(self._rows)

    def basis_rows_matrix(self):
        if not self._rows:
            return RatMatrix.zeros(0, self.ambient_dim)
        return RatMatrix(list(self._rows))

    def contains(self, v: RatMatrix):
        stacked = RatMatrix.vstack(
            [self.basis_rows_matrix(), RatMatrix([[v[i, 0] for i in range(self.ambient_dim)]])]
        )
        return stacked.rank() == self.dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self._rows))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)
