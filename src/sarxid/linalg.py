"""Exact linear algebra over the rationals.

Dense matrices of Fractions.  One elimination over Fraction, `_insert`, adds
a row to a reduced echelon basis and is the only one: rref, kernel,
determinant and every linear solve read their answer off it, and each solve
reduces its matrix once.  One product, `sparse_apply`, applies a matrix read
once as sparse rows to a vector: `@`, the subspace closure, the state
update of `lss.simulate_lss` and the output step of `sarx.simulate_sarx`
all go through it.  `Subspace` is the one subspace builder: the span of
some vectors, closed under some maps, by a worklist over `_insert`.  In `lss`
it is always a reachable span, of a system, its dual or a direct sum; the
isomorphism route reads S off one, and `solve_affine` does the rest.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

from .rationals import exact, format_rational, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RatMatrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data, cols=0):
        """data: a list of rows; cols: the column count when there are no rows."""
        data = [tuple(x if type(x) is Fraction else parse_rational(x) if isinstance(x, str)
                      else exact(x) for x in row) for row in data]
        if data:
            cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise ValueError("ragged rows")
        self.rows = len(data)
        self.cols = cols
        self._data = tuple(data)

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[_ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries):
        return cls([[x] for x in entries], 1)

    @classmethod
    def from_strings(cls, data):
        if not (isinstance(data, list) and all(isinstance(r, list) for r in data)):
            raise ValueError("a matrix must be a list of rows, each a list")
        return cls([[parse_rational(x) for x in row] for row in data])

    # -- access -------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def col(self, j):
        return tuple(self._data[i][j] for i in range(self.rows))

    def to_lists(self):
        return [list(row) for row in self._data]

    def to_strings(self):
        return [[format_rational(x) for x in row] for row in self._data]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self):
        return self.rows == self.cols

    # -- algebra ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.shape == other.shape
            and self._data == other._data
        )

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

    def scale(self, c):
        c = exact(c)
        return RatMatrix([[c * x for x in row] for row in self._data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch for product: %s @ %s" % (self.shape, other.shape)
            )
        rows = sparse_rows(self._data)
        # column j of the product is the rows applied to column j of other; the
        # transposes keep every zero shape, (n x 0) @ (0 x k) included
        out = [sparse_apply(rows, colb) for colb in other.transpose()._data]
        return RatMatrix(out, self.rows).transpose()

    def transpose(self):
        if not (self.rows and self.cols):
            return RatMatrix.zeros(self.cols, self.rows)
        return RatMatrix(list(zip(*self._data)))

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of non-square matrix")
        return sum((self._data[i][i] for i in range(self.rows)), _ZERO)

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %s vs %s" % (self.shape, other.shape))

    # -- elimination --------------------------------------------------

    def _gauss_jordan(self):
        """Insert the rows one at a time into a reduced echelon basis.

        Returns (reduced rows, pivot columns, product of the leading entries
        with the sign of the permutation that sorts the pivots); that product
        is the determinant when the matrix is square and of full rank.
        """
        basis = []
        product = _ONE
        for row in self._data:
            if len(basis) == self.cols:
                break
            found = _insert(basis, row)
            if found is not None:
                pivot, lead, _ = found
                product *= -lead if sum(p > pivot for p, _ in basis) % 2 else lead
        m = [row for _, row in basis] + [[_ZERO] * self.cols] * (self.rows - len(basis))
        return m, [p for p, _ in basis], product

    def rref(self):
        """Reduced row echelon form.

        Returns (R, pivot_columns).  rank == len(pivot_columns).
        """
        m, pivots, _ = self._gauss_jordan()
        return RatMatrix(m), pivots

    def kernel_basis(self):
        """Basis of {x : Mx = 0} as a list of n x 1 column matrices."""
        red, pivots = self.rref()
        return _null_vectors(red, pivots, self.cols)

    def determinant(self):
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        _, pivots, product = self._gauss_jordan()
        return product if len(pivots) == self.rows else _ZERO

    def __repr__(self):
        return "RatMatrix(%r)" % (self.to_strings(),)


def _insert(basis, v):
    """Add the row v to a reduced echelon basis, in place.

    basis is a list of (pivot, row) pairs sorted by pivot, each row 1 at its
    own pivot and 0 at every other.  v is reduced by the basis; what is left,
    divided by its leading entry, clears its pivot column from the other rows
    and is inserted in pivot order.  Rows are replaced, never mutated, so a
    copy of the list is an independent basis.  Returns None when v is in the
    span, else (pivot, leading entry, new row).
    """
    for p, row in basis:
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        return None
    lead = v[pivot]
    v = [x / lead for x in v]
    for k, (p, row) in enumerate(basis):
        c = row[pivot]
        if c:
            basis[k] = (p, [a - c * b for a, b in zip(row, v)])
    insort(basis, (pivot, v))
    return pivot, lead, v


def sparse_rows(rows):
    """Per row, its nonzero (column, value) entries, with a value 1 kept as None."""
    return [[(j, None if x == 1 else x) for j, x in enumerate(row) if x] for row in rows]


def sparse_apply(rows, v):
    """The one product: the matrix with these `sparse_rows`, applied to the vector v.

    A zero entry of v is skipped and a 1 of the matrix adds v's entry
    unmultiplied; the skipped terms are exactly zero.
    """
    out = []
    for row in rows:
        s = _ZERO
        for j, a in row:
            x = v[j]
            if x:
                s += x if a is None else a * x
        out.append(s)
    return out


def _null_vectors(red, pivots, cols):
    """Kernel basis read off a reduced form whose first `cols` columns are an rref."""
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [_ZERO] * cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(RatMatrix.column(v))
    return basis


def solve_affine(a: RatMatrix, b: RatMatrix):
    """Full solution set of A x = b, from one reduction of [A | b].

    Returns (particular, kernel_basis) with particular an n x 1 column, or
    None when the system is inconsistent.  When it is consistent, the first
    a.cols columns of the reduced [A | b] are the rref of A, so the kernel
    comes from the same reduction.
    """
    if a.rows != b.rows or b.cols != 1:
        raise ValueError("shape mismatch in solve_affine")
    red, pivots = RatMatrix([ra + rb for ra, rb in zip(a._data, b._data)]).rref()
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r, a.cols]
    return RatMatrix.column(x), _null_vectors(red, pivots, a.cols)


class Subspace:
    """Smallest subspace of Q^n holding the vectors and invariant under the maps.

    Held in canonical rref-row form.  A worklist inserts each vector into a
    reduced echelon basis of at most n rows; only a vector that is new to the
    span is pushed through the maps.
    """

    __slots__ = ("ambient_dim", "_basis")

    def __init__(self, ambient_dim, vectors=(), maps=()):
        """vectors: n x 1 column matrices or coordinate sequences; maps: n x n RatMatrix."""
        self.ambient_dim = ambient_dim
        work = []
        for v in vectors:
            if isinstance(v, RatMatrix):
                if v.shape != (ambient_dim, 1):
                    raise ValueError("vector shape mismatch")
                v = v.col(0)
            elif len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
            work.append([exact(x) for x in v])
        rows = [sparse_rows(m._data) for m in maps]
        basis = []
        while work and len(basis) < ambient_dim:
            found = _insert(basis, work.pop())
            if found is not None:
                work.extend(sparse_apply(m, found[2]) for m in rows)
        self._basis = tuple((p, tuple(row)) for p, row in basis)

    @property
    def dim(self):
        return len(self._basis)

    def basis_rows_matrix(self):
        return RatMatrix([row for _, row in self._basis], self.ambient_dim)

    def annihilator(self):
        """{x : v . x = 0 for every v in the subspace}, read off the reduced rows."""
        pivots = [p for p, _ in self._basis]
        null = _null_vectors(self.basis_rows_matrix(), pivots, self.ambient_dim)
        return Subspace(self.ambient_dim, null)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._basis == other._basis
        )

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)
