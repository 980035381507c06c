"""Exact linear algebra over the rationals, computed over the integers.

A `RatMatrix` is its integer form (d, rows): d > 0 and the int rows d
times the matrix, in lowest terms.  Input is read into that form by
`read_row` (each entry by `rationals.read_rational`), `@`, `+`, `-`,
`transpose`, `scale`, the eliminations, both simulators and `Subspace`
work on it, and Fractions are built only when a caller reads entries:
`[i, j]`, `row`, `col`, `to_lists`, a determinant or a trace;
`to_strings` writes the form.  `aligned` brings
several matrices to one denominator.  One elimination, `_insert`,
adds a primitive integer row to an echelon basis by fraction-free steps
(`_reduce`, the step of `multipoly._remainder` for polynomials; Bareiss,
Math. Comp. 22, 1968).  Its callers are the `Subspace` worklist and
`determinant`, which tracks the scalings and stops at the first dependent
row.  The row space of a matrix is a `Subspace` of its integer rows:
rref, kernels and `solve_affine` read their answer off its reduced rows,
which `Subspace` builds with the same step.  `_null_rows` is the one reader
of null directions, for kernels, `annihilator` and `lss._graph_map`.
One product, `sparse_apply`, applies an integer matrix read once as
sparse rows to an integer vector: `@`, the subspace closure, the state
update of `lss.simulate_lss` and the output step of `sarx.simulate_sarx`
all go through it.  `Subspace` is the one subspace builder: the span of some
vectors, closed under some maps, by a worklist over `_insert`.  Scaling a
map or a vector does not change that span, so it works on each map's
integer form and on an integer multiple of each vector, and the canonical
rref is built only when a caller reads rows.  In `lss` it is always a
reachable span, of a system, its dual or a direct sum; the isomorphism
route reads S off one, and `solve_affine` does the rest.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .rationals import _ZERO, exact, format_rational, read_rational


class RatMatrix:
    """Immutable dense matrix of rationals, row-major, held as its integer form.

    The integer form, the matrix's only state, is (d, rows): d > 0 and the
    int rows d times the matrix, in lowest terms, so that d is the least
    common denominator of the entries and equal matrices have equal forms.
    `integer_form` hands it out, and callers read it without changing it.
    `RatMatrix(...)` and `from_strings` read the entries, row after row,
    through `read_row`; `_of` takes a form that is already
    over int and brings it to lowest terms, as `transpose`, `@`, `+`, `-`,
    `scale`, `rref` and the reduced rows of a `Subspace` make it.  Entries
    are Fractions when they are read: `[i, j]`, `row`, `col`, `to_lists`;
    `to_strings` writes the form.
    """

    __slots__ = ("rows", "cols", "_form")

    def __init__(self, data, cols=0):
        """data: a list of rows; cols: the column count when there are no rows."""
        self.rows, self.cols = len(data), _width(data, cols)
        d, flat = read_row([x for row in data for x in row])
        c = self.cols
        self._form = d, [flat[i * c : (i + 1) * c] for i in range(self.rows)]

    @classmethod
    def _of(cls, d, ints, cols):
        """The matrix ints / d, brought to lowest terms; int rows of `cols` entries, d > 0."""
        if d != 1:
            g = gcd(d, *[x for row in ints for x in row])
            if g != 1:
                d, ints = d // g, [[x // g for x in row] for row in ints]
        m = cls.__new__(cls)
        m.rows, m.cols, m._form = len(ints), cols, (d, ints)
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of(1, [[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        return cls._of(1, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @classmethod
    def column(cls, entries):
        """The n x 1 matrix of the entries (`test_entries_are_read_off_the_integer_form`)."""
        return cls([[x] for x in entries], 1)

    @classmethod
    def from_strings(cls, data):
        if not (isinstance(data, list) and all(isinstance(r, list) for r in data)):
            raise ValueError("a matrix must be a list of rows, each a list")
        return cls(data)

    # -- access -------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        d, ints = self._form
        return Fraction(ints[i][j], d)

    def row(self, i):
        """Row i (`test_entries_are_read_off_the_integer_form`)."""
        return _fractions(self._form[1][i], self._form[0])

    def col(self, j):
        """Column j (`test_entries_are_read_off_the_integer_form`)."""
        d, ints = self._form
        return _fractions([row[j] for row in ints], d)

    def integer_form(self):
        """(d, rows), the state: d > 0 and the int rows d times the matrix, in lowest terms."""
        return self._form

    def to_lists(self):
        """The entries as Fractions, row by row (`test_entries_are_read_off_the_integer_form`)."""
        d, ints = self._form
        return [list(_fractions(row, d)) for row in ints]

    def to_strings(self):
        d, ints = self._form
        return [[format_rational(x, d) for x in row] for row in ints]

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
            and self._form == other._form
        )

    def _entrywise(self, other, op):
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %s vs %s" % (self.shape, other.shape))
        d, (left, right) = aligned(self, other)
        return RatMatrix._of(d, [list(map(op, ra, rb)) for ra, rb in zip(left, right)], self.cols)

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def scale(self, c):
        c = exact(c)
        d, ints = self._form
        n = c.numerator
        return RatMatrix._of(d * c.denominator, [[n * x for x in row] for row in ints], self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch for product: %s @ %s" % (self.shape, other.shape)
            )
        # self = L / d and other = R / e: the entry (i, j) is (L R)[i, j] / (d e)
        (d, left), (e, right) = self._form, other._form
        rows = sparse_rows(left)
        out = [sparse_apply(rows, c) for c in (zip(*right) if right else [()] * other.cols)]
        ints = [list(row) for row in zip(*out)] if out else [[] for _ in range(self.rows)]
        return RatMatrix._of(d * e, ints, other.cols)

    def transpose(self):
        if not (self.rows and self.cols):
            return RatMatrix.zeros(self.cols, self.rows)
        d, ints = self._form
        return RatMatrix._of(d, [list(col) for col in zip(*ints)], self.rows)

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of non-square matrix")
        d, ints = self._form
        return Fraction(sum(ints[i][i] for i in range(self.rows)), d)

    # -- elimination --------------------------------------------------

    def _row_space(self):
        """The row space, the integer rows fed last-first so that the worklist inserts them in order."""
        return Subspace(self.cols, reversed(self._form[1]))

    def rref(self):
        """Reduced row echelon form, read off the reduced rows of the row space.

        Returns (R, pivot_columns).  rank == len(pivot_columns).
        `test_rref_is_idempotent_and_rank_revealing` checks it against sympy.
        """
        reduced = self._row_space()._rows()
        zero = [0] * self.cols
        m = [(row, row[p]) for p, row in reduced] + [(zero, 1)] * (self.rows - len(reduced))
        return _stacked(m, self.cols), [p for p, _ in reduced]

    def kernel_basis(self):
        """Basis of {x : Mx = 0} as a list of n x 1 column matrices."""
        return _kernel(self._row_space()._rows(), self.cols)

    def determinant(self):
        """Bareiss: the integer form's rows inserted one at a time; 0 at the first dependent one.

        Row i enters as d times itself and `_insert` returns it scaled by mul/div,
        so det = sign * prod(lead * div / (mul * d)), the sign sorting the pivots.
        """
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        basis, num, den = [], 1, 1
        d, rows = self._form
        for v in rows:
            found = _insert(basis, v)
            if found is None:
                return _ZERO
            pivot, v, mul, div = found
            num *= -v[pivot] * div if sum(p > pivot for p, _ in basis) % 2 else v[pivot] * div
            den *= mul * d
        return Fraction(num, den)

    def __repr__(self):
        return "RatMatrix(%r)" % (self.to_strings(),)


def read_row(values):
    """(d, ints): the values, each read by `read_rational`, as int numerators over
    the lcm d of their denominators, in lowest terms.  The one reader of a row of
    input, for `RatMatrix`, `Subspace` and `sarx.HybridWord`."""
    read = [read_rational(x) for x in values]
    d = lcm(*{b for _, b in read})
    return d, [a * (d // b) for a, b in read]


def aligned(*matrices):
    """(d, [rows, ...]): the matrices' integer rows over their least common denominator d.

    A matrix already over d hands out its own rows, which callers must not change.
    """
    forms = [m._form for m in matrices]
    d = lcm(*[e for e, _ in forms])
    return d, [rows if e == d else [[x * (d // e) for x in row] for row in rows]
               for e, rows in forms]


def _stacked(rows, cols):
    """The matrix whose row i is the int row r_i over the positive int s_i, rows = [(r_i, s_i)]."""
    d = lcm(*[s for _, s in rows])
    return RatMatrix._of(d, [[x * (d // s) for x in r] for r, s in rows], cols)


def _width(data, cols):
    """The length of every row, or cols when there are none; ragged rows are refused."""
    if data:
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
    return cols


def lowest_terms(v, s):
    """The int vector v over the positive int s, both divided by their gcd."""
    g = gcd(s, *v)
    if g == 1:
        return v, s
    return [a // g for a in v], s // g


def _reduce(v, rows):
    """The integer row v made primitive and reduced at the pivots of the rows.

    rows holds (pivot, row) pairs, each row a primitive integer row that is
    positive at its pivot p and zero at the pivots of the rows before it.
    At each row r in turn, with c = r[p] and g = gcd(c, v[p]),
    v <- (c/g) v - (v[p]/g) r, then v is divided by its content: every step
    is over int, and v stays primitive.  Returns None when v reaches 0, else
    (v, mul, div) with v = (mul/div)(v_in - a combination of the rows).
    """
    mul, div = 1, gcd(*v)
    if not div:
        return None
    if div != 1:
        v = [a // div for a in v]
    for p, row in rows:
        x = v[p]
        if x:
            g = gcd(row[p], x)
            c, x = row[p] // g, x // g
            if c == 1:
                v = [a - x * b for a, b in zip(v, row)]
            else:
                v = [c * a - x * b for a, b in zip(v, row)]
                mul *= c
            g = gcd(*v)
            if not g:
                return None
            if g != 1:
                v = [a // g for a in v]
                div *= g
    return v, mul, div


def _insert(basis, v):
    """Add the integer row v to an echelon basis, in place: the one elimination.

    basis is a list of (pivot, row) pairs sorted by pivot, each row
    primitive, zero before its pivot and positive at it.  v is reduced by
    the rows in pivot order (`_reduce`), made positive at its pivot and
    inserted in pivot order; no row is mutated, so a copy of the list is an
    independent basis.  Returns None when v is in the span, else
    (pivot, new row, mul, div) with new row = (mul/div)(v - a combination
    of the basis rows).
    """
    found = _reduce(v, basis)
    if found is None:
        return None
    v, mul, div = found
    pivot = next(i for i, x in enumerate(v) if x)
    if v[pivot] < 0:
        v = [-x for x in v]
        mul = -mul
    insort(basis, (pivot, v))
    return pivot, v, mul, div


def _fractions(row, d):
    """The int row over the positive int d, as a tuple of Fractions."""
    return tuple(Fraction(x, d) if x else _ZERO for x in row)


def _null_rows(reduced, cols):
    """Per non-pivot column k below `cols`, (k, the integer kernel vector that is d > 0 at k).

    reduced holds the rows of a reduced echelon form; the kernel vector is
    d at k, -row[k] * d / row[p] at each pivot p and 0 elsewhere, with d
    the least that makes it integral.
    """
    pivots = {p for p, _ in reduced}
    out = []
    for k in range(cols):
        if k in pivots:
            continue
        d = lcm(*[row[p] for p, row in reduced if row[k]])
        v = [0] * cols
        v[k] = d
        for p, row in reduced:
            if row[k]:
                v[p] = -row[k] * (d // row[p])
        out.append((k, v))
    return out


def _kernel(reduced, cols):
    """Kernel basis, 1 at each free column, off reduced rows whose first `cols` columns are an rref."""
    return [RatMatrix._of(v[k], [[x] for x in v], 1) for k, v in _null_rows(reduced, cols)]


def sparse_rows(rows):
    """Per row of an integer matrix, its nonzero (column, value) entries."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def sparse_apply(rows, v):
    """The one product: the integer matrix with these `sparse_rows` applied to the int vector v."""
    out = []
    for row in rows:
        s = 0
        for j, a in row:
            s += a * v[j]
        out.append(s)
    return out


def solve_affine(a: RatMatrix, b: RatMatrix):
    """Full solution set of A x = b, from one reduction of [A | b].

    Returns (particular, kernel_basis) with particular an n x 1 column, or
    None when the system is inconsistent.  When it is consistent, the first
    a.cols columns of the reduced [A | b] are the rref of A, so the kernel
    comes from the same reduction.
    """
    if a.rows != b.rows or b.cols != 1:
        raise ValueError("shape mismatch in solve_affine")
    # [A | b] times its common denominator, which has the same row space
    _, (left, right) = aligned(a, b)
    augmented = RatMatrix._of(1, [ra + rb for ra, rb in zip(left, right)], a.cols + 1)
    reduced = augmented._row_space()._rows()
    if reduced and reduced[-1][0] == a.cols:
        return None
    x = [([0], 1)] * a.cols
    for p, row in reduced:
        x[p] = [row[a.cols]], row[p]
    return _stacked(x, 1), _kernel(reduced, a.cols)


class Subspace:
    """Smallest subspace of Q^n holding the vectors and invariant under the maps.

    A worklist inserts each vector, as a primitive integer row, into an
    echelon basis of at most n rows; only a vector that is new to the span
    is pushed through the maps, each read as its integer form.  `dim` reads the
    basis; the canonical reduced rows are built each time a caller reads
    rows or compares.
    """

    __slots__ = ("ambient_dim", "_basis")

    def __init__(self, ambient_dim, vectors=(), maps=()):
        """vectors: n x 1 column matrices or coordinate sequences, whose
        entries are read as `RatMatrix` entries are; maps: n x n RatMatrix."""
        self.ambient_dim = ambient_dim
        work = []
        for v in vectors:
            # a vector's multiples span the same line: each enters as an integer one
            if isinstance(v, RatMatrix):
                if v.shape != (ambient_dim, 1):
                    raise ValueError("vector shape mismatch")
                v = [row[0] for row in v._form[1]]
            elif len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
            elif all(type(x) is int for x in v):
                v = list(v)
            else:
                v = read_row(v)[1]
            work.append(v)
        if any(m.shape != (ambient_dim, ambient_dim) for m in maps):
            raise ValueError("map shape mismatch")
        rows = [sparse_rows(m.integer_form()[1]) for m in maps]
        basis = []
        while work and len(basis) < ambient_dim:
            found = _insert(basis, work.pop())
            if found is not None:
                work.extend(sparse_apply(m, found[1]) for m in rows)
        self._basis = basis

    @property
    def dim(self):
        return len(self._basis)

    def _rows(self):
        """The canonical basis: the rref rows, each as its primitive integer multiple.

        Each basis row, from the last up, is reduced at the pivots below it by
        `_reduce`, which keeps its pivot entry positive; row i of the rref is
        row i divided by its entry at its pivot.
        """
        done = []
        for p, v in reversed(self._basis):
            done.append((p, _reduce(v, done)[0]))
        return done[::-1]

    def basis_rows_matrix(self):
        """The reduced rows; `test_subspace_is_the_rref_of_its_vectors_in_any_order` checks them."""
        return _stacked([(row, row[p]) for p, row in self._rows()], self.ambient_dim)

    def annihilator(self):
        """{x : v . x = 0 for every v in the subspace}, read off the reduced rows."""
        null = _null_rows(self._rows(), self.ambient_dim)
        return Subspace(self.ambient_dim, [v for _, v in null])

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows() == other._rows()
        )

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)
