import random
from fractions import Fraction

from conftest import rand_fraction
from oracles import rank_by_minors
from sarxid import RatMatrix, Subspace, solve_affine


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return RatMatrix([[rand_fraction(rng, lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_rank_matches_minor_enumeration(rng):
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert m.rank() == rank_by_minors(m)


def test_kernel_vectors_annihilate_and_count(rng):
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = m.kernel_basis()
        assert len(basis) == m.cols - m.rank()
        for v in basis:
            assert (m @ v).is_zero()
        if basis:
            stacked = RatMatrix.hstack(basis)
            assert stacked.rank() == len(basis)


def test_rref_is_idempotent_and_rank_revealing(rng):
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        red, pivots = m.rref()
        again, pivots2 = red.rref()
        assert again == red
        assert pivots == pivots2


def test_determinant_multiplicative(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert (a @ b).determinant() == a.determinant() * b.determinant()


def test_solve_affine_full_solution_set(rng):
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x_true = RatMatrix.column(
            [rand_fraction(rng) for _ in range(a.cols)]
        )
        b = a @ x_true
        sol = solve_affine(a, b)
        assert sol is not None
        particular, kernel = sol
        assert a @ particular == b
        for v in kernel:
            assert (a @ v).is_zero()
        # x_true - particular must lie in the kernel span
        diff = x_true - particular
        span = Subspace(a.cols, kernel)
        assert span.contains(diff)


def test_solve_affine_detects_inconsistency():
    a = RatMatrix([[1, 1], [1, 1]])
    b = RatMatrix.column([0, 1])
    assert solve_affine(a, b) is None


def test_subspace_canonical_form_and_union():
    v1 = RatMatrix.column([1, 0, 1])
    v2 = RatMatrix.column([2, 0, 2])
    s = Subspace(3, [v1, v2])
    assert s.dim == 1
    assert s.contains(RatMatrix.column([Fraction(-3), 0, Fraction(-3)]))
    assert not s.contains(RatMatrix.column([1, 1, 1]))
    grown = Subspace(3, [v1, v2, RatMatrix.column([0, 1, 0])])
    assert grown.dim == 2
    # canonical form makes equality representation independent
    assert Subspace(3, [v1]) == Subspace(3, [v2])


def test_zero_row_matrices_keep_their_columns():
    empty = RatMatrix.zeros(0, 3)
    assert empty.shape == (0, 3)
    assert len(empty.kernel_basis()) == 3
    zero = Subspace(3)
    assert zero.basis_rows_matrix().shape == (0, 3)
    assert zero.contains(RatMatrix.column([0, 0, 0]))
    assert not zero.contains(RatMatrix.column([0, 1, 0]))


def test_matrix_power_and_trace(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        assert a.power(3) == a @ a @ a
        assert a.power(0) == RatMatrix.identity(n)
        assert a.trace() == sum((a[i, i] for i in range(n)), Fraction(0))
