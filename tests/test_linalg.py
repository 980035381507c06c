import re
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_fraction, random_rational_lss, random_word, rank
from oracles import (
    from_sympy,
    lss_trace_oracle,
    matrix_from_sympy,
    rank_by_minors,
    reference_closure,
    reference_gauss_jordan,
    reference_kernel,
    reference_solve_affine,
    siso_trace_oracle,
    to_sympy,
)
from sarxid import (
    RatMatrix,
    SarxModel,
    Subspace,
    dual,
    find_isomorphisms,
    reachable_span,
    simulate_lss,
    simulate_sarx,
    solve_affine,
    unobservable_space,
)
from sarxid import linalg
from sarxid.linalg import cleared


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return RatMatrix([[rand_fraction(rng, lo, hi) for _ in range(cols)] for _ in range(rows)])


def contains(s, v):
    """Whether the column v lies in s: adding it leaves the subspace as it is."""
    return Subspace(s.ambient_dim, [*s.basis_rows_matrix().to_lists(), v.col(0)]) == s


def test_entries_are_exact_fractions():
    third = Fraction(1, 3)
    m = RatMatrix([[2, "-3/2", "0.25", third]])
    assert m.row(0) == (2, Fraction(-3, 2), Fraction(1, 4), third)
    assert all(type(x) is Fraction for x in m.row(0))
    assert m[0, 3] == third


def test_rank_matches_minor_enumeration(rng):
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rank(m) == rank_by_minors(m)


def test_kernel_vectors_annihilate_and_count(rng):
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = m.kernel_basis()
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert m @ v == RatMatrix.zeros(m.rows, 1)
        if basis:
            stacked = RatMatrix([v.col(0) for v in basis])
            assert rank(stacked) == len(basis)


def test_determinant_multiplicative(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert (a @ b).determinant() == a.determinant() * b.determinant()


def test_determinant_stops_at_the_first_dependent_row(monkeypatch):
    """Row 2 is twice row 1: the second insertion finds it in the span, and row 3 is never inserted."""
    calls = []
    original = linalg._insert

    def counting(basis, v):
        calls.append(v)
        return original(basis, v)

    monkeypatch.setattr(linalg, "_insert", counting)
    assert RatMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 5]]).determinant() == 0
    assert len(calls) == 2


TALL = [[1, 2, 0], [0, 1, 1], [3, 0, 1], [1, 1, 1], [2, 5, 7]]


@pytest.mark.parametrize("call", [
    lambda m: m.rref(),
    lambda m: m.kernel_basis(),
    lambda m: solve_affine(RatMatrix([r[:2] for r in m.to_lists()]), RatMatrix.column(m.col(2))),
], ids=["rref", "kernel_basis", "solve_affine"])
def test_eliminations_insert_rows_in_order_and_stop_once_full(monkeypatch, call):
    """The first three rows of the 5 x 3 matrix are independent: only they are inserted, in order.

    For solve_affine they are [A | b] of an inconsistent system with A of rank 2.
    """
    calls = []
    original = linalg._insert

    def counting(basis, v):
        calls.append(list(v))
        return original(basis, v)

    monkeypatch.setattr(linalg, "_insert", counting)
    call(RatMatrix(TALL))
    assert calls == TALL[:3]


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
            assert a @ v == RatMatrix.zeros(a.rows, 1)
        # x_true - particular must lie in the kernel span
        diff = x_true - particular
        span = Subspace(a.cols, kernel)
        assert contains(span, diff)


def test_solve_affine_detects_inconsistency():
    a = RatMatrix([[1, 1], [1, 1]])
    b = RatMatrix.column([0, 1])
    assert solve_affine(a, b) is None


def test_subspace_canonical_form_and_union():
    v1 = RatMatrix.column([1, 0, 1])
    v2 = RatMatrix.column([2, 0, 2])
    s = Subspace(3, [v1, v2])
    assert s.dim == 1
    assert contains(s, RatMatrix.column([Fraction(-3), 0, Fraction(-3)]))
    assert not contains(s, RatMatrix.column([1, 1, 1]))
    grown = Subspace(3, [v1, v2, RatMatrix.column([0, 1, 0])])
    assert grown.dim == 2
    # canonical form makes equality representation independent
    assert Subspace(3, [v1]) == Subspace(3, [v2])


def test_zero_row_matrices_keep_their_columns():
    empty = RatMatrix.zeros(0, 3)
    assert empty.shape == (0, 3)
    assert empty.transpose().shape == (3, 0)
    assert empty.transpose().transpose().shape == (0, 3)
    assert len(empty.kernel_basis()) == 3
    zero = Subspace(3)
    assert zero.basis_rows_matrix().shape == (0, 3)
    assert contains(zero, RatMatrix.column([0, 0, 0]))
    assert not contains(zero, RatMatrix.column([0, 1, 0]))


def test_empty_inner_dimension():
    assert RatMatrix.column([]).shape == (0, 1)
    assert RatMatrix.zeros(2, 0) @ RatMatrix.zeros(0, 3) == RatMatrix.zeros(2, 3)


def test_matrix_trace(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        assert a.trace() == sum((a[i, i] for i in range(n)), Fraction(0))


# -- the elimination against sympy -------------------------------------------

# derandomized, so that the tier-1 gate sees the same examples on every run
properties = settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True)

entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrices(rows, cols, elements=entries):
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: RatMatrix(data, cols))


@st.composite
def square_matrices(draw, max_n=5):
    """Square matrices, a third singular and a third needing a swap for the first pivot."""
    n = draw(st.integers(1, max_n))
    rows = draw(matrices(n, n)).to_lists()
    kind = draw(st.sampled_from(["any", "singular", "swap"]))
    if kind == "singular":
        # the last row is a combination of the others (zero when n == 1)
        coeffs = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
    elif kind == "swap" and n > 1:
        rows[0][0] = Fraction(0)
        rows[draw(st.integers(1, n - 1))][0] = draw(entries.filter(bool))
    return RatMatrix(rows)


shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))


@properties
@given(square_matrices())
def test_determinant_matches_sympy(m):
    assert m.determinant() == from_sympy(to_sympy(m).det())


@properties
@given(shapes.flatmap(lambda s: matrices(*s)))
def test_rref_is_idempotent_and_rank_revealing(m):
    red, pivots = m.rref()
    ref, ref_pivots = to_sympy(m).rref()
    assert red == matrix_from_sympy(ref)
    assert tuple(pivots) == ref_pivots
    assert red.rref() == (red, pivots)


@properties
@given(shapes.flatmap(
    lambda s: st.tuples(matrices(*s), matrices(s[0], 1), matrices(s[1], 1), st.booleans())
))
def test_solve_affine_reads_kernel_off_one_reduction(system):
    a, b, x, consistent = system
    if consistent:
        b = a @ x
    sol = solve_affine(a, b)
    if sol is None:
        assert to_sympy(a).row_join(to_sympy(b)).rank() > to_sympy(a).rank()
        return
    particular, kernel = sol
    assert a @ particular == b
    assert kernel == a.kernel_basis()
    assert [v.col(0) for v in kernel] == [
        tuple(from_sympy(e) for e in v) for v in to_sympy(a).nullspace()
    ]


# half the entries are 0 or 1, so the product skips both often
sparse_entries = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), entries)


@properties
@given(st.tuples(*[st.integers(0, 4)] * 3).flatmap(
    lambda d: st.tuples(matrices(d[0], d[1], sparse_entries), matrices(d[1], d[2], sparse_entries))
))
def test_product_matches_sympy(ab):
    # shapes from 0 to 4 take in the n x 0 @ 0 x k zero product and 0-row operands
    a, b = ab
    c = a @ b
    assert c.shape == (a.rows, b.cols)
    assert c == matrix_from_sympy(to_sympy(a) * to_sympy(b))
    assert all(type(x) is Fraction for row in c.to_lists() for x in row)


@st.composite
def vector_lists(draw, max_n=5):
    """(n, vectors, a reordering of them, a member of their span, any vector).

    The vectors mix fresh draws with zero vectors, repeats and linear
    combinations of the vectors drawn before them.
    """
    n = draw(st.integers(1, max_n))
    vector = st.lists(entries, min_size=n, max_size=n)

    def combination(vs):
        coeffs = draw(st.lists(entries, min_size=len(vs), max_size=len(vs)))
        return [sum((c * v[j] for c, v in zip(coeffs, vs)), Fraction(0)) for j in range(n)]

    vs = []
    kinds = st.sampled_from(["fresh", "zero", "repeat", "combination"])
    for kind in draw(st.lists(kinds, max_size=7)):
        if kind == "zero":
            vs.append([Fraction(0)] * n)
        elif kind == "fresh" or not vs:
            vs.append(draw(vector))
        elif kind == "repeat":
            vs.append(list(draw(st.sampled_from(vs))))
        else:
            vs.append(combination(vs))
    return n, vs, draw(st.permutations(vs)), combination(vs), draw(vector)


@properties
@given(vector_lists())
def test_subspace_is_the_rref_of_its_vectors_in_any_order(case):
    n, vs, shuffled, member, probe = case
    s = Subspace(n, vs)

    def sym(rows):
        return to_sympy(RatMatrix(rows) if rows else RatMatrix.zeros(0, n))

    ref, pivots = sym(vs).rref()
    assert s.basis_rows_matrix().to_lists() == [
        [from_sympy(x) for x in ref.row(i)] for i in range(len(pivots))
    ]
    assert Subspace(n, shuffled) == s
    assert contains(s, RatMatrix.column(member))
    assert contains(s, RatMatrix.column(probe)) == (sym(vs + [probe]).rank() == s.dim)


# -- the integer elimination against the Fraction reference ------------------

# small entries, and entries whose denominators run to 10^9
wide_entries = st.one_of(
    entries, st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9)
)
any_shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def closures(draw, max_n=5):
    """(n, vectors, maps), n from 0: the vectors mix fresh draws, zeros and
    combinations; the maps mix dense, zero and rank-one matrices."""
    n = draw(st.integers(0, max_n))
    vector = st.lists(wide_entries, min_size=n, max_size=n)
    vs = []
    for kind in draw(st.lists(st.sampled_from(["fresh", "zero", "combination"]), max_size=4)):
        if kind == "zero":
            vs.append([Fraction(0)] * n)
        elif kind == "fresh" or not vs:
            vs.append(draw(vector))
        else:
            coeffs = draw(st.lists(entries, min_size=len(vs), max_size=len(vs)))
            vs.append([sum((c * v[j] for c, v in zip(coeffs, vs)), Fraction(0)) for j in range(n)])
    maps = []
    for kind in draw(st.lists(st.sampled_from(["dense", "zero", "rank-one"]), max_size=3)):
        if kind == "dense":
            maps.append(draw(matrices(n, n, st.one_of(sparse_entries, wide_entries))))
        elif kind == "zero":
            maps.append(RatMatrix.zeros(n, n))
        else:
            x, y = draw(vector), draw(vector)
            maps.append(RatMatrix([[a * b for b in y] for a in x], n))
    return n, vs, maps


@properties
@given(closures(), st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
def test_integer_closure_matches_the_fraction_reference(case, c):
    n, vs, maps = case
    s = Subspace(n, vs, maps)
    reference = reference_closure(n, vs, maps)
    assert s.dim == len(reference)
    assert s.basis_rows_matrix().to_lists() == reference
    # scaling a vector or a map does not change the closure
    assert Subspace(n, [[c * x for x in v] for v in vs], [m.scale(c) for m in maps]) == s


@properties
@given(any_shapes.flatmap(lambda s: matrices(*s, wide_entries)))
def test_rref_and_kernel_match_the_fraction_reference(m):
    rows, pivots, _ = reference_gauss_jordan(m)
    red, red_pivots = m.rref()
    assert red.shape == m.shape
    assert red.to_lists() == rows
    assert red_pivots == pivots
    assert [list(v.col(0)) for v in m.kernel_basis()] == reference_kernel(rows, pivots, m.cols)


@properties
@given(st.one_of(
    square_matrices(),
    st.integers(0, 4).flatmap(lambda n: matrices(n, n, wide_entries)),
))
def test_determinant_matches_the_fraction_reference(m):
    assert m.determinant() == reference_gauss_jordan(m)[2]


@properties
@given(any_shapes.flatmap(lambda s: st.tuples(
    matrices(*s, wide_entries), matrices(s[0], 1, wide_entries), matrices(s[1], 1), st.booleans()
)))
def test_solve_affine_matches_the_fraction_reference(system):
    a, b, x, consistent = system
    if consistent:
        b = a @ x
    sol, reference = solve_affine(a, b), reference_solve_affine(a, b)
    if reference is None:
        assert sol is None
        return
    particular, kernel = sol
    assert (list(particular.col(0)), [list(v.col(0)) for v in kernel]) == reference


def test_closures_and_simulators_do_no_fraction_arithmetic(rng, monkeypatch):
    """Closures, their dimensions, a determinant and both simulators run over int."""
    sys = random_rational_lss(rng, n=5, m=2, p=2)
    model = SarxModel(ny=2, nu=1, p=1, m=1, modes={
        "1": RatMatrix([[Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]]),
        "2": RatMatrix([[Fraction(3), Fraction(1, 5), Fraction(-1, 4)]]),
    })
    lss_word = random_word(sys.labels, sys.m, 10, rng, max_den=5)
    sarx_word = random_word(model.labels, 1, 10, rng, max_den=5)
    square = RatMatrix([[rand_fraction(rng, max_den=9) for _ in range(5)] for _ in range(5)])

    def refuse(*args):
        raise AssertionError("Fraction arithmetic reached")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
                 "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
                 "__pos__", "__abs__"):
        monkeypatch.setattr(Fraction, name, refuse)
    reached = reachable_span(sys).dim
    unobservable = unobservable_space(sys).dim
    det = square.determinant()
    traces = simulate_lss(sys, lss_word), simulate_sarx(model, sarx_word)
    monkeypatch.undo()

    modes = list(sys.modes.values())
    seeds = [sys.x0.col(0)] + [md.b.col(j) for md in modes for j in range(sys.m)]
    outputs = [md.c.row(i) for md in modes for i in range(sys.p)]
    assert reached == len(reference_closure(sys.n, seeds, [md.a for md in modes]))
    assert unobservable == sys.n - len(
        reference_closure(sys.n, outputs, [md.a.transpose() for md in modes])
    )
    assert det == reference_gauss_jordan(square)[2]
    assert traces[0] == lss_trace_oracle(sys, lss_word)
    assert traces[1] == siso_trace_oracle(model, sarx_word)


# -- the kept integer form ----------------------------------------------------


def assert_integer_form_kept(m):
    """m's integer form is `cleared` of its rows, and RatMatrix(...) builds the same matrix."""
    assert m.integer_form() == cleared(m.to_lists())
    assert m.integer_form() is m.integer_form()
    built = RatMatrix(m.to_lists(), m.cols)
    assert built == m and built.to_strings() == m.to_strings()
    assert all(type(x) is Fraction for row in m.to_lists() for x in row)


def test_entries_are_read_off_the_integer_form():
    """Each reader of entries builds its Fractions from (d, rows), which is in lowest terms."""
    m = RatMatrix([["1/2", "-3", "0.25"], [Fraction(4, 6), 0, "-7/2"]])
    assert m.integer_form() == (12, [[6, -36, 3], [8, 0, -42]])
    rows = [[Fraction(1, 2), -3, Fraction(1, 4)], [Fraction(2, 3), 0, Fraction(-7, 2)]]
    assert m.to_lists() == rows
    assert [m.row(i) for i in range(2)] == [tuple(r) for r in rows]
    assert [m.col(j) for j in range(3)] == [tuple(c) for c in zip(*rows)]
    assert [[m[i, j] for j in range(3)] for i in range(2)] == rows
    assert all(type(x) is Fraction for r in m.to_lists() for x in r + [m[1, 1]])
    assert m.to_strings() == [["1/2", "-3", "1/4"], ["2/3", "0", "-7/2"]]
    assert RatMatrix.column(m.col(2)).integer_form() == (4, [[1], [-14]])
    assert RatMatrix([["2/4", "-1/2"]]).integer_form() == (2, [[1, -1]])


@properties
@given(
    any_shapes.flatmap(lambda s: st.tuples(
        matrices(*s, wide_entries), matrices(*s, wide_entries), matrices(s[1], s[0], wide_entries)
    )),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
def test_every_matrix_keeps_its_integer_form(abt, c):
    a, b, t = abt
    derived = [
        a, RatMatrix.from_strings(a.to_strings()), a.transpose(), a @ t, t @ a, a + b, a - b,
        a.scale(c), a.rref()[0], Subspace(a.cols, a.to_lists()).basis_rows_matrix(),
    ]
    for m in derived:
        assert_integer_form_kept(m)


SHAPE_REFUSALS = [
    ("product", lambda a: a @ a, "shape mismatch for product"),
    ("sum", lambda a: a + a.transpose(), "shape mismatch: (2, 3) vs (3, 2)"),
    ("difference", lambda a: a - a.transpose(), "shape mismatch: (2, 3) vs (3, 2)"),
    ("trace", lambda a: a.trace(), "trace of non-square matrix"),
    ("determinant", lambda a: a.determinant(), "determinant of non-square matrix"),
    ("solve_affine", lambda a: solve_affine(a, RatMatrix.column([1, 2, 3])),
     "shape mismatch in solve_affine"),
    ("subspace column", lambda a: Subspace(3, [RatMatrix.column([1, 2])]), "vector shape mismatch"),
    ("subspace vector", lambda a: Subspace(3, [[1, 2]]), "vector length mismatch"),
    ("subspace small map", lambda a: Subspace(3, [[1, 0, 0]], [RatMatrix([[0, 1], [1, 0]])]),
     "map shape mismatch"),
    ("subspace large map", lambda a: Subspace(2, [[1, 0]], [RatMatrix.identity(3)]),
     "map shape mismatch"),
    ("subspace non-square map", lambda a: Subspace(3, [[1, 0, 0]], [a]), "map shape mismatch"),
]


@pytest.mark.parametrize("name, call, message", SHAPE_REFUSALS, ids=[c[0] for c in SHAPE_REFUSALS])
def test_shape_mismatches_are_refused(name, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(RatMatrix([[1, 2, 3], [4, 5, 6]]))


def test_from_strings_refuses_ragged_and_non_list_rows():
    for bad in ([["1"], ["1", "2"]], [["1", "2"], []], [["1"], "12"], ["1"], "1", [("1",)]):
        with pytest.raises(ValueError):
            RatMatrix.from_strings(bad)
    assert RatMatrix.from_strings([]).shape == (0, 0)
    assert RatMatrix.from_strings([[], []]).shape == (2, 0)
    assert RatMatrix.from_strings([["1/2", 3]]) == RatMatrix([[Fraction(1, 2), 3]])


def test_no_closure_clears_a_map(rng, monkeypatch):
    """Closures read each map's and seed's integer form as it is: `cleared` is never called."""
    sys = random_rational_lss(rng, n=4, m=1, p=2, modes=3)
    calls = []
    real = linalg.cleared

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "cleared", counted)
    reachable_span(sys)
    reachable_span(dual(sys))
    unobservable_space(sys)
    find_isomorphisms(sys, sys)
    assert calls == []
