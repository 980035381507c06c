import json
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    fixture_path,
    random_lss,
    random_rational_lss,
    random_mimo_model,
    random_siso_model,
    random_word,
)
from oracles import (
    brute_force_reachable,
    brute_force_unobservable,
    kronecker_solve,
    lss_trace_oracle,
    matrix_from_sympy,
    to_sympy,
)
from sarxid import (
    HybridWord,
    InputError,
    IsoSolution,
    Lss,
    LssMode,
    RatMatrix,
    SarxModel,
    associated_lss,
    dual,
    find_isomorphisms,
    is_minimal_lss,
    reachable_span,
    simulate_lss,
    simulate_sarx,
    solve_affine,
    unobservable_space,
)
from sarxid import lss


def test_embedding_matrices_on_reference_model():
    m = SarxModel.load(fixture_path("example3.json"))
    sys = associated_lss(m)
    a1 = sys.modes["1"].a
    assert a1.to_lists() == [
        [8, -15, 1, -3],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 1, 0],
    ]
    assert sys.modes["1"].b.to_lists() == [[0], [0], [1], [0]]
    assert sys.modes["1"].c == m.modes["1"]
    assert not any(sys.x0.col(0))


def test_embedding_trace_equivalence(rng):
    for _ in range(20):
        m = random_siso_model(rng)
        sys = associated_lss(m)
        w = random_word(m.labels, 1, 15, rng)
        assert simulate_lss(sys, w) == simulate_sarx(m, w)
    for _ in range(10):
        m = random_mimo_model(rng)
        sys = associated_lss(m)
        w = random_word(m.labels, m.m, 15, rng)
        assert simulate_lss(sys, w) == simulate_sarx(m, w)


properties = settings(max_examples=40, deadline=timedelta(seconds=10), derandomize=True)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def models_and_words(draw):
    """A SISO or MIMO model of type (ny, nu) with 1-3 modes, and a word over its modes."""
    ny = draw(st.integers(1, 3))
    nu = draw(st.integers(1, ny))
    p, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    labels = [str(q) for q in range(1, draw(st.integers(1, 3)) + 1)]
    row = st.lists(coefficients, min_size=ny * p + nu * m, max_size=ny * p + nu * m)
    modes = {q: RatMatrix(draw(st.lists(row, min_size=p, max_size=p))) for q in labels}
    inputs = st.lists(coefficients, min_size=m, max_size=m)
    steps = draw(st.lists(st.tuples(st.sampled_from(labels), inputs), min_size=1, max_size=12))
    return SarxModel(ny=ny, nu=nu, p=p, m=m, modes=modes), HybridWord(steps)


@properties
@given(models_and_words())
def test_embedding_trace_equivalence_property(model_and_word):
    model, w = model_and_word
    assert simulate_sarx(model, w) == simulate_lss(associated_lss(model), w)


@st.composite
def conjugate_pairs(draw):
    """A companion embedding with x0 != 0, its conjugate by an invertible T, and a word.

    The conjugate, A' = T A T^-1, B' = T B, C' = C T^-1 and x0' = T x0, is
    built in sympy; its matrices are dense where the embedding's are sparse.
    """
    model, w = draw(models_and_words())
    sys = associated_lss(model)
    n = sys.n
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    x0 = RatMatrix.column([entry() for _ in range(n)])
    assume(any(x0.col(0)))
    t = to_sympy(RatMatrix([[entry() for _ in range(n)] for _ in range(n)]))
    assume(t.det() != 0)
    t_inv = t.inv()
    sys = Lss(n=n, m=sys.m, p=sys.p, modes=sys.modes, x0=x0)
    conj = Lss(
        n=n, m=sys.m, p=sys.p, x0=matrix_from_sympy(t * to_sympy(x0)),
        modes={
            q: LssMode(
                a=matrix_from_sympy(t * to_sympy(md.a) * t_inv),
                b=matrix_from_sympy(t * to_sympy(md.b)),
                c=matrix_from_sympy(to_sympy(md.c) * t_inv),
            )
            for q, md in sys.modes.items()
        },
    )
    return sys, conj, w


@properties
@given(conjugate_pairs())
def test_trace_is_invariant_under_conjugation(case):
    sys, conj, w = case
    assert simulate_lss(conj, w) == simulate_lss(sys, w)


def test_simulate_without_inputs():
    # m = 0: B is n x 0 and every input is the empty vector
    swap = LssMode(a=RatMatrix([[0, 1], [1, 0]]), b=RatMatrix.zeros(2, 0), c=RatMatrix([[1, 0]]))
    sys = Lss(n=2, m=0, p=1, modes={"1": swap}, x0=RatMatrix.column([1, 2]))
    assert simulate_lss(sys, HybridWord([("1", [])] * 3)) == [(1,), (2,), (1,)]


def test_rational_systems_match_the_direct_recurrence(rng):
    # x0, A, B and C with denominators, inputs with denominators, and m = 0
    for _ in range(20):
        sys = random_rational_lss(rng, n=rng.randint(1, 5), m=rng.randint(0, 2),
                                  p=rng.randint(1, 2), modes=rng.randint(1, 3))
        w = random_word(sys.labels, sys.m, 12, rng, max_den=5)
        trace = simulate_lss(sys, w)
        assert trace == lss_trace_oracle(sys, w)
        assert all(type(y) is Fraction for ys in trace for y in ys)


def test_embedding_state_is_regressor(rng):
    m = random_mimo_model(rng)
    sys = associated_lss(m)
    w = random_word(m.labels, m.m, 8, rng)
    x = sys.x0
    outputs = []
    inputs = []
    for t, (q, u) in enumerate(w):
        # [y_(t-1), ..., y_(t-ny), u_(t-1), ..., u_(t-nu)], zero before time 0
        stacked = []
        for history, depth, dim in ((outputs, m.ny, m.p), (inputs, m.nu, m.m)):
            for k in range(1, depth + 1):
                stacked.extend(history[t - k] if t >= k else [0] * dim)
        assert x == RatMatrix.column(stacked)
        y = sys.modes[q].c @ x
        outputs.append(tuple(y[i, 0] for i in range(m.p)))
        inputs.append(u)
        x = sys.modes[q].a @ x + sys.modes[q].b @ RatMatrix.column(u)


def shift_chain(n, order):
    """Mode i maps e_k to e_(k+1) only, k = order[i]; B = e_1 and C = e_n^T.

    Only the word that applies the maps in chain order reaches e_n from e_1,
    so no single mode reaches or observes the whole space.
    """
    modes = {}
    for i, k in enumerate(order):
        a = [[0] * n for _ in range(n)]
        a[k + 1][k] = 1
        modes[str(i + 1)] = LssMode(
            a=RatMatrix(a),
            b=RatMatrix.column([1] + [0] * (n - 1)),
            c=RatMatrix([[0] * (n - 1) + [1]]),
        )
    return Lss(n=n, m=1, p=1, modes=modes, x0=RatMatrix.zeros(n, 1))


def test_subspaces_match_brute_force(rng):
    for _ in range(25):
        sys = random_lss(rng, max_n=4, max_modes=3)
        assert reachable_span(sys) == brute_force_reachable(sys)
        assert unobservable_space(sys) == brute_force_unobservable(sys)
    for sys in (shift_chain(3, [0, 1]), shift_chain(4, [2, 0, 1]), shift_chain(4, [1, 2, 0])):
        assert reachable_span(sys) == brute_force_reachable(sys)
        assert unobservable_space(sys) == brute_force_unobservable(sys)
        assert reachable_span(sys).dim == sys.n
        assert unobservable_space(sys).dim == 0


def test_subspaces_of_silent_systems(rng):
    # all C_q = 0 leaves every state unobservable; B = 0 with x0 = 0 reaches nothing
    for _ in range(10):
        sys = random_lss(rng, max_n=4, max_modes=3)
        n = sys.n
        silent = Lss(
            n=n, m=sys.m, p=sys.p, x0=RatMatrix.zeros(n, 1),
            modes={
                q: LssMode(
                    a=md.a, b=RatMatrix.zeros(n, sys.m), c=RatMatrix.zeros(sys.p, n)
                )
                for q, md in sys.modes.items()
            },
        )
        assert unobservable_space(silent).dim == n
        assert reachable_span(silent).dim == 0
        assert unobservable_space(silent) == brute_force_unobservable(silent)
        assert reachable_span(silent) == brute_force_reachable(silent)


def test_dual_swaps_reachable_and_observable_spans(rng):
    # with x0 = 0, the reachable span of dual(sys) is the observable span of
    # sys, and the observable span of dual(sys) is the reachable span of sys
    def cut(mat, keep=None):
        """mat with its last row zero outside column keep."""
        rows = mat.to_lists()
        return RatMatrix(rows[:-1] + [[x if j == keep else 0 for j, x in enumerate(rows[-1])]])

    def cut_t(mat, keep=None):
        return cut(mat.transpose(), keep).transpose()

    systems = []
    for _ in range(15):
        sys = random_lss(rng, max_n=4, max_modes=3)
        n, m, p, zero = sys.n, sys.m, sys.p, RatMatrix.zeros(sys.n, 1)
        systems.append(Lss(n=n, m=m, p=p, modes=sys.modes, x0=zero))
        # no inputs at all, and no outputs at all
        systems.append(Lss(n=n, m=0, p=p, x0=zero, modes={
            q: LssMode(a=md.a, b=RatMatrix.zeros(n, 0), c=md.c) for q, md in sys.modes.items()
        }))
        systems.append(Lss(n=n, m=m, p=0, x0=zero, modes={
            q: LssMode(a=md.a, b=md.b, c=RatMatrix.zeros(0, n)) for q, md in sys.modes.items()
        }))
        # e_n cut off from the inputs: the first n - 1 coordinates hold every
        # B_q column and are A_q-invariant, so the reachable span is proper;
        # and, transposed, e_n cut off from the outputs
        systems.append(Lss(n=n, m=m, p=p, x0=zero, modes={
            q: LssMode(a=cut(md.a, n - 1), b=cut(md.b), c=md.c) for q, md in sys.modes.items()
        }))
        systems.append(Lss(n=n, m=m, p=p, x0=zero, modes={
            q: LssMode(a=cut_t(md.a, n - 1), b=md.b, c=cut_t(md.c)) for q, md in sys.modes.items()
        }))
    observable = [brute_force_unobservable(sys).annihilator() for sys in systems]
    assert any(0 < reachable_span(sys).dim < sys.n for sys in systems)
    assert any(0 < obs.dim < sys.n for obs, sys in zip(observable, systems))
    for sys, obs in zip(systems, observable):
        d = dual(sys)
        assert (d.n, d.m, d.p, d.labels) == (sys.n, sys.p, sys.m, sys.labels)
        assert reachable_span(d) == obs
        assert unobservable_space(d) == reachable_span(sys).annihilator()
        assert is_minimal_lss(d).minimal == is_minimal_lss(sys).minimal


def test_minimality_certificate_dimensions(rng):
    sys = random_lss(rng, max_n=4)
    cert = is_minimal_lss(sys)
    assert cert.state_dim == sys.n
    assert cert.minimal == (cert.reachable_dim == sys.n and cert.unobservable_dim == 0)


def test_json_roundtrip(rng):
    sys = random_lss(rng)
    again = Lss.from_json_dict(json.loads(json.dumps(sys.to_json_dict())))
    assert again == sys


def test_json_roundtrip_without_inputs_or_outputs(rng):
    # JSON writes an n x 0 B as n empty rows but a 0 x n C as [], so the
    # reader takes the width of C from n
    for _ in range(10):
        sys = random_lss(rng, max_n=4, max_modes=3)
        n = sys.n
        no_inputs = Lss(n=n, m=0, p=sys.p, x0=sys.x0, modes={
            q: LssMode(a=md.a, b=RatMatrix.zeros(n, 0), c=md.c) for q, md in sys.modes.items()
        })
        no_outputs = Lss(n=n, m=sys.m, p=0, x0=sys.x0, modes={
            q: LssMode(a=md.a, b=md.b, c=RatMatrix.zeros(0, n)) for q, md in sys.modes.items()
        })
        for s in (no_inputs, no_outputs, dual(no_inputs), dual(no_outputs)):
            assert Lss.from_json_dict(json.loads(json.dumps(s.to_json_dict()))) == s


def test_simulate_lss_refuses_a_word_it_cannot_run():
    # `simulate --compare-lss` runs simulate_sarx first, which refuses these words itself
    mode = LssMode(a=RatMatrix([[1]]), b=RatMatrix([[1]]), c=RatMatrix([[1]]))
    sys = Lss(n=1, m=1, p=1, modes={"1": mode}, x0=RatMatrix.zeros(1, 1))
    with pytest.raises(InputError, match="unknown mode label '2'"):
        simulate_lss(sys, HybridWord([("2", [1])]))
    with pytest.raises(InputError, match="input dimension 2 != m=1"):
        simulate_lss(sys, HybridWord([("1", [1, 2])]))


def test_self_isomorphism_identity_on_reference_model():
    sys = associated_lss(SarxModel.load(fixture_path("example3.json")))
    sol = find_isomorphisms(sys, sys)
    assert sol.kind == "unique-identity"
    assert sol.witness == RatMatrix.identity(sys.n)


def random_invertible(rng, n):
    while True:
        t = RatMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        if t.determinant() != 0:
            return t


def conjugate(sys, t):
    """The system in the coordinates x' = T x."""
    n = sys.n
    t_inv = RatMatrix(
        [solve_affine(t, RatMatrix.column([1 if i == j else 0 for i in range(n)]))[0].col(0)
         for j in range(n)]
    ).transpose()
    return Lss(
        n=n, m=sys.m, p=sys.p,
        modes={
            q: LssMode(a=t @ md.a @ t_inv, b=t @ md.b, c=md.c @ t_inv)
            for q, md in sys.modes.items()
        },
        x0=t @ sys.x0,
    )


def perturbed(sys):
    """The system with 1 added to A_1[0, 0]: trace(A_1) moves, so no S makes it similar."""
    q = sys.labels[0]
    a = sys.modes[q].a.to_lists()
    a[0][0] += 1
    modes = dict(sys.modes)
    modes[q] = LssMode(a=RatMatrix(a), b=sys.modes[q].b, c=sys.modes[q].c)
    return Lss(n=sys.n, m=sys.m, p=sys.p, modes=modes, x0=sys.x0)


def test_isomorphism_found_under_conjugation(rng):
    # an embedded SISO model (x0 = 0), then every input/output width with x0 != 0
    systems = [associated_lss(random_siso_model(rng, nonzero_top=True))]
    for m, p in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        sys = random_lss(rng)
        while (sys.m, sys.p) != (m, p) or not any(sys.x0.col(0)):
            sys = random_lss(rng)
        systems.append(sys)
    # no inputs at all (every B_q is n x 0), and no outputs at all (every C_q is 0 x n)
    sys = systems[-1]
    systems.append(Lss(
        n=sys.n, m=0, p=sys.p, x0=sys.x0,
        modes={
            q: LssMode(a=md.a, b=RatMatrix.zeros(sys.n, 0), c=md.c) for q, md in sys.modes.items()
        },
    ))
    systems.append(Lss(
        n=sys.n, m=sys.m, p=0, x0=sys.x0,
        modes={
            q: LssMode(a=md.a, b=md.b, c=RatMatrix.zeros(0, sys.n)) for q, md in sys.modes.items()
        },
    ))
    for sys in systems:
        conj = conjugate(sys, random_invertible(rng, sys.n))
        # the closure route and the Kronecker system give the same solution set
        for other in (sys, conj, perturbed(conj)):
            reference = kronecker_solve(sys, other, seed=3)
            assert find_isomorphisms(sys, other, seed=3) == reference
        sol = find_isomorphisms(sys, conj)
        assert sol.kind in ("unique-other", "unique-identity", "affine-family")
        assert_isomorphism(sol.witness, sys, conj)


def assert_isomorphism(s, a, b):
    """S is invertible and satisfies all four equation families from a to b."""
    assert s is not None and s.determinant() != 0
    for q in a.labels:
        assert s @ a.modes[q].a == b.modes[q].a @ s
        assert s @ a.modes[q].b == b.modes[q].b
        assert b.modes[q].c @ s == a.modes[q].c
    assert s @ a.x0 == b.x0


def decoupled(rng, n, k):
    """Three SISO modes whose last k states are a block of their own, with B = 0
    and C = 0 there, and x0 = 0: neither span-reachable nor observable."""
    r = n - k

    def entry(i, j):
        return Fraction(rng.randint(-2, 2)) if (i < r) == (j < r) else 0

    modes = {
        q: LssMode(
            a=RatMatrix([[entry(i, j) for j in range(n)] for i in range(n)]),
            b=RatMatrix([[entry(i, 0)] for i in range(n)]),
            c=RatMatrix([[entry(0, j) for j in range(n)]]),
        )
        for q in ("1", "2", "3")
    }
    return Lss(n=n, m=1, p=1, modes=modes, x0=RatMatrix.zeros(n, 1))


def test_neither_pairs_match_the_kronecker_oracle(rng):
    pairs = []
    for n, k in ((4, 2), (5, 1), (6, 3), (8, 4)):
        sys = decoupled(rng, n, k)
        assert reachable_span(sys).dim < n and unobservable_space(sys).dim > 0
        conj = conjugate(sys, random_invertible(rng, n))
        pairs += [(sys, sys), (sys, conj), (sys, perturbed(conj))]
    for _ in range(20):
        sys = random_lss(rng, max_n=4)
        other = random_lss(rng, max_n=4)
        if (other.n, other.m, other.p) != (sys.n, sys.m, sys.p) or other.labels != sys.labels:
            other = conjugate(sys, random_invertible(rng, sys.n))
        pairs.append((sys, other))
    for a, b in pairs:
        sol, reference = find_isomorphisms(a, b, seed=5), kronecker_solve(a, b, seed=5)
        assert (sol.kind, sol.family_dim) == (reference.kind, reference.family_dim)
        if sol.family_dim == 0:
            assert sol.witness == reference.witness
        if sol.witness is not None:
            assert_isomorphism(sol.witness, a, b)


def test_large_neither_pair_matches_the_kronecker_oracle(rng, monkeypatch):
    # n = 10 with k = 4 states neither reached nor observed: the residual
    # system has rows only at the k non-pivot columns, n + p per mode
    n, k = 10, 4
    shapes = []

    def recording_solve_affine(m, rhs):
        shapes.append(m.shape)
        return solve_affine(m, rhs)

    sys = decoupled(rng, n, k)
    conj = conjugate(sys, random_invertible(rng, n))
    for other in (conj, perturbed(conj)):
        monkeypatch.setattr(lss, "solve_affine", recording_solve_affine)
        sol = find_isomorphisms(sys, other, seed=5)
        monkeypatch.undo()
        assert sol == kronecker_solve(sys, other, seed=5)
    assert shapes == [(3 * (n + 1) * k, n * k)]
    assert sol.kind == "none"


def one_mode(a, b, c):
    """One mode with m = p = 1 and x0 = 0, from integer rows."""
    mode = LssMode(a=RatMatrix(a), b=RatMatrix(b), c=RatMatrix(c))
    return Lss(n=len(a), m=1, p=1, modes={"1": mode}, x0=RatMatrix.zeros(len(a), 1))


DIAG = one_mode([[1, 0], [0, 2]], [[1], [0]], [[0, 1]])
# (kind, family_dim, shape of the residual system or None, a, b)
RESIDUAL_CASES = [
    # one solution of a 3 x 2 residual system: the A family and the C family
    # at e2, the one non-pivot column
    ("unique-identity", 0, (3, 2), DIAG, DIAG),
    # S e2 = e2 is fixed; at e1 the A family asks 2 S[0, 0] = 1 and the C
    # family S[0, 0] = 1
    ("none", -1, (3, 2), one_mode([[0, 0], [1, 0]], [[0], [1]], [[-1, 0]]),
     one_mode([[0, 0], [2, 0]], [[0], [1]], [[-1, 0]])),
    # the closure fixes S = 0, which solves every equation and is singular
    ("none", 0, None, one_mode([[1]], [[1]], [[0]]), one_mode([[1]], [[0]], [[0]])),
    # S e1 = e1 is fixed, and C' S = C then asks 2 = 1 on it: no system is solved
    ("none", -1, None, one_mode([[0, 0], [0, 0]], [[1], [0]], [[1, 0]]),
     one_mode([[0, 0], [0, 0]], [[1], [0]], [[2, 0]])),
    # span-reachable, so S = I is fixed, and the same check refuses it
    ("none", -1, None, one_mode([[0, 0], [1, 0]], [[1], [0]], [[1, 0]]),
     one_mode([[0, 0], [1, 0]], [[1], [0]], [[2, 0]])),
]


@pytest.mark.parametrize("kind, family_dim, shape, a, b", RESIDUAL_CASES)
def test_residual_branches_match_the_kronecker_oracle(monkeypatch, kind, family_dim, shape, a, b):
    shapes = []

    def recording_solve_affine(m, rhs):
        shapes.append(m.shape)
        return solve_affine(m, rhs)

    monkeypatch.setattr(lss, "solve_affine", recording_solve_affine)
    sol, reference = find_isomorphisms(a, b), kronecker_solve(a, b)
    assert shapes == ([shape] if shape else [])
    assert (sol.kind, sol.family_dim) == (reference.kind, reference.family_dim) == (kind, family_dim)
    assert sol.witness == reference.witness


def test_residual_solve_only_when_unknowns_remain(rng, monkeypatch):
    calls = []

    def counting_solve_affine(*args):
        calls.append(args)
        return solve_affine(*args)

    monkeypatch.setattr(lss, "solve_affine", counting_solve_affine)

    def routed(a, b, expected_calls):
        calls.clear()
        sol = find_isomorphisms(a, b)
        assert len(calls) == expected_calls
        return sol

    # span-reachable: the reachable closure fixes S
    sys = associated_lss(SarxModel.load(fixture_path("example3.json")))
    assert routed(sys, sys, 0).kind == "unique-identity"

    # block upper-triangular, B and x0 in the first half: observable, not span-reachable
    def block_triangular(n=4, r=2):
        def small():
            return Fraction(rng.randint(-2, 2))

        modes = {
            q: LssMode(
                a=RatMatrix([[small() if i < r or j >= r else 0 for j in range(n)]
                             for i in range(n)]),
                b=RatMatrix([[small() if i < r else 0] for i in range(n)]),
                c=RatMatrix([[small() for _ in range(n)]]),
            )
            for q in ("1", "2")
        }
        return Lss(n=n, m=1, p=1, modes=modes, x0=RatMatrix.zeros(n, 1))

    sys = block_triangular()
    while unobservable_space(sys).dim:
        sys = block_triangular()
    assert reachable_span(sys).dim < sys.n
    conj = conjugate(sys, random_invertible(rng, sys.n))
    sol = routed(sys, conj, 0)
    assert sol.kind in ("unique-other", "unique-identity")
    assert sol == kronecker_solve(sys, conj)

    # B = 0 and x0 = 0 reach nothing; C annihilates e_3, which every A_q keeps
    # in its own span, so e_3 is unobservable too: the observable closure fixes
    # S^T on a span of dimension 2, and one system solves for the 3 (3 - 2) left
    modes = {
        q: LssMode(
            a=RatMatrix([[a, b, 0], [c, d, 0], [0, 0, e]]),
            b=RatMatrix.zeros(3, 1),
            c=RatMatrix([[f, g, 0]]),
        )
        for q, (a, b, c, d, e, f, g) in (("1", (1, 2, 0, 1, 3, 1, 0)), ("2", (0, 1, 1, 1, -1, 0, 1)))
    }
    sys = Lss(n=3, m=1, p=1, modes=modes, x0=RatMatrix.zeros(3, 1))
    assert reachable_span(sys).dim == 0 and unobservable_space(sys).dim == 1
    sol = routed(sys, conjugate(sys, random_invertible(rng, 3)), 1)
    assert calls[0][0].cols == 3 * (3 - 2)
    assert sol.family_dim >= 1
    assert sol.witness is not None and sol.witness.determinant() != 0


def test_no_isomorphism_between_inequivalent_systems():
    a = Lss(
        n=1, m=1, p=1,
        modes={"1": LssMode(a=RatMatrix([[1]]), b=RatMatrix([[1]]), c=RatMatrix([[1]]))},
        x0=RatMatrix.zeros(1, 1),
    )
    b = Lss(
        n=1, m=1, p=1,
        modes={"1": LssMode(a=RatMatrix([[2]]), b=RatMatrix([[1]]), c=RatMatrix([[1]]))},
        x0=RatMatrix.zeros(1, 1),
    )
    assert find_isomorphisms(a, b).kind == "none"


def test_zero_systems_affine_family():
    z = RatMatrix.zeros(2, 2)
    mode = LssMode(a=z, b=RatMatrix.zeros(2, 1), c=RatMatrix.zeros(1, 2))
    sys = Lss(n=2, m=1, p=1, modes={"1": mode}, x0=RatMatrix.zeros(2, 1))
    sol = find_isomorphisms(sys, sys)
    assert sol.kind == "affine-family"
    assert sol.family_dim == 4
    assert sol.witness is not None and sol.witness.determinant() != 0


def test_shape_mismatch_rejected(rng):
    a = random_lss(rng, max_n=2, max_modes=1)
    b = Lss(
        n=a.n + 1, m=a.m, p=a.p,
        modes={
            q: LssMode(
                a=RatMatrix.zeros(a.n + 1, a.n + 1),
                b=RatMatrix.zeros(a.n + 1, a.m),
                c=RatMatrix.zeros(a.p, a.n + 1),
            )
            for q in a.labels
        },
        x0=RatMatrix.zeros(a.n + 1, 1),
    )
    with pytest.raises(InputError):
        find_isomorphisms(a, b)


# (a, non-pivot columns of the primal and of the dual closure, family_dim,
# witness): self-pairs whose residual system leaves a family, so the witness,
# the first drawn point with det != 0, pins the order of the unknowns.  The
# first keeps the primal closure (a tie), the second the dual one.
FAMILY_WITNESS_CASES = [
    (one_mode([[0, 0, 0], [1, 0, 1], [0, -2, 2]], [[2], [-2], [-2]], [[-2, 0, 0]]),
     (2, 2), 2, [[1, 0, 0], ["9/2", 7, "-3/2"], [6, 3, 4]]),
    (one_mode([[1, 0, 0, 0], [0, -1, 0, 2], [0, -2, 0, 0], [0, -1, 0, 2]],
              [[0], [0], [0], [0]], [[-1, 1, 0, 2]]),
     (4, 2), 3, [[13, "27/2", 0, -27], [4, "11/2", 0, -9], [-8, 6, 1, 3], [4, "9/2", 0, -8]]),
]


@pytest.mark.parametrize("a, free, family_dim, witness", FAMILY_WITNESS_CASES)
def test_family_witness_in_both_orientations(a, free, family_dim, witness):
    assert tuple(len(lss._graph_map(*pair)[1]) for pair in ((a, a), (dual(a), dual(a)))) == free
    sol = find_isomorphisms(a, a, seed=0)
    assert sol == IsoSolution(kind="affine-family", witness=RatMatrix(witness), family_dim=family_dim)
    assert_isomorphism(sol.witness, a, a)
