import random
from fractions import Fraction

import pytest

from conftest import fixture_path, matrix_power, random_siso_model, rank, zpoly
from oracles import theorem2_witnesses_sympy, vstack
from sarxid import (
    InputError,
    LssMinimalityCertificate,
    PolyParametrization,
    RatMatrix,
    SarxModel,
    arx_is_minimal,
    associated_lss,
    char_poly,
    check_condition_a,
    check_condition_b,
    check_strong_minimality,
    condition_b_scalar,
    eval_matrix,
    gamma_polynomials,
    procedure1,
    sarx_minimality_sufficient,
    theorem2_polynomials,
)
from sarxid import minimality


@pytest.fixture(scope="module")
def reference_model():
    return SarxModel.load(fixture_path("example3.json"))


@pytest.fixture(scope="module")
def reference_data(reference_model):
    return theorem2_polynomials(reference_model)


def test_reference_polynomials(reference_data):
    assert reference_data.chi["1"] == zpoly(15, -8, 1)
    assert reference_data.chi["2"] == zpoly(-2, -1, 1)
    assert reference_data.upsilon["2"] == zpoly(2, 1)
    assert reference_data.psi("1", "2")[1] == zpoly(-7, 1)
    assert reference_data.phi("1", "2") == zpoly(-6, 1)


def test_reference_condition_witnesses(reference_model, reference_data):
    assert check_condition_a(reference_data) == ("1", "2")
    wb = check_condition_b(reference_data)
    assert wb is not None
    assert condition_b_scalar(reference_model, "1", "2") == Fraction(-3)


def test_reference_verdicts(reference_model):
    both = check_strong_minimality(reference_model, method="both")
    assert both.strong_minimal is True
    assert both.sufficient_holds is True
    assert both.certificate.reachable_dim == 4 and both.certificate.unobservable_dim == 0
    only = check_strong_minimality(reference_model, method="theorem2")
    assert only.strong_minimal is True


def test_counterexample_not_strongly_minimal():
    m = SarxModel.load(fixture_path("remark1_counterexample.json"))
    verdict = check_strong_minimality(m, method="exact-rank")
    assert verdict.strong_minimal is False
    assert verdict.certificate.unobservable_dim > 0


@pytest.fixture
def pair_builds(monkeypatch):
    """(builder name, pair) for each call of a Theorem2Data's psi, phi and phi_next."""
    built = []
    init = minimality.Theorem2Data.__init__

    def counted(name, build):
        def call(q, qh):
            built.append((name, (q, qh)))
            return build(q, qh)

        return call

    def counting_init(self, **fields):
        for name in ("psi", "phi", "phi_next"):
            fields[name] = counted(name, fields[name])
        init(self, **fields)

    monkeypatch.setattr(minimality.Theorem2Data, "__init__", counting_init)
    return built


def test_pair_data_is_built_when_called(reference_model, pair_builds):
    data = theorem2_polynomials(reference_model)
    assert pair_builds == []
    # condition A passes on its first pair, and condition B reads no pair data
    assert check_condition_a(data) == ("1", "2")
    assert check_condition_b(data) == ("1", "2")
    assert pair_builds == [("phi", ("1", "2"))]
    for name in ("psi", "phi", "phi_next"):
        for missing in [("1", "3"), ("3", "1"), ("3", "3")]:
            with pytest.raises(KeyError):
                getattr(data, name)(*missing)


def test_procedure1_builds_only_off_diagonal_phi_next(pair_builds):
    # each phi_next builds its own pair's psi and no other
    par = PolyParametrization.load(fixture_path("example8_first_family.json"))
    procedure1(par)
    pairs = [(q, qh) for q in par.labels for qh in par.labels if q != qh]
    assert sorted(pair_builds) == sorted(("phi_next", pair) for pair in pairs)


def test_strong_minimality_despite_nonminimal_arx_modes(reference_model):
    assert not arx_is_minimal(theorem2_polynomials(reference_model), "1")
    assert not arx_is_minimal(theorem2_polynomials(reference_model), "2")
    status, reason = sarx_minimality_sufficient(reference_model)
    assert status == "minimal-certified"
    assert "state-space" in reason


def test_sufficiency_soundness_sweep(rng):
    checked = 0
    for _ in range(200):
        m = random_siso_model(rng)
        verdict = check_strong_minimality(m, method="both")
        if verdict.sufficient_holds:
            checked += 1
            assert verdict.strong_minimal is True
    assert checked > 0

    # sparse entries make many draws non-minimal, so an unsound check shows
    draw = random.Random(0)
    types = [(2, 1), (2, 2), (3, 2), (3, 3)]
    not_minimal = 0
    for i in range(500):
        ny, nu = types[i % len(types)]
        modes = {
            q: RatMatrix([[draw.choice((-1, 0, 0, 1, 2)) for _ in range(ny + nu)]])
            for q in "12"
        }
        verdict = check_strong_minimality(SarxModel(ny, nu, 1, 1, modes), method="both")
        assert not (verdict.sufficient_holds and verdict.strong_minimal is False), modes
        not_minimal += verdict.strong_minimal is False
    assert not_minimal >= 150


def test_condition_witnesses_match_sympy():
    """Conditions A and B pick the witness pairs that sympy picks over QQ.

    A soundness sweep cannot catch a coprimality test that always says yes:
    random models that fail only coprimality are not met.  Witnesses differ
    on such a test: with is_coprime always True, 6 of these 200 reports move.
    """
    rng = random.Random(0)
    for _ in range(200):
        ny = rng.randint(1, 3)
        nu = rng.randint(1, ny)
        modes = {q: RatMatrix([[rng.randint(-3, 3) for _ in range(ny + nu)]]) for q in "123"}
        model = SarxModel(ny=ny, nu=nu, p=1, m=1, modes=modes)
        data = theorem2_polynomials(model)
        report = (check_condition_a(data), check_condition_b(data))
        assert report == theorem2_witnesses_sympy(model), model.to_json_dict()


def test_psi_d_phi_identities(rng):
    for _ in range(40):
        m = random_siso_model(rng)
        data = theorem2_polynomials(m)
        sys = associated_lss(m)
        e1 = RatMatrix.column([1] + [0] * (sys.n - 1))
        for q in m.labels:
            aq = sys.modes[q].a
            for j in range(m.nu + 1):
                # d lives in the output block; the tail stays zero because
                # that block is invariant under every A_q
                padded = RatMatrix.column(
                    list(data.d[q][j])
                    + [Fraction(0)] * (sys.n - m.ny)
                )
                assert matrix_power(aq, j) @ e1 == padded
        for qh in m.labels:
            ah = sys.modes[qh].a
            for q in m.labels:
                aq = sys.modes[q].a
                for j in range(m.nu + 1):
                    assert eval_matrix(data.psi(qh, q)[j], ah) @ e1 == matrix_power(aq, j) @ e1
                b = sys.modes[q].b
                assert eval_matrix(data.phi(qh, q), ah) @ e1 == matrix_power(aq, m.nu) @ b
                assert (
                    eval_matrix(data.phi_next(qh, q), ah) @ e1
                    == matrix_power(aq, m.nu + 1) @ b
                )


def test_charpoly_factorization(rng):
    for _ in range(30):
        m = random_siso_model(rng, nonzero_top=True)
        data = theorem2_polynomials(m)
        sys = associated_lss(m)
        for q in m.labels:
            expected = zpoly(*[0] * m.nu, 1) * data.chi[q]
            assert char_poly(sys.modes[q].a) == expected


def test_row_span_and_shift_identities(rng):
    for _ in range(20):
        m = random_siso_model(rng, nonzero_top=True)
        sys = associated_lss(m)
        n = sys.n
        for q in m.labels:
            aq = sys.modes[q].a
            e_ny = RatMatrix([[1 if j == m.ny - 1 else 0 for j in range(n)]])
            rows = [e_ny @ matrix_power(aq, j) for j in range(m.ny + m.nu)]
            assert rank(vstack(rows)) == n
            for i in range(1, m.ny + 1):
                ei = RatMatrix([[1 if j == i - 1 else 0 for j in range(n)]])
                assert ei == e_ny @ matrix_power(aq, m.ny - i)


def test_gamma_row_identities(rng):
    for _ in range(20):
        m = random_siso_model(rng, nonzero_top=True)
        data = theorem2_polynomials(m)
        sys = associated_lss(m)
        n = sys.n
        for q in m.labels:
            aq = sys.modes[q].a
            e_ny = RatMatrix([[1 if j == m.ny - 1 else 0 for j in range(n)]])
            chi_a = eval_matrix(data.chi[q], aq)
            gammas = gamma_polynomials(m, q)
            assert gammas[0] == (1 / m.coeff(q, m.ny + m.nu)) * zpoly(*[0] * (m.nu - 1), 1)
            for j, g in enumerate(gammas, start=1):
                lhs = RatMatrix(
                    [[1 if k == m.ny + j - 1 else 0 for k in range(n)]]
                )
                assert lhs == e_ny @ chi_a @ eval_matrix(g, aq)


def test_condition_b_scalar_requires_nonzero_divisor():
    m = SarxModel(
        ny=1, nu=1, p=1, m=1,
        modes={"1": RatMatrix([[1, 0]]), "2": RatMatrix([[1, 1]])},
    )
    with pytest.raises(InputError):
        condition_b_scalar(m, "1", "2")


def test_gamma_polynomials_require_nonzero_leading_coefficient():
    m = SarxModel(ny=1, nu=1, p=1, m=1, modes={"1": RatMatrix([[1, 0]])})
    with pytest.raises(InputError, match="leading input coefficient of mode '1' is zero"):
        gamma_polynomials(m, "1")


def test_theorem2_rejects_mimo():
    m = SarxModel(
        ny=1, nu=1, p=2, m=1,
        modes={"1": RatMatrix([[1, 0, 1], [0, 1, 1]])},
    )
    with pytest.raises(InputError):
        theorem2_polynomials(m)


def test_unknown_minimality_method_is_refused(reference_model):
    with pytest.raises(ValueError, match="unknown method 'x'"):
        check_strong_minimality(reference_model, method="x")


def test_soundness_cross_check_raises(reference_model, monkeypatch):
    # a rank route that calls the reference model non-minimal while both
    # coprimality conditions hold contradicts Theorem 2's soundness
    calls = []

    def not_minimal(sys):
        calls.append(sys)
        return LssMinimalityCertificate(False, sys.n, 1, sys.n)

    monkeypatch.setattr(minimality, "is_minimal_lss", not_minimal)
    with pytest.raises(AssertionError, match="soundness"):
        check_strong_minimality(reference_model, method="both")
    assert len(calls) == 1
    assert check_strong_minimality(reference_model, method="theorem2").strong_minimal is True
    assert len(calls) == 1
