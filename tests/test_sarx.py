import json
from fractions import Fraction

import pytest
import sympy

from conftest import rand_fraction, random_mimo_model, random_siso_model, random_word
from oracles import mimo_trace_oracle, siso_trace_oracle, unipoly_to_sympy
from sarxid import (
    HybridWord,
    InputError,
    RatMatrix,
    SarxModel,
    arx_is_minimal,
    associated_lss,
    reduce_trailing_zero,
    simulate_lss,
    simulate_sarx,
    theorem2_polynomials,
)
from sarxid import linalg, sarx


def test_model_validation():
    with pytest.raises(InputError):
        SarxModel(ny=1, nu=2, p=1, m=1, modes={"1": RatMatrix([[1, 1, 1]])})
    with pytest.raises(InputError):
        SarxModel(ny=2, nu=1, p=1, m=1, modes={})
    with pytest.raises(InputError):
        SarxModel(ny=2, nu=1, p=1, m=1, modes={"1": RatMatrix([[1, 1]])})


def test_json_roundtrip(rng):
    for _ in range(10):
        m = random_mimo_model(rng)
        again = SarxModel.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
        assert again == m


def test_word_roundtrip():
    w = HybridWord([("1", [Fraction(1, 2)]), ("2", [3])])
    again = HybridWord.from_json_dict(json.loads(json.dumps(w.to_json_dict())))
    assert again.steps == w.steps


def test_word_reads_each_input_once(rng, monkeypatch):
    """HybridWord keeps each input as (v, U); the simulators clear no input per step."""
    w = HybridWord([("1", [Fraction(1, 2), 3]), ("2", [Fraction(-2, 3), Fraction(1, 6)])])
    assert w.integer_steps == [("1", 2, [1, 6]), ("2", 6, [-4, 1])]
    assert list(w) == w.steps == [("1", (Fraction(1, 2), 3)), ("2", (Fraction(-2, 3), Fraction(1, 6)))]
    model = random_mimo_model(rng)
    while model.m != 2:
        model = random_mimo_model(rng)
    word = random_word(model.labels, 2, 12, rng, max_den=4)
    want = simulate_sarx(model, word)

    def refuse(rows):
        raise AssertionError("an input was cleared during a simulation")

    monkeypatch.setattr(sarx, "cleared", refuse)
    monkeypatch.setattr(linalg, "cleared", refuse)
    assert simulate_sarx(model, word) == want
    assert simulate_lss(associated_lss(model), word) == want


def test_simulation_matches_scalar_recurrence(rng):
    for _ in range(30):
        m = random_siso_model(rng)
        w = random_word(m.labels, 1, 12, rng)
        assert simulate_sarx(m, w) == siso_trace_oracle(m, w)


def test_simulation_matches_block_recurrence(rng):
    for _ in range(20):
        m = random_mimo_model(rng)
        w = random_word(m.labels, m.m, 12, rng)
        assert simulate_sarx(m, w) == mimo_trace_oracle(m, w)


def test_simulation_builds_no_matrix_per_step(rng, monkeypatch):
    """simulate_sarx applies each mode's sparse rows to its regressor itself."""

    def refuse(*args, **kwargs):
        raise AssertionError("simulate_sarx built a RatMatrix or called @")

    modes = {q: RatMatrix([[rng.randint(-3, 3) for _ in range(8)] for _ in range(2)]) for q in "12"}
    m = SarxModel(ny=2, nu=2, p=2, m=2, modes=modes)
    w = random_word(m.labels, m.m, 12, rng)
    monkeypatch.setattr(RatMatrix, "__matmul__", refuse)
    monkeypatch.setattr(RatMatrix, "column", refuse)
    trace = simulate_sarx(m, w)
    monkeypatch.undo()  # the oracle multiplies RatMatrix blocks
    assert trace == mimo_trace_oracle(m, w)


def test_simulation_of_rational_data_matches_the_recurrences(rng):
    # coefficients and inputs with denominators, so the integer register
    # changes its denominator from step to step
    for k in range(30):
        siso = k % 2 == 0
        ny = rng.randint(1, 3)
        nu = rng.randint(1, ny)
        p, m = (1, 1) if siso else (rng.randint(1, 2), rng.randint(1, 2))
        modes = {
            str(q): RatMatrix([[rand_fraction(rng, -5, 5, 6) for _ in range(ny * p + nu * m)]
                               for _ in range(p)])
            for q in range(1, rng.randint(2, 3) + 1)
        }
        model = SarxModel(ny=ny, nu=nu, p=p, m=m, modes=modes)
        w = random_word(model.labels, m, 12, rng, max_den=5)
        trace = simulate_sarx(model, w)
        assert trace == (siso_trace_oracle if siso else mimo_trace_oracle)(model, w)
        assert simulate_lss(associated_lss(model), w) == trace
        # the CLI formats each entry with format_rational
        assert all(type(y) is Fraction for ys in trace for y in ys)


def test_prehistory_is_zero(rng):
    m = random_siso_model(rng)
    w = HybridWord([(m.labels[0], [0])] * 5)
    assert all(y == (0,) for y in simulate_sarx(m, w))


def test_transfer_minimality_matches_sympy_gcd(rng):
    # the transfer function's numerator carries the delay z^(ny - nu) when ny > nu
    z = sympy.Symbol("z")
    for _ in range(40):
        m = random_siso_model(rng)
        data = theorem2_polynomials(m)
        for q in m.labels:
            if data.phi(q, q).is_zero():
                assert not arx_is_minimal(data, q)
                continue
            numerator = z ** (m.ny - m.nu) * unipoly_to_sympy(data.phi(q, q), z)
            g = sympy.gcd(numerator, unipoly_to_sympy(data.chi[q], z), z)
            assert arx_is_minimal(data, q) == (sympy.degree(g, z) == 0)


def test_transfer_denominator_is_monic_char_style(rng):
    m = random_siso_model(rng)
    data = theorem2_polynomials(m)
    for q in m.labels:
        assert data.chi[q].total_degree() == m.ny
        assert data.chi[q].terms[(m.ny,)] == 1


def test_reduce_trailing_zero_preserves_traces(rng):
    base = random_siso_model(rng, max_ny=3)
    while base.nu < 2:
        base = random_siso_model(rng, max_ny=3)
    # zero out the last input coefficient everywhere
    last = base.ny + base.nu
    modes = {
        q: RatMatrix([[base.coeff(q, j) if j != last else Fraction(0)
                       for j in range(1, last + 1)]])
        for q in base.labels
    }
    padded = SarxModel(ny=base.ny, nu=base.nu, p=1, m=1, modes=modes)
    reduced = reduce_trailing_zero(padded)
    assert reduced.nu == padded.nu - 1
    for _ in range(10):
        w = random_word(padded.labels, 1, 10, rng)
        assert simulate_sarx(padded, w) == simulate_sarx(reduced, w)


def test_reduce_trailing_zero_refusals():
    with pytest.raises(InputError, match="n_u must be at least 2"):
        reduce_trailing_zero(SarxModel(ny=1, nu=1, p=1, m=1, modes={"1": RatMatrix([[1, 0]])}))
    modes = {"1": RatMatrix([[1, 0, 1, 0]]), "2": RatMatrix([[1, 0, 1, 1]])}
    with pytest.raises(InputError, match="not zero in every mode"):
        reduce_trailing_zero(SarxModel(ny=2, nu=2, p=1, m=1, modes=modes))
