from datetime import timedelta
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_fraction
from oracles import multipoly_to_sympy
from sarxid import Z_RING, MonomialOrder, MultiPoly, normal_form, uni_gcd
from sarxid import groebner, multipoly, unipoly

VARS = ("x", "y", "w")
SYMS = sympy.symbols("x y w")


def random_mpoly(rng, nterms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exp = tuple(rng.randint(0, max_exp) for _ in VARS)
        terms[exp] = rand_fraction(rng)
    return MultiPoly(VARS, terms)


def test_ring_axioms_against_sympy(rng):
    for _ in range(40):
        f, g = random_mpoly(rng), random_mpoly(rng)
        assert multipoly_to_sympy(f + g, SYMS) == sympy.expand(
            multipoly_to_sympy(f, SYMS) + multipoly_to_sympy(g, SYMS)
        )
        assert multipoly_to_sympy(f * g, SYMS) == sympy.expand(
            multipoly_to_sympy(f, SYMS) * multipoly_to_sympy(g, SYMS)
        )
        assert multipoly_to_sympy(f - g, SYMS) == sympy.expand(
            multipoly_to_sympy(f, SYMS) - multipoly_to_sympy(g, SYMS)
        )


# derandomized, so that the tier-1 gate sees the same examples on every run
properties = settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True)

# int coefficients are converted by the constructor, Fractions kept as they are
coefficients = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=3)
)
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(VARS)), coefficients, max_size=4
).map(lambda terms: MultiPoly(VARS, terms))


@properties
@given(polys, polys, polys)
def test_ring_axioms_property(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f - f == MultiPoly(VARS)
    assert f * MultiPoly.constant(VARS, 1) == f
    assert multipoly_to_sympy(f * g, SYMS) == sympy.expand(
        multipoly_to_sympy(f, SYMS) * multipoly_to_sympy(g, SYMS)
    )


def test_leading_monomial_agrees_with_sympy_orders(rng):
    order = MonomialOrder.grevlex(len(VARS))
    for _ in range(30):
        f = random_mpoly(rng)
        if f.is_zero():
            continue
        poly = sympy.Poly(multipoly_to_sympy(f, SYMS), *SYMS)
        expected = poly.monoms(order="grevlex")[0]
        assert max(f.terms, key=order.key) == tuple(expected)
        assert f.sorted_terms(order)[0][0] == tuple(expected)


def test_elimination_order_ranks_dropped_variables_first():
    order = MonomialOrder.elimination(3, [1])
    # any monomial containing y beats any monomial without it
    assert order.key((0, 1, 0)) > order.key((5, 0, 7))


def test_eval_substitute_consistency(rng):
    for _ in range(30):
        f = random_mpoly(rng)
        point = [rand_fraction(rng) for _ in VARS]
        partial = f.substitute({0: point[0], 1: point[1]})
        assert partial.eval(point) == f.eval(point)
        full = f.substitute(dict(enumerate(point)))
        assert full == MultiPoly.constant(VARS, f.eval(point))


def test_restrict_embed_roundtrip():
    f = MultiPoly(VARS, {(2, 0, 1): Fraction(3), (0, 0, 0): Fraction(-1)})
    small = f.restrict([0, 2])
    assert small.vars == ("x", "w")
    assert small.embed(VARS) == f


def test_json_terms_roundtrip(rng):
    for _ in range(20):
        f = random_mpoly(rng)
        assert MultiPoly.from_json_terms(VARS, f.to_json_terms()) == f


def test_floats_are_refused():
    # a float has already lost exactness: 0.1 is not 1/10
    x = MultiPoly.variable(VARS, 0)
    with pytest.raises(TypeError):
        MultiPoly(("x",), {(1,): 0.1})
    with pytest.raises(TypeError):
        MultiPoly.constant(VARS, 0.1)
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        0.5 - x


def test_number_minus_poly(rng):
    for _ in range(10):
        p = random_mpoly(rng)
        assert 1 - p == -(p - 1)
        assert Fraction(2, 3) - p == -(p - Fraction(2, 3))


def test_one_division_serves_groebner_and_unipoly(monkeypatch):
    """`normal_form` and `uni_gcd` both divide with `multipoly._remainder`."""
    calls = []
    original = multipoly._remainder

    def spy(*args):
        calls.append(args[0].vars)
        return original(*args)

    for module in (multipoly, groebner, unipoly):
        if vars(module).get("_remainder") is original:
            monkeypatch.setattr(module, "_remainder", spy)
    x, y = MultiPoly.variable(VARS, 0), MultiPoly.variable(VARS, 1)
    order = MonomialOrder.grevlex(len(VARS))
    assert normal_form(x * y + 1, [y], order) == MultiPoly.constant(VARS, 1)
    assert calls == [VARS]
    z = MultiPoly.variable(Z_RING, 0)
    assert uni_gcd(z * z - 1, z - 1) == z - 1
    assert calls == [VARS, Z_RING]
