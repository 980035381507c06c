import re
from datetime import timedelta
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rand_fraction, zpoly
from oracles import charpoly_by_cofactor, resultant, unipoly_to_sympy
from sarxid import Z_RING, MultiPoly, RatMatrix, char_poly, eval_matrix, is_coprime, uni_gcd


def random_poly(rng, max_deg=4):
    return zpoly(*[rand_fraction(rng) for _ in range(rng.randint(0, max_deg + 1))])


def test_gcd_matches_sympy(rng):
    z = sympy.Symbol("z")
    for _ in range(60):
        a, b = random_poly(rng), random_poly(rng)
        if a.is_zero() and b.is_zero():
            continue
        g = uni_gcd(a, b)
        expected = sympy.gcd(unipoly_to_sympy(a, z), unipoly_to_sympy(b, z), z)
        expected = sympy.Poly(expected, z).monic().as_expr()
        assert unipoly_to_sympy(g, z).equals(expected)


def test_coprimality_matches_resultant(rng):
    for _ in range(60):
        a, b = random_poly(rng), random_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        if a.total_degree() == 0 or b.total_degree() == 0:
            assert is_coprime(a, b)
            continue
        assert is_coprime(a, b) == (resultant(a, b) != 0)


# derandomized, so that the tier-1 gate sees the same examples on every run
properties = settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True)

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def zpolys(min_degree=0, max_degree=3):
    """Polynomials in z of exactly the drawn degree, or zero when min_degree is 0."""
    return st.tuples(
        st.lists(coefficients, min_size=min_degree, max_size=max_degree),
        coefficients.filter(bool) if min_degree else coefficients,
    ).map(lambda t: zpoly(*t[0], t[1]))


@properties
@given(zpolys(), zpolys(), zpolys(min_degree=1))
def test_planted_common_factor_is_found(a, b, g):
    assume(not (a.is_zero() and b.is_zero()))
    z = sympy.Symbol("z")
    got = uni_gcd(g * a, g * b)
    assert not is_coprime(g * a, g * b)
    expected = sympy.gcd(unipoly_to_sympy(g * a, z), unipoly_to_sympy(g * b, z), z)
    assert sympy.expand(unipoly_to_sympy(got, z) - sympy.Poly(expected, z).monic().as_expr()) == 0
    assert sympy.rem(unipoly_to_sympy(got, z), unipoly_to_sympy(g, z), z) == 0


def test_two_variable_polynomials_are_refused():
    # unguarded, eval_matrix would look up terms (k,) in a ring of pairs and
    # silently return the zero matrix
    f = MultiPoly(("t", "z"), {(1, 1): 1, (0, 1): 2})
    with pytest.raises(ValueError):
        uni_gcd(f, zpoly(1, 1))
    with pytest.raises(ValueError):
        uni_gcd(zpoly(1, 1), f)
    with pytest.raises(ValueError):
        eval_matrix(f, RatMatrix.identity(2))


def test_gcd_refuses_two_rings():
    # unguarded, the gcd of z - 1 and w^2 - 1 came out as z - 1
    w = MultiPoly.variable(("w",), 0)
    with pytest.raises(ValueError):
        uni_gcd(zpoly(-1, 1), w * w - 1)


UNIPOLY_REFUSALS = [
    ("gcd of zeros", lambda: uni_gcd(MultiPoly(Z_RING), MultiPoly(Z_RING)), "gcd(0, 0) is undefined"),
    ("eval_matrix", lambda: eval_matrix(zpoly(1, 1), RatMatrix([[1, 2]])), "needs a square matrix"),
    ("char_poly", lambda: char_poly(RatMatrix([[1, 2]])), "needs a square matrix"),
]


@pytest.mark.parametrize("name, call, message", UNIPOLY_REFUSALS, ids=[c[0] for c in UNIPOLY_REFUSALS])
def test_univariate_refusals(name, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_charpoly_matches_cofactor_expansion(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        a = RatMatrix([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])
        assert char_poly(a) == charpoly_by_cofactor(a)


def test_cayley_hamilton(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        a = RatMatrix([[rand_fraction(rng, -2, 2) for _ in range(n)] for _ in range(n)])
        assert eval_matrix(char_poly(a), a) == RatMatrix.zeros(n, n)


def test_canonical_text_form():
    p = zpoly(15, -8, 1)
    assert p.to_str() == "1*z^2 + -8*z + 15"
    assert MultiPoly(Z_RING).to_str() == "0"
    assert zpoly(Fraction(1, 2)).to_str() == "1/2"
