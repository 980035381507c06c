import random
from fractions import Fraction

import sympy

from conftest import rand_fraction, random_lss
from oracles import charpoly_by_cofactor, resultant, unipoly_to_sympy
from sarxid import RatMatrix, UniPoly, char_poly, is_coprime, uni_gcd


def random_poly(rng, max_deg=4):
    return UniPoly([rand_fraction(rng) for _ in range(rng.randint(0, max_deg + 1))])


def test_divmod_reconstructs(rng):
    for _ in range(60):
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


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
        if a.degree == 0 or b.degree == 0:
            assert is_coprime(a, b)
            continue
        assert is_coprime(a, b) == (resultant(a, b) != 0)


def test_charpoly_matches_cofactor_expansion(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        a = RatMatrix([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])
        assert char_poly(a) == charpoly_by_cofactor(a)


def test_cayley_hamilton(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        a = RatMatrix([[rand_fraction(rng, -2, 2) for _ in range(n)] for _ in range(n)])
        assert char_poly(a).eval_matrix(a).is_zero()


def test_canonical_text_form():
    p = UniPoly([15, -8, 1])
    assert p.to_str() == "1*z^2 + -8*z + 15"
    assert UniPoly.zero().to_str() == "0"
    assert UniPoly([Fraction(1, 2)]).to_str() == "1/2"
