"""Sanity checks of the reference oracles on hand-computable instances.

These run before the oracles are trusted to certify the library.
"""

from fractions import Fraction

import sympy

from oracles import (
    brute_force_reachable,
    brute_force_unobservable,
    charpoly_by_cofactor,
    groebner_sympy,
    kron,
    mimo_trace_oracle,
    multipoly_to_sympy,
    rank_by_minors,
    resultant,
    siso_trace_oracle,
    sympy_to_multipoly,
    vstack,
)
from conftest import rand_fraction, zpoly
from sarxid import Lss, LssMode, MultiPoly, RatMatrix


def test_rank_by_minors_hand_values():
    assert rank_by_minors(RatMatrix([[1, 2], [2, 4]])) == 1
    assert rank_by_minors(RatMatrix([[1, 0], [0, 1]])) == 2
    assert rank_by_minors(RatMatrix([[0, 0], [0, 0]])) == 0
    assert rank_by_minors(RatMatrix([[1, 2, 3], [4, 5, 6]])) == 2


def test_kron_applies_both_sides_to_row_major_vec(rng):
    # vec(A X B) = kron(A, B^T) vec(X) when vec stacks the rows
    def vec(m):
        return RatMatrix.column(sum(m.to_lists(), []))

    for _ in range(60):
        d = [rng.randint(1, 3) for _ in range(4)]
        a, x, b = (
            RatMatrix([[rand_fraction(rng, -4, 4, 3) for _ in range(c)] for _ in range(r)])
            for r, c in zip(d, d[1:])
        )
        assert kron(a, b.transpose()) @ vec(x) == vec(a @ x @ b)
    assert vstack([RatMatrix.zeros(0, 3)] * 2).shape == (0, 3)


def test_charpoly_cofactor_hand_values():
    # companion of z^2 - 5z + 6 = (z-2)(z-3)
    a = RatMatrix([[5, -6], [1, 0]])
    assert charpoly_by_cofactor(a) == zpoly(6, -5, 1)
    assert charpoly_by_cofactor(RatMatrix([[2]])) == zpoly(-2, 1)


def test_resultant_detects_shared_roots():
    f = zpoly(-2, 1)  # z - 2
    g = zpoly(6, -5, 1)  # (z-2)(z-3)
    h = zpoly(-1, 1)  # z - 1
    assert resultant(f, g) == 0
    assert resultant(h, g) != 0
    # res(f, g) = prod g(root of f): g has root 2, f(2)... res(h,g)=g(1)=2
    assert resultant(h, g) == g.eval([Fraction(1)])


def test_sympy_bridge_roundtrip():
    vars = ("x", "y")
    x, y = sympy.symbols("x y")
    f = MultiPoly(vars, {(2, 0): Fraction(1), (0, 1): Fraction(-3, 2)})
    expr = multipoly_to_sympy(f, (x, y))
    assert expr == x**2 - sympy.Rational(3, 2) * y
    assert sympy_to_multipoly(expr, vars, (x, y)) == f


def test_groebner_sympy_known_basis():
    vars = ("x", "y")
    x, y = sympy.symbols("x y")
    f = MultiPoly(vars, {(2, 0): Fraction(1), (0, 0): Fraction(-1)})  # x^2 - 1
    g = MultiPoly(vars, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})  # x - y
    gb = groebner_sympy([f, g], (x, y), order="lex")
    assert gb == {sympy.expand(x - y), sympy.expand(y**2 - 1)}


def test_trace_oracles_on_constant_mode():
    # single-mode y_t = 2 y_{t-1} + u_{t-1}, u = 1,0,0: y = 0,1,2,4
    from sarxid import SarxModel

    m = SarxModel(ny=1, nu=1, p=1, m=1, modes={"1": RatMatrix([[2, 1]])})
    word = [("1", (Fraction(1),)), ("1", (Fraction(0),)), ("1", (Fraction(0),)), ("1", (Fraction(0),))]
    trace = siso_trace_oracle(m, word)
    assert [y[0] for y in trace] == [0, 1, 2, 4]
    assert mimo_trace_oracle(m, word) == trace


def test_brute_force_spaces_on_single_mode():
    # n=2 single mode: classical controllability/observability
    a = RatMatrix([[1, 1], [0, 1]])
    b = RatMatrix([[0], [1]])
    c = RatMatrix([[1, 0]])
    sys = Lss(n=2, m=1, p=1, modes={"1": LssMode(a=a, b=b, c=c)}, x0=RatMatrix.zeros(2, 1))
    assert brute_force_reachable(sys).dim == 2
    assert brute_force_unobservable(sys).dim == 0
    sys2 = Lss(
        n=2, m=1, p=1,
        modes={"1": LssMode(a=a, b=RatMatrix([[1], [0]]), c=RatMatrix([[0, 1]]))},
        x0=RatMatrix.zeros(2, 1),
    )
    # A e1 = e1 and b = e1, so only span{e1} is reachable; the repeated
    # output row [0 1] leaves span{e1} unobservable
    assert brute_force_reachable(sys2).dim == 1
    assert brute_force_unobservable(sys2).dim == 1


def test_oracle_spaces_are_word_length_saturated(rng):
    from conftest import random_lss

    for _ in range(5):
        sys = random_lss(rng, max_n=3, max_modes=2)
        assert brute_force_reachable(sys, sys.n) == brute_force_reachable(sys, sys.n + 1)
        assert brute_force_unobservable(sys, sys.n) == brute_force_unobservable(sys, sys.n + 1)
