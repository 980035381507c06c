from datetime import timedelta
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_fraction
from oracles import (
    add_reference,
    in_ring_reference,
    mul_reference,
    multipoly_to_sympy,
    normal_form_reference,
    order_key,
    scale_reference,
    substitute_reference,
)
from sarxid import (
    Z_RING,
    HybridWord,
    IdentifiableRegion,
    MonomialOrder,
    MultiPoly,
    PolyParametrization,
    RatMatrix,
    Subspace,
    buchberger,
    normal_form,
    parse_rational,
    uni_gcd,
    verify_region_membership,
)
from sarxid import groebner, multipoly, unipoly
from sarxid.multipoly import FIELD_BITS, _fieldmax

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


# -- the integer form ---------------------------------------------------------


def assert_lowest_terms(f):
    """f's state is (d, ints): d > 0, no zero coefficient, gcd(d, ints) = 1."""
    d, ints = f.integer_form()
    assert type(d) is int and d > 0
    assert all(type(c) is int and c for c in ints.values())
    assert all(type(e) is tuple and len(e) == len(f.vars) for e in ints)
    assert gcd(d, *ints.values()) == 1
    assert f.terms == {e: Fraction(c, d) for e, c in ints.items()}


# denominators up to 12, so that sums and products have common factors to cancel
term_dicts = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(VARS)),
    st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=12)),
    max_size=5,
)
scalars = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6))


@properties
@given(term_dicts, term_dicts, scalars)
def test_arithmetic_keeps_lowest_terms_and_matches_fraction_references(ft, gt, c):
    f, g = MultiPoly(VARS, ft), MultiPoly(VARS, gt)
    assert f.terms == {e: Fraction(v) for e, v in ft.items() if v}
    for h in (f, g, f + g, f - g, -f, f * g, f * c, c * f, f + c, c - f):
        assert_lowest_terms(h)
    assert (f + g).terms == add_reference(f, g)
    assert (f - g).terms == add_reference(f, -1 * g)
    assert (f * g).terms == mul_reference(f, g).terms
    assert (f * c).terms == (c * f).terms == scale_reference(f, Fraction(c))


@properties
@given(term_dicts, st.dictionaries(st.integers(0, len(VARS) - 1), scalars, max_size=len(VARS)))
def test_ring_changes_and_substitution_match_fraction_references(ft, assignment):
    f = MultiPoly(VARS, ft)
    wide = ("v",) + VARS[::-1]
    for h in (f.in_ring(wide), f.in_ring(wide).in_ring(VARS), f.substitute(assignment)):
        assert_lowest_terms(h)
    assert f.in_ring(wide).terms == in_ring_reference(f, wide)
    assert f.in_ring(wide).in_ring(VARS) == f
    assert f.substitute(assignment).terms == substitute_reference(f, assignment)


@properties
@given(term_dicts, term_dicts)
def test_groebner_results_are_monic_in_lowest_terms(ft, gt):
    """A reduced basis element's leading coefficient is the denominator of
    its integer form, negative whenever the primitive form leads with a
    negative coefficient, as -f does for every f that leads with a positive one."""
    order = MonomialOrder.grevlex(len(VARS))
    f, g = MultiPoly(VARS, ft), MultiPoly(VARS, gt)
    for gens in ([f], [-f], [f, g], [-f, -g]):
        for h in buchberger(gens, order):
            assert_lowest_terms(h)
            assert h.terms[max(h.terms, key=order.key)] == 1
    if not f.is_zero():
        lc = f.terms[max(f.terms, key=order.key)]
        assert buchberger([-f], order) == [MultiPoly(VARS, scale_reference(f, 1 / lc))]
    r = normal_form(f, [-g], order)
    assert_lowest_terms(r)
    assert r == normal_form_reference(f, [-g], order)


def test_entries_are_read_off_the_integer_form():
    f = MultiPoly(VARS, {(1, 0, 0): Fraction(1, 4), (0, 2, 0): "-3/6", (0, 0, 0): 0})
    assert f.integer_form() == (4, {(1, 0, 0): 1, (0, 2, 0): -2})
    assert f.terms == {(1, 0, 0): Fraction(1, 4), (0, 2, 0): Fraction(-1, 2)}
    assert (f * 4).integer_form() == (1, {(1, 0, 0): 1, (0, 2, 0): -2})
    assert (f - f).integer_form() == (1, {})
    with pytest.raises(TypeError):
        f.terms[(0, 0, 0)] = 1


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
    small = f.in_ring(("x", "w"))
    assert small.vars == ("x", "w")
    assert small.in_ring(VARS) == f


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
    # and at every other entry point that takes numbers; a bool is not a number
    family = PolyParametrization(1, 1, 1, 1, {"1": (x, x)}, vars=VARS)
    region = IdentifiableRegion(VARS, (x,), (), (), {}, {}, {})
    for call in (
        lambda: RatMatrix([[0.1]]),
        lambda: RatMatrix([[True]]),
        lambda: RatMatrix.identity(2).scale(0.5),
        lambda: Subspace(2, [[0.1, 1]]),
        lambda: HybridWord([("1", [0.1])]),
        lambda: x.eval([0.1, 0, 0]),
        lambda: x.substitute({0: 0.1}),
        # x does not involve y: each value is checked, not only those in use
        lambda: x.eval([0, 0.1, 0]),
        lambda: x.substitute({1: 0.1}),
        lambda: family.instantiate([0.1, 0, 0]),
        lambda: verify_region_membership(region, [0.1, 0, 0]),
        # the string reader hands every other value to the same refusal
        lambda: parse_rational(0.1),
        lambda: parse_rational(True),
        lambda: parse_rational(None),
    ):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError, match="exponent notation"):
        RatMatrix([["1e3"]])


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
        calls.append(args[2])  # the guard bits of the ring's packing
        return original(*args)

    for module in (multipoly, groebner, unipoly):
        if vars(module).get("_remainder") is original:
            monkeypatch.setattr(module, "_remainder", spy)
    x, y = MultiPoly.variable(VARS, 0), MultiPoly.variable(VARS, 1)
    order = MonomialOrder.grevlex(len(VARS))
    assert normal_form(x * y + 1, [y], order) == MultiPoly.constant(VARS, 1)
    assert calls == [order.guard]
    z = MultiPoly.variable(Z_RING, 0)
    assert uni_gcd(z * z - 1, z - 1) == z - 1
    assert calls == [order.guard, MonomialOrder.grevlex(1).guard]


# -- the packing of monomials into ints --------------------------------------

# exponents small enough to collide, and large enough to fill a field while
# the sum of two 4-variable monomials stays below the guard bit
exponents = st.one_of(st.integers(0, 4), st.integers(0, 2 ** (FIELD_BITS - 5)))


# grevlex and every proper elimination split on 1-4 variables
PACKINGS = [MonomialOrder.grevlex(n) for n in range(1, 5)] + [
    MonomialOrder.elimination(n, drop)
    for n in range(2, 5)
    for k in range(1, n)
    for drop in combinations(range(n), k)
]
packings = pytest.mark.parametrize(
    "order", PACKINGS, ids=lambda o: "n%d-drop%s" % (len(o.weights), "".join(map(str, o.drop)))
)
packing_properties = settings(max_examples=25, deadline=timedelta(seconds=10), derandomize=True)


def monomials(order):
    return st.tuples(*[exponents] * len(order.weights))


@packings
@packing_properties
@given(st.data())
def test_packing_preserves_the_order(order, data):
    a = data.draw(monomials(order))
    # a permutation of a has its degree, so the partial sums decide
    b = data.draw(st.one_of(monomials(order), st.permutations(a).map(tuple)))
    ka, kb = order.key(a), order.key(b)
    ta, tb = order_key(order, a), order_key(order, b)
    assert (ka < kb) == (ta < tb)
    assert (ka == kb) == (a == b)


@packings
@packing_properties
@given(st.data())
def test_packing_preserves_products(order, data):
    a, b = data.draw(monomials(order)), data.draw(monomials(order))
    assert order.key(a) + order.key(b) == order.key(tuple(x + y for x, y in zip(a, b)))


@packings
@packing_properties
@given(st.data())
def test_packing_round_trips(order, data):
    e = data.draw(monomials(order))
    assert order.unpack(order.key(e)) == e


@packings
@packing_properties
@given(st.data(), st.booleans())
def test_guard_test_is_componentwise_division(order, data, multiple):
    a, b = data.draw(monomials(order)), data.draw(monomials(order))
    if multiple:  # else a divides b only by chance
        b = tuple(x + y for x, y in zip(a, b))
    divides = not (order.key(b) - order.key(a)) & order.guard
    assert divides == all(x <= y for x, y in zip(a, b))


def fields(order, key):
    count = order.guard.bit_length() // FIELD_BITS
    return [key >> FIELD_BITS * p & (2**FIELD_BITS - 1) for p in range(count)]


@packings
@packing_properties
@given(st.data())
def test_fieldmax_is_the_maximum_of_every_field(order, data):
    # the overflow checks bound the order fields of shifted terms with it too
    ka, kb = order.key(data.draw(monomials(order))), order.key(data.draw(monomials(order)))
    top = _fieldmax(ka, kb, order.guard)
    assert fields(order, top) == [max(x, y) for x, y in zip(fields(order, ka), fields(order, kb))]


wide = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**64))
wide_polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(VARS)), wide, max_size=5).map(
    lambda terms: MultiPoly(VARS, terms)
)


@properties
@given(wide_polys, wide_polys)
def test_product_matches_fraction_reference(f, g):
    assert f * g == mul_reference(f, g)


def test_packing_refuses_an_exponent_at_the_field_limit():
    limit = 2 ** (FIELD_BITS - 1)
    order = MonomialOrder.grevlex(1)
    assert order.unpack(order.key((limit - 1,))) == (limit - 1,)
    with pytest.raises(OverflowError):
        order.key((limit,))
    # the degree field fills first
    with pytest.raises(OverflowError):
        MonomialOrder.elimination(2, [0]).key((limit // 2, limit // 2))


def test_new_monomials_that_overflow_raise():
    half = 2 ** (FIELD_BITS - 2)
    x, y, w = (MultiPoly.variable(VARS, i) for i in range(3))
    x_half, y_half = MultiPoly.variable(VARS, 0, half), MultiPoly.variable(VARS, 1, half)
    elim = MonomialOrder.elimination(len(VARS), [0])
    # the second reduction step by x - y^half shifts y^half by y^half
    with pytest.raises(OverflowError):
        normal_form(x_half, [x - y_half], elim)
    # only the kept block's degree field overflows: y^(2 half) w^(2 half)
    quarter = half // 2
    yw = MultiPoly(VARS, {(0, quarter, quarter): 1})
    with pytest.raises(OverflowError):
        normal_form(x * x, [x - yw], elim)
    # the S-polynomial of x*w - y^half and x*y^half - 1 shifts y^half by y^half
    f, g = (
        multipoly._primitive(elim.pack(p)[1], elim.guard)
        for p in (x * w - y_half, x * y_half - 1)
    )
    with pytest.raises(OverflowError):
        groebner._s_polynomial(f, g, elim.lcm(f[0], g[0]), elim.guard)
    # the leading monomials x^half and y^half have an lcm of degree 2^(FIELD_BITS - 1)
    with pytest.raises(OverflowError):
        buchberger([x_half + 1, y_half + y], MonomialOrder.grevlex(len(VARS)))


POLY_REFUSALS = [
    ("exponent length", lambda x: MultiPoly(VARS, {(1, 0): 1}), "exponent length mismatch"),
    ("ring of a sum", lambda x: x + MultiPoly.variable(("x",), 0), "different rings"),
    ("point length", lambda x: x.eval([1, 2]), "point length 2 != variable count 3"),
    ("ring change", lambda x: x.in_ring(("y", "w")), "involves a dropped variable"),
]


@pytest.mark.parametrize("name, call, message", POLY_REFUSALS, ids=[c[0] for c in POLY_REFUSALS])
def test_polynomial_refusals(name, call, message):
    with pytest.raises(ValueError, match=message):
        call(MultiPoly.variable(VARS, 0))


def test_monomial_order_checks_its_drop_indices():
    with pytest.raises(ValueError):
        MonomialOrder(2, drop=[5])
    with pytest.raises(ValueError):
        MonomialOrder(2, drop=[-1])
    with pytest.raises(ValueError, match="elimination split must be proper"):
        MonomialOrder.elimination(2, [0, 1])
    x, y = MultiPoly.variable(("x", "y"), 0), MultiPoly.variable(("x", "y"), 1)
    with pytest.raises(ValueError):
        groebner.elimination_ideal([x - y], [5])
