import json
import random
from fractions import Fraction

import pytest
import sympy

from conftest import fixture_path, rand_fraction
from oracles import groebner_sympy, multipoly_to_sympy
from sarxid import (
    MonomialOrder,
    MultiPoly,
    ParamError,
    PolyParametrization,
    check_strong_minimality,
    genericity_witness,
    identifiability_verdict,
    ideals_equal,
    injectivity_probe,
    procedure1,
    symbolic_theorem2,
    theorem2_polynomials,
    verify_region_membership,
)

ZVARS = ("zeta1", "zeta2")


def zpoly(c1=0, c2=0, const=0):
    return MultiPoly(
        ZVARS,
        {(1, 0): Fraction(c1), (0, 1): Fraction(c2), (0, 0): Fraction(const)},
    )


@pytest.fixture(scope="module")
def first_family():
    return PolyParametrization.load(fixture_path("example8_first_family.json"))


@pytest.fixture(scope="module")
def two_param_family():
    return PolyParametrization.load(fixture_path("example2_param.json"))


def test_json_roundtrip(first_family):
    again = PolyParametrization.from_json_dict(
        json.loads(json.dumps(first_family.to_json_dict()))
    )
    assert again == first_family


def test_instantiate_evaluates_coefficients(two_param_family):
    m = two_param_family.instantiate((3, 5))
    assert m.coeff("1", 1) == 8  # theta1 + theta2
    assert m.coeff("1", 2) == -15  # -theta1*theta2
    assert m.coeff("2", 1) == 7  # 2 + theta2
    assert m.coeff("2", 2) == -10  # -2*theta2


def test_symbolic_data_specializes_to_numeric(rng, two_param_family):
    sym = symbolic_theorem2(two_param_family)
    for _ in range(10):
        theta = [rand_fraction(rng) for _ in range(two_param_family.dim)]
        model = two_param_family.instantiate(theta)
        data = theorem2_polynomials(model)
        for q in two_param_family.labels:
            for sym_poly, num_poly in (
                (sym.chi[q], data.chi[q]),
                (sym.upsilon[q], data.upsilon[q]),
                (sym.numerator[q], data.numerator[q]),
            ):
                specialized = sym_poly.substitute(dict(enumerate(theta)))
                assert specialized.as_unipoly(sym.z_index) == num_poly
        for pair in sym.phi:
            specialized = sym.phi[pair].substitute(dict(enumerate(theta)))
            assert specialized.as_unipoly(sym.z_index) == data.phi[pair]
            specialized = sym.phi_next[pair].substitute(dict(enumerate(theta)))
            assert specialized.as_unipoly(sym.z_index) == data.phi_next[pair]


def test_region_polynomials_certify_strong_minimality(rng, two_param_family):
    region = procedure1(two_param_family)
    assert not region.is_empty()
    hits = 0
    for _ in range(15):
        theta = [rand_fraction(rng) for _ in range(two_param_family.dim)]
        if verify_region_membership(region, theta):
            hits += 1
            model = two_param_family.instantiate(theta)
            assert check_strong_minimality(model).strong_minimal
    assert hits > 0


def test_first_family_region(first_family):
    region = procedure1(first_family)
    order = MonomialOrder.grevlex(2)
    assert ideals_equal(region.i_a_basis, [zpoly(1, 1)], order)
    s1 = zpoly(1, 1)
    assert ideals_equal(region.i_b_basis, [s1 * s1 * s1], order)
    assert ideals_equal(region.s, [s1 * s1 * s1 * s1], order)
    assert verify_region_membership(region, (1, 0))
    assert not verify_region_membership(region, (1, -1))


def test_region_empty_for_degenerate_family():
    # all modes identical and the lone input coefficient zero: nothing to excite
    vars = ("t",)
    t = MultiPoly.variable(vars, 0)
    zero = MultiPoly.zero(vars)
    par = PolyParametrization(
        vars=vars, ny=1, nu=1, p=1, m=1, modes={"1": (t, zero), "2": (t, zero)}
    )
    region = procedure1(par)
    assert region.is_empty()
    verdict = identifiability_verdict(par, region, injectivity_probe(par))
    assert not verdict.identifiable
    assert verdict.missing


def test_procedure_rejects_parameterless_family():
    par = PolyParametrization(
        vars=(), ny=1, nu=1, p=1, m=1,
        modes={"1": (MultiPoly.constant((), 1), MultiPoly.constant((), 1))},
    )
    with pytest.raises(ParamError):
        procedure1(par)


def test_injectivity_affine_proof(first_family):
    evidence = injectivity_probe(first_family)
    assert evidence.kind == "injective-affine"


def test_injectivity_collision_for_even_power():
    par = PolyParametrization.load(fixture_path("theta_squared_param.json"))
    evidence = injectivity_probe(par)
    assert evidence.kind == "collision"
    t1, t2 = evidence.collision
    assert par.instantiate(t1) == par.instantiate(t2)


def test_genericity_witness_found(two_param_family):
    theta, attempts = genericity_witness(two_param_family, samples=20, seed=0)
    assert theta is not None
    assert attempts <= 20
    assert check_strong_minimality(two_param_family.instantiate(theta)).strong_minimal


def test_genericity_witness_absent_for_constant_degenerate_family():
    vars = ("t",)
    zero = MultiPoly.zero(vars)
    one = MultiPoly.constant(vars, 1)
    # frozen family: identical modes with zero input coefficient everywhere
    par = PolyParametrization(
        vars=vars, ny=1, nu=1, p=1, m=1, modes={"1": (one, zero), "2": (one, zero)}
    )
    theta, attempts = genericity_witness(par, samples=10, seed=0)
    assert theta is None
    assert attempts == 10


def test_identifiability_verdict_positive(first_family):
    region = procedure1(first_family)
    verdict = identifiability_verdict(first_family, region, injectivity_probe(first_family))
    assert verdict.identifiable
    assert verdict.region_nonempty


# The intermediate ideals of Procedure 1 on the fixture families, as reduced
# grevlex bases.  A kernel rewrite must reproduce them exactly.
REGION_INTERMEDIATES = {
    "example8_first_family": {
        "i_a_basis": ["1*zeta1 + 1*zeta2"],
        "i_b_basis": ["1*zeta1^3 + 3*zeta1^2*zeta2 + 3*zeta1*zeta2^2 + 1*zeta2^3"],
        "s": ["1*zeta1^4 + 4*zeta1^3*zeta2 + 6*zeta1^2*zeta2^2 + 4*zeta1*zeta2^3 + 1*zeta2^4"],
    },
    "example8_second_family": {
        "i_a_basis": ["1"],
        "i_b_basis": ["1*zeta2^3", "1*zeta1^2 + -1*zeta2^2", "1*zeta1*zeta2 + 1*zeta2^2"],
        "s": ["1*zeta2^3", "1*zeta1^2 + -1*zeta2^2", "1*zeta1*zeta2 + 1*zeta2^2"],
    },
    "example2_param": {
        "i_a_basis": [
            "1*theta1^3 + -4*theta1^2 + 4*theta1",
            "1*theta1*theta2 + -2*theta1 + -2*theta2 + 4",
        ],
        "i_b_basis": ["1*theta1^2*theta2^5 + -2*theta1*theta2^5", "1*theta1*theta2^6 + -2*theta2^6"],
        "s": [
            "1*theta1^4*theta2^5 + -6*theta1^3*theta2^5 + 12*theta1^2*theta2^5 + -8*theta1*theta2^5",
            "1*theta1^3*theta2^6 + -2*theta1^3*theta2^5 + -4*theta1^2*theta2^6"
            " + 8*theta1^2*theta2^5 + 4*theta1*theta2^6 + -8*theta1*theta2^5",
            "1*theta1^2*theta2^7 + -2*theta1^2*theta2^6 + -4*theta1*theta2^7"
            " + 8*theta1*theta2^6 + 4*theta2^7 + -8*theta2^6",
        ],
    },
}


@pytest.mark.parametrize("name", sorted(REGION_INTERMEDIATES))
def test_region_intermediates_pinned(name):
    par = PolyParametrization.load(fixture_path(name + ".json"))
    region = procedure1(par)
    for field, expected in REGION_INTERMEDIATES[name].items():
        assert [f.to_str() for f in getattr(region, field)] == expected, field
    if name == "example8_second_family":
        syms = sympy.symbols(par.vars)
        gens_b = [f for polys in region.s_b.values() for f in polys]
        mine = {multipoly_to_sympy(g, syms) for g in region.i_b_basis}
        assert mine == groebner_sympy(gens_b, syms)
