import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from conftest import fixture_path, rand_fraction
from oracles import groebner_sympy, mul_reference, multipoly_to_sympy
from sarxid import (
    IdentifiableRegion,
    InjectivityEvidence,
    InputError,
    MonomialOrder,
    MultiPoly,
    PolyParametrization,
    buchberger,
    check_condition_b,
    check_strong_minimality,
    genericity_witness,
    identifiability_verdict,
    ideals_equal,
    injectivity_probe,
    is_coprime,
    procedure1,
    symbolic_theorem2,
    theorem2_polynomials,
    verify_region_membership,
)
from sarxid.cli import main

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


PARAMETRIZATIONS = (
    "engine_family",
    "example2_param",
    "example8_first_family",
    "example8_second_family",
    "theta_squared_param",
    "trivial_param",
)


@pytest.mark.parametrize("name", PARAMETRIZATIONS)
def test_symbolic_data_specializes_to_numeric(rng, name):
    par = PolyParametrization.load(fixture_path(name + ".json"))
    sym = symbolic_theorem2(par)

    def specialize(poly, theta):
        return poly.substitute(dict(enumerate(theta))).in_ring(("z",))

    for _ in range(10):
        theta = [rand_fraction(rng) for _ in range(par.dim)]
        data = theorem2_polynomials(par.instantiate(theta))
        for field in ("chi", "upsilon"):
            sym_polys, num_polys = getattr(sym, field), getattr(data, field)
            assert sym_polys.keys() == num_polys.keys()
            for key, poly in sym_polys.items():
                assert specialize(poly, theta) == num_polys[key], (field, key)
        for pair in product(par.labels, repeat=2):
            for field in ("phi", "phi_next", "b_scale"):
                poly = getattr(sym, field)(*pair)
                assert specialize(poly, theta) == getattr(data, field)(*pair), (field, pair)
            assert [specialize(p, theta) for p in sym.psi(*pair)] == data.psi(*pair), pair


def test_family_refuses_a_foreign_ring_and_a_parameter_of_the_wrong_length(two_param_family):
    t, s = MultiPoly.variable(("t",), 0), MultiPoly.variable(("s",), 0)
    with pytest.raises(InputError, match="different ring"):
        PolyParametrization(1, 1, 1, 1, {"1": (t, s)}, vars=("t",))
    with pytest.raises(InputError, match="parameter length 1 != 2"):
        two_param_family.instantiate([1])
    region = IdentifiableRegion(("t", "s"), (t,), (), (), {}, {}, {})
    with pytest.raises(InputError, match="parameter length 3 != 2"):
        verify_region_membership(region, [1, 2, 3])


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


def test_second_family_region_is_the_unscaled_b_ideal_times_the_maximal_ideal():
    # the facts of docs/DECISIONS.md entry 3, behind acceptance criterion 03
    par = PolyParametrization.load(fixture_path("example8_second_family.json"))
    region = procedure1(par)
    order = MonomialOrder.grevlex(2)
    assert [f.to_str() for f in region.i_a_basis] == ["1"]
    i_b_raw = buchberger([f for polys in region.s_b_raw.values() for f in polys], order)
    assert i_b_raw == buchberger([zpoly(1, 1), zpoly(0, 1) * zpoly(0, 1)], order)
    maximal = [zpoly(1, 0), zpoly(0, 1)]
    assert ideals_equal(region.s, [f * g for f in i_b_raw for g in maximal], order)


def affine_family(rng, bound=3):
    """Two modes of type (1,1); each entry c0 + c1*zeta1 + c2*zeta2 with c nonzero."""
    coeffs = [c for c in range(-bound, bound + 1) if c]

    def entry():
        return zpoly(rng.choice(coeffs), rng.choice(coeffs), rng.choice(coeffs))

    return PolyParametrization(
        vars=ZVARS, ny=1, nu=1, p=1, m=1, modes={q: (entry(), entry()) for q in ("1", "2")}
    )


def test_region_membership_implies_instance_conditions():
    # chi_q is monic in z, so V of the elimination ideal of <chi_q, g> is
    # exactly the projection of V(chi_q, g): off V(S), some pair's chi_q is
    # coprime to phi_next, and some pair passes condition B
    rng = random.Random(0)
    families = [
        PolyParametrization.load(fixture_path(name + ".json"))
        for name in ("example2_param", "example8_first_family", "example8_second_family")
    ]
    families += [affine_family(rng) for _ in range(8)]
    members = 0
    for par in families:
        region = procedure1(par)
        for _ in range(30):
            theta = [rand_fraction(rng, -2, 2) for _ in range(par.dim)]
            if not verify_region_membership(region, theta):
                continue
            members += 1
            data = theorem2_polynomials(par.instantiate(theta))
            assert check_condition_b(data) is not None, (par, theta)
            assert any(
                is_coprime(data.chi[q], data.phi_next(q, qh)) for q, qh in data.pairs
            ), (par, theta)
    assert members > 200


def test_region_empty_for_degenerate_family():
    # all modes identical and the lone input coefficient zero: nothing to excite
    vars = ("t",)
    t = MultiPoly.variable(vars, 0)
    zero = MultiPoly(vars)
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
    with pytest.raises(InputError):
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


def test_injectivity_collision_for_rank_deficient_affine_family(capsys, tmp_path):
    # every coefficient is a function of zeta1 + zeta2, so the linear part has rank 1
    par = PolyParametrization(
        vars=ZVARS, ny=1, nu=1, p=1, m=1,
        modes={"1": (zpoly(1, 1), zpoly(2, 2, 1)), "2": (zpoly(-1, -1, 3), zpoly(const=1))},
    )
    evidence = injectivity_probe(par)
    assert evidence.kind == "collision"
    t1, t2 = evidence.collision
    assert t1 != t2
    assert par.instantiate(t1) == par.instantiate(t2)
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(par.to_json_dict()))
    assert main(["param-injective", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["kind"] == "collision"


def test_injectivity_probe_is_inconclusive_for_an_injective_cubic(capsys, tmp_path):
    # theta -> theta^3 is injective but not affine: no proof and no collision.
    # Each of these seeds draws a pair with theta2 = theta1 (theta1 = 0 is its
    # own negation), which the probe must skip rather than report
    par = PolyParametrization(
        vars=("theta",), ny=1, nu=1, p=1, m=1,
        modes={"1": (MultiPoly.variable(("theta",), 0, 3), MultiPoly.constant(("theta",), 1))},
    )
    for seed in range(3):
        assert injectivity_probe(par, seed=seed).kind == "no-collision-found", seed
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(par.to_json_dict()))
    assert main(["param-injective", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"kind": "no-collision-found"}


def test_injectivity_probe_builds_each_first_model_once(monkeypatch, two_param_family):
    # 100 trials without a collision: theta1's model once, then one per candidate theta2
    calls = []
    instantiate = PolyParametrization.instantiate
    monkeypatch.setattr(PolyParametrization, "instantiate",
                        lambda par, theta: calls.append(theta) or instantiate(par, theta))
    assert injectivity_probe(two_param_family) == InjectivityEvidence(kind="no-collision-found")
    assert len(calls) == 300


def test_family_type_is_checked_at_construction():
    # p = 0 or m = 0 was accepted and failed only when instantiated
    t = MultiPoly.variable(("t",), 0)
    for p, m in ((0, 1), (1, 0)):
        with pytest.raises(InputError, match="positive input/output"):
            PolyParametrization(1, 1, p, m, {"1": (t,) * p * (p + m)}, vars=("t",))
    with pytest.raises(InputError, match=r"0 < n_u <= n_y, got \(1, 2\)"):
        PolyParametrization(1, 2, 1, 1, {"1": (t,) * 3}, vars=("t",))


def test_genericity_witness_found(two_param_family):
    theta, attempts = genericity_witness(two_param_family, samples=20, seed=0)
    assert theta is not None
    assert attempts <= 20
    assert check_strong_minimality(two_param_family.instantiate(theta)).strong_minimal


def test_genericity_witness_absent_for_constant_degenerate_family():
    vars = ("t",)
    zero = MultiPoly(vars)
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


@pytest.mark.parametrize("name, missing", [
    ("theta_squared_param", "parametrization is not injective"),  # collision (1), (-1)
    ("example2_param", "injectivity is unproven"),  # no collision found
])
def test_identifiability_verdict_names_what_is_missing(name, missing):
    par = PolyParametrization.load(fixture_path(name + ".json"))
    verdict = identifiability_verdict(par, procedure1(par), injectivity_probe(par))
    assert not verdict.identifiable
    assert missing in verdict.missing


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


def _affine(c0, c1, c2):
    """The entry c0 + c1*theta1 + c2*theta2, terms in that order."""
    return {"terms": [{"c": str(c), "e": e} for c, e in zip((c0, c1, c2), ([0, 0], [1, 0], [0, 1]))]}


def test_region_of_a_generated_family_with_three_by_three_product(capsys, tmp_path):
    # a family as bench/workloads.py generates them: I_A and I_B have three
    # elements each, so S comes from nine products
    family = {
        "vars": ["theta1", "theta2"], "ny": 1, "nu": 1, "p": 1, "m": 1,
        "modes": {
            "1": [_affine(-7, -5, 8), _affine(2, 3, -2)],
            "2": [_affine(7, 6, 2), _affine(-6, -1, 1)],
        },
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    region = procedure1(PolyParametrization.load(path))
    assert (len(region.i_a_basis), len(region.i_b_basis), len(region.s)) == (3, 3, 5)
    syms = sympy.symbols(region.vars)
    products = [mul_reference(f, g) for f in region.i_a_basis for g in region.i_b_basis]
    assert {multipoly_to_sympy(g, syms) for g in region.s} == groebner_sympy(products, syms)
    assert main(["param-analyze", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "6c64d8dfcbd0b2922d43fdc5a37cd468b0b68cb45b4c455fad3382905b8b9f05"
