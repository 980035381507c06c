"""Polynomial parametrizations of SISO switched ARX models.

A parametrization is a `sarx.SarxType` with one coefficient polynomial per
mode coefficient; it maps a rational parameter vector to a model of the same
type by evaluating them.  The analyses here compute the symbolic coprimality
data of the family, carve out the parameter region whose instances are
strongly minimal (by eliminating the indeterminate z from pairwise ideals and
combining the results into one Groebner set), and gather injectivity and
genericity evidence.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .groebner import buchberger, elimination_ideal, ideal_product
from .linalg import RatMatrix
from .minimality import Theorem2Data, check_strong_minimality
from .multipoly import MonomialOrder, MultiPoly
from .rationals import InputError, Record, _ZERO, exact, format_rational, malformed, read_modes
from .sarx import SarxModel, SarxType
from .unipoly import Z_RING


class PolyParametrization(SarxType):
    """Map from parameter space Q^d to SARX models of its type, polynomial per coefficient.

    modes[q] is the flat row-major tuple of coefficient polynomials, one per
    entry of the mode's coefficient matrix, each in the ring of `vars`.
    """

    vars: tuple

    def __post_init__(self):
        super().__post_init__()
        for q, polys in self.modes.items():
            if len(polys) != self.p * self.width:
                raise InputError(
                    "mode %r has %d coefficient polynomials, expected %d"
                    % (q, len(polys), self.p * self.width)
                )
            if any(f.vars != self.vars for f in polys):
                raise InputError("coefficient polynomial in a different ring")

    @property
    def dim(self):
        return len(self.vars)

    def instantiate(self, theta) -> SarxModel:
        theta = [exact(x) for x in theta]
        if len(theta) != self.dim:
            raise InputError("parameter length %d != %d" % (len(theta), self.dim))
        cols = self.width
        modes = {}
        for q in self.labels:
            polys = self.modes[q]
            modes[q] = RatMatrix(
                [
                    [polys[r * cols + c].eval(theta) for c in range(cols)]
                    for r in range(self.p)
                ]
            )
        return SarxModel(self.ny, self.nu, self.p, self.m, modes)

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        modes = {q: [f.to_json_terms() for f in self.modes[q]] for q in self.labels}
        return dict(self.header(), vars=list(self.vars), modes=modes)

    @classmethod
    def from_json_dict(cls, obj):
        with malformed("parametrization"):
            vars = obj["vars"]
            if not (isinstance(vars, list) and all(isinstance(v, str) for v in vars)):
                raise TypeError('"vars" must be a list of strings')
            if len(set(vars)) != len(vars):
                raise ValueError('"vars" repeats a name: %r' % (vars,))
            vars = tuple(vars)
            modes = read_modes(
                obj, lambda polys: tuple(MultiPoly.from_json_terms(vars, t) for t in polys)
            )
            return cls(*cls.read_header(obj), modes, vars=vars)


def symbolic_theorem2(par: PolyParametrization) -> Theorem2Data:
    """Theorem-2 data of the family, in the ring of the parameters plus z.

    z is the last variable.  Specializing the parameters gives the data of
    the instantiated model, because both come from the same recursion.
    """
    if Z_RING[0] in par.vars:
        raise InputError('parameter variable named "z" collides with the indeterminate')
    par.require_siso("scalar coefficient access")
    ring = par.vars + Z_RING
    h = {q: [f.in_ring(ring) for f in par.modes[q]] for q in par.labels}
    return Theorem2Data(par.ny, par.nu, h, ring)


class IdentifiableRegion(Record):
    """Region {theta : some P in s does not vanish} of strongly minimal instances."""

    vars: tuple
    s: tuple  # final reduced Groebner set
    i_a_basis: tuple
    i_b_basis: tuple
    s_a: dict  # per ordered pair: eliminated generators (reachability side)
    s_b_raw: dict  # per ordered pair: eliminated generators (observability side)
    s_b: dict  # per ordered pair: scaled generators entering I_B

    def is_empty(self):
        return not self.s

    def to_json_dict(self):
        def fmt(polys):
            return [f.to_str() for f in polys]

        return {
            "S": fmt(self.s),
            "theta_hat": "exists P in S with P(theta) != 0",
            "intermediates": {
                "I_A": fmt(self.i_a_basis),
                "I_B": fmt(self.i_b_basis),
                "S_A": {"%s,%s" % k: fmt(v) for k, v in sorted(self.s_a.items())},
                "S_B_unscaled": {
                    "%s,%s" % k: fmt(v) for k, v in sorted(self.s_b_raw.items())
                },
                "S_B": {"%s,%s" % k: fmt(v) for k, v in sorted(self.s_b.items())},
            },
        }


def procedure1(par: PolyParametrization) -> IdentifiableRegion:
    """Compute the strongly minimal sub-parametrization region.

    Per ordered pair (q, qh) of distinct modes, eliminate z from the
    reachability ideal (chi with the advanced phi) and from the observability
    ideal (chi with the other mode's upsilon, scaled by the pair's
    condition-B scale `b_scale(q, qh)`), then return the reduced Groebner
    basis of the product of the two combined ideals, `ideal_product(I_A, I_B)`.
    """
    if not par.vars:
        raise InputError("region computation needs at least one parameter")
    sym = symbolic_theorem2(par)
    d = len(par.vars)
    param_order = MonomialOrder.grevlex(d)

    s_a = {}
    s_b_raw = {}
    s_b = {}
    for pair in sym.pairs:
        q, qh = pair
        s_a[pair] = elimination_ideal([sym.chi[q], sym.phi_next(q, qh)], [d])
        raw = elimination_ideal([sym.chi[q], sym.upsilon[qh]], [d])
        s_b_raw[pair] = raw
        scale = sym.b_scale(q, qh).in_ring(par.vars)
        s_b[pair] = [f * scale for f in raw]

    gens_a = [f for polys in s_a.values() for f in polys]
    gens_b = [f for polys in s_b.values() for f in polys]
    i_a = buchberger(gens_a, param_order)
    i_b = buchberger(gens_b, param_order)
    s = ideal_product(i_a, i_b, param_order)
    return IdentifiableRegion(
        vars=par.vars,
        s=tuple(s),
        i_a_basis=tuple(i_a),
        i_b_basis=tuple(i_b),
        s_a=s_a,
        s_b_raw=s_b_raw,
        s_b=s_b,
    )


def verify_region_membership(region: IdentifiableRegion, theta) -> bool:
    """Whether some polynomial of S is nonzero at theta.

    `test_region_polynomials_certify_strong_minimality` checks that members
    instantiate to strongly minimal models.
    """
    theta = [exact(x) for x in theta]
    if len(theta) != len(region.vars):
        raise InputError("parameter length %d != %d" % (len(theta), len(region.vars)))
    return any(f.eval(theta) != 0 for f in region.s)


class InjectivityEvidence(Record):
    """kind: "injective-affine", "collision" or "no-collision-found"."""

    kind: str
    collision: tuple | None = None  # (theta1, theta2) when kind == "collision"

    def to_json_dict(self):
        out = {"kind": self.kind}
        if self.collision is not None:
            out["collision"] = [[format_rational(x) for x in theta] for theta in self.collision]
        return out


def _affine_linear_part(par: PolyParametrization):
    """The matrix of linear coefficients if every coefficient poly is affine, else None."""
    rows = []
    for q in par.labels:
        for f in par.modes[q]:
            if f.total_degree() > 1:
                return None
            row = []
            terms = f.terms
            for i in range(par.dim):
                exp = tuple(1 if j == i else 0 for j in range(par.dim))
                row.append(terms.get(exp, _ZERO))
            rows.append(row)
    return RatMatrix(rows)


def _draw_theta(rng, dim):
    """A parameter vector with entries n/d, n in [-10, 10], d in [1, 3]."""
    return tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(dim))


def injectivity_probe(par: PolyParametrization, trials=100, seed=0) -> InjectivityEvidence:
    """Exact proof for affine maps, randomized refutation otherwise.

    For an affine parametrization injectivity equals full column rank of the
    linear part; a rank defect yields an explicit collision.  For general
    polynomials the probe samples parameter pairs and sign flips; absence of
    a collision is inconclusive.
    """
    if trials < 1:
        raise InputError("need at least one trial, got %d" % trials)
    linear = _affine_linear_part(par)
    if linear is not None:
        kern = linear.kernel_basis()
        if not kern:
            return InjectivityEvidence(kind="injective-affine")
        theta1 = tuple(_ZERO for _ in range(par.dim))
        theta2 = tuple(kern[0][i, 0] for i in range(par.dim))
        return InjectivityEvidence(kind="collision", collision=(theta1, theta2))
    rng = random.Random(seed)
    for _ in range(trials):
        theta1 = _draw_theta(rng, par.dim)
        model1 = par.instantiate(theta1)
        for theta2 in (tuple(-x for x in theta1), _draw_theta(rng, par.dim)):
            if theta1 == theta2:
                continue
            if par.instantiate(theta2) == model1:
                return InjectivityEvidence(
                    kind="collision", collision=(theta1, theta2)
                )
    return InjectivityEvidence(kind="no-collision-found")


def genericity_witness(par: PolyParametrization, samples=20, seed=0):
    """First sampled theta whose instance is strongly minimal, or None.

    A single witness certifies generic strong minimality of the family.
    Returns (theta or None, attempts).
    """
    if samples < 1:
        raise InputError("need at least one sample, got %d" % samples)
    rng = random.Random(seed)
    for attempt in range(1, samples + 1):
        theta = _draw_theta(rng, par.dim)
        model = par.instantiate(theta)
        if check_strong_minimality(model, method="exact-rank").strong_minimal:
            return theta, attempt
    return None, samples


class IdentifiabilityReport(Record):
    identifiable: bool
    region_nonempty: bool
    injectivity: InjectivityEvidence
    missing: tuple


def identifiability_verdict(
    par: PolyParametrization,
    region: IdentifiableRegion,
    injectivity: InjectivityEvidence,
) -> IdentifiabilityReport:
    """Identifiability of the family restricted to the computed region.

    The restriction is strongly minimal wherever some region polynomial is
    nonzero, so identifiability follows once injectivity is established.
    `test_identifiability_verdict_positive` checks this on the first family.
    """
    par.require_siso("an identifiability verdict")
    missing = []
    nonempty = not region.is_empty()
    if not nonempty:
        missing.append("region of strongly minimal instances is empty")
    if injectivity.kind == "collision":
        missing.append("parametrization is not injective")
    elif injectivity.kind != "injective-affine":
        missing.append("injectivity is unproven")
    return IdentifiabilityReport(
        identifiable=not missing,
        region_nonempty=nonempty,
        injectivity=injectivity,
        missing=tuple(missing),
    )
