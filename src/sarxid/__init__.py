"""Exact-arithmetic analysis of switched ARX models.

Decides strong minimality of switched ARX systems, certifies minimality
via their switched state-space realizations, and computes identifiable
sub-parametrizations of polynomial model families with Groebner bases.
All computation is over exact rationals.
"""

from .groebner import buchberger, elimination_ideal, ideal_product, ideals_equal, normal_form
from .identifiability import (
    IdentifiabilityReport,
    IdentifiableRegion,
    InjectivityEvidence,
    PolyParametrization,
    genericity_witness,
    identifiability_verdict,
    injectivity_probe,
    procedure1,
    symbolic_theorem2,
    verify_region_membership,
)
from .linalg import RatMatrix, Subspace, solve_affine
from .lss import (
    IsoSolution,
    Lss,
    LssMinimalityCertificate,
    LssMode,
    associated_lss,
    dual,
    find_isomorphisms,
    is_minimal_lss,
    reachable_span,
    simulate_lss,
    unobservable_space,
)
from .minimality import (
    MinimalityVerdict,
    Theorem2Data,
    arx_is_minimal,
    check_condition_a,
    check_condition_b,
    check_strong_minimality,
    condition_b_scalar,
    gamma_polynomials,
    sarx_minimality_sufficient,
    theorem2_polynomials,
)
from .multipoly import MonomialOrder, MultiPoly
from .rationals import InputError, format_rational, parse_rational
from .sarx import HybridWord, SarxModel, SarxType, reduce_trailing_zero, simulate_sarx
from .unipoly import Z_RING, char_poly, eval_matrix, is_coprime, uni_gcd

__version__ = "0.1.0"
