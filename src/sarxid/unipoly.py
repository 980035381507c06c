"""Univariate helpers over `MultiPoly` in one variable.

A polynomial in z is a `MultiPoly` in the ring `Z_RING = ("z",)`, the same
type a parametrized family's polynomials have, so specialized symbolic data
compares equal to numeric data.  These functions back all coprimality
certificates and characteristic polynomials; the gcd is the Euclidean
algorithm on `multipoly._remainder`, the division Buchberger runs.
"""

from __future__ import annotations

from .linalg import RatMatrix
from .multipoly import MultiPoly, _primitive, _remainder

Z_RING = ("z",)


def _univariate(f: MultiPoly):
    if len(f.vars) != 1:
        raise ValueError("expected a polynomial in one variable, got ring %r" % (f.vars,))


def uni_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd by the Euclidean algorithm; errors if both inputs are zero."""
    _univariate(a)
    _univariate(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    # in one variable, the exponent tuples (k,) compare as the degrees do
    while b.terms:
        a, b = b, _remainder(a, [_primitive(b.terms, None)], None)
    return a * (1 / a.terms[max(a.terms)])


def is_coprime(a: MultiPoly, b: MultiPoly) -> bool:
    return uni_gcd(a, b).total_degree() == 0


def eval_matrix(f: MultiPoly, a: RatMatrix) -> RatMatrix:
    """Evaluate f at a square matrix (Horner).

    Acceptance criterion 06 checks chi_q(A_q) and gamma_j(A_q) with it.
    """
    if not a.is_square():
        raise ValueError("matrix substitution needs a square matrix")
    _univariate(f)
    acc = RatMatrix.zeros(a.rows, a.rows)
    eye = RatMatrix.identity(a.rows)
    for k in range(f.total_degree(), -1, -1):
        acc = acc @ a + eye.scale(f.terms.get((k,), 0))
    return acc


def char_poly(a: RatMatrix) -> MultiPoly:
    """Characteristic polynomial det(zI - A) by the Faddeev-LeVerrier recurrence.

    Acceptance criterion 06 checks that of A_q against z^nu chi_q with it.
    """
    if not a.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = a.rows
    terms = {(n,): 1}
    m = RatMatrix.identity(n)
    eye = RatMatrix.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        c = -am.trace() / k
        terms[(n - k,)] = c
        m = am + eye.scale(c)
    return MultiPoly(Z_RING, terms)
