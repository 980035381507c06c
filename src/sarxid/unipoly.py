"""Univariate helpers over `MultiPoly` in one variable.

A polynomial in z is a `MultiPoly` in the ring `Z_RING = ("z",)`, the same
type a parametrized family's polynomials have, so specialized symbolic data
compares equal to numeric data.  These functions back all coprimality
certificates and characteristic polynomials; the gcd is the Euclidean
algorithm on `multipoly._remainder`, the division Buchberger runs, over the
packed monomials `multipoly` describes.
"""

from __future__ import annotations

from .linalg import RatMatrix
from .multipoly import MonomialOrder, MultiPoly, _primitive, _remainder

Z_RING = ("z",)
_ORDER = MonomialOrder.grevlex(1)


def _univariate(f: MultiPoly):
    if len(f.vars) != 1:
        raise ValueError("expected a polynomial in one variable, got ring %r" % (f.vars,))


def uni_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd by the Euclidean algorithm; errors if both inputs are zero."""
    _univariate(a)
    a._check_ring(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    ring, guard = a.vars, _ORDER.guard
    a, b = (_ORDER.pack(f)[1] for f in (a, b))
    while b:
        lm, lc, tail, _ = form = _primitive(b, guard)
        r = _remainder(a, [form], guard)[0]
        # the next dividend is primitive, so contents do not pile up
        a = dict(tail)
        a[lm] = lc
        b = r
    unpack = _ORDER.unpack
    return MultiPoly._of(ring, a[max(a)], {unpack(e): c for e, c in a.items()})


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
    terms = f.terms
    for k in range(f.total_degree(), -1, -1):
        acc = acc @ a + eye.scale(terms.get((k,), 0))
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
