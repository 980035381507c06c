"""Univariate helpers over `MultiPoly` in one variable.

A polynomial in z is a `MultiPoly` in the ring `Z_RING = ("z",)`, the same
type a parametrized family's polynomials have, so specialized symbolic data
compares equal to numeric data.  These functions back all coprimality
certificates and characteristic polynomials; the gcd is a Euclidean loop on
dense coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import RatMatrix
from .multipoly import MultiPoly

Z_RING = ("z",)

_ZERO = Fraction(0)


def _dense(f: MultiPoly):
    """Coefficients of a polynomial in one variable, ascending, no trailing zeros."""
    if len(f.vars) != 1:
        raise ValueError("expected a polynomial in one variable, got ring %r" % (f.vars,))
    return [f.terms.get((k,), _ZERO) for k in range(f.total_degree() + 1)]


def _rem(a, b):
    """Remainder of dense a by dense nonzero b, with no trailing zeros."""
    a = list(a)
    lc = b[-1]
    while len(a) >= len(b):
        f = a[-1] / lc
        k = len(a) - len(b)
        for j, c in enumerate(b):
            a[k + j] -= f * c
        a.pop()  # the leading coefficient is now exactly 0
        while a and a[-1] == 0:
            a.pop()
    return a


def uni_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd by the Euclidean algorithm; errors if both inputs are zero."""
    x, y = _dense(a), _dense(b)
    if not x and not y:
        raise ValueError("gcd(0, 0) is undefined")
    while y:
        x, y = y, _rem(x, y)
    return MultiPoly(a.vars, {(k,): c / x[-1] for k, c in enumerate(x)})


def is_coprime(a: MultiPoly, b: MultiPoly) -> bool:
    return uni_gcd(a, b).total_degree() == 0


def eval_matrix(f: MultiPoly, a: RatMatrix) -> RatMatrix:
    """Evaluate f at a square matrix (Horner).

    Acceptance criterion 06 checks chi_q(A_q) and gamma_j(A_q) with it.
    """
    if not a.is_square():
        raise ValueError("matrix substitution needs a square matrix")
    acc = RatMatrix.zeros(a.rows, a.rows)
    eye = RatMatrix.identity(a.rows)
    for c in reversed(_dense(f)):
        acc = acc @ a + eye.scale(c)
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
