"""Univariate polynomials with exact rational coefficients.

Coefficients are stored ascending by degree with no trailing zeros; the zero
polynomial is the empty tuple.  These back all coprimality certificates and
characteristic polynomials.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import RatMatrix
from .rationals import format_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((_ONE,))

    @classmethod
    def constant(cls, c):
        return cls((Fraction(c),))

    @classmethod
    def x(cls):
        return cls((_ZERO, _ONE))

    @classmethod
    def monomial(cls, degree, coeff=_ONE):
        return cls([_ZERO] * degree + [Fraction(coeff)])

    # -- basics -------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading_coeff(self):
        return self.coeffs[-1] if self.coeffs else _ZERO

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        return UniPoly.constant(other)

    def divmod(self, divisor: "UniPoly"):
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [_ZERO] * max(len(rem) - len(divisor.coeffs) + 1, 0)
        dlc = divisor.leading_coeff()
        dd = divisor.degree
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            f = rem[-1] / dlc
            quo[k] = f
            for j, c in enumerate(divisor.coeffs):
                rem[k + j] -= f * c
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        return UniPoly([c / lc for c in self.coeffs])

    def eval(self, x):
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, a: RatMatrix) -> RatMatrix:
        """Evaluate at a square matrix (Horner).

        Acceptance criterion 06 checks chi_q(A_q) and gamma_j(A_q) with it.
        """
        if not a.is_square():
            raise ValueError("matrix substitution needs a square matrix")
        acc = RatMatrix.zeros(a.rows, a.rows)
        eye = RatMatrix.identity(a.rows)
        for c in reversed(self.coeffs):
            acc = acc @ a + eye.scale(c)
        return acc

    def to_str(self, var="z"):
        """Canonical text form, highest degree first: "1*z^2 + -8*z + 15"."""
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            cs = format_rational(c)
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append("%s*%s" % (cs, var))
            else:
                parts.append("%s*%s^%d" % (cs, var, k))
        return " + ".join(parts)

    def __repr__(self):
        return "UniPoly(%s)" % self.to_str()


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm; errors if both inputs are zero."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_coprime(a: UniPoly, b: UniPoly) -> bool:
    return uni_gcd(a, b) == UniPoly.one()


def char_poly(a: RatMatrix) -> UniPoly:
    """Characteristic polynomial det(zI - A) by the Faddeev-LeVerrier recurrence.

    Acceptance criterion 06 checks that of A_q against z^nu chi_q with it.
    """
    if not a.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = a.rows
    coeffs = [_ZERO] * (n + 1)
    coeffs[n] = _ONE
    m = RatMatrix.identity(n)
    eye = RatMatrix.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        c = -am.trace() / k
        coeffs[n - k] = c
        m = am + eye.scale(c)
    return UniPoly(coeffs)
