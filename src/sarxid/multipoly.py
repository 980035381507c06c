"""Sparse multivariate polynomials over the rationals.

A polynomial is held as its integer form (d, ints): a positive int d and a
dict mapping exponent tuples to nonzero ints, d times the polynomial, in
lowest terms (gcd(d, every coefficient) = 1), so that equal polynomials
have equal forms.  Arithmetic, ring
changes, substitution, the Groebner and gcd kernels and the writers read
and write this form; `MultiPoly.terms`, exponent tuple -> Fraction, is
built only when it is read.  The one monomial order is graded reverse lex, optionally with a
block of variables to eliminate; it is a separate object, so the same
polynomial can be viewed under the plain and the elimination order.

The order is also the packing of monomials into single ints (Monagan and
Pearce, *Polynomial division using dynamic arrays, heaps, and packed
exponent vectors*, CASC 2007).  `MonomialOrder.key(exp)` is linear in the
exponents and made of fields of `FIELD_BITS` bits.  From the top they are:

- the order fields: for each block (the dropped variables first, then the
  kept ones), its degree, then its partial sums e_1+...+e_k for k = len-1
  down to 1, which compare as grevlex's (deg, -e_n, ..., -e_2) do;
- each exponent.

The top bit of every field is a guard bit, clear in a valid monomial.  So
key(a) + key(b) = key(a*b), comparing keys as ints is the order, and a
divides b iff (key(b) - key(a)) & guard == 0.  Overflow is an error, never
a wrap.  A field is 32 bits wide: input exponents are at most
`MAX_EXPONENT` = 64, so a packed generator's fields hold at most 64 times
the number of variables, far below 2^31, but a Groebner basis can raise
degrees, and in the elimination order the kept block's degree is not
bounded by the leading monomial.  So `key` refuses a monomial of degree
2^31 or more, and each step that shifts terms checks the guard bits of the
shift plus the field-wise maximum of those terms.

`_remainder` is the one polynomial division, under `groebner.normal_form`
and `unipoly.uni_gcd`.  It runs over packed monomials and `int`
coefficients, on divisors in the integer form of `_primitive` (content 1),
with one gcd per step: with w and lc the leading coefficients of the work
and of the divisor g and k = gcd(w, lc), the work becomes
(lc/k)*work - (w/k)*x^shift*g and the remainder moved out is scaled by
lc/k, a scale the caller divides back.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from types import MappingProxyType

from .rationals import _ZERO, exact, format_rational, parse_int, parse_rational, read_rational

# The largest exponent an input file may hold.  Every analysis raises the
# parameters to their exponents exactly (param-generic evaluates theta^e at
# sampled theta), so the work grows with the exponent without bound: at 10^9
# one evaluation does not finish.  The paper's families have degree <= 2.
MAX_EXPONENT = 64


# The width of a packed field; its top bit is the guard bit.
FIELD_BITS = 32
_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD = (1 << FIELD_BITS) - 1


class MonomialOrder:
    """Graded reverse lex on exponent tuples, or its elimination variant.

    With `drop`, any monomial involving a dropped variable beats any monomial
    that does not, and each block is compared by grevlex.  `key` packs an
    exponent tuple into one int as the module docstring describes; larger
    key = larger monomial.
    """

    __slots__ = ("drop", "keep", "weights", "shifts", "guard")

    def __init__(self, nvars, drop=()):
        drop = set(drop)
        if not drop <= set(range(nvars)):
            raise ValueError("drop %r names no variable of 0..%d" % (sorted(drop), nvars - 1))
        self.drop = tuple(sorted(drop))
        self.keep = tuple(i for i in range(nvars) if i not in drop)
        fields = [b[:k] for b in (self.drop, self.keep) for k in range(len(b), 0, -1)]
        fields += [(i,) for i in range(nvars)]
        # the field at position p from the top starts at bit FIELD_BITS * (top - p)
        top = len(fields) - 1
        self.weights = tuple(
            sum(1 << FIELD_BITS * (top - p) for p, f in enumerate(fields) if i in f)
            for i in range(nvars)
        )
        self.shifts = tuple(FIELD_BITS * (nvars - 1 - i) for i in range(nvars))
        self.guard = sum(_LIMIT << FIELD_BITS * p for p in range(top + 1))

    @classmethod
    @lru_cache(maxsize=None)
    def grevlex(cls, nvars):
        # one shared packing per ring size, since to_str asks for one per call
        return cls(nvars)

    @classmethod
    def elimination(cls, nvars, drop):
        """Block order ranking the variables in `drop` strictly above the rest."""
        return cls._elimination(nvars, tuple(drop))

    @classmethod
    @lru_cache(maxsize=None)
    def _elimination(cls, nvars, drop):
        # one shared packing per (nvars, drop), since every elimination_ideal asks for one
        order = cls(nvars, drop)
        if not (order.drop and order.keep):
            raise ValueError("elimination split must be proper")
        return order

    def key(self, exp):
        # exponents are nonnegative, so every field is at most the degree
        if sum(exp) >= _LIMIT:
            raise OverflowError("monomial %r overflows a %d-bit field" % (exp, FIELD_BITS))
        return sum(map(mul, exp, self.weights))

    def unpack(self, key):
        return tuple(key >> s & _FIELD for s in self.shifts)

    def pack(self, f):
        """The integer form (d, ints) of the MultiPoly f, with ints keyed by packed monomials."""
        d, ints = f.integer_form()
        key = self.key
        return d, {key(e): c for e, c in ints.items()}

    def lcm(self, a, b):
        return self.key(tuple(map(max, self.unpack(a), self.unpack(b))))


def _overflow():
    return OverflowError("a monomial overflows a %d-bit field" % FIELD_BITS)


def _fieldmax(a, b, guard):
    """Field-wise maximum of two packed monomials."""
    t = ((a | guard) - b) & guard  # a field's guard bit: a's field >= b's
    m = t - (t >> (FIELD_BITS - 1))
    return (a & m) | (b & ~m)


def _primitive(ints, guard):
    """The integer form of nonzero packed int terms: (leading monomial, its
    coefficient, other terms, their field-wise maximum), content 1."""
    content = gcd(*ints.values())
    lm = max(ints)
    tail = [(e, c // content) for e, c in ints.items() if e != lm]
    top = 0
    for e, _ in tail:
        top = _fieldmax(top, e, guard)
    return lm, ints[lm] // content, tail, top


def _remainder(work, divisors, guard):
    """Remainder of the packed int terms `work`, which it consumes, by the
    integer forms `divisors`, tried in order.

    Returns (remainder, scale): scale * work and the remainder differ by a
    member of the ideal.

    A monomial order puts a monomial at or above each of its divisors, so
    once the work's leading monomial is below every divisor's, no divisor
    divides any work term: the rest of the work joins the remainder, whose
    terms are earlier and larger leading monomials, in one step.
    """
    # raw term dicts avoid per-step polynomial construction in the hot loop
    scale = 1
    remainder = {}
    low = min((g[0] for g in divisors), default=None)
    while work:
        lm = max(work)
        if low is None or lm < low:
            remainder.update(work)
            break
        w = work.pop(lm)
        for glm, lc, tail, top in divisors:
            shift = lm - glm
            if shift & guard:  # glm does not divide lm
                continue
            if (top + shift) & guard:
                raise _overflow()
            k = gcd(w, lc)
            a, b = lc // k, w // k
            if a != 1:
                scale *= a
                work = {e: a * c for e, c in work.items()}
                remainder = {e: a * c for e, c in remainder.items()}
            for e, c in tail:
                te = e + shift
                nc = work.get(te, 0) - b * c
                if nc:
                    work[te] = nc
                else:
                    del work[te]
            break
        else:
            remainder[lm] = w
    return remainder, scale


class MultiPoly:
    """A polynomial held as its integer form, which the module docstring
    describes.  The constructor reads each coefficient through
    `read_rational`; `_of` brings a form that is already over int to lowest terms.
    """

    __slots__ = ("vars", "_form")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        read = {}
        if terms:
            for exp, c in terms.items():
                n, d = read_rational(c)
                if not n:
                    continue
                exp = tuple(exp)
                if len(exp) != len(self.vars):
                    raise ValueError("exponent length mismatch")
                # distinct keys stay distinct as tuples, so nothing accumulates
                read[exp] = n, d
        # over the lcm of lowest-terms denominators, the form is in lowest terms
        d = lcm(*[b for _, b in read.values()])
        self._form = d, {e: a * (d // b) for e, (a, b) in read.items()}

    @classmethod
    def _of(cls, vars, d, ints):
        """The polynomial ints / d over the tuple `vars`, in lowest terms;
        ints maps exponent tuples to nonzero ints, d is a nonzero int."""
        if d < 0:
            d, ints = -d, {e: -c for e, c in ints.items()}
        if d != 1:
            g = gcd(d, *ints.values())
            if g != 1:
                d, ints = d // g, {e: c // g for e, c in ints.items()}
        f = cls.__new__(cls)
        f.vars, f._form = vars, (d, ints)
        return f

    def integer_form(self):
        """(d, ints), the state, in lowest terms: d > 0 and ints, exponent tuple -> nonzero int."""
        return self._form

    @property
    def terms(self):
        """Exponent tuple -> nonzero Fraction, a read-only mapping built when read."""
        d, ints = self._form
        return MappingProxyType({e: Fraction(c, d) for e, c in ints.items()})

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, vars, c):
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars, index, power=1):
        exp = [0] * len(vars)
        exp[index] = power
        return cls(vars, {tuple(exp): 1})

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self._form[1]

    def total_degree(self):
        return max(map(sum, self._form[1]), default=-1)

    def involves(self, index):
        return any(exp[index] > 0 for exp in self._form[1])

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other):
        if self.vars != other.vars:
            raise ValueError("polynomials live in different rings")

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self._form == other._form
        )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        (da, a), (db, b) = self._form, other._form
        d = lcm(da, db)
        sa, sb = d // da, d // db
        out = {e: sa * c for e, c in a.items()}
        for e, c in b.items():
            c = out.get(e, 0) + sb * c
            if c:
                out[e] = c
            else:
                del out[e]
        return MultiPoly._of(self.vars, d, out)

    __radd__ = __add__

    def __neg__(self):
        d, ints = self._form
        return MultiPoly._of(self.vars, -d, ints)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        d, a = self._form
        if isinstance(other, (int, Fraction)):
            n, m = read_rational(other)
            if not n:
                return MultiPoly(self.vars)
            return MultiPoly._of(self.vars, d * m, {e: n * c for e, c in a.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        db, b = other._form
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return MultiPoly._of(self.vars, d * db, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    # -- ordered terms ------------------------------------------------

    def sorted_terms(self, order: MonomialOrder):
        """(exponent tuple, int coefficient) pairs of the integer form, largest monomial first."""
        ints = self._form[1]
        return [(e, ints[e]) for e in sorted(ints, key=order.key, reverse=True)]

    # -- evaluation / substitution ------------------------------------

    def eval(self, point):
        """The value at `point`, one value per variable: `substitute` at every variable."""
        if len(point) != len(self.vars):
            raise ValueError(
                "point length %d != variable count %d" % (len(point), len(self.vars))
            )
        d, ints = self.substitute(dict(enumerate(point)))._form
        return Fraction(ints.get((0,) * len(point), 0), d)

    def substitute(self, assignment):
        """Partially evaluate: assignment maps variable index -> int or Fraction.

        Each value goes through `exact` first, so a float is refused at any
        variable, whether or not the polynomial involves it.  A value n/m is
        substituted over int: the result is taken over d * m^k, with k the
        highest power of the variable, and a term with x^e gains n^e m^(k-e).
        `test_symbolic_data_specializes_to_numeric` checks the specialization.
        """
        values = [(i, exact(x)) for i, x in assignment.items()]
        d, ints = self._form
        if not ints:
            return self
        tops = list(map(max, zip(*ints)))  # each variable's highest power
        steps = []
        for i, x in values:
            k = tops[i]
            if k:
                n, m = x.numerator, x.denominator
                d *= m**k
                steps.append((i, n, m, k))
        out = {}
        for exp, c in ints.items():
            new_exp = list(exp)
            for i, n, m, k in steps:
                e = exp[i]
                if e:
                    c *= n**e
                    new_exp[i] = 0
                if e != k:
                    c *= m ** (k - e)
            key = tuple(new_exp)
            out[key] = out.get(key, 0) + c
        return MultiPoly._of(self.vars, d, {e: c for e, c in out.items() if c})

    def in_ring(self, vars):
        """The same polynomial over `vars`, each variable matched by name.

        One ring change for both directions: projecting onto a subring
        (a variable of this ring that `vars` leaves out must not occur) and
        embedding into a larger one.
        """
        vars = tuple(vars)
        where = {v: i for i, v in enumerate(vars)}
        positions = [where.get(v) for v in self.vars]
        d, ints = self._form
        out = {}
        for exp, c in ints.items():
            new_exp = [0] * len(vars)
            for pos, e in zip(positions, exp):
                if e:
                    if pos is None:
                        raise ValueError("polynomial involves a dropped variable")
                    new_exp[pos] = e
            out[tuple(new_exp)] = c
        return MultiPoly._of(vars, d, out)

    # -- serialization ------------------------------------------------

    def to_str(self):
        """Terms in grevlex order, largest first."""
        if self.is_zero():
            return "0"
        d = self._form[0]
        parts = []
        for exp, c in self.sorted_terms(MonomialOrder.grevlex(len(self.vars))):
            factors = [format_rational(c, d)]
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json_terms(self):
        order = MonomialOrder.grevlex(len(self.vars))
        d = self._form[0]
        return {
            "terms": [
                {"c": format_rational(c, d), "e": list(exp)}
                for exp, c in self.sorted_terms(order)
            ]
        }

    @classmethod
    def from_json_terms(cls, vars, obj):
        if not (isinstance(obj, dict) and isinstance(obj.get("terms"), list)):
            raise TypeError("a polynomial must be an object with a terms list")
        terms = {}
        for t in obj["terms"]:
            exp = tuple(parse_int(e) for e in t["e"])
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent in %r" % (t["e"],))
            if any(e > MAX_EXPONENT for e in exp):
                raise ValueError("exponent above %d in %r" % (MAX_EXPONENT, t["e"]))
            terms[exp] = terms.get(exp, _ZERO) + parse_rational(t["c"])
        return cls(vars, terms)

    def __repr__(self):
        return "MultiPoly(%s)" % self.to_str()
