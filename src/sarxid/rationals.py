"""Exact rational scalars, and where the program meets its input files.

Matrices, polynomials and hybrid words hold int numerators over one positive
int denominator, in lowest terms; scalars and the entries a caller reads are
`fractions.Fraction`.  Decimal literals from input files ("0.001") are
converted exactly, never through binary floating point.  `read_rational` is
the one reader of a rational, into its numerator and denominator, and
`exact` the one refusal, by `TypeError`, of any other scalar, floats and
bools among them; `read_rational` hands it every value that is not a string.

Input the program refuses, from an unreadable file to a model of the wrong
shape, raises `InputError`; the CLI turns it into exit code 2.

`Record` is the one immutable value type: the models, systems, verdicts and
reports of the package are its subclasses.  It stands in for frozen
dataclasses, whose import and per-class code generation were most of the
package's start-up time.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InputError(ValueError):
    """Input that cannot be read, is malformed, or is outside an analysis' scope."""


def load_json(path):
    """The JSON value in the UTF-8 file at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


class JsonLoadable:
    """Mixin for the input types: `load(path)` reads the file with `from_json_dict`."""

    __slots__ = ()

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(load_json(path))


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a `Record`."""


class Record:
    """An immutable value whose fields are its class annotations, base fields first.

    Each subclass gets, at its creation, a generated `__init__` that takes
    the fields by position or by keyword, with class-level values as
    defaults, sets them and then runs `__post_init__`, if the class has one.
    `==` compares two records of the same class field by field, `hash`
    hashes the field tuple, and assigning or deleting an attribute raises
    `FrozenInstanceError`.
    """

    _fields = ()

    def __init_subclass__(cls):
        # the class's own annotations: `cls.__annotations__` may be a base's
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(f for f in own if f not in cls._fields)
        # one __init__ per class, written out the way `collections.namedtuple`
        # writes its __new__: a generic *args/**kwargs one is 2.7 times slower
        defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        params = ", ".join(f + "=_defaults[%r]" % f if f in defaults else f for f in fields)
        body = ["_set(self, %r, %s)" % (f, f) for f in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_set": object.__setattr__, "_defaults": defaults}
        exec("def __init__(self, %s):\n    %s" % (params, "\n    ".join(body)), namespace)
        init = namespace["__init__"]
        init.__qualname__ = cls.__qualname__ + ".__init__"
        cls.__init__ = init

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)


@contextmanager
def malformed(what):
    """Run a JSON reader: a KeyError, TypeError or ValueError in it is an InputError."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed %s JSON: %s" % (what, exc)) from exc


def read_rational(value):
    """(n, d), d > 0, gcd 1: the exact value of "8", "-3/2", "0.001", an int or a Fraction.

    The one reader of rationals: a matrix reads each entry through it, and
    `parse_rational` is its value as a Fraction.  A value that is not a
    string goes to `exact`.  Exponent notation is refused, since
    "1e999999999" would expand to a billion digits.  So are digit
    separators ("1_000") and whitespace inside a number ("1 /2"), which
    `Fraction` reads on some Python versions and not on others: a file
    reads the same on all of them.  An integer string is read by `int`
    and "n/d" by `int` on each side, without `Fraction`'s regex; every
    other string takes the regex.
    `test_read_rational_reads_what_fraction_reads` checks it.
    """
    if not isinstance(value, str):
        if type(value) is not int:
            value = exact(value)
        return value.numerator, value.denominator
    if "_" in value:
        raise ValueError("digit separators not accepted: %r" % value)
    if "/" not in value:
        try:
            return int(value), 1
        except ValueError:
            pass
    text = value.strip()
    if "e" in text.lower():
        raise ValueError("exponent notation not accepted: %r" % value)
    if len(text.split()) > 1:
        raise ValueError("whitespace inside a number not accepted: %r" % value)
    num, slash, den = text.partition("/")
    try:
        # "n/d" as `Fraction` reads it, a signed run of digits over an unsigned one
        if slash and den.isdecimal() and (num[1:] if num[:1] in ("+", "-") else num).isdecimal():
            n, d = int(num), int(den)
            if d:
                g = gcd(n, d)
                return n // g, d // g
        x = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("cannot parse rational from %r" % value) from exc
    return x.numerator, x.denominator


def parse_rational(value) -> Fraction:
    """`read_rational`'s value as a Fraction; a Fraction is returned as it is."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*read_rational(value))


def exact(value) -> Fraction:
    """An int or a Fraction as a Fraction, a Fraction as it is; anything else raises `TypeError`.

    A float has already lost exactness, and a bool is not a number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%r is not an int or a Fraction; write a decimal exactly, as a string"
                        " like '0.001' or as Fraction('0.001')" % (value,))
    return Fraction(value)


def parse_int(value) -> int:
    """Accept an int as it is; refuse a bool, float or str instead of truncating it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("expected an integer, got %r" % (value,))
    return value


def read_modes(obj, read):
    """The "modes" object of a JSON object, each entry read by `read`, keyed by str(q)."""
    modes = obj["modes"]
    if not isinstance(modes, dict):
        raise TypeError('"modes" must be an object')
    return {str(q): read(entry) for q, entry in modes.items()}


def format_rational(x, d=1) -> str:
    """Canonical text form of x / d: integer as "n", otherwise "n/d" with d > 0.

    x is a Fraction, or an int over the positive int d, as in an integer
    form.  The one writer of rationals: every exact number the program
    prints passes through it.

    A numerator or denominator past Python's int-to-str digit limit
    (`sys.get_int_max_str_digits()`) cannot be written, so it is refused
    as an `InputError` that names the limit.
    """
    if d == 1:
        n, d = x.numerator, x.denominator
    else:
        g = gcd(x, d)
        n, d = x // g, d // g
    try:
        if d == 1:
            return str(n)
        return "%d/%d" % (n, d)
    except ValueError as exc:
        raise InputError("cannot write an exact result: %s" % exc) from exc
