"""Exact rational scalars, and where the program meets its input files.

All numeric data in this package is held as `fractions.Fraction`.  Decimal
literals from input files ("0.001") are converted exactly, never through
binary floating point.  `exact` is the one refusal, by `TypeError`, of
any other scalar, floats and bools among them; `parse_rational` hands it
every value that is not a string.

Input the program refuses, from an unreadable file to a model of the wrong
shape, raises `InputError`; the CLI turns it into exit code 2.
"""

import json
from contextlib import contextmanager
from fractions import Fraction


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


@contextmanager
def malformed(what):
    """Run a JSON reader: a KeyError, TypeError or ValueError in it is an InputError."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed %s JSON: %s" % (what, exc)) from exc


def parse_rational(value) -> Fraction:
    """Parse "8", "-3/2" or "0.001" into an exact Fraction; any other value goes to `exact`.

    Exponent notation is refused, since "1e999999999" would expand to a
    billion digits.  So are digit separators ("1_000") and whitespace
    inside a number ("1 /2"), which `Fraction` reads on some Python
    versions and not on others: a file reads the same on all of them.  An
    integer string is read by `int`, without `Fraction`'s regex; every
    other string takes the regex.
    """
    if not isinstance(value, str):
        return exact(value)
    if "_" in value:
        raise ValueError("digit separators not accepted: %r" % value)
    try:
        return Fraction(int(value))
    except ValueError:
        pass
    text = value.strip()
    if "e" in text.lower():
        raise ValueError("exponent notation not accepted: %r" % value)
    if len(text.split()) > 1:
        raise ValueError("whitespace inside a number not accepted: %r" % value)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("cannot parse rational from %r" % value) from exc


def exact(value) -> Fraction:
    """An int or a Fraction as a Fraction; anything else raises `TypeError`.

    A float has already lost exactness, and a bool is not a number.
    """
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
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


def format_rational(x: Fraction) -> str:
    """Canonical text form: integer as "n", otherwise "n/d" with d > 0."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
