"""Exact rational scalars.

All numeric data in this package is held as `fractions.Fraction`.  Decimal
literals from input files ("0.001") are converted exactly, never through
binary floating point.
"""

from fractions import Fraction


def parse_rational(value) -> Fraction:
    """Parse "8", "-3/2", "0.001" or a plain int into an exact Fraction.

    Floats are rejected: a float literal has already lost exactness and
    silently accepting it would corrupt rank/coprimality verdicts.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            "float %r not accepted; pass a string like '0.001' for exact parsing" % value
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("cannot parse rational from %r" % value) from exc
    raise ValueError("cannot parse rational from %r" % (value,))


def parse_int(value) -> int:
    """Accept an int as it is; refuse a bool, float or str instead of truncating it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("expected an integer, got %r" % (value,))
    return value


def format_rational(x: Fraction) -> str:
    """Canonical text form: integer as "n", otherwise "n/d" with d > 0."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
