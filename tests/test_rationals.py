import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarxid.rationals import parse_rational

# strings that look like numbers, with the characters where `int` and
# `Fraction` could part ways: "_", signs, "/", ".", whitespace (the file
# separator "\x1c" among it), a non-ASCII digit, "e" and "x"
NUMERIC = st.text(alphabet="0123456789+-_/. \t\n\x1c\u0663ex", max_size=12)

PINNED = ["1_000", "1__0", "+3", "-0", " 7\n", "\u0663", "7\x1c", "1e3", "0x10",
          # above int's default limit of 4,300 digits, on the Pythons that have one
          "1" * 4301]


def fraction_of(s):
    """What Fraction's own parser makes of s, stripped: a Fraction, or None when it refuses."""
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError):
        return None


def check_against_fraction(s):
    want = fraction_of(s)
    if want is None or "e" in s.lower() or "_" in s or re.search(r"\s", s.strip()):
        # exponent notation, digit separators and whitespace inside a number
        # are refused even where Fraction reads them, so that a file reads the
        # same on every Python version
        with pytest.raises(ValueError):
            parse_rational(s)
    else:
        got = parse_rational(s)
        assert type(got) is Fraction and got == want


@settings(max_examples=400, derandomize=True)
@given(st.one_of(NUMERIC, st.text(max_size=12)))
def test_strings_parse_as_fraction_reads_them(s):
    check_against_fraction(s)


@pytest.mark.parametrize("s", PINNED, ids=lambda s: "%d digits" % len(s) if len(s) > 9 else repr(s))
def test_pinned_strings_parse_as_fraction_reads_them(s):
    check_against_fraction(s)


def test_pinned_values():
    assert parse_rational("+3") == 3
    assert parse_rational("-0") == 0
    assert parse_rational(" 7\n") == 7
    assert parse_rational("\u0663") == 3
    assert parse_rational("7\x1c") == 7
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("0.001") == Fraction(1, 1000)
    for s in ("1__0", "1e3", "0x10", "", " ", "1/0", "1/2/3", "1_000", "1 /2", "1/ 2", "+9/ 8"):
        with pytest.raises(ValueError):
            parse_rational(s)
