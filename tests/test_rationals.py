import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarxid import HybridWord, MultiPoly, RatMatrix, Subspace
from sarxid.cli import main
from sarxid.rationals import exact, format_rational, parse_rational, read_rational

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
        for read in (parse_rational, read_rational):
            with pytest.raises(ValueError):
                read(s)
    else:
        got = parse_rational(s)
        assert type(got) is Fraction and got == want
        assert read_rational(s) == (want.numerator, want.denominator)


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
    assert parse_rational("-3/2") == parse_rational(Fraction(-6, 4)) == Fraction(-3, 2)
    assert parse_rational("0.001") == Fraction(1, 1000)
    for s in ("1__0", "1e3", "0x10", "", " ", "1/0", "1/2/3", "1_000", "1 /2", "1/ 2", "+9/ 8"):
        with pytest.raises(ValueError):
            parse_rational(s)


# -- the one reader: read_rational, under parse_rational and every matrix ----

DIGITS = "0123456789\u0663\u096c\uff13"  # ASCII, Arabic-Indic 3, Devanagari 6, fullwidth 3
digits = st.text(alphabet=DIGITS, min_size=1, max_size=6)
sign = st.sampled_from(["", "+", "-"])
space = st.sampled_from(["", " ", "\t", "\n", "\x1c", " \n"])
# "n", "n/d", "n.f", ".f" and "n.", each with a sign and surrounding whitespace
ACCEPTED = st.builds(
    lambda pre, sgn, body, post: pre + sgn + body + post,
    space, sign,
    st.one_of(
        digits,
        st.builds(lambda n, d: n + "/" + d, digits, digits.filter(lambda d: int(d) != 0)),
        st.builds(lambda n, f: n + "." + f, digits, digits),
        st.builds(lambda f: "." + f, digits),
        st.builds(lambda n: n + ".", digits),
    ),
    space,
)


@settings(max_examples=400, derandomize=True)
@given(ACCEPTED)
def test_read_rational_reads_what_fraction_reads(s):
    want = Fraction(s.strip())
    assert read_rational(s) == (want.numerator, want.denominator)
    got = parse_rational(s)
    assert type(got) is Fraction and got == want
    assert RatMatrix([[s]]).integer_form() == (want.denominator, [[want.numerator]])


REFUSED = ["1_000", "1 /2", "3/+2", "1e3", "3/0", "", "-", 0.5, True]


@pytest.mark.parametrize("value", REFUSED, ids=repr)
def test_refusals_are_unchanged_and_exit_two(capsys, tmp_path, value):
    error = TypeError if isinstance(value, (bool, float)) else ValueError
    for read in (read_rational, parse_rational, lambda v: RatMatrix([[v]])):
        with pytest.raises(error):
            read(value)
    model = {"ny": 1, "nu": 1, "p": 1, "m": 1, "modes": {"1": [["1", value]]}}
    word = {"steps": [{"q": "1", "u": [value]}]}
    lss = {"n": 1, "m": 1, "p": 1, "modes": {"1": {"A": [[value]], "B": [["1"]], "C": [["1"]]}},
           "x0": ["0"]}
    good_model = dict(model, modes={"1": [["1", "1"]]})
    for name, obj in (("model", model), ("word", word), ("lss", lss), ("good", good_model)):
        (tmp_path / (name + ".json")).write_text(json.dumps(obj))
    for argv in (["check-min", "model.json"], ["simulate", "good.json", "word.json"],
                 ["iso", "lss.json", "lss.json"]):
        code = main([argv[0]] + [str(tmp_path / a) for a in argv[1:]])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and err.startswith("error: ")


# a word's inputs, a subspace's vectors and a polynomial's coefficients are
# read by the same reader as a matrix's entries
OTHER_READERS = [
    lambda v: HybridWord([("1", [v])]),
    lambda v: Subspace(1, [[v]]),
    lambda v: MultiPoly(("x",), {(1,): v}),
]


@settings(max_examples=100, derandomize=True)
@given(ACCEPTED)
def test_words_subspaces_and_polynomials_read_strings_as_a_matrix_does(s):
    want = Fraction(s.strip())
    assert list(HybridWord([("1", [s])])) == [("1", (want,))]
    assert Subspace(2, [[s, "1"]]) == Subspace(2, [[want, 1]])
    assert MultiPoly(("x",), {(1,): s}) == MultiPoly(("x",), {(1,): want})


@pytest.mark.parametrize("value", REFUSED, ids=repr)
def test_words_subspaces_and_polynomials_refuse_what_a_matrix_refuses(value):
    error = TypeError if isinstance(value, (bool, float)) else ValueError
    for read in OTHER_READERS:
        with pytest.raises(error):
            read(value)


def test_the_writer_takes_a_fraction_or_an_int_over_a_denominator():
    assert [format_rational(x) for x in (Fraction(-3, 2), Fraction(4), 5)] == ["-3/2", "4", "5"]
    # an integer form's coefficient c over its d, brought to lowest terms
    assert [format_rational(c, 12) for c in (6, -24, 0, 5)] == ["1/2", "-2", "0", "5/12"]


def test_exact_returns_a_fraction_as_it_is_and_refuses_the_rest():
    f = Fraction(-3, 7)
    assert exact(f) is f
    assert exact(5) == 5 and type(exact(5)) is Fraction
    for value in (True, False, 0.5, 1.0, "1", None, 1j):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            exact(value)
