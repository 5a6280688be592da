"""Exact rational parsing, printing, and arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rrst.errors import ParseError
from rrst.rational import MAX_DIGITS, parse_exact, rat, rat_str


def test_basic_arithmetic_is_exact():
    assert rat(1, 3) + rat(1, 6) == rat(1, 2)
    assert rat(1, 10) * 10 == rat(1)
    assert rat(7, -14) == rat(-1, 2)


@pytest.mark.parametrize(
    "text,expected",
    [
        (7, rat(7)),
        ("7", rat(7)),
        ("-3", rat(-3)),
        ("2.5", rat(5, 2)),
        ("0.125", rat(1, 8)),
        ("5/2", rat(5, 2)),
        ("-3/7", rat(-3, 7)),
        (" 4/6 ", rat(2, 3)),
        ("0", rat(0)),
        # a zero is 0 whatever its exponent, however many digits that has
        ("0e5000", rat(0)),
        ("-0.00e-99999", rat(0)),
        pytest.param("0e" + "9" * 5000, rat(0), id="0e followed by 5000 nines"),
    ],
)
def test_parse_exact_accepts(text, expected):
    assert parse_exact(text) == expected


@pytest.mark.parametrize("bad", [2.5, 0.1, float("nan"), "abc", "1/0", "", "1.2.3", True, False, None, [1]])
def test_parse_exact_rejects(bad):
    with pytest.raises(ParseError, match="rejected|cannot parse|not a valid numeric value"):
        parse_exact(bad)


@pytest.mark.parametrize("text,expected", [
    ("7", 7), (" 7 ", 7), ("2.5", rat(5, 2)), ("2.5e0", rat(5, 2)), ("5/2", rat(5, 2)),
    ("1_000", None), ("1_0/3", None), ("1/0_1", None), ("\u0661", None), ("1 / 3", None),
])
def test_parse_exact_reads_one_grammar_on_every_python(text, expected):
    # Fraction alone reads underscores from Python 3.11 on, spaces around
    # the slash from 3.12 on, and an Arabic-Indic one as 1 everywhere
    if expected is None:
        with pytest.raises(ParseError, match="cannot parse"):
            parse_exact(text)
    else:
        assert parse_exact(text) == expected


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_parse_exact_does_not_suggest_quoting_non_finite_floats(bad):
    with pytest.raises(ParseError, match="non-finite") as info:
        parse_exact(bad)
    assert "string" not in str(info.value)


@pytest.mark.parametrize("value", [
    "9" * MAX_DIGITS, "1/" + "9" * MAX_DIGITS, f"1e{MAX_DIGITS - 1}", 10 ** MAX_DIGITS - 1,
])
def test_parse_exact_accepts_values_up_to_the_digit_bound(value):
    parse_exact(value)


@pytest.mark.parametrize("value", [
    "1" + "0" * MAX_DIGITS, "1/1" + "0" * MAX_DIGITS, "1e5000", "1e-5000", "1e1000000000",
    10 ** MAX_DIGITS, rat(1, 10 ** MAX_DIGITS), "1e" + "9" * 5000, f"1e{MAX_DIGITS + 1}",
])
def test_parse_exact_rejects_values_past_the_digit_bound(value):
    # the exponent is checked before Fraction would expand 10**exponent
    with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
        parse_exact(value)


def test_parse_exact_passes_rationals_through():
    assert parse_exact(rat(5, 2)) == rat(5, 2)


def test_rat_str_forms():
    assert rat_str(rat(5)) == "5"
    assert rat_str(rat(5, 2)) == "5/2"
    assert rat_str(rat(-1, 3)) == "-1/3"
    assert rat_str(rat(0)) == "0"


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_round_trip_through_string(p, q):
    x = rat(p, q)
    assert parse_exact(rat_str(x)) == x


@given(st.integers(-100, 100), st.integers(1, 50), st.integers(-100, 100), st.integers(1, 50))
def test_field_laws(a, b, c, d):
    x, y = rat(a, b), rat(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if y != 0:
        assert (x / y) * y == x
