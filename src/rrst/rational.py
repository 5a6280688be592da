"""Exact rational arithmetic.

Every value in this package is exact.  Costs are Python ints over one
positive denominator per cost table, the ``scale`` its `CostColumns`
holds: the LCM of the denominators of all its costs, 1 whenever every
cost is a whole number.
Sorting, summing and comparing costs thus never builds a Fraction.  The
values printed in documents are ``fractions.Fraction``, reduced to lowest
terms with a positive denominator; a total is printed as
``Fraction(int_total, scale)``.  ``Rat`` names the type and ``rat`` builds
one.  Linear programs are integer columns (each block's int costs and
rhs, each cut's int coefficients by column), and the simplex tableau
holds integers over one common denominator (see simplex.py).  LP points
stay in that form, int numerators over the tableau's denominator, through
separation and the solver's reading of the vertex, and separation returns
each cut as its ids and an int rhs, so the LP layers build no Fraction.

`parse_exact` reads a value from a document.  One it cannot read exactly
(a binary float, a bool, text that is no rational, or more than
MAX_DIGITS digits) raises ParseError, as any other fault of a document
does: the caller must fix the document.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError

Rat = Fraction


def rat(a, b=1):
    return Fraction(a, b)


# the most decimal digits a parsed numerator or denominator may have: far
# past any cost a user means, well inside Python's 4300-digit limit on
# printing an int, and small enough that 10**exponent is cheap to build
MAX_DIGITS = 1000
DIGIT_LIMIT = 10 ** MAX_DIGITS

# the text `parse_exact` reads, in ASCII digits only: a sign, then p/q or a
# decimal with an optional fraction and exponent.  Fraction's own grammar
# also takes Unicode digits, and from Python 3.11 on underscores, so it is
# only handed text that matches this one
_RATIONAL = re.compile(
    r"[-+]?(?:[0-9]+/[0-9]+|(?P<mantissa>(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?)(?:[eE](?P<exp>[-+]?[0-9]+))?)")


def parse_exact(value):
    """Parse a cost or coefficient into an exact rational: an int when the
    value is whole, a Fraction otherwise.

    Accepts ints and strings such as "7", "2.5", "2.5e0" or "5/2", in
    ASCII digits with no underscore, alike on every supported Python.
    Decimal strings are read as exact decimals.  Binary floats are
    rejected: 2.5 written as a JSON number has already been rounded to
    machine precision once, and exactness guarantees downstream depend on
    never letting that happen.
    A numerator or denominator of more than MAX_DIGITS digits is rejected;
    a decimal is weighed by its exponent net of its digits before it is
    expanded, and a zero reads as 0 whatever its exponent.
    """
    if type(value) is int:  # a bool is not, and falls through
        if -DIGIT_LIMIT < value < DIGIT_LIMIT:
            return value
        raise ParseError(f"{_shown(value)} has more than {MAX_DIGITS} digits")
    if isinstance(value, bool):
        raise ParseError(f"boolean is not a valid numeric value: {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"non-finite float {value!r} rejected; values must be finite")
        raise ParseError(
            f"binary float {value!r} rejected; write it as a string, e.g. \"{value}\""
        )
    if isinstance(value, str):
        text = value.strip()
        match = _RATIONAL.fullmatch(text)
        if match is None:
            raise ParseError(f"cannot parse {_shown(value)} as an exact rational")
        mantissa, exponent = match["mantissa"], match["exp"] or "0"
        if mantissa is not None:
            if not mantissa.strip("0."):  # a zero, whatever its exponent
                return 0
            # 10**(m - 1) <= |value| < 10**m, m its significant digits plus
            # the exponent net of its fraction digits, is past the bound at m
            # > MAX_DIGITS or m <= -MAX_DIGITS; a long exponent, which int()
            # refuses over 4300 digits, is measured as text
            whole, _, fraction = mantissa.partition(".")
            if len(exponent.lstrip("+-").lstrip("0")) > len(str(MAX_DIGITS + len(text))) or not (
                    -MAX_DIGITS < len((whole + fraction).lstrip("0")) + int(exponent) - len(fraction) <= MAX_DIGITS):
                raise ParseError(f"{_shown(value)} has more than {MAX_DIGITS} digits")
        try:
            f = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse {_shown(value)} as an exact rational") from exc
        return _bounded(f, value)
    if isinstance(value, Fraction):
        return _bounded(rat(value.numerator, value.denominator), value)
    raise ParseError(f"cannot parse {type(value).__name__} as an exact rational")


def _bounded(f: Fraction, value):
    if abs(f.numerator) >= DIGIT_LIMIT or f.denominator >= DIGIT_LIMIT:
        raise ParseError(f"{_shown(value)} has more than {MAX_DIGITS} digits")
    return f.numerator if f.denominator == 1 else f


def widen_scale(scale: int, value) -> int:
    """The LCM of `scale` and the denominator of `value`.

    Raises ParseError once it has more than MAX_DIGITS digits, which
    bounds every total printed over that scale well inside Python's
    4300-digit limit on printing an int.
    """
    scale = math.lcm(scale, value.denominator)
    if scale >= DIGIT_LIMIT:
        raise ParseError(f"the common denominator of the costs would have more than {MAX_DIGITS} digits")
    return scale


def _shown(value) -> str:
    if not isinstance(value, str):
        return f"{type(value).__name__} value"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def rat_str(value) -> str:
    """Render a rational as "p" or "p/q" (lowest terms, q > 0)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
