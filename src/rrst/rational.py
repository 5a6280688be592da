"""Exact rational arithmetic backend.

Every cost, LP coefficient and solution value in this package is an exact
rational.  The stdlib fractions.Fraction is the backend the test suite and
the benchmark baseline run on.  gmpy2.mpq replaces it when gmpy2 is
importable (roughly an order of magnitude faster in the simplex inner
loop); that branch is not exercised by the tests.  Both expose
.numerator/.denominator, keep values reduced to lowest terms with a
positive denominator, and hash and compare interchangeably.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq
except ImportError:
    Rat = Fraction

    def rat(a, b=1):
        return Fraction(a, b)

else:  # pragma: no cover
    Rat = type(_mpq(0))

    def rat(a, b=1):
        return _mpq(a, b)


ZERO = rat(0)
ONE = rat(1)


class ExactnessError(ValueError):
    """A value cannot be represented exactly (e.g. a binary float)."""


def parse_exact(value):
    """Parse a cost or coefficient into an exact rational.

    Accepts ints and strings such as "7", "2.5" or "5/2".  Decimal strings
    are read as exact decimals.  Binary floats are rejected: 2.5 written as
    a JSON number has already been rounded to machine precision once, and
    exactness guarantees downstream depend on never letting that happen.
    """
    if isinstance(value, bool):
        raise ExactnessError(f"boolean is not a valid numeric value: {value!r}")
    if isinstance(value, int):
        return rat(value)
    if isinstance(value, float):
        raise ExactnessError(
            f"binary float {value!r} rejected; write it as a string, e.g. \"{value}\""
        )
    if isinstance(value, str):
        try:
            f = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactnessError(f"cannot parse {value!r} as an exact rational") from exc
        return rat(f.numerator, f.denominator)
    if isinstance(value, (Rat, Fraction)):
        return rat(value.numerator, value.denominator)
    raise ExactnessError(f"cannot parse {type(value).__name__} as an exact rational")


def rat_str(value) -> str:
    """Render a rational as "p" or "p/q" (lowest terms, q > 0)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
