"""Exact numerals: every rational the package reads or writes, as str(Fraction) writes it.

Past sys.get_int_max_str_digits() (4,300 by default) a numeral is a ParseError on
input and is written through Decimal integers on output; the limit is never changed.
"""

from __future__ import annotations

import decimal
import re
import sys
from fractions import Fraction

from .errors import ParseError

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise ParseError(f"not a rational (want p/q or an integer): {text!r}")
    numerator, _, denominator = text.partition("/")
    try:  # int() refuses numerals past sys.get_int_max_str_digits()
        q = int(denominator) if denominator else 1
        if q == 0:
            raise ParseError(f"zero denominator in rational {text!r}")
        return Fraction(int(numerator), q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"numeral over {limit} digits in rational {text[:20]!r}...") from None


# Exact integer arithmetic on decimal integers: str() of a Decimal is linear
# in its digits, where int.__str__ is quadratic and capped by
# sys.get_int_max_str_digits().  Inexact or Rounded would mean a lost digit.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded],
)


def ratio_text(num, den) -> str:
    """A reduced ratio of integers or decimal integers, as str(Fraction) writes it."""
    return str(num) if den == 1 else f"{num}/{den}"


def format_rational(x: Fraction) -> str:
    """str(x) with no digit limit: a Decimal built from an int prints it in full."""
    try:
        return str(x)
    except ValueError:  # past sys.get_int_max_str_digits()
        return ratio_text(EXACT.create_decimal(x.numerator), EXACT.create_decimal(x.denominator))
