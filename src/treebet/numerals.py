"""Exact numerals: every rational the package reads or writes, as str(Fraction) writes it.

Past sys.get_int_max_str_digits() (4,300 by default) a numeral is a ParseError on
input and is written through Decimal integers on output; the limit is never changed.
"""

from __future__ import annotations

import decimal
import re
import sys
from fractions import Fraction
from math import gcd, isfinite

from .errors import DomainError, ParseError

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # fullmatched: ASCII digits, no final newline
_INTEGER = re.compile(r"[+-]?[0-9]+")
_PAIR = r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?"  # _RATIONAL with no zero denominator
_PAIR_LINES = re.compile(f"{_PAIR}(?:\n{_PAIR})*")


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
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


def finite_fraction(x, what: str) -> Fraction:
    """Fraction(x), but a bool, or a NaN or infinite float or Decimal, on which Fraction raises
    ValueError or OverflowError, is a DomainError naming it."""
    if isinstance(x, bool):
        raise DomainError(f"{what} is not rational: {x!r}")
    if isinstance(x, float) and not isfinite(x) or isinstance(x, decimal.Decimal) and not x.is_finite():
        raise DomainError(f"{what} is not finite: {x!r}")
    return Fraction(x)


def natural(x, what: str) -> int:
    """x when it is an int, not a bool, and at least 0; anything else is a DomainError naming it."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{what} is not an integer: {x!r}")
    if x < 0:
        raise DomainError(f"{what} must be non-negative")
    return x


def rational_pairs(lines: str) -> list[tuple[int, int]] | None:
    """Each line's value as parse_rational reads it, but as a lowest-terms (numerator, denominator)
    pair; None when parse_rational would refuse any line, so that the caller can say which."""
    if not _PAIR_LINES.fullmatch(lines):
        return None
    try:  # int() refuses numerals past sys.get_int_max_str_digits()
        pairs = [(int(p), int(q or 1)) for p, _, q in (text.partition("/") for text in lines.split("\n"))]
    except ValueError:
        return None
    return [(p // g, q // g) for p, q in pairs for g in (gcd(p, q),)]


def parse_integer(text: str) -> int:
    """An integer field: ASCII digits with an optional sign, as parse_rational reads a numerator."""
    if not _INTEGER.fullmatch(text):
        raise ParseError(f"not an integer: {text!r}")
    try:  # int() refuses numerals past sys.get_int_max_str_digits()
        return int(text)
    except ValueError:
        raise ParseError(f"numeral over {sys.get_int_max_str_digits()} digits in integer {text[:20]!r}...") from None


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
