"""Single-step expectations of gambles on one binary outcome.

For an interval forecast the upper (lower) expectation is the maximum
(minimum) over the interval of the precise expectation; since that map is
affine in the probability, it is attained at an endpoint, picked by the
sign of f(1) - f(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import DomainError
from .forecast import IntervalForecast
from .numerals import finite_fraction, format_rational


@dataclass(frozen=True)
class LocalGamble:
    """A reward on {0, 1}, stored as the pair (f(1), f(0))."""

    on1: Fraction
    on0: Fraction

    def __post_init__(self):
        # a float would reach the one-step arithmetic; the common all-Fraction case costs one type test each
        if type(self.on1) is not Fraction or type(self.on0) is not Fraction:
            if bad := [v for v in (self.on1, self.on0) if isinstance(v, bool) or not isinstance(v, Rational)]:
                raise DomainError(f"gamble value is not rational: {bad[0]!r}")

    def __neg__(self) -> "LocalGamble":
        return LocalGamble(-self.on1, -self.on0)


def gamble(on1, on0) -> LocalGamble:
    return LocalGamble(finite_fraction(on1, "gamble value"), finite_fraction(on0, "gamble value"))


def precise_expectation(p: Fraction, f: LocalGamble) -> Fraction:
    """p*f(1) + (1-p)*f(0) for a precise forecast p in [0, 1].

    Computed as f(0) + p*(f(1) - f(0)) over integers, reducing once.
    """
    if type(p) is not Fraction and (isinstance(p, bool) or not isinstance(p, Rational)):
        raise DomainError(f"precise forecast is not rational: {p!r}")
    pn, pd = p.numerator, p.denominator
    if not 0 <= pn <= pd:
        raise DomainError(f"precise forecast {format_rational(p)} outside [0, 1]")
    an, ad = f.on1.numerator, f.on1.denominator
    bn, bd = f.on0.numerator, f.on0.denominator
    return Fraction(bn * pd * ad + pn * (an * bd - bn * ad), pd * ad * bd)


def upper_expectation(forecast: IntervalForecast, f: LocalGamble) -> Fraction:
    p = forecast.hi if f.on1 >= f.on0 else forecast.lo
    return precise_expectation(p, f)


def lower_expectation(forecast: IntervalForecast, f: LocalGamble) -> Fraction:
    p = forecast.lo if f.on1 >= f.on0 else forecast.hi
    return precise_expectation(p, f)
