"""Single-step expectations of gambles on one binary outcome.

For an interval forecast the upper (lower) expectation is the maximum
(minimum) over the interval of the precise expectation; since that map is
affine in the probability, it is attained at an endpoint, picked by the
sign of f(1) - f(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .forecast import IntervalForecast


@dataclass(frozen=True)
class LocalGamble:
    """A reward on {0, 1}, stored as the pair (f(1), f(0))."""

    on1: Fraction
    on0: Fraction

    def __neg__(self) -> "LocalGamble":
        return LocalGamble(-self.on1, -self.on0)


def gamble(on1, on0) -> LocalGamble:
    return LocalGamble(Fraction(on1), Fraction(on0))


def precise_expectation(p: Fraction, f: LocalGamble) -> Fraction:
    """p*f(1) + (1-p)*f(0) for a precise forecast p in [0, 1].

    Computed as f(0) + p*(f(1) - f(0)) over integers, reducing once.
    """
    pn, pd = p.numerator, p.denominator
    if not 0 <= pn <= pd:
        raise DomainError(f"precise forecast {p} outside [0, 1]")
    an, ad = f.on1.numerator, f.on1.denominator
    bn, bd = f.on0.numerator, f.on0.denominator
    return Fraction(bn * pd * ad + pn * (an * bd - bn * ad), pd * ad * bd)


def upper_expectation(forecast: IntervalForecast, f: LocalGamble) -> Fraction:
    p = forecast.hi if f.on1 >= f.on0 else forecast.lo
    return precise_expectation(p, f)


def lower_expectation(forecast: IntervalForecast, f: LocalGamble) -> Fraction:
    p = forecast.lo if f.on1 >= f.on0 else forecast.hi
    return precise_expectation(p, f)
