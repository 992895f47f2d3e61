"""Interval forecasts and finitely-described forecasting systems.

A forecasting system assigns to every situation a closed rational
subinterval of [0, 1] bounding the probability that the next bit is 1.
Three finitely-described kinds are supported: a single stationary interval,
a finite table of per-situation overrides with a default, and a bounded-order
Markov rule keyed on the trailing bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Union

from .errors import ConfigError, DomainError
from .numerals import finite_fraction, format_rational, natural
from .tree import require_situation, situations_up_to

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class IntervalForecast:
    """A closed rational subinterval of [0, 1]; precise when lo == hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if bad := [v for v in (self.lo, self.hi) if isinstance(v, bool) or not isinstance(v, Rational)]:
            raise DomainError(f"forecast bound is not rational: {bad[0]!r}")
        if not (ZERO <= self.lo <= self.hi <= ONE):
            lo, hi = format_rational(self.lo), format_rational(self.hi)
            raise DomainError(f"invalid forecast interval [{lo}, {hi}]")

    @property
    def precise(self) -> bool:
        return self.lo == self.hi

    def within(self, other: "IntervalForecast") -> bool:
        """True when this interval is contained in ``other``."""
        return other.lo <= self.lo and self.hi <= other.hi


def interval(lo, hi=None) -> IntervalForecast:
    """Convenience constructor accepting anything Fraction accepts."""
    if hi is None:
        hi = lo
    return IntervalForecast(finite_fraction(lo, "forecast bound"), finite_fraction(hi, "forecast bound"))


# Every kind answers by one positional rule.  Situation s sits at position
# int("1" + s, 2) (root 1, children 2p and 2p + 1; p - 1 indexes Process.values);
# ``_slot(p)`` indexes ``intervals``, ``_follow(p, bit)`` is the child's position, bounded along any
# path, and ``_level(w)`` lists level w's slots, by list repetition.  Overrides and rows are read once.

def _at(fs: ForecastingSystem, s: str) -> IntervalForecast:
    return fs.intervals[fs._slot(int("1" + s, 2))]


@dataclass(frozen=True)
class Stationary:
    """The same interval forecast in every situation."""

    interval: IntervalForecast

    def __post_init__(self):
        object.__setattr__(self, "intervals", (self.interval,))

    at = _at

    def _slot(self, p: int) -> int:
        return 0

    def _level(self, w: int) -> list[int]:
        return [0] * (1 << w)

    def _follow(self, p: int, bit: str) -> int:
        return 1


@dataclass(frozen=True)
class Table:
    """A default forecast with finitely many per-situation overrides."""

    default: IntervalForecast
    overrides: Mapping[str, IntervalForecast] = field(default_factory=dict)

    def __post_init__(self):
        # slot 0 is the default, which every position past the deepest override reads
        slots = {int("1" + require_situation(s), 2): k for k, s in enumerate(self.overrides, 1)}
        patches: dict[int, list[tuple[int, int]]] = {}  # level w: (index in the level, slot) per override
        for p, k in slots.items():
            patches.setdefault(w := p.bit_length() - 1, []).append((p ^ (1 << w), k))
        object.__setattr__(self, "intervals", (self.default, *self.overrides.values()))
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_patches", patches)
        object.__setattr__(self, "_cap", 1 << (max(map(len, self.overrides), default=-1) + 1))

    at = _at

    def _slot(self, p: int) -> int:
        return self._slots.get(p, 0)

    def _level(self, w: int) -> list[int]:
        row = [0] * (1 << w)
        for j, k in self._patches.get(w, ()):
            row[j] = k
        return row

    def _follow(self, p: int, bit: str) -> int:
        q = (p << 1) | (bit == "1")
        return q if q < self._cap else self._cap


@dataclass(frozen=True)
class Markov:
    """A forecast determined by the last ``order`` observed bits.

    Rows must cover every context of length up to ``order``; contexts
    shorter than the order apply near the root where fewer bits exist.
    """

    order: int
    rows: Mapping[str, IntervalForecast]

    def __post_init__(self):
        try:
            natural(self.order, "markov order")
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        # context c at slot int("1" + c, 2) - 1; rows longer than the order come last
        slots = []
        for ctx in situations_up_to(self.order):
            if ctx not in self.rows:
                raise ConfigError(f"markov rows incomplete: missing context {ctx or '@'!r}")
            slots.append(self.rows[ctx])
        slots += (i for ctx, i in self.rows.items() if len(ctx) > self.order)
        object.__setattr__(self, "intervals", tuple(slots))
        object.__setattr__(self, "_top", 1 << self.order)

    at = _at

    def _slot(self, p: int) -> int:
        top = self._top
        return (p if p < top else top | (p & (top - 1))) - 1

    def _level(self, w: int) -> list[int]:  # each position its own slot, then the contexts' repeated
        span = min(w, self.order)
        return [*range((1 << span) - 1, (2 << span) - 1)] * (1 << (w - span))

    def _follow(self, p: int, bit: str) -> int:
        q, top = (p << 1) | (bit == "1"), self._top
        return q if q < top else top | (q & (top - 1))


ForecastingSystem = Union[Stationary, Table, Markov]


def is_non_degenerate(fs: ForecastingSystem) -> bool:
    """True when no representable interval pins the next bit ({0} or {1})."""
    return all(i.hi > ZERO and i.lo < ONE for i in fs.intervals)


def is_precise(fs: ForecastingSystem) -> bool:
    return all(i.precise for i in fs.intervals)


def local_scale(forecast: IntervalForecast) -> Fraction:
    """min(1 - lo, hi): the worst one-step shrink factor for non-negative capital."""
    return min(ONE - forecast.lo, forecast.hi)


def cumulative_bound(fs: ForecastingSystem, s: str) -> Fraction:
    """Product over the prefixes of ``s`` of the inverse one-step scale.

    Any non-negative supermartingale with root value 1 stays below this
    bound, which is 1 at the root and doubles per step for a fair coin.
    """
    require_situation(s)
    total, p = ONE, 1
    for k, bit in enumerate(s):
        scale = local_scale(fs.intervals[fs._slot(p)])
        if scale == 0:
            raise DomainError(f"degenerate forecast at {s[:k] or '@'!r}")
        total /= scale
        p = fs._follow(p, bit)
    return total


def integer_log_bound(x) -> int:
    """The smallest L >= 1 with 2**L >= x, for rational x >= 1."""
    x = finite_fraction(x, "integer_log_bound's x")
    if x < 1:
        raise DomainError(f"integer_log_bound needs x >= 1, got {format_rational(x)}")
    # 2**L >= x exactly when 2**L >= ceil(x), and (c - 1).bit_length() is the least such L for c >= 1
    return max(1, (-(-x.numerator // x.denominator) - 1).bit_length())


class ForecastCursor:
    """The forecast along a growing path, in O(1) per bit: a bounded position, not the prefix."""

    def __init__(self, fs: ForecastingSystem):
        self._fs, self._position = fs, 1

    def current(self) -> IntervalForecast:
        return self._fs.intervals[self._fs._slot(self._position)]

    def push(self, bit: str) -> None:
        if bit not in ("0", "1"):
            raise DomainError(f"not a bit: {bit!r}")
        self._position = self._fs._follow(self._position, bit)
