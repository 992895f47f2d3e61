"""Deterministic sampling of paths compatible with a forecasting system.

The generator is splitmix64, fixed here so that a given seed reproduces the
same bits on every run of the same release.  Each step picks a precise
probability inside the current interval forecast (an endpoint, the
midpoint, or a uniformly drawn point) and then draws the bit exactly by
comparing a 64-bit word against the scaled probability, with integer
constants built once per slot of the system's positional rule.
"""

from __future__ import annotations

from .errors import DomainError
from .forecast import ForecastingSystem, IntervalForecast

_MASK = (1 << 64) - 1

SELECTORS = ("low", "high", "mid", "uniform")


def splitmix64(state: int) -> tuple[int, int]:
    """Advance the splitmix64 state; returns (new_state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _constants(forecast: IntervalForecast, selector: str):
    """The integers that turn one draw under ``forecast`` into one comparison."""
    lo, hi = forecast.lo, forecast.hi
    if selector == "uniform":
        # p = lo + spread * pick / 2**64, and word / 2**64 < p iff
        # word * b * d < (lo.num * d << 64) + spread.num * b * pick
        spread = hi - lo
        b, d = lo.denominator, spread.denominator
        return b * d, lo.numerator * d << 64, spread.numerator * b
    p = {"low": lo, "high": hi, "mid": (lo + hi) / 2}[selector]
    # ceil(p * 2**64): a 64-bit word w has w / 2**64 < p iff w < this
    return -((-p.numerator << 64) // p.denominator)


def sample_path(fs: ForecastingSystem, selector: str, n: int, seed: int) -> str:
    """n bits drawn under a compatible precise system chosen by ``selector``."""
    if selector not in SELECTORS:
        raise DomainError(f"unknown selector {selector!r}")
    uniform = selector == "uniform"
    intervals, slot, follow = fs.intervals, fs._slot, fs._follow
    constants: list = [None] * len(intervals)
    state = seed & _MASK
    bits = []
    p = 1
    for _ in range(n):
        k = slot(p)
        c = constants[k]
        if c is None:
            c = constants[k] = _constants(intervals[k], selector)
        if uniform:
            state, pick = splitmix64(state)
            state, word = splitmix64(state)
            bit = "1" if word * c[0] < c[1] + c[2] * pick else "0"
        else:
            state, word = splitmix64(state)
            bit = "1" if word < c else "0"
        bits.append(bit)
        p = follow(p, bit)
    return "".join(bits)
