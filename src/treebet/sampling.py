"""Deterministic sampling of paths compatible with a forecasting system.

The generator is splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a seed gives the same
bits on every run of a release.  Its k-th word is a fixed mix of seed + k*gamma mod
2**64, so a block of words is mixed at once on one int holding a 128-bit lane per word:
lanes stay below 2**64 between steps, so products by 64-bit constants never carry, and
every shift is masked back to its lane.  A step table maps each position of the
system's positional rule, when first reached, to its slot's integer constants and the
positions after a 0 and a 1, so a bit is one lookup and one exact comparison of a word.
"""

from __future__ import annotations

import struct
from functools import cache
from itertools import chain, count

from .errors import DomainError
from .forecast import ForecastingSystem, IntervalForecast
from .numerals import natural

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 4096  # words per block

SELECTORS = ("low", "high", "mid", "uniform")


@cache
def _lanes():
    """The lane constants, built on first use: a process that never samples holds none."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * _BLOCK, "little")
    layout = struct.Struct("<" + "Q8x" * _BLOCK)  # each lane's low 8 bytes, little-endian
    ramp = layout.pack(*(k * _GAMMA & _MASK for k in range(1, _BLOCK + 1)))
    return ones, low, int.from_bytes(ramp, "little"), layout.unpack


def _blocks(seed: int):
    """splitmix64's outputs from ``seed`` in order, _BLOCK words at a time."""
    ones, low, ramp, unpack = _lanes()
    for state in count(seed, _BLOCK * _GAMMA):
        z = ((state & _MASK) * ones + ramp) & low
        z ^= z >> 30 & low
        z = z * 0xBF58476D1CE4E5B9 & low
        z ^= z >> 27 & low
        z = z * 0x94D049BB133111EB & low
        z ^= z >> 31 & low
        yield unpack(z.to_bytes(16 * _BLOCK, "little"))


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
    natural(n, "path length")
    steps: dict = {}  # position -> (its slot's constants, position after a 0, after a 1)

    def step(p: int) -> tuple:
        constants = _constants(fs.intervals[fs._slot(p)], selector)
        steps[p] = entry = (constants, fs._follow(p, "0"), fs._follow(p, "1"))
        return entry

    words = chain.from_iterable(_blocks(seed))
    out = bytearray(b"0") * n
    get, p = steps.get, 1
    if selector == "uniform":  # two words per bit: the pick, then the draw
        for i, pick, word in zip(range(n), words, words):
            (bd, lo, spread), zero, one = get(p) or step(p)
            if word * bd < lo + spread * pick:
                out[i] = 49  # "1"
                p = one
            else:
                p = zero
    else:
        for i, word in zip(range(n), words):
            c, zero, one = get(p) or step(p)
            if word < c:
                out[i] = 49
                p = one
            else:
                p = zero
    return out.decode()
