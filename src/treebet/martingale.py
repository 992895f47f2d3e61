"""Tree processes, supermartingale verification, and betting strategies.

A process assigns an exact rational to every situation of the tree up to a
fixed depth.  It is a supermartingale for a forecasting system when its
one-step difference has non-positive local upper expectation everywhere; a
test supermartingale additionally starts at 1 and never goes negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, takewhile
from numbers import Rational
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Literal, Mapping

from .errors import ContractError, DomainError
from .expectation import _cut_trie, _pairs
from .forecast import ForecastingSystem, IntervalForecast, local_scale
from .local import LocalGamble
from .numerals import collection, finite_fraction, format_rational, natural
from .tree import ROOT, bits, require_situation, situations_up_to

# Query interface standing in for a computable process: q(s, N) must be
# within 2**-N of the target value at s.
ApproximationSchedule = Callable[[str, int], Fraction]

KellyDirection = Literal["on-one", "on-zero"]


class Process:
    """A total rational-valued map on the tree truncated at ``depth``.

    The value at bits(j, w) is ``table[codes[w][j]]``, an integer pair (numerator, positive
    denominator) not necessarily in lowest terms.  Values repeat heavily, so the table holds each
    pair once (and, after ``with_root``, maybe the old root's unused); every derived process is
    built and read on these small-int codes, with one pair's arithmetic per entry or node read.
    Processes share these lists (``with_root``, negation), so they are never changed in place.
    ``values`` (each situation's Fraction in heap order, the order ``situations_up_to`` yields) is
    the one Fraction view: read-only, built on first access and cached.
    """

    __slots__ = ("depth", "table", "codes", "_values")

    def __init__(self, depth: int, values: Mapping[str, Fraction]):
        natural(depth, "process depth")
        collection(values, "process values are a mapping of situations to rationals", Mapping)
        if depth > max(64, len(values).bit_length()):  # no count can match; 2**depth may not fit
            head, power = format_rational(depth), format_rational(depth + 1)  # past str()'s digit limit too
            raise DomainError(f"depth-{head} process needs 2**{power} - 1 values, got {len(values)}")
        expected = (2 << depth) - 1
        if len(values) != expected:
            raise DomainError(f"depth-{depth} process needs {expected} values, got {len(values)}")
        names = [*situations_up_to(depth)]
        try:
            heap = [*map(values.__getitem__, names)]
        except KeyError as exc:
            raise DomainError(f"process missing value at {exc.args[0] or '@'!r}") from None
        # a float would reach the checks and the writer: each type is checked once, the first bad value named
        if bad := {t for t in set(map(type, heap)) if t is bool or not issubclass(t, Rational)}:
            s, v = next((s, v) for s, v in zip(names, heap) if type(v) in bad)
            raise DomainError(f"process value at {s or '@'!r} is not rational: {v!r}")
        self.depth, self._values = depth, None
        self.table, self.codes = _coded([(v.numerator, v.denominator) for v in heap], depth)

    @classmethod
    def _from_codes(cls, table: list[tuple[int, int]], codes: list[list[int]]) -> "Process":
        """The process with these codes into this table, unchecked: one list per level w, 2**w long."""
        process = cls.__new__(cls)
        process.depth, process.table, process.codes, process._values = len(codes) - 1, table, codes, None
        return process

    @classmethod
    def from_function(cls, depth: int, fn: Callable[[str], Fraction]) -> "Process":
        return cls(depth, {s: finite_fraction(fn(s), f"process value at {s or '@'!r}")
                           for s in situations_up_to(natural(depth, "process depth"))})

    @property
    def values(self) -> Mapping[str, Fraction]:
        """Each situation's value in heap order, one Fraction per table entry."""
        if self._values is None:
            made = [Fraction(*pair) for pair in self.table]
            heap = map(made.__getitem__, chain.from_iterable(self.codes))
            self._values = MappingProxyType(dict(zip(situations_up_to(self.depth), heap)))
        return self._values

    def at(self, s: str) -> Fraction:
        require_situation(s)
        if len(s) > self.depth:
            raise DomainError(f"situation {s!r} deeper than process depth {self.depth}")
        return Fraction(*self.table[self.codes[len(s)][int(s or "0", 2)]])

    @property
    def root(self) -> Fraction:
        return Fraction(*self.table[self.codes[0][0]])

    def with_root(self, value: Fraction) -> "Process":
        """The same process with ``value`` at the root."""
        if isinstance(value, bool) or not isinstance(value, Rational):
            raise DomainError(f"process value at '@' is not rational: {value!r}")
        pair = (value.numerator, value.denominator)
        table = self.table if pair in self.table else [*self.table, pair]
        return Process._from_codes(table, [[table.index(pair)], *self.codes[1:]])

    def delta(self, s: str) -> LocalGamble:
        """The one-step difference gamble at an interior situation."""
        require_situation(s)
        if len(s) >= self.depth:
            raise DomainError(f"no children below {s!r} at depth {self.depth}")
        here = self.at(s)
        return LocalGamble(on1=self.at(s + "1") - here, on0=self.at(s + "0") - here)

    def max_value(self) -> Fraction:
        # over the codes in use: after with_root the old root's pair may be in the table, unused
        return max(Fraction(*self.table[c]) for c in set(chain.from_iterable(self.codes)))

    def __neg__(self) -> "Process":
        return Process._from_codes([(-n, d) for n, d in self.table], self.codes)


def _coded(pairs, depth: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """(table, codes) of a process's (numerator, denominator) pairs in heap order: each distinct
    pair once, coded in order of first use."""
    code: dict[tuple[int, int], int] = {}
    heap = [code.setdefault(pair, len(code)) for pair in pairs]
    return [*code], [heap[(1 << w) - 1:(2 << w) - 1] for w in range(depth + 1)]


def check_supermartingale(fs: ForecastingSystem, process: Process) -> list[str]:
    """Every interior situation where the one-step gain has positive upper expectation, in heap order.

    An empty list certifies the supermartingale property on the truncated tree.
    """
    table, codes = process.table, process.codes
    scale, pairs, _ = _pairs(fs)

    def fails(c, c0, c1, k) -> bool:
        # with L the scale, the gain's upper expectation is positive iff L*f0 + P*(f1 - f0) > L*v,
        # P the endpoint it takes (slot k's pair's first when f1 >= f0): the fold step, cross-multiplied
        (n, d), (n0, d0), (n1, d1) = table[c], table[c0], table[c1]
        r = n1 * d0 - (a := n0 * d1)
        return (scale * a + pairs[k][r < 0] * r) * d > scale * n * d0 * d1

    violations = []
    for w in range(process.depth):
        columns = (codes[w], codes[w + 1][::2], codes[w + 1][1::2], fs._level(w))
        # rows (a value's code, its children's, the slot) repeat heavily: each distinct one is checked
        # once, and the level is walked again only to name the nodes of failing ones, in heap order
        if bad := {t for t in set(zip(*columns)) if fails(*t)}:
            violations += [bits(j, w) for j in compress(count(), map(bad.__contains__, zip(*columns)))]
    return violations


def _test_failures(fs: ForecastingSystem, process: Process) -> list[str]:
    """Where the test-supermartingale check fails: the root unless it is 1, else every
    negative value in heap order (shortest, then leftmost), else every violation."""
    if process.root != 1:
        return [ROOT]
    negative = {c for c, (p, _) in enumerate(process.table) if p < 0}  # each distinct value tested once
    return [bits(j, w) for w, level in enumerate(process.codes) if negative
            for j in compress(count(), map(negative.__contains__, level))] or check_supermartingale(fs, process)


def check_test_supermartingale(fs: ForecastingSystem, process: Process) -> bool:
    """Root value 1, non-negative everywhere, and no supermartingale violations."""
    return not _test_failures(fs, process)


def capital_along(process: Process, w: str) -> list[Fraction]:
    """The capital at every prefix of ``w``, root included."""
    require_situation(w)
    if len(w) > process.depth:
        raise DomainError(f"path {w!r} longer than process depth {process.depth}")
    return [process.at(w[:n]) for n in range(len(w) + 1)]


def _first_passages(process: Process, crossed) -> tuple[frozenset[str], ...]:
    """Level n: each situation whose count exceeds n while no strict prefix's does,
    crossed(w, codes) mapping each code of the process's level w to its value's count."""
    levels: list[list[str]] = []
    reached = [0]  # per node: the count of its path above it
    for w, level in enumerate(process.codes):
        if w:  # each child starts from its parent's
            below = [0] * (2 * len(reached))
            below[::2] = below[1::2] = reached
            reached = below
        counts = crossed(w, level)
        for j in compress(count(), map(counts.__getitem__, level)):  # a node whose count is 0 crosses nothing
            if (here := counts[level[j]]) > reached[j]:
                levels.extend([] for _ in range(len(levels), here))
                for n in range(reached[j], here):
                    levels[n].append(bits(j, w))
                reached[j] = here
    return tuple(frozenset(level) for level in levels)


@dataclass(frozen=True)
class VilleThreshold:
    cut: frozenset[str]
    bound: Fraction
    actual: Fraction


def ville_threshold(fs: ForecastingSystem, process: Process, threshold) -> VilleThreshold:
    """The first-passage cut over ``threshold`` with its probability bound.

    For a non-negative supermartingale the upper probability of ever
    reaching the threshold is at most root / threshold; ``actual`` is the
    exact upper probability of the cut, so actual <= bound.
    """
    threshold = finite_fraction(threshold, "threshold")
    if threshold <= 0:
        raise DomainError("threshold must be positive")
    t, u = threshold.numerator, threshold.denominator
    crossed = [int(p * u >= t * q) for p, q in process.table]  # p/q >= t/u, once per table entry
    levels = _first_passages(process, lambda w, codes: crossed)
    cut = levels[0] if levels else frozenset()
    bound = process.root / threshold
    actual = _cut_trie(_pairs(fs), cut)[0]
    return VilleThreshold(cut=cut, bound=bound, actual=actual)


def bound_check(fs: ForecastingSystem, process: Process) -> bool:
    """Verify value(s) <= root * cumulative_bound(s) at every situation."""
    r, s = process.table[process.codes[0][0]]
    # a node's ceiling is b/a, a and b the products of the scale numerators and denominators along its
    # path, so its value p/q is over root * ceiling iff p*s*a > r*q*b: each table entry's two sides once
    sides = [(p * s, r * q) for p, q in process.table]
    scales = [(k.numerator, k.denominator) for k in map(local_scale, fs.intervals)]
    ceilings = [(1, 1)]
    for w, level in enumerate(process.codes):
        if w:  # each child's ceiling from its parent's, up to the first parent whose scale is 0
            steps = takewhile(itemgetter(0), map(scales.__getitem__, fs._level(w - 1)))
            ceilings = [(a * n, b * d) for (a, b), (n, d) in zip(ceilings, steps) for _ in "01"]
        if any(sides[c][0] * a > sides[c][1] * b for c, (a, b) in zip(level, ceilings)):
            return False
        if len(ceilings) < len(level):  # in heap order, no node over its ceiling comes before this one
            raise DomainError(f"degenerate forecast at {bits(len(ceilings) >> 1, w - 1) or '@'!r}")
    return True


def rationalize(q: ApproximationSchedule, fs: ForecastingSystem, depth: int) -> Process:
    """A positive rational test supermartingale tracking a queried target.

    The value at ``s`` is (q(s, |s|) + 3 * 2**-|s|) / 4; when ``q`` honours
    its 2**-N accuracy contract for a test supermartingale target T, the
    result R is itself a test supermartingale with |4R - T| <= 4 * 2**-|s|.
    """
    if q(ROOT, 0) != 1:
        raise ContractError("schedule must report 1 at the root with error budget 0")
    return Process.from_function(
        depth, lambda s: (q(s, len(s)) + 3 * Fraction(1, 1 << len(s))) / 4
    )


def kelly_gamble(forecast: IntervalForecast, direction: KellyDirection) -> LocalGamble:
    """The unit bet on the chosen outcome, normalised to worst-case loss -1.

    Both variants have non-positive local upper expectation, so scaling by
    a stake in [0, 1] yields multiplicative test supermartingales.
    """
    if direction == "on-one":
        if forecast.hi == 0:
            raise DomainError("betting on 1 against a {0} forecast")
        return LocalGamble(on1=Fraction(1 - forecast.hi, forecast.hi), on0=Fraction(-1))
    if direction == "on-zero":
        if forecast.lo == 1:
            raise DomainError("betting on 0 against a {1} forecast")
        return LocalGamble(on1=Fraction(-1), on0=Fraction(forecast.lo, 1 - forecast.lo))
    raise DomainError(f"unknown direction {direction!r}")


def kelly_process(
    fs: ForecastingSystem, stake, direction: KellyDirection, depth: int
) -> Process:
    """Multiplicative capital process betting a fixed fraction each step, built on the codes."""
    stake = finite_fraction(stake, "stake")
    if not (0 <= stake <= 1):
        raise DomainError("stake must lie in [0, 1]")
    natural(depth, "process depth")
    rows = [fs._level(w) for w in range(depth)]  # then the factors after a 0 and a 1 of each slot read
    factors = {k: (1 + stake * g.on0, 1 + stake * g.on1) for k in dict.fromkeys(chain.from_iterable(rows))
               for g in [kelly_gamble(fs.intervals[k], direction)]}
    code, codes = {Fraction(1): 0}, [[0]]  # each capital's code, in order of first use
    for row in rows:  # each distinct (capital code, slot) pair of a level is multiplied out once
        capital, pairs = [*code], dict.fromkeys(zip(codes[-1], row))
        for c, k in pairs:  # heap order: each node's children follow it, 0 first
            pairs[c, k] = [code.setdefault(capital[c] * f, len(code)) for f in factors[k]]
        codes.append([*chain.from_iterable(map(pairs.__getitem__, zip(codes[-1], row)))])
    return Process._from_codes([(v.numerator, v.denominator) for v in code], codes)
