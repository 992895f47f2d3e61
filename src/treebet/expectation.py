"""Global upper/lower expectations of finitely-determined gambles.

A gamble that only depends on the first n bits is evaluated by exact
backward recursion: leaf values are folded towards the root, applying the
one-step upper (or lower) expectation at every interior node.  Upper and
lower probabilities of partial cuts and cylinder sets are special cases.
A cut's probability is 1 at and below its members and 0 off their trie, which
``_cut_trie`` folds alone, without recursing: every unconditional level or cut probability
in ``randtest`` and ``martingale`` uses it, and ``_fold_sum`` adds many cuts' tries into the
table and codes a ``Process`` keeps (``cut_value_map`` and the ``assemble_*`` builders), while
``cut_upper_prob``/``cut_lower_prob`` keep ``_sparse_cut_value``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import DomainError
from .forecast import ONE, ZERO, ForecastingSystem, IntervalForecast
from .local import LocalGamble, lower_expectation, upper_expectation
from .tree import ROOT, CutStatus, bits, cut_status, require_antichain, require_situation

_LocalRule = Callable[[IntervalForecast, LocalGamble], Fraction]


def _leaf_index(leaf: str) -> int:
    return int(leaf, 2) if leaf else 0


@dataclass(frozen=True)
class DepthGamble:
    """A reward determined by the first ``depth`` bits.

    ``values[i]`` is the reward on the leaf whose bits spell ``i`` in binary,
    so the tuple has exactly 2**depth entries.
    """

    depth: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.depth < 0:
            raise DomainError("gamble depth must be non-negative")
        if len(self.values) != 1 << self.depth:
            raise DomainError(
                f"depth-{self.depth} gamble needs {1 << self.depth} values, got {len(self.values)}"
            )

    @classmethod
    def constant(cls, depth: int, value) -> "DepthGamble":
        return cls(depth, (Fraction(value),) * (1 << depth))

    @classmethod
    def from_function(cls, depth: int, fn: Callable[[str], Fraction]) -> "DepthGamble":
        return cls(depth, tuple(Fraction(fn(bits(j, depth))) for j in range(1 << depth)))

    @classmethod
    def indicator(cls, cut: Iterable[str], depth: int) -> "DepthGamble":
        """Indicator of the cylinder union of ``cut`` at the given depth."""
        leaves = _cut_leaves(require_antichain(cut), depth)
        return cls(depth, tuple(ONE if v else ZERO for v in leaves))

    def at(self, leaf: str) -> Fraction:
        if len(leaf) != self.depth:
            raise DomainError(f"expected a depth-{self.depth} leaf, got {leaf!r}")
        return self.values[_leaf_index(leaf)]

    def __neg__(self) -> "DepthGamble":
        return DepthGamble(self.depth, tuple(-v for v in self.values))


def _cut_leaves(members: Iterable[str], depth: int) -> list[int]:
    """1 on the depth-``depth`` leaves inside the cylinder union of an antichain, else 0."""
    leaves = [0] * (1 << depth)
    for t in members:
        if len(t) > depth:
            raise DomainError(f"cut member {t!r} deeper than gamble depth {depth}")
        width = depth - len(t)
        base = _leaf_index(t) << width
        leaves[base:base + (1 << width)] = [1] * (1 << width)
    return leaves


# The integer fold kernel.  Situations below a root s are taken level by
# level in heap order (lexicographic within a level), as situations_up_to
# yields them.  Every endpoint is scaled by L, the lcm of the system's
# endpoint denominators, so with leaf denominator D the values h levels
# above the leaves share the denominator D * L**h and each one-step
# expectation is integer arithmetic with an integer endpoint comparison.

def _pairs(fs: ForecastingSystem, lower: bool = False):
    """(L, pairs, slot): pairs[k] is fs.intervals[k] as (L times the endpoint the upper expectation
    takes when f(1) >= f(0), L times the other one), ``lower`` swapping them; slot is fs._slot, or
    None when every position takes pairs[0]."""
    scale = math.lcm(*(x.denominator for i in fs.intervals for x in (i.lo, i.hi)))
    ends = [[x.numerator * (scale // x.denominator) for x in (i.lo, i.hi)] for i in fs.intervals]
    pairs = [(lo, hi) if lower else (hi, lo) for lo, hi in ends]
    return scale, pairs, fs._slot if len(set(pairs)) > 1 else None


def _endpoints(fs: ForecastingSystem, s: str, height: int, lower: bool = False):
    """(L, rows): rows[w][j] is _pairs' scaled endpoint pair at s + bits(j, w), w < height;
    level w below s spans the positions [first << w, (first + 1) << w)."""
    scale, pairs, slot = _pairs(fs, lower)
    if slot is None:
        return scale, [[pairs[0]] * (1 << w) for w in range(height)]
    first = int("1" + s, 2)
    return scale, [[pairs[slot(p)] for p in range(first << w, (first + 1) << w)]
                   for w in range(height)]


def _fold_levels(scale: int, rows: list, leaves: list[int]) -> Iterator[list[int]]:
    """The numerators of every level, leaves first: level h has denominator D * scale**h."""
    level = leaves
    yield level
    for row in reversed(rows):
        level = [scale * a + (p if b >= a else q) * (b - a)
                 for a, b, (p, q) in zip(level[::2], level[1::2], row)]
        yield level


def _fold(fs: ForecastingSystem, g: DepthGamble, s: str, lower: bool) -> Fraction:
    m = g.depth - len(s)
    if m < 0:
        raise DomainError(f"situation {s!r} deeper than gamble depth {g.depth}")
    base = _leaf_index(s) << m
    leaves = g.values[base:base + (1 << m)]
    den = math.lcm(*(v.denominator for v in leaves))
    scale, rows = _endpoints(fs, s, m, lower)
    *_, root = _fold_levels(scale, rows, [v.numerator * (den // v.denominator) for v in leaves])
    return Fraction(root[0], den * scale ** m)


def _cut_trie(ends, members) -> tuple[Fraction, list[dict[int, int]]]:
    """(root, nodes) for _pairs' ends and a checked antichain, deepest member at D = len(nodes) - 1:
    the cut probability at ROOT, and nodes[t] mapping j to the numerator, over L**(D-t), of the one at
    bits(j, t) for each depth-t member and strict member prefix.  A member is worth L**(D-t), a node
    L*x + P*(y-x) (the _fold_levels step) from its children x (0) and y (1), one off the trie 0."""
    scale, pairs, slot = ends
    members = sorted(members, key=len)
    nodes, level, one = [{}] * (len(members[-1]) + 1 if members else 1), {}, 1
    for t in range(len(nodes) - 1, -1, -1):
        while members and len(members[-1]) == t:
            level[_leaf_index(members.pop())] = one
        nodes[t], up, row, get = level, {}, 1 << t >> 1, level.get
        for k in {j >> 1 for j in level} if t else ():
            x, y = get(2 * k, 0), get(2 * k + 1, 0)
            p, q = pairs[slot(row | k) if slot else 0]
            up[k] = scale * x + (p if y >= x else q) * (y - x)
        level, one = up, one * scale
    return Fraction(nodes[0].get(0, 0), one // scale), nodes


def _fold_sum(fs, weighted_cuts, depth: int, divisor: int = 1, lower: bool = False, on_root=None):
    """(table, codes) of sum(weight * cut_value_map(fs, cut, depth, lower)) / divisor over (weight,
    cut) pairs, as a Process keeps them.  Each cut adds its _cut_trie nodes to one sparse running
    table per level and its weight to a count at each member; at the end the counts are pushed down
    onto the covered nodes by slice doubling.  Level t's values share the denominator
    divisor * L**(depth - t), so the nodes off every trie are coded by their count, and the tries'
    nodes one by one.  on_root(i, v), if given, gets the i-th cut's root v once it is in."""
    ends = _pairs(fs, lower)
    scale, (sums, counts) = ends[0], ([defaultdict(int) for _ in range(depth + 1)] for _ in (0, 1))
    for i, (weight, cut) in enumerate(weighted_cuts):
        if any(len(t) > depth for t in cut):
            raise DomainError("cut member deeper than the requested sweep depth")
        root, nodes = _cut_trie(ends, cut) if cut else (ZERO, [{}])
        lift = weight * scale ** (depth + 1 - len(nodes))
        for row, level in zip(sums, nodes):
            for j, v in level.items():
                row[j] += lift * v
        for m in cut:
            counts[len(m)][_leaf_index(m)] += weight
        if on_root:
            on_root(i, root)
    code, codes, above = {}, [], [0]  # each (numerator, denominator) pair's code, in order of first use
    for t, (here, trie) in enumerate(zip(counts, sums)):  # above: the weight of the members over each node
        if t:  # each child starts from its parent's
            below = [0] * (2 * len(above))
            below[::2] = below[1::2] = above
            above = below
        power, den, off = scale ** (depth - t), divisor * scale ** (depth - t), [*above]
        for j in trie:  # off: each node's count, None on a trie
            off[j] = None
        made = {c: code.setdefault((c * power, den), len(code)) for c in set(off) - {None}}
        codes.append([*map(made.get, off)])
        for j, v in trie.items():
            codes[t][j] = code.setdefault((above[j] * power + v, den), len(code))
        for j, c in here.items():
            above[j] += c
    return [*code], codes


def cond_upper(fs: ForecastingSystem, g: DepthGamble, s: str = ROOT) -> Fraction:
    """Conditional upper expectation of ``g`` at ``s``, by backward recursion."""
    require_situation(s)
    return _fold(fs, g, s, lower=False)


def cond_lower(fs: ForecastingSystem, g: DepthGamble, s: str = ROOT) -> Fraction:
    require_situation(s)
    return _fold(fs, g, s, lower=True)


def _sparse_cut_value(fs, t: str, p: int, below: list[str], rule: _LocalRule) -> Fraction:
    # ``below`` holds the cut members extending t, at position p; only their
    # ancestors are visited, so the recursion is linear in the total member length.
    if not below:
        return Fraction(0)
    if t in below:
        return Fraction(1)
    at = len(t)
    ones = [m for m in below if m[at] == "1"]
    zeros = [m for m in below if m[at] == "0"]
    return rule(
        fs.intervals[fs._slot(p)],
        LocalGamble(
            on1=_sparse_cut_value(fs, t + "1", 2 * p + 1, ones, rule),
            on0=_sparse_cut_value(fs, t + "0", 2 * p, zeros, rule),
        ),
    )


def _cut_prob(fs, cut, s, rule: _LocalRule) -> Fraction:
    members = require_antichain(cut)
    status = cut_status(s, members)
    if status in (CutStatus.IN_CUT, CutStatus.FOLLOWS_STRICTLY):
        return Fraction(1)
    if status is CutStatus.INCOMPARABLE:
        return Fraction(0)
    return _sparse_cut_value(fs, s, int("1" + s, 2), [m for m in members if m.startswith(s)], rule)


def cut_upper_prob(fs: ForecastingSystem, cut: Iterable[str], s: str = ROOT) -> Fraction:
    """Upper probability, conditional on ``s``, of ever passing through ``cut``."""
    return _cut_prob(fs, cut, s, upper_expectation)


def cut_lower_prob(fs: ForecastingSystem, cut: Iterable[str], s: str = ROOT) -> Fraction:
    return _cut_prob(fs, cut, s, lower_expectation)


def cut_value_map(
    fs: ForecastingSystem, cut: Iterable[str], depth: int, lower: bool = False
) -> dict[str, Fraction]:
    """Conditional cut probability at every situation of depth <= ``depth``.

    One bottom-up sweep; requires ``depth`` at or below no cut member.
    """
    from .martingale import Process  # martingale imports this module
    return dict(Process._from_codes(*_fold_sum(fs, [(1, require_antichain(cut))], depth, lower=lower)).values)


def cylinder_bounds(fs: ForecastingSystem, s: str) -> tuple[Fraction, Fraction]:
    """Closed-form (upper, lower) probability of the cylinder set of ``s``: integer products
    of _pairs' scaled endpoints along ``s`` (hi and lo at a 1, L - lo and L - hi at a 0), over
    L**len(s)."""
    require_situation(s)
    scale, pairs, _ = _pairs(fs)
    upper = lower = p = 1
    for bit in s:
        hi, lo = pairs[fs._slot(p)]
        if bit == "1":
            upper, lower = upper * hi, lower * lo
        else:
            upper, lower = upper * (scale - lo), lower * (scale - hi)
        p = fs._follow(p, bit)
    den = scale ** len(s)
    return Fraction(upper, den), Fraction(lower, den)
