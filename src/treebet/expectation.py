"""Global upper/lower expectations of finitely-determined gambles.

A gamble that only depends on the first n bits is evaluated by exact
backward recursion: leaf values are folded towards the root, applying the
one-step upper (or lower) expectation at every interior node.  Upper and
lower probabilities of partial cuts and cylinder sets are special cases.
One integer fold kernel, ``_cut_trie``, folds a cut's trie (a cut's probability is 1 at and
below its members, 0 off their trie) or a gamble's leaves below a situation, without recursing:
``cond_upper``/``cond_lower``, ``cylinder_bounds`` and every unconditional level or cut
probability in ``randtest`` and ``martingale`` use it, and ``_fold_sum`` adds many cuts' tries
into the table and codes a ``Process`` keeps (``cut_value_map`` and the ``assemble_*``
builders).  ``check_supermartingale`` reads the scaled endpoint pairs of ``_pairs`` through each
level's slot row, ``fs._level(w)``; ``cut_upper_prob`` and ``cut_lower_prob`` keep
``_sparse_cut_value`` until the sparse kernel can replace it (ROADMAP items 1 and 2).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Sequence

from .errors import DomainError
from .forecast import ONE, ZERO, ForecastingSystem, IntervalForecast
from .local import LocalGamble, lower_expectation, upper_expectation
from .numerals import collection, finite_fraction, natural
from .tree import ROOT, CutStatus, _status, bits, require_antichain, require_situation

_LocalRule = Callable[[IntervalForecast, LocalGamble], Fraction]


def _leaf_index(leaf: str) -> int:
    return int(leaf, 2) if leaf else 0


def _leaf_count(depth: int) -> int:
    """2**depth, the leaves of a depth-``depth`` gamble, with a depth that is no natural number refused
    before the shift."""
    return 1 << natural(depth, "gamble depth")


@dataclass(frozen=True)
class DepthGamble:
    """A reward determined by the first ``depth`` bits.

    ``values[i]`` is the reward on the leaf whose bits spell ``i`` in binary,
    so the tuple has exactly 2**depth entries.
    """

    depth: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        collection(self.values, "gamble values are a sequence of rationals", Sequence)
        if len(self.values) != (leaves := _leaf_count(self.depth)):
            raise DomainError(f"depth-{self.depth} gamble needs {leaves} values, got {len(self.values)}")
        # a float would reach the folds: each type is checked once, the first bad value named
        if bad := {t for t in set(map(type, self.values)) if t is bool or not issubclass(t, Rational)}:
            j, v = next((j, v) for j, v in enumerate(self.values) if type(v) in bad)
            raise DomainError(f"gamble value at {bits(j, self.depth) or '@'!r} is not rational: {v!r}")

    @classmethod
    def constant(cls, depth: int, value) -> "DepthGamble":
        return cls(depth, (finite_fraction(value, "gamble value"),) * _leaf_count(depth))

    @classmethod
    def from_function(cls, depth: int, fn: Callable[[str], Fraction]) -> "DepthGamble":
        leaves = [bits(j, depth) for j in range(_leaf_count(depth))]
        return cls(depth, tuple(finite_fraction(fn(s), f"gamble value at {s or '@'!r}") for s in leaves))

    @classmethod
    def indicator(cls, cut: Iterable[str], depth: int) -> "DepthGamble":
        """Indicator of the cylinder union of ``cut`` at the given depth."""
        leaves = _cut_leaves(require_antichain(cut), depth)
        return cls(depth, tuple(ONE if v else ZERO for v in leaves))

    def at(self, leaf: str) -> Fraction:
        if len(require_situation(leaf)) != self.depth:
            raise DomainError(f"expected a depth-{self.depth} leaf, got {leaf!r}")
        return self.values[_leaf_index(leaf)]

    def __neg__(self) -> "DepthGamble":
        return DepthGamble(self.depth, tuple(-v for v in self.values))


def _cut_leaves(members: Iterable[str], depth: int) -> list[int]:
    """1 on the depth-``depth`` leaves inside the cylinder union of an antichain, else 0."""
    leaves = [0] * _leaf_count(depth)
    for t in members:
        if len(t) > depth:
            raise DomainError(f"cut member {t!r} deeper than gamble depth {depth}")
        width = depth - len(t)
        base = _leaf_index(t) << width
        leaves[base:base + (1 << width)] = [1] * (1 << width)
    return leaves


# The integer fold kernel.  Every endpoint is scaled by L, the lcm of the
# system's endpoint denominators, so with leaf denominator D the values h levels
# above the leaves share the denominator D * L**h and each one-step expectation
# is integer arithmetic with an integer endpoint comparison.

def _pairs(fs: ForecastingSystem, lower: bool = False):
    """(L, pairs, slot): pairs[k] is fs.intervals[k] as (L times the endpoint the upper expectation
    takes when f(1) >= f(0), L times the other one), ``lower`` swapping them; slot is fs._slot, or
    None when every position takes pairs[0]."""
    scale = math.lcm(*(x.denominator for i in fs.intervals for x in (i.lo, i.hi)))
    ends = [[x.numerator * (scale // x.denominator) for x in (i.lo, i.hi)] for i in fs.intervals]
    pairs = [(lo, hi) if lower else (hi, lo) for lo, hi in ends]
    return scale, pairs, fs._slot if len(set(pairs)) > 1 else None


def _fold(fs: ForecastingSystem, g: DepthGamble, s: str, lower: bool) -> Fraction:
    require_situation(s)
    m = g.depth - len(s)
    if m < 0:
        raise DomainError(f"situation {s!r} deeper than gamble depth {g.depth}")
    base = _leaf_index(s) << m
    leaves = g.values[base:base + (1 << m)]
    den = math.lcm(*(v.denominator for v in leaves))
    level = {base + i: v.numerator * (den // v.denominator) for i, v in enumerate(leaves)}
    ends = _pairs(fs, lower)
    return Fraction(_cut_trie(ends, (), (g.depth, level), len(s))[1][len(s)][_leaf_index(s)], den * ends[0] ** m)


def _cut_trie(ends, members, leaves=None, top: int = 0) -> tuple[Fraction | None, list[dict[int, int]]]:
    """(root, nodes) for _pairs' ends and a checked antichain, deepest member at D = len(nodes) - 1:
    the cut probability at ROOT, and nodes[t] mapping j to the numerator, over L**(D-t), of the one at
    bits(j, t) for each depth-t member and strict member prefix.  A member is worth L**(D-t), a node
    L*x + P*(y-x) from its children x (0) and y (1), one off the trie 0.  leaves, in place of members,
    is (D, {j: numerator}): a gamble's depth-D leaves over a common denominator, whose ancestors down
    from depth top nodes holds over that denominator times L**(D-t) (root is then None)."""
    scale, pairs, slot = ends
    members = sorted(members, key=len)
    depth, level = leaves or (len(members[-1]) if members else 0, {})
    nodes, one = [{}] * (depth + 1), 1
    for t in range(depth, top - 1, -1):
        while members and len(members[-1]) == t:
            level[_leaf_index(members.pop())] = one
        nodes[t], up, row, get = level, {}, 1 << t >> 1, level.get
        for k in {j >> 1 for j in level} if t > top else ():
            x, y = get(2 * k, 0), get(2 * k + 1, 0)
            p, q = pairs[slot(row | k) if slot else 0]
            up[k] = scale * x + (p if y >= x else q) * (y - x)
        level, one = up, one * scale
    return (None if leaves else Fraction(nodes[0].get(0, 0), one // scale)), nodes


def _fold_sum(fs, weighted_cuts, depth: int, divisor: int = 1, lower: bool = False, on_root=None):
    """(table, codes) of sum(weight * cut_value_map(fs, cut, depth, lower)) / divisor over (weight,
    cut) pairs, as a Process keeps them.  Each cut adds its _cut_trie nodes to one sparse running
    table per level and its weight to a count at each member; at the end the counts are pushed down
    onto the covered nodes by slice doubling.  Level t's values share the denominator
    divisor * L**(depth - t), so the nodes off every trie are coded by their count, and the tries'
    nodes one by one.  on_root(i, v), if given, gets the i-th cut's root v once it is in."""
    natural(depth, "process depth")
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
    return _fold(fs, g, s, lower=False)


def cond_lower(fs: ForecastingSystem, g: DepthGamble, s: str = ROOT) -> Fraction:
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
    status = _status(require_situation(s), members)  # each checked once
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
    """(upper, lower) probability of the cylinder set of ``s``: the cut {s} folded on its trie."""
    require_situation(s)
    return _cut_trie(_pairs(fs), (s,))[0], _cut_trie(_pairs(fs, lower=True), (s,))[0]
