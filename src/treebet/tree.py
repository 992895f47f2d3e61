"""Situations (finite bit strings), the prefix order, and partial cuts.

A situation is a node of the binary event tree, written as a string over
``{'0', '1'}``; the empty string is the root.  A partial cut is a finite
antichain of situations: no member is a prefix of another, so the cylinder
sets of its members are pairwise disjoint.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, chain
from typing import Iterable, Iterator

from .errors import DomainError

ROOT = ""
ROOT_LABEL = "@"


class Relation(Enum):
    STRICTLY_PRECEDES = "strictly-precedes"
    EQUAL = "equals"
    STRICTLY_FOLLOWS = "strictly-follows"
    INCOMPARABLE = "incomparable"


class CutStatus(Enum):
    PRECEDES_STRICTLY = "precedes-strictly"
    IN_CUT = "in-cut"
    FOLLOWS_STRICTLY = "follows-strictly"
    INCOMPARABLE = "incomparable"


def require_situation(s: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise DomainError(f"not a situation: {s!r}")
    return s


def _members(cut: Iterable[str]) -> Iterable[str]:
    """The cut's members; a string, which would iterate as one-character situations, is refused."""
    if isinstance(cut, str):
        raise DomainError(f"a cut is a collection of situations, not a string: {cut!r}")
    return cut


def parse_situation(text: str) -> str:
    """Read a situation from its serialized form; the root is written '@'."""
    if text == ROOT_LABEL:
        return ROOT
    return require_situation(text)


def format_situation(s: str) -> str:
    return s if s else ROOT_LABEL


def relation(s: str, t: str) -> Relation:
    """Order two situations in the prefix order on the event tree."""
    if s == t:
        return Relation.EQUAL
    if t.startswith(s):
        return Relation.STRICTLY_PRECEDES
    if s.startswith(t):
        return Relation.STRICTLY_FOLLOWS
    return Relation.INCOMPARABLE


def cut_status(s: str, cut: Iterable[str]) -> CutStatus:
    """Place a situation relative to a partial cut.

    Membership is reported separately from strict precedence; for a valid
    antichain the four outcomes are mutually exclusive.
    """
    members = cut if isinstance(cut, (set, frozenset)) else frozenset(_members(cut))
    if s in members:
        return CutStatus.IN_CUT
    for t in members:
        if t.startswith(s):
            return CutStatus.PRECEDES_STRICTLY
        if s.startswith(t):
            return CutStatus.FOLLOWS_STRICTLY
    return CutStatus.INCOMPARABLE


def is_antichain(members: Iterable[str]) -> bool:
    """Whether no member is a strict prefix of another; repeats count once.  Sorted, a member
    that is a prefix of another is a prefix of its successor too, so only neighbours are compared."""
    ordered = sorted(set(members))
    return not any(map(str.startswith, ordered[1:], ordered))


def require_antichain(members: Iterable[str]) -> frozenset[str]:
    cut = frozenset(map(require_situation, _members(members)))
    if not is_antichain(cut):
        raise DomainError("not an antichain: some member is a prefix of another")
    return cut


def minimal_antichain(members: Iterable[str]) -> frozenset[str]:
    """Keep only the prefix-minimal situations; the cylinder union is unchanged.  Sorted, a member
    with a prefix among the members starts with the last member kept before it."""
    kept: list[str] = []
    for s in sorted(set(map(require_situation, _members(members)))):
        if not kept or not s.startswith(kept[-1]):
            kept.append(s)
    return frozenset(kept)


def bits(value: int, width: int) -> str:
    """The width-bit binary expansion of ``value`` ('' when width is 0)."""
    return format(value, f"0{width}b") if width else ""


def situations_up_to(depth: int) -> Iterator[str]:
    """All situations of depth at most ``depth``, level by level, lexicographic: each level is
    the level above with '0' prefixed, then with '1' prefixed, which keeps the order."""
    levels = accumulate(range(depth), lambda up, _: ["0" + t for t in up] + ["1" + t for t in up], initial=[ROOT])
    return chain.from_iterable(levels if depth >= 0 else ())
