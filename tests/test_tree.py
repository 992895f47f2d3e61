"""Event-tree combinatorics: the prefix order, cut status, antichains."""

import pytest
from hypothesis import given, strategies as st

from treebet import CutStatus, Relation, cut_status, minimal_antichain, relation
from treebet.errors import DomainError
from treebet.tree import (
    bits,
    format_situation,
    is_antichain,
    parse_situation,
    require_antichain,
    require_situation,
    situations_up_to,
)

situations = st.text(alphabet="01", max_size=8)


@pytest.mark.parametrize(
    "s, t, expected",
    [
        ("", "01", Relation.STRICTLY_PRECEDES),
        ("01", "01", Relation.EQUAL),
        ("0", "1", Relation.INCOMPARABLE),
        ("011", "01", Relation.STRICTLY_FOLLOWS),
        ("10", "01", Relation.INCOMPARABLE),
    ],
)
def test_relation_cases(s, t, expected):
    assert relation(s, t) is expected


@given(situations, situations)
def test_relation_antisymmetric(s, t):
    r, r_flipped = relation(s, t), relation(t, s)
    forward = {
        Relation.STRICTLY_PRECEDES: Relation.STRICTLY_FOLLOWS,
        Relation.STRICTLY_FOLLOWS: Relation.STRICTLY_PRECEDES,
        Relation.EQUAL: Relation.EQUAL,
        Relation.INCOMPARABLE: Relation.INCOMPARABLE,
    }
    assert r_flipped is forward[r]


@given(situations, situations)
def test_relation_matches_cylinder_containment(s, t):
    # s strictly precedes t iff every deep extension of t extends s
    depth = max(len(s), len(t)) + 2
    width = depth - len(t)
    extensions = [t + bits(j, width) for j in range(1 << width)]
    contained = all(leaf.startswith(s) for leaf in extensions)
    assert (relation(s, t) in (Relation.STRICTLY_PRECEDES, Relation.EQUAL)) == contained


@pytest.mark.parametrize(
    "s, cut, expected",
    [
        ("1", {"11"}, CutStatus.PRECEDES_STRICTLY),
        ("11", {"11"}, CutStatus.IN_CUT),
        ("0", {"11"}, CutStatus.INCOMPARABLE),
        ("110", {"11"}, CutStatus.FOLLOWS_STRICTLY),
        ("", {"0", "1"}, CutStatus.PRECEDES_STRICTLY),
        ("0", set(), CutStatus.INCOMPARABLE),
    ],
)
def test_cut_status_cases(s, cut, expected):
    assert cut_status(s, cut) is expected


@pytest.mark.parametrize(
    "members, expected",
    [
        ({"1", "11"}, {"1"}),
        ({"0", "1"}, {"0", "1"}),
        (set(), set()),
        ({"", "0", "10"}, {""}),
    ],
)
def test_minimal_antichain_cases(members, expected):
    assert minimal_antichain(members) == frozenset(expected)


@given(st.sets(situations, max_size=12))
def test_minimal_antichain_properties(members):
    reduced = minimal_antichain(members)
    assert is_antichain(reduced)
    # every input has a prefix in the output, so cylinders are preserved
    for s in members:
        assert any(s.startswith(t) for t in reduced)
    # the output never adds new situations
    assert reduced <= set(members)


def test_require_antichain_rejects_nested():
    with pytest.raises(DomainError):
        require_antichain({"1", "11"})
    with pytest.raises(DomainError):
        require_antichain({"2"})


def test_situation_round_trip():
    assert parse_situation("@") == ""
    assert parse_situation("0110") == "0110"
    assert format_situation("") == "@"
    assert format_situation("01") == "01"
    with pytest.raises(DomainError):
        parse_situation("01a")


@pytest.mark.parametrize("bad", ["01a", "2", "0 1", "01\n", "@"])
def test_require_situation_rejects(bad):
    with pytest.raises(DomainError):
        require_situation(bad)


def test_situations_up_to_is_total():
    listing = list(situations_up_to(2))
    assert listing == ["", "0", "1", "00", "01", "10", "11"]


@pytest.mark.parametrize("depth", range(-1, 13))
def test_situations_up_to_matches_bits(depth):
    expected = [bits(j, n) for n in range(depth + 1) for j in range(1 << n)]
    assert list(situations_up_to(depth)) == expected
