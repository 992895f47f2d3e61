"""Event-tree combinatorics: the prefix order, cut status, antichains."""

import pytest
from hypothesis import given, settings, strategies as st

from treebet import (
    CutStatus, DepthGamble, RandomnessTest, Relation, cut_status, cut_upper_prob, cut_value_map, minimal_antichain,
    relation,
)
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

from gen import FAIR
from oracles import is_antichain_by_pairs, minimal_antichain_by_pairs

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


@st.composite
def member_lists(draw):
    """Lists of situations up to 30 bits, with repeats; many are prefixes of a few stems (the root
    among them), so nested members are common."""
    stems = draw(st.lists(st.text(alphabet="01", max_size=30), min_size=1, max_size=4))
    prefixes = st.builds(lambda stem, k: stem[:k], st.sampled_from(stems), st.integers(0, 30))
    members = draw(st.lists(st.one_of(prefixes, st.text(alphabet="01", max_size=30)), max_size=16))
    return members + draw(st.lists(st.sampled_from(members), max_size=4)) if members else members


@settings(max_examples=300)
@given(member_lists())
def test_antichain_checks_match_pairwise_references(members):
    nested = not is_antichain_by_pairs(members)
    assert is_antichain(members) is is_antichain(iter(members)) is not nested
    reduced = minimal_antichain(members)
    assert reduced == minimal_antichain_by_pairs(members)
    assert is_antichain([*reduced, *reduced])
    if nested:
        with pytest.raises(DomainError):
            require_antichain(members)
    else:
        assert require_antichain(members) == frozenset(members)


@pytest.mark.parametrize(
    "members, antichain, minimal",
    [([""], True, {""}), (["", ""], True, {""}), (["", "0"], False, {""}), (["1", "", "01", "1"], False, {""}),
     (["01", "0", "01"], False, {"0"}), (["01", "01", "10"], True, {"01", "10"}), ([], True, set())],
)
def test_antichain_checks_on_the_root_and_repeats(members, antichain, minimal):
    assert is_antichain(members) is is_antichain_by_pairs(members) is antichain
    assert minimal_antichain(members) == minimal_antichain_by_pairs(members) == minimal


@given(member_lists(), st.sampled_from(["2", "0a", "@", " 1", "01\n", "1 0", "\u0661"]), st.integers(0, 20))
def test_antichain_checks_refuse_a_non_situation(members, bad, at):
    members = [*members[:at], bad, *members[at:]]
    # the prefix test reads any strings; the checks that validate refuse the bad member
    assert is_antichain(members) is is_antichain_by_pairs(members)
    for check in (require_antichain, minimal_antichain, minimal_antichain_by_pairs):
        with pytest.raises(DomainError):
            check(members)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: require_antichain("01"), "a cut is a collection of situations, not a string: '01'"),
        (lambda: minimal_antichain("01"), "a cut is a collection of situations, not a string: '01'"),
        (lambda: cut_status("0", "01"), "a cut is a collection of situations, not a string: '01'"),
        (lambda: cut_upper_prob(FAIR, "01"), "a cut is a collection of situations, not a string: '01'"),
        (lambda: cut_value_map(FAIR, "1", 2), "a cut is a collection of situations, not a string: '1'"),
        (lambda: DepthGamble.indicator("0", 1), "a cut is a collection of situations, not a string: '0'"),
        (lambda: RandomnessTest(("01",), 3), "a cut is a collection of situations, not a string: '01'"),
        (lambda: minimal_antichain([1]), "not a situation: 1"),
        (lambda: require_antichain(["0", None]), "not a situation: None"),
        (lambda: require_situation(b"01"), "not a situation: b'01'"),
    ],
)
def test_a_string_given_as_a_cut_and_a_member_that_is_not_a_string_are_refused(call, message):
    # a string iterates as its one-character situations, and a member that is no string has no strip
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
