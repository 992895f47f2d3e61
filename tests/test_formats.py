"""Parsing and canonical serialisation of the text formats."""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treebet import Markov, RandomnessTest, Stationary, Table, affine, interval
from treebet.errors import ConfigError, ParseError
from treebet.formats import (
    dump_forecasting_system,
    dump_growth,
    dump_process,
    dump_test,
    parse_forecasting_system,
    parse_growth,
    parse_process,
    parse_rational,
    parse_sequence,
    parse_test,
)
from treebet.numerals import format_rational

from gen import ones_test, rand_proc_text, rand_supermartingale, rand_system
from oracles import parse_process_by_lines


def test_parse_rational():
    assert parse_rational("7/10") == Fraction(7, 10)
    assert parse_rational("-3") == Fraction(-3)
    for bad in ("0.5", "1/2/3", "x", "", "1/0", "-3/00"):
        with pytest.raises(ParseError):
            parse_rational(bad)


# integers from one digit to twice Python's 4,300-digit int-string limit
digit_counts = st.one_of(st.integers(1, 40), st.integers(4290, 4310), st.integers(4311, 8600))
big_ints = st.builds(lambda digits, seed: random.Random(seed).randrange(10 ** digits),
                     digit_counts, st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(big_ints, st.booleans(), st.one_of(st.just(1), big_ints.map(lambda d: d + 1)))
def test_format_rational_is_str_without_a_digit_limit(n, negative, d):
    x = Fraction(-n if negative else n, d)
    limit = sys.get_int_max_str_digits()
    text = format_rational(x)
    assert sys.get_int_max_str_digits() == limit
    try:
        want = str(x)
    except ValueError:  # past the limit: the Decimal integers' digits
        num, den = Decimal(x.numerator), Decimal(x.denominator)
        assert text == (str(num) if den == 1 else f"{num}/{den}")
        return
    assert text == want
    assert parse_rational(text) == x


def test_stationary_round_trip():
    text = "kind: stationary\ninterval: 2/5 7/10\n"
    fs = parse_forecasting_system(text)
    assert fs == Stationary(interval("2/5", "7/10"))
    assert dump_forecasting_system(fs) == text
    # written in full past the int-string limit (and then refused on reading)
    tiny = Stationary(interval(Fraction(1, 10**5000), "1/2"))
    assert dump_forecasting_system(tiny) == f"kind: stationary\ninterval: 1/1{'0' * 5000} 1/2\n"


def test_table_round_trip_with_comments():
    text = "# a config\nkind: table\ndefault: 1/2 1/2\nnode @ 2/5 7/10  # root\nnode 01 1/4 3/4\n"
    fs = parse_forecasting_system(text)
    assert isinstance(fs, Table)
    assert fs.at("") == interval("2/5", "7/10")
    assert fs.at("01") == interval("1/4", "3/4")
    assert fs.at("111") == interval("1/2")
    canonical = dump_forecasting_system(fs)
    assert parse_forecasting_system(canonical) == fs
    assert dump_forecasting_system(parse_forecasting_system(canonical)) == canonical


def test_markov_round_trip():
    text = "kind: markov\norder: 1\nrow @ 1/2 1/2\nrow 0 1/2 1/2\nrow 1 3/10 3/10\n"
    fs = parse_forecasting_system(text)
    assert isinstance(fs, Markov)
    assert fs.at("01") == interval("3/10")
    assert dump_forecasting_system(fs) == text


def test_markov_incomplete_rows():
    with pytest.raises(ConfigError):
        parse_forecasting_system("kind: markov\norder: 1\nrow @ 1/2 1/2\n")


def test_high_markov_order_stops_at_the_first_missing_context():
    # order 40 names 2**41 - 1 contexts; the check must not list them first
    with pytest.raises(ConfigError) as info:
        parse_forecasting_system("kind: markov\norder: 40\nrow @ 1/2 1/2\n")
    assert str(info.value) == "markov rows incomplete: missing context '0'"


def test_forecasting_system_parse_errors():
    for bad in ("", "interval: 1/2 1/2", "kind: exotic", "kind: stationary\ninterval: 1/2\n"):
        with pytest.raises(ParseError):
            parse_forecasting_system(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("kind: table\nnode 0 1/2\n", "line 2: expected 'node <situation> <lo> <hi>', got 'node 0 1/2'"),
        ("kind: markov\nrow 0 1/2\n", "line 2: expected 'row <context> <lo> <hi>', got 'row 0 1/2'"),
        ("kind: table\norder: 1\n", "line 2: unexpected key 'order' in table config"),
        ("kind: markov\ndefault: 1/2 1/2\n", "line 2: unexpected key 'default' in markov config"),
        ("kind: table\nnode 0 1/2 1/2\n", "table config missing 'default:'"),
        ("kind: markov\nrow @ 1/2 1/2\n", "markov config missing 'order:'"),
        ("kind: table\ndefault: 1/2\n", "line 2: expected '<lo> <hi>', got '1/2'"),
    ],
)
def test_table_and_markov_config_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_forecasting_system(text)
    assert str(info.value) == message


def test_process_round_trip(seed=113):
    rng = random.Random(seed)
    fs = rand_system(rng, depth=4, non_degenerate=True)
    process = rand_supermartingale(rng, fs, depth=4)
    text = dump_process(process)
    again = parse_process(text)
    assert again.depth == process.depth and again.values == process.values
    assert dump_process(again) == text


def test_process_missing_node():
    with pytest.raises(ParseError):
        parse_process("depth: 1\n@ 1\n0 1\n")
    with pytest.raises(ParseError):
        parse_process("depth: 1\n@ 1\n0 1\n1 1\n0 2\n")


def _outcome(parse, text):
    try:
        process = parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return process.depth, list(process.values.items())


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_parse_process_matches_line_by_line_reference(seed):
    text = rand_proc_text(random.Random(seed))
    assert _outcome(parse_process, text) == _outcome(parse_process_by_lines, text)


def test_growth_spec_round_trip():
    g = parse_growth("table 1 2 4 ; affine 1 4 1")
    assert [g(n) for n in range(6)] == [1, 2, 4, 7, 8, 9]
    assert dump_growth(g) == "table 1 2 4 ; affine 1 4 1"
    empty_head = parse_growth("table ; affine 2 0 1")
    assert dump_growth(empty_head) == "table ; affine 2 0 1"
    with pytest.raises(ParseError):
        parse_growth("affine 1 0 1")


def test_test_file_round_trip():
    test = ones_test(3, tail=affine(1))
    text = dump_test(test)
    again = parse_test(text)
    assert again == test
    assert dump_test(again) == text


def test_test_file_without_tail():
    test = RandomnessTest((frozenset({"0", "1"}), frozenset()), max_depth=2)
    again = parse_test(dump_test(test))
    assert again == test and again.tail is None


def test_test_file_rejects_bad_levels():
    with pytest.raises(ParseError):
        parse_test("levels: 1\ndepth: 2\nlevel 3 01\n")
    with pytest.raises(ParseError):
        parse_test("levels: 1\ndepth: 2\nlevel 0 0\nlevel 0 01\n")  # not an antichain
    with pytest.raises(ParseError):
        parse_test("depth: 2\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_forecasting_system, "kind: markov\norder: x\n", "line 2: bad order 'x'"),
        (parse_process, "depth: 1.5\n@ 1\n", "line 1: bad depth '1.5'"),
        (parse_test, "levels: two\ndepth: 2\n", "line 1: bad level count 'two'"),
        (parse_test, "levels: 1\n# comment\ndepth: -\n", "line 3: bad depth '-'"),
        (parse_test, "levels: 1\ndepth: 2\nlevel 0x 01\n", "line 3: bad level index '0x'"),
    ],
    ids=["markov-order", "process-depth", "test-levels", "test-depth", "test-level-index"],
)
def test_bad_integer_messages(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_sequence_parsing():
    assert parse_sequence("01 10\n# all ones\n11\n") == "011011"
    with pytest.raises(ParseError):
        parse_sequence("012")
