"""Parsing and canonical serialisation of the text formats."""

import random
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treebet import Markov, Process, RandomnessTest, Stationary, Table, affine, formats, interval
from treebet.errors import ConfigError, ParseError, ResourceError, TreebetError
from treebet.formats import (
    MAX_LEVELS,
    _process_bytes,
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
from treebet.martingale import kelly_process
from treebet.numerals import format_rational, parse_integer

from gen import (
    DUMP_MUTATIONS, TEST_MUTATIONS, mutated_dump, mutated_test_dump, ones_test, rand_fraction, rand_proc_text,
    rand_supermartingale, rand_system, rand_test,
)
from oracles import (
    dumped_by_tokens, integer_levels, parse_process_by_lines, parse_sequence_by_chars, parse_test_by_lines,
    process_from_levels, process_text_by_names, stored_levels,
)


def test_parse_rational():
    assert parse_rational("7/10") == Fraction(7, 10)
    assert parse_rational("-3") == Fraction(-3)
    # the last five: a final newline, and Arabic-Indic (1/3) and fullwidth (7) digits,
    # which int() would read
    for bad in ("0.5", "1/2/3", "x", "", "1/0", "-3/00",
                "1/3\n", "7\n", "\u0661/\u0663", "1/\u0663", "\uff17"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_parse_integer():
    assert [parse_integer(t) for t in ("0", "-3", "+7", "007", "9" * 4300)] == [0, -3, 7, 7, 10**4300 - 1]
    # underscores, non-ASCII digits (Arabic-Indic, superscript, fullwidth) and a final newline,
    # all of which int() reads or strips
    for bad in ("1_0", "\u0663", "\u00b2", "\uff17", "7\n", " 7", "", "+", "1/2", "1.0", "0x1"):
        with pytest.raises(ParseError) as info:
            parse_integer(bad)
        assert str(info.value) == f"not an integer: {bad!r}"
    with pytest.raises(ParseError) as info:
        parse_integer("1" * 4301)
    assert str(info.value) == f"numeral over 4300 digits in integer {'1' * 20!r}..."


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


@pytest.mark.parametrize(
    "text, message",
    [("depth: 2\n@ 1\n", "depth-2 process needs 7 values, got 1"),
     ("depth: 10\n@ 1\n0 1\n1 1\n00 1\n01 1\n10 1\n11 1\n",
      "depth-10 process needs 2047 values, got 7")],
)
def test_process_count_message(text, message):
    with pytest.raises(ParseError) as info:
        parse_process(text)
    assert str(info.value) == message


def _outcome(parse, text):
    try:
        process = parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return process.depth, list(process.values.items())


def _read_levels(text):
    return stored_levels(parse_process(text))


def _levels_outcome(read, text):
    try:
        return read(text)
    except TreebetError as exc:  # a bad situation name is a DomainError
        return type(exc), str(exc), getattr(exc, "line", None)


class _Placed(Exception):
    pass


def _read_in_one_pass(text):
    """Whether parse_process reads the text, as the writer's layout, without placing any value by its name."""
    with mock.patch.object(formats, "_placed", side_effect=_Placed):
        try:
            parse_process(text)
        except (_Placed, TreebetError):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_parse_process_matches_line_by_line_reference(seed):
    text = rand_proc_text(random.Random(seed))
    expected = _outcome(parse_process_by_lines, text)
    assert _outcome(parse_process, text) == expected
    assert _read_in_one_pass(text) == dumped_by_tokens(text)
    # and its integer levels are the line-by-line values' numerators and denominators
    levels = _levels_outcome(lambda t: integer_levels(parse_process_by_lines(t)), text)
    assert _levels_outcome(_read_levels, text) == levels


@pytest.mark.parametrize(
    "text",
    ["depth: 0 @\n1\n", "depth: 1\n@ 1 0\n1\n1 1\n", "depth: 1\n@ 1\n0\n1\n1 1\n",
     "depth: 0\n@\t1\n", "depth: 0\r\n@ 1\r\n", "depth: 1\n@ 1\x1c0 1\n1 1\n",
     "depth: 1\n@ 1\x850 1\n1 1\n", "depth: 1\n@ 1\u20280 1\n1 1\n", "depth: 0\n@ 1 \n",
     "depth: 0\n@ 1", "depth:0\n@ 1\n", "depth: +0\n@ 1\n", "depth: 00\n@ 1\n",
     "depth: \u0660\n@ 1\n", "depth: \u00b2\n@ 1\n", "depth: 100000000000\n@ 1\n", "depth: 0\n@ 1#\n",
     "depth: 0\n@ 1/0\n", "depth: 0\n@ 2/4\n", "depth: 0\n@ +1\n", "depth: 0\n@ -0\n",
     "depth: 0\n@ 007\n", "depth: 1\n@ 1\n1 1\n0 1\n", "depth: 0\n0 1\n",
     "depth: " + "1" * 4301 + "\n@ 1\n", "# a note\ndepth: 0\n@ 1\n", "depth: 0\n@ 1\n\n",
     "depth: 2\n@ 1\n", "depth: 65\n@ 1\n", "width: 0\n@ 1\n"],
)
def test_odd_process_layouts_read_as_line_by_line(text):
    assert _outcome(parse_process, text) == _outcome(parse_process_by_lines, text)


def test_dumped_processes_are_read_in_one_pass(seed=127):
    rng = random.Random(seed)
    for depth in range(7):
        for _ in range(4):
            span = rng.choice([1, 10**6])
            process = Process.from_function(depth, lambda s: rand_fraction(rng, span))
            text = dump_process(process)
            assert _read_in_one_pass(text)
            assert stored_levels(parse_process(text)) == integer_levels(process)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(DUMP_MUTATIONS))
def test_writer_layout_check_and_integer_reader_match_references(seed, kind):
    # the writer, as a layout check, takes exactly the texts the token rejoin and the
    # name comparison took; the integer reader reads every text as parse_process does
    rng = random.Random(seed)
    depth = rng.randint(0, 5)
    if rng.random() < 0.5:
        fs = rand_system(rng, depth=depth, non_degenerate=True)
        process = rand_supermartingale(rng, fs, depth=depth)
    else:
        span = rng.choice([1, 10**6])
        process = Process.from_function(depth, lambda s: rand_fraction(rng, span))
    text = mutated_dump(rng, dump_process(process), kind)
    assert _read_in_one_pass(text) == dumped_by_tokens(text)
    if kind == "none":
        assert _read_in_one_pass(text)
    expected = _levels_outcome(lambda t: integer_levels(parse_process_by_lines(t)), text)
    assert _levels_outcome(_read_levels, text) == expected
    assert _levels_outcome(lambda t: integer_levels(parse_process(t)), text) == expected


# value texts dump_process never writes: unreduced, signed, padded, refused, a format directive and
# a numerator past the digit limit
ODD_VALUES = ["2/4", "+1", "-0", "007", "1/0", "%s", "%%", "7" * 4301 + "/3"]


@pytest.mark.parametrize("value", ODD_VALUES)
@pytest.mark.parametrize("depth", range(2, 7))
def test_dumped_layout_with_odd_values_reads_as_line_by_line(depth, value):
    # the writer's layout around values dump_process never writes
    rng = random.Random(depth)
    texts = [format_rational(rand_fraction(rng, 10**6)) for _ in range((2 << depth) - 1)]
    for at in rng.sample(range(len(texts)), 3):
        texts[at] = value
    text = process_text_by_names(depth, texts)
    assert _read_in_one_pass(text) == dumped_by_tokens(text) == (value in ("2/4", "+1", "-0", "007"))
    expected = _levels_outcome(lambda t: integer_levels(parse_process_by_lines(t)), text)
    assert _levels_outcome(_read_levels, text) == expected


def _proc_text(rng, source):
    """A .proc text from one source: rand_proc_text, a DUMP_MUTATIONS kind, or the writer's layout
    around odd values."""
    if source == "rand_proc_text":
        return rand_proc_text(rng)
    depth = rng.randint(0, 5)
    if source in DUMP_MUTATIONS:
        process = Process.from_function(depth, lambda s: rand_fraction(rng, rng.choice([1, 10**6])))
        return mutated_dump(rng, dump_process(process), source)
    texts = [format_rational(rand_fraction(rng, 10**6)) for _ in range((2 << depth) - 1)]
    texts[rng.randrange(len(texts))] = rng.choice(ODD_VALUES)
    return process_text_by_names(depth, texts)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["rand_proc_text", *DUMP_MUTATIONS, "odd value"]))
def test_the_line_reader_only_names_a_fault(seed, source):
    # parse_process reads every text the line reader takes: its fault path, run on a text parse_process
    # refused, always raises, and names the fault as the line-by-line reference does
    text = _proc_text(random.Random(seed), source)
    line_reader = formats._process_by_lines

    def must_refuse(text):
        line_reader(text)
        raise AssertionError(f"the fault path read a text parse_process refused: {text[:200]!r}")

    with mock.patch.object(formats, "_process_by_lines", must_refuse):
        assert _outcome(parse_process, text) == _outcome(parse_process_by_lines, text)


def _texts(process):
    return map(format_rational, process.values.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.sampled_from(["stationary", "table", "markov"]), st.integers(0, 2**32))
def test_dump_process_matches_the_writer_by_names(depth, kind, seed):
    rng = random.Random(seed)
    process = rand_supermartingale(rng, rand_system(rng, depth=depth, kind=kind, non_degenerate=True), depth=depth)
    assert dump_process(process) == process_text_by_names(depth, _texts(process))


def test_dump_process_matches_the_writer_by_names_at_depth_16():
    process = kelly_process(Stationary(interval("2/5", "3/5")), Fraction(1, 2), "on-one", 16)
    assert dump_process(process) == process_text_by_names(16, _texts(process))


def test_dump_process_matches_the_writer_by_names_past_the_digit_limit():
    # numerals past 4,300 digits, on a level over one unreduced denominator and on one over pairs
    big = 10**4400 + 1
    process = process_from_levels([[big], [2 * big, 3], [4, -big, 6 * big, 8]], [[3], [6, 6], [1, 7, big + 2, 9]])
    texts = [*_texts(process)]
    assert sum(len(t) > 4300 for t in texts) == 4
    assert dump_process(process) == process_text_by_names(2, texts)


@given(st.integers(0, 5).flatmap(lambda d: st.tuples(st.just(d), st.lists(
    st.one_of(st.sampled_from(["%s", "%%", "%(x)s", "%d", "%", "1/2"]), st.text(max_size=4)),
    min_size=(2 << d) - 1, max_size=(2 << d) - 1))))
def test_process_text_keeps_value_texts_as_data(case):
    depth, texts = case
    assert _process_bytes(depth, [t.encode() for t in texts]) == process_text_by_names(depth, texts).encode()


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


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_test, "levels: 1_0\ndepth: 2\n", "line 1: bad level count '1_0'"),
        (parse_test, "levels: 1\ndepth: \u0663\n", f"line 2: bad depth {chr(0x663)!r}"),
        (parse_process, "depth: \u0660\n@ 1\n", f"line 1: bad depth {chr(0x660)!r}"),
        (parse_test, "# a test\nlevels: -3\ndepth: 2\n", "line 2: negative level count '-3'"),
        (parse_growth, "table \u0661 2_0 ; affine 1 0 1",
         f"growth spec values must be integers: {'table ' + chr(0x661) + ' 2_0 ; affine 1 0 1'!r}"),
        (parse_growth, "table 1 ; affine 1 0 1_0", "growth spec values must be integers: 'table 1 ; affine 1 0 1_0'"),
    ],
    ids=["levels-underscore", "test-depth-arabic-indic", "process-depth-arabic-indic", "negative-levels",
         "growth-table", "growth-affine"],
)
def test_integer_fields_take_ascii_digits_only(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_process, "depth: 1\n@ 1\nx2 1\n1 1\n", "line 3: not a situation: 'x2'"),
        (parse_process, "# a note\ndepth: 0\n@ %s\n", "line 3: not a rational (want p/q or an integer): '%s'"),
        (parse_process, "depth: -1\n", "line 1: negative depth '-1'"),
        (parse_test, "levels: 1\ndepth: 2\nlevel 0 0x\n", "line 3: not a situation: '0x'"),
        (parse_test, "levels: 1\ndepth: 2\ntail: nonsense\n",
         "line 3: growth spec needs 'table ... ; affine a b c', got 'nonsense'"),
        (parse_test, "levels: 1\ndepth: 2\ntail: table 2 1 ; affine 1 0 1\n", "line 3: growth prefix must be non-decreasing"),
        (parse_test, "levels: 1\ndepth: -2\n", "line 2: negative depth '-2'"),
        (parse_test, "levels: 1\ndepth: 2\nlevel -1 0\n", "line 3: negative level index '-1'"),
        (parse_forecasting_system, "kind: table\ndefault: 1/2 1/2\nnode x2 1/2 1/2\n", "line 3: not a situation: 'x2'"),
        (parse_forecasting_system, "kind: markov\norder: 0\nrow 2 1/2 1/2\n", "line 3: not a situation: '2'"),
        (parse_forecasting_system, "kind: table\ndefault: 3/4 1/4\n", "line 2: invalid forecast interval [3/4, 1/4]"),
        (parse_forecasting_system, "kind: markov\norder: -1\n", "line 2: negative order '-1'"),
    ],
    ids=["proc-situation", "proc-percent-value", "proc-negative-depth", "test-situation", "test-tail",
         "test-tail-domain", "test-negative-depth", "test-negative-index", "table-node", "markov-row",
         "inverted-interval", "markov-negative-order"],
)
def test_refusals_one_line_decides_name_the_line(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_forecasting_system, "kind: stationary\ninterval: 1/2 1/2\ninterval: 0 1\n",
         "line 3: duplicate key 'interval'"),
        (parse_forecasting_system, "kind: stationary\ninterval: 1/2 1/2\nbogus line here\n",
         "line 3: expected 'key: value', got 'bogus line here'"),
        (parse_forecasting_system, "kind: stationary\ninterval: 1/2 1/2\norder: 1\n",
         "line 3: unexpected key 'order' in stationary config"),
        (parse_forecasting_system, "kind: table\ndefault: 1/2 1/2\n# again\ndefault: 0 1\n",
         "line 4: duplicate key 'default'"),
        (parse_forecasting_system, "kind: table\ndefault: 1/2 1/2\nnode 0 0 1\nnode 0 1 1\n",
         "line 4: duplicate node '0'"),
        (parse_forecasting_system, "kind: markov\norder: 0\nrow @ 1/2 1/2\nrow @ 0 1\n", "line 4: duplicate row '@'"),
        (parse_test, "levels: 1\nlevels: 2\ndepth: 2\n", "line 2: duplicate key 'levels'"),
        (parse_test, "levels: 1\ndepth: 2\ndepth: 3\n", "line 3: duplicate key 'depth'"),
        (parse_test, "levels: 1\ndepth: 2\ntail: table ; affine 1 0 1\ntail: table ; affine 1 0 1\n",
         "line 4: duplicate key 'tail'"),
    ],
    ids=["stationary-twice", "stationary-stray", "stationary-other-key", "table-default", "table-node",
         "markov-row", "test-levels", "test-depth", "test-tail"],
)
def test_repeated_keys_rows_and_stray_lines_are_refused(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(TEST_MUTATIONS))
def test_parse_test_matches_the_line_reader(seed, kind):
    # every layout gives the line-by-line reference's test, or its refusal: type, message and line
    rng = random.Random(seed)
    text = mutated_test_dump(rng, dump_test(rand_test(rng)), kind)
    assert _levels_outcome(parse_test, text) == _levels_outcome(parse_test_by_lines, text)


def test_repeated_level_lines_are_read_as_one_member():
    # a level is a set, so a member listed twice is still one member
    assert parse_test("levels: 1\ndepth: 2\nlevel 0 01\nlevel 0 01\n").levels == (frozenset({"01"}),)


def test_sequence_parsing():
    assert parse_sequence("01 10\n# all ones\n11\n") == "011011"
    with pytest.raises(ParseError):
        parse_sequence("012")


# bits, comments, blanks, every line break splitlines knows (CRLF, CR, \x1c, \u2028, ...), tabs and
# Unicode spaces, and characters that are neither: letters, non-ASCII digits, a lone surrogate
SEQUENCE_PIECES = ["0", "1", "0", "1", "0110", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                   "\x1e", "\x85", "\u2028", "\u2029", "\xa0", "\u3000", "\u200b", "#", "# note ", "#2\n",
                   "2", "x", "\u0663", "\uff11", "\u00b9", "\ud800", "-"]
sequence_texts = st.one_of(
    st.lists(st.sampled_from(SEQUENCE_PIECES), max_size=40).map("".join),
    st.text(max_size=40),
    # one bad character on any line of an otherwise clean text
    st.tuples(st.lists(st.text("01 \t#\n\r", max_size=12), min_size=1, max_size=8), st.integers(0, 7),
              st.sampled_from(["2", "a", "\u0661", "\x00"])).map(
        lambda t: "\n".join(line + t[2] * (i == t[1] % len(t[0])) for i, line in enumerate(t[0]))),
)


def _sequence_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ParseError, str(exc), exc.line


@settings(max_examples=500, deadline=None)
@given(sequence_texts)
def test_parse_sequence_matches_the_character_walk(text):
    # the same bits, or the same refusal naming the same line
    assert _sequence_outcome(parse_sequence, text) == _sequence_outcome(parse_sequence_by_chars, text)


@pytest.mark.parametrize("comment", ["", "# a million bits\r\n"])
def test_parse_sequence_peaks_under_twice_the_text(comment):
    # the bits take no list entry each: a one-line million-bit text costs at most about one more copy
    text = comment + "".join(random.Random(5).choices("01", k=10**6)) + "\n"
    tracemalloc.start()
    try:
        bits = parse_sequence(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bits) == 10**6 and peak < 2 * len(text)


@pytest.mark.parametrize("count", ["4097", "100000", "9" * 4300])
def test_level_count_over_the_limit_is_a_resource_error(count):
    # refused at the count's own line, before any level is built
    with pytest.raises(ResourceError) as info:
        parse_test(f"# a test\nlevels: {count}\ndepth: 1\nlevel 0 1\n")
    assert str(info.value) == f"line 2: test has {count} levels, over the limit of {MAX_LEVELS}"


def test_level_count_at_the_limit_is_read():
    test = parse_test(f"levels: {MAX_LEVELS}\ndepth: 1\nlevel {MAX_LEVELS - 1} 1\n")
    assert test.num_levels == MAX_LEVELS == 4096 and test.level(MAX_LEVELS - 1) == {"1"}
