"""The streaming commands: `analyze` and `sample` against their per-row
references in ``oracles``, the long default-battery run, and the exit code
of every generated command line.
"""

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from bisect import bisect_left
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treebet import Markov, RandomnessTest, Stationary, Table, cli, interval, sampling
from treebet.cli import DEFAULT_BATTERY, main
from treebet.errors import DomainError
from treebet.formats import (
    dump_forecasting_system, dump_process, dump_test, parse_forecasting_system, parse_test,
)
from treebet.martingale import kelly_gamble, kelly_process
from treebet.randtest import assemble_test_supermartingale
from treebet.sampling import SELECTORS, sample_path
from treebet.tree import bits, format_situation, situations_up_to

from oracles import (
    MASK64, analyze_by_fractions, sample_path_by_sampler, sample_path_by_words, splitmix64,
)

# {0}, {1}, [0, 1], precise and imprecise intervals with mixed denominators
INTERVALS = [
    interval("0"), interval("1"), interval("0", "1"), interval("1/2"), interval("1/3"),
    interval("2/5", "7/10"), interval("1/4", "3/5"), interval("5/9", "6/7"),
]
# mostly intervals that let every bettor live, so long runs are common
forecasts = st.one_of(st.sampled_from(INTERVALS[3:]), st.sampled_from(INTERVALS))
situations = st.integers(0, 4).flatmap(
    lambda n: st.builds(bits, st.integers(0, (1 << n) - 1), st.just(n)))


@st.composite
def systems(draw):
    kind = draw(st.sampled_from(["stationary", "table", "markov"]))
    if kind == "stationary":
        return Stationary(draw(forecasts))
    if kind == "table":
        return Table(draw(forecasts), draw(st.dictionaries(situations, forecasts, max_size=6)))
    order = draw(st.integers(0, 2))
    rows = {bits(j, n): draw(forecasts) for n in range(order + 1) for j in range(1 << n)}
    return Markov(order, rows)


STAKES = ["0", "1", "1/2", "5/6"]
kelly_specs = st.lists(
    st.builds("{},{}".format, st.sampled_from(STAKES), st.sampled_from(["on-one", "on-zero"])),
    min_size=1, max_size=5,
)


@st.composite
def randomness_tests(draw, sequence: str):
    """A test whose members are prefixes of ``sequence`` (hits) or off-path situations."""
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        if sequence and draw(st.booleans()):
            levels.append(frozenset({sequence[:draw(st.integers(0, len(sequence)))]}))
        else:
            levels.append(frozenset(draw(st.lists(situations, max_size=1))))
    depth = max((len(t) for cut in levels for t in cut), default=0)
    return RandomnessTest(tuple(levels), max_depth=depth)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def analyze_argv(tmp: Path, fs, sequence: str, specs, tests) -> list[str]:
    (tmp / "s.fs").write_text(dump_forecasting_system(fs))
    (tmp / "s.seq").write_text(sequence + "\n")
    argv = ["analyze", "--fs", str(tmp / "s.fs"), "--seq", str(tmp / "s.seq")]
    for spec in specs or []:
        argv += ["--kelly", spec]
    for t, test in enumerate(tests):
        (tmp / f"{t}.test").write_text(dump_test(test))
        argv += ["--test", str(tmp / f"{t}.test")]
    return argv


def parsed(spec: str) -> tuple[Fraction, str]:
    stake, direction = spec.split(",")
    return Fraction(stake), direction


@settings(max_examples=120, deadline=None)
@given(st.data(), systems(), st.text("01", max_size=300), st.one_of(st.none(), kelly_specs))
def test_analyze_matches_fraction_rows(data, fs, sequence, specs):
    tests = data.draw(st.lists(randomness_tests(sequence), max_size=2))
    strategies = [parsed(spec) for spec in specs or DEFAULT_BATTERY]
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run(analyze_argv(Path(tmp), fs, sequence, specs, tests))
    try:
        want = analyze_by_fractions(fs, sequence, strategies, tests)
    except DomainError as exc:
        assert (code, err) == (2, f"treebet: {exc}\n")
        assert out == out.split("\n", 1)[0] + "\n"   # the header, no rows this short
        return
    assert (code, err) == (0, "")
    assert out == want


@settings(max_examples=100, deadline=None)
@given(st.data(), st.one_of(systems(), st.none()), st.text("01", max_size=120), st.one_of(st.none(), kelly_specs))
def test_analyze_in_64_char_blocks_matches_fraction_rows(data, fs, sequence, specs):
    # a block every row or two: the rows come out whole and in order, and a run that exits 2 at
    # a bit has written every block finished before it, leaving under one block's rows unwritten
    if fs is None:  # a {0} forecast on the path, which a live bettor on one refuses to bet against
        fs = Table(INTERVALS[5], {sequence[:data.draw(st.integers(0, len(sequence)))]: INTERVALS[0]})
    tests = data.draw(st.lists(randomness_tests(sequence), max_size=2))
    strategies = [parsed(spec) for spec in specs or DEFAULT_BATTERY]
    with mock.patch.object(cli, "_FLUSH_CHARS", 64), tempfile.TemporaryDirectory() as tmp:
        code, out, err = run(analyze_argv(Path(tmp), fs, sequence, specs, tests))

    def rows(m: int) -> str | None:  # the header and rows 0..m, or None when the oracle refuses bit m or before
        try:
            return analyze_by_fractions(fs, sequence[:m], strategies, tests).rsplit("# summary", 1)[0]
        except DomainError:
            return None

    try:
        want = analyze_by_fractions(fs, sequence, strategies, tests)
    except DomainError as exc:
        assert (code, err) == (2, f"treebet: {exc}\n")
        written = rows(bisect_left(range(len(sequence) + 1), True, key=lambda m: rows(m) is None) - 1)
        assert written.startswith(out) and out.endswith("\n")
        unwritten = written[len(out):].splitlines(keepends=True)
        assert sum(len(row) for row in unwritten if not row.startswith("0\t")) < 64
        return
    assert (code, out, err) == (0, want, "")


def test_analyze_hits_and_mixed_stakes_match():
    # a fixed case with every feature at once: hits at several depths,
    # a repeated strategy, a mixed-denominator stake, a stake-0 bettor
    fs = Table(INTERVALS[5], {"1": INTERVALS[6], "10": INTERVALS[2]})
    sequence = "1011001110" * 20
    tests = [RandomnessTest((frozenset({"1"}), frozenset({"0"}), frozenset({sequence[:7]})), 7)]
    specs = ["5/6,on-one", "1/2,on-zero", "5/6,on-one", "0,on-zero"]
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run(analyze_argv(Path(tmp), fs, sequence, specs, tests))
    assert (code, err) == (0, "")
    assert out == analyze_by_fractions(fs, sequence, [parsed(s) for s in specs], tests)


def _long_case(kind: str):
    """A system and 1,500-2,000 random bits. Every bettor below lives, and every capital stays
    under the 4,300 digits that the oracle's str(Fraction) can print."""
    rng = random.Random(kind)
    sequence = "".join(rng.choice("01") for _ in range(rng.randint(1500, 2000)))
    if kind == "wide":
        return Stationary(INTERVALS[5]), sequence
    if kind == "table":
        # fair, 1/3 and [1/4, 3/5] overrides on a fifth of the path's prefixes
        overrides = {sequence[:k]: rng.choice([INTERVALS[3], INTERVALS[4], INTERVALS[6]])
                     for k in rng.sample(range(len(sequence)), len(sequence) // 5)}
        return Table(INTERVALS[5], overrides), sequence
    rows = {"": INTERVALS[5], "0": INTERVALS[4], "1": interval("1/4"), "00": INTERVALS[5],
            "01": INTERVALS[3], "10": INTERVALS[4], "11": INTERVALS[6]}
    return Markov(2, rows), sequence


@pytest.mark.parametrize("kind", ["wide", "table", "markov"])
def test_long_analyze_matches_fraction_rows(tmp_path, kind):
    # the step's branches all fire: unit and non-unit gcds (wide's 4/3 then 1/2 or 17/14
    # against a capital holding a 2), p == 1 (the factor 1/2) and q == 1 (1/2 on one
    # against 1/3, factor 2/1; 2/3 on one against 1/4, factor 3/1)
    fs, sequence = _long_case(kind)
    specs = ["1/2,on-one", "1/2,on-zero", "2/3,on-one", "3/7,on-zero"]
    tests = [RandomnessTest((frozenset({sequence[:900]}), frozenset({"1" * 40})), 900)]
    code, out, err = run(analyze_argv(tmp_path, fs, sequence, specs, tests))
    assert (code, err) == (0, "")
    assert out == analyze_by_fractions(fs, sequence, [parsed(s) for s in specs], tests)


seeds = st.one_of(
    st.integers(-(1 << 70), -1), st.just(0), st.integers(1, (1 << 64) - 1),
    st.integers(1 << 64, 1 << 70),
)


@settings(max_examples=200, deadline=None)
@given(systems(), st.sampled_from(SELECTORS), st.integers(0, 200), seeds)
def test_sample_path_matches_bit_sampler(fs, selector, n, seed):
    assert sample_path(fs, selector, n, seed) == sample_path_by_sampler(fs, selector, n, seed)


def _seed_for_word(word: int) -> int:
    """The seed whose first splitmix64 output is ``word`` (the mix is a bijection)."""
    mask = (1 << 64) - 1

    def unxorshift(y: int, k: int) -> int:
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x

    z = unxorshift(word, 31)
    z = unxorshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    z = unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


@pytest.mark.parametrize("selector", ["low", "mid"])
def test_sample_draw_is_exact_at_the_threshold(selector):
    # p = 1/3: the words just below and at 2**64 / 3 (not an integer) draw 1 and 0
    fs = Stationary(interval("1/3"))
    below = ((1 << 64) - 1) // 3
    assert sample_path(fs, selector, 1, _seed_for_word(below)) == "1"
    assert sample_path(fs, selector, 1, _seed_for_word(below + 1)) == "0"
    for word in (below, below + 1):
        seed = _seed_for_word(word)
        assert sample_path(fs, selector, 1, seed) == sample_path_by_sampler(fs, selector, 1, seed)


def test_sample_path_rejects_unknown_selector():
    with pytest.raises(DomainError):
        sample_path(Stationary(INTERVALS[3]), "median", 0, 0)


# ------------------------------------------------------------ block words

BLOCK = sampling._BLOCK
# one system per kind; the table pins its first two bits and the markov rows include [0, 1]
SAMPLE_SYSTEMS = {
    "stationary": "kind: stationary\ninterval: 1/4 3/5\n",
    "table": "kind: table\ndefault: 1/4 3/5\nnode @ 1 1\nnode 1 0 0\nnode 10 1/3 1/3\n"
             "node 100 5/9 6/7\nnode 101 2/5 7/10\n",
    "markov": "kind: markov\norder: 2\nrow @ 1/4 3/5\nrow 0 1/3 1/3\nrow 1 2/5 7/10\n"
              "row 00 1/4 3/5\nrow 01 1/2 1/2\nrow 10 0 1\nrow 11 5/9 6/7\n",
}


def scalar_words(seed: int, n: int) -> list[int]:
    state, words = seed & MASK64, []
    for _ in range(n):
        state, word = splitmix64(state)
        words.append(word)
    return words


@pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1, -12345, (1 << 64) + 99])
def test_block_words_match_scalar_splitmix64(seed):
    blocks = list(islice(sampling._blocks(seed), 4))
    assert [len(block) for block in blocks] == [BLOCK] * 4
    assert list(chain.from_iterable(blocks)) == scalar_words(seed, 4 * BLOCK)


@pytest.mark.parametrize("kind", SAMPLE_SYSTEMS)
@pytest.mark.parametrize("selector", SELECTORS)
def test_sample_path_matches_per_word_reference_across_blocks(kind, selector):
    fs = parse_forecasting_system(SAMPLE_SYSTEMS[kind])
    for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5):
        assert sample_path(fs, selector, n, 731) == sample_path_by_words(fs, selector, n, 731)


@pytest.fixture
def odd_block(monkeypatch):
    """Blocks of 5 words, so that uniform's pick and draw straddle block edges."""
    monkeypatch.setattr(sampling, "_BLOCK", 5)
    sampling._lanes.cache_clear()
    yield
    sampling._lanes.cache_clear()


@pytest.mark.parametrize("kind", SAMPLE_SYSTEMS)
def test_sample_path_with_odd_blocks_matches_per_word_reference(odd_block, kind):
    fs = parse_forecasting_system(SAMPLE_SYSTEMS[kind])
    words = scalar_words(7, 15)
    assert list(islice(sampling._blocks(7), 3)) == [tuple(words[i:i + 5]) for i in (0, 5, 10)]
    for selector in SELECTORS:
        for n in (1, 2, 3, 7, 33):
            assert sample_path(fs, selector, n, 7) == sample_path_by_words(fs, selector, n, 7)


# sha256 of `sample --n 10000 --seed 2014` on SAMPLE_SYSTEMS: a seed's bits are fixed
SAMPLE_DIGESTS = {
    ("stationary", "low"): "5f7ef8f0ee3f5164a670b13ac8fca75fb24074d86b8d2b6a1face29be45c942a",
    ("stationary", "high"): "0ea43b17970b4434104679c3ac7b953c264ce6ce457fb3fc2ebbed7a9f11f359",
    ("stationary", "mid"): "5eb4860f84eb8d9cc5ea5182ed3a2c9541f06f27086e8b5725c02a542bd84651",
    ("stationary", "uniform"): "98418e904de7bfb51ae786b6ffb473628b11602f40abb5b817f86150d034919c",
    ("table", "low"): "3343f2621f1b8f501f1aacca823e789576de89f9aba3e644991632a755204f80",
    ("table", "high"): "56e958f6879821a153cf5d43cd968500b6082f18add4f38a2da50c3c23cb4bbb",
    ("table", "mid"): "4aa4176d9888ace996e35ae69102981398a565ae28d7d12aff432c3b9eb1dfc7",
    ("table", "uniform"): "bfa8cdef03e19ccb39b5b7f1e13265f0f4620d3170cb05c387c792a17903d7da",
    ("markov", "low"): "578b7062932f9699da4adc271628738775187bc7a8e60ec1269c2189a9214105",
    ("markov", "high"): "e6aaa85a6e2d1235891a4dd6ac3f4293db98fc41847ead4cb5d3b6dd50daf3f0",
    ("markov", "mid"): "aec54fc9ad453b638dbed5e9a04d8130fd6889b2c0c05dd81cfc6bb3ab2552d0",
    ("markov", "uniform"): "b94a2e6052224b95dba7ff482b24864a99e9dc4e9cb918215141c42f96719bc5",
}


@pytest.mark.parametrize("kind, selector", SAMPLE_DIGESTS)
def test_sample_output_is_pinned(tmp_path, kind, selector):
    (tmp_path / "s.fs").write_text(SAMPLE_SYSTEMS[kind])
    argv = ["sample", "--fs", str(tmp_path / "s.fs"), "--selector", selector, "--n", "10000",
            "--seed", "2014"]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert len(out) == 10001
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[kind, selector]


# sha256 of the default battery's whole output on the 7,200 bits below
BATTERY_7200_DIGEST = "80f0aecbe23b904ab81d9aa03a3845e371c633bf96c877bb28db14a2e3dec0ce"


def test_default_battery_past_the_int_str_limit(tmp_path):
    # the 1/2-stake capitals' denominators pass Python's 4300-digit
    # int-to-str limit near 6,000 bits on this system
    fs = Stationary(interval("2/5", "7/10"))
    rng = random.Random(7)
    n = 7200
    sequence = "".join(rng.choice("01") for _ in range(n))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(analyze_argv(tmp_path, fs, sequence, None, []))
    assert sys.get_int_max_str_digits() == limit
    assert (code, err) == (0, "")
    assert out.count("\n") == n + 3
    # no Fraction oracle prints these rows, so the whole output is pinned
    assert hashlib.sha256(out.encode()).hexdigest() == BATTERY_7200_DIGEST
    summary = out.rstrip("\n").rsplit("\n", 1)[-1]
    fields = dict(part.split("=", 1) for part in summary.split()[2:])

    # unreduced integer capitals, compared by cross-multiplication
    best = (1, 1)
    for stake, direction in map(parsed, DEFAULT_BATTERY):
        g = kelly_gamble(fs.interval, direction)
        factor = {"1": 1 + stake * g.on1, "0": 1 + stake * g.on0}
        num, den = 1, 1
        for bit in sequence:
            num, den = num * factor[bit].numerator, den * factor[bit].denominator
            if num * best[1] > best[0] * den:
                best = (num, den)
    assert Fraction(fields["max_capital"]) == Fraction(*best)
    assert Fraction(fields["ville_bound"]) == Fraction(best[1], best[0])


ZERO_AFTER_ONE = "kind: markov\norder: 1\nrow @ 1/2 1/2\nrow 0 1/2 1/2\nrow 1 0 0\n"


@pytest.mark.parametrize("sequence, code", [("010", 0), ("0011", 0), ("10", 2), ("110", 2)])
def test_bet_against_zero_forecast_only_while_alive(tmp_path, sequence, code):
    # the stake-1 bettor on one dies at the first 0; the {0} forecast
    # after every 1 then only matters while it lives
    fs = parse_forecasting_system(ZERO_AFTER_ONE)
    got, out, err = run(analyze_argv(tmp_path, fs, sequence, ["1,on-one"], []))
    assert got == code
    if code == 2:
        assert err == "treebet: betting on 1 against a {0} forecast\n"
    else:
        assert err == ""
        assert out.count("\n") == len(sequence) + 3


# ------------------------------------------------------------ exit codes

RATIONALS = ["0", "1", "1/2", "2/5", "7/10", "3/2", "-1", "-0", "+1/3", "4/8", "1/0", "0.5",
             "x", "", "1/2/3"]
SITUATIONS = ["@", "0", "1", "01", "110", "", "2", "0a", "1" * 24]
INTS = ["0", "1", "2", "3", "40", "-1", "x", ""]
# numerals around and past Python's 4,300-digit int-from-str limit
numerals = st.builds(str.__mul__, st.sampled_from("0139"), st.integers(4300, 20000))
long_rationals = st.one_of(numerals, st.builds("{}/{}".format, numerals, st.sampled_from("13")),
                           st.builds("1/{}".format, numerals))
# one draw in eight is a long numeral
rationals = st.integers(0, 7).flatmap(
    lambda k: long_rationals if k == 0 else st.sampled_from(RATIONALS))
ints = st.integers(0, 7).flatmap(lambda k: numerals if k == 0 else st.sampled_from(INTS))


def _line(*parts):
    return st.tuples(*parts).map(" ".join)


fs_lines = st.one_of(
    st.sampled_from(["kind: stationary", "kind: table", "kind: markov", "kind: other", "junk",
                     "# note", ""]),
    _line(st.just("interval:"), rationals, rationals),
    _line(st.just("default:"), rationals, rationals),
    _line(st.just("node"), st.sampled_from(SITUATIONS), rationals, rationals),
    _line(st.just("row"), st.sampled_from(SITUATIONS[:5]), rationals, rationals),
    _line(st.just("order:"), ints),
)
kinds = st.sampled_from(["kind: stationary", "kind: table", "kind: markov"])
fs_texts = st.tuples(kinds, st.lists(fs_lines, max_size=8)).map(
    lambda t: "\n".join([t[0], *t[1]]) + "\n")
seq_texts = st.text("01 \n#x", max_size=60)
test_lines = st.one_of(
    _line(st.just("levels:"), ints),
    _line(st.just("depth:"), st.one_of(ints, st.just("30"))),
    _line(st.just("level"), ints, st.sampled_from(SITUATIONS)),
    st.sampled_from(["tail: table 1 2 ; affine 1 0 1", "tail: table ; affine x", "junk", ""]),
)
test_texts = st.lists(test_lines, max_size=8).map(lambda lines: "\n".join(lines) + "\n")
kelly_args = st.builds("{},{}".format, rationals, st.sampled_from(["on-one", "on-zero", "up"]))
# cut members of 23-3,000 bits: Hypothesis runs a test with at least 2,000 stack frames free,
# so only the longest reach the recursion limit
deep_members = st.builds(str.__mul__, st.sampled_from("01"), st.one_of(st.integers(23, 3000), st.just(3000)))


@st.composite
def encoded(draw, text: str) -> bytes:
    """text's UTF-8 bytes; one draw in sixteen with a byte put in that makes them no UTF-8."""
    data = text.encode()
    if draw(st.integers(0, 15)):
        return data
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from([b"\xff", b"\xfe", b"\xc3", b"\x80", b"\xed\xa0\x80"])) + data[at:]


@st.composite
def with_bytes(draw, lines):
    """A drawn (argv, {name: text}) of ``lines``, each text encoded."""
    argv, files = draw(lines)
    return argv, {name: draw(encoded(text)) for name, text in files.items()}


@st.composite
def command_lines(draw):
    """(argv naming its files by bare name, {name: text}); missing.fs is never written."""
    files = {"a.fs": draw(fs_texts)}
    command = draw(st.sampled_from(["local", "cutprob", "sample", "analyze"]))
    if command == "local":
        return ["local", "--interval", draw(rationals), draw(rationals),
                "--gamble", draw(rationals), draw(rationals)], files
    fs = draw(st.sampled_from(["a.fs", "missing.fs"]))
    if command == "cutprob":
        if draw(st.integers(0, 3)):
            cut = ",".join(draw(st.lists(st.sampled_from(SITUATIONS), min_size=1, max_size=4)))
            cond = draw(st.sampled_from(SITUATIONS))
        else:  # one member of a well-formed system: exit 0 past 22 bits, exit 4 past the recursion limit
            fs, files["a.fs"] = "a.fs", dump_forecasting_system(draw(systems()))
            cut, cond = draw(deep_members), "@"
        argv = ["cutprob", "--fs", fs, "--cut", cut, "--cond", cond]
        if draw(st.booleans()):
            argv.append("--lower")
        return argv, files
    if command == "sample":
        return ["sample", "--fs", fs, "--selector", draw(st.sampled_from(SELECTORS)),
                "--n", str(draw(st.integers(-2, 40))),
                "--seed", str(draw(st.integers(-(1 << 65), 1 << 65)))], files
    files["a.seq"] = draw(seq_texts)
    argv = ["analyze", "--fs", fs, "--seq", "a.seq"]
    # "--kelly=SPEC", so argparse does not read a spec like "-1,on-one" as a flag
    argv += [f"--kelly={spec}" for spec in draw(st.lists(kelly_args, max_size=3))]
    for t in range(draw(st.integers(0, 2))):
        files[f"{t}.test"] = draw(test_texts)
        argv += ["--test", f"{t}.test"]
    return argv, files


LONG = "1" * 5000


@pytest.mark.parametrize("argv, files", [
    (["local", "--interval", f"1/{LONG}", "1", "--gamble", "1", "0"], {}),
    (["local", "--interval", "0", "1", "--gamble", LONG, "0"], {}),
    (["analyze", "--fs", "a.fs", "--seq", "a.seq", f"--kelly=1/{LONG},on-one"],
     {"a.fs": "kind: stationary\ninterval: 1/2 1/2\n", "a.seq": "01\n"}),
    (["sample", "--fs", "a.fs", "--n", "3"], {"a.fs": f"kind: table\ndefault: 1/{LONG} 1\n"}),
    (["convert", "to-test", "--fs", "a.fs", "--process", "a.proc", "--out", "a.test"],
     {"a.fs": "kind: stationary\ninterval: 1/2 1/2\n", "a.proc": f"depth: 0\n@ {LONG}/{LONG}\n"}),
])
def test_numeral_past_the_int_str_limit_is_an_input_error(tmp_path, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("treebet: ") and "numeral over 4300 digits in rational " in err


def test_answers_past_the_int_str_limit_print_exactly(tmp_path):
    # 4,300-digit inputs parse, and their products print in full
    digits = "1" * 4300
    square = str(Decimal(int(digits) ** 2))
    assert len(square) > sys.get_int_max_str_digits()
    code, out, err = run(["local", "--interval", f"1/{digits}", "1", "--gamble", f"1/{digits}", "0"])
    assert (code, out, err) == (0, f"upper 1/{digits}  lower 1/{square}\n", "")
    (tmp_path / "a.fs").write_text(f"kind: stationary\ninterval: 1/{digits} 1\n")
    code, out, err = run(["cutprob", "--fs", str(tmp_path / "a.fs"), "--cut", "11", "--lower"])
    assert (code, out, err) == (0, f"1/{square}\n", "")


def _decimal_fraction(text: str) -> Fraction:
    """A rational written past the int-from-str limit, read through Decimal integers."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def test_convert_past_the_int_str_limit(tmp_path):
    ones = "1" * 4300
    big = int(ones)
    # level 0 {111} under [0, 1/big]: the value at 1 has a denominator near 2 * big**2
    (tmp_path / "a.fs").write_text(f"kind: stationary\ninterval: 0 1/{ones}\n")
    (tmp_path / "a.test").write_text("levels: 1\ndepth: 3\nlevel 0 111\n")
    code, out, err = run(["convert", "to-martingale", "--fs", str(tmp_path / "a.fs"),
                          "--test", str(tmp_path / "a.test"), "--levels", "0",
                          "--out", str(tmp_path / "a.proc")])
    assert (code, err) == (0, "")
    lines = (tmp_path / "a.proc").read_text().splitlines()
    assert lines[0] == "depth: 3" and max(map(len, lines)) > sys.get_int_max_str_digits()
    fs = parse_forecasting_system((tmp_path / "a.fs").read_text())
    want = assemble_test_supermartingale(fs, parse_test((tmp_path / "a.test").read_text()), 0)
    written = dict(line.split() for line in lines[1:])
    assert [format_situation(s) for s in situations_up_to(3)] == list(written)
    assert [_decimal_fraction(v) for v in written.values()] == list(want.values.values())
    # the file holds numerals past the input limit, so it is refused on reading, at the first such line
    code, out, err = run(["convert", "to-test", "--fs", str(tmp_path / "a.fs"),
                          "--process", str(tmp_path / "a.proc"), "--out", str(tmp_path / "a.t")])
    assert (code, out) == (2, "")
    assert err.startswith("treebet: line 4: numeral over 4300 digits in rational ")

    # level 1 {00} under [1/big, 1/2] twice: upper probability (1 - 1/big)**2
    (tmp_path / "b.fs").write_text(
        f"kind: table\ndefault: 1/2 1/2\nnode @ 1/{ones} 1/2\nnode 0 1/{ones} 1/2\n")
    (tmp_path / "b.test").write_text("levels: 2\ndepth: 2\nlevel 1 00\n")
    code, out, err = run(["convert", "to-martingale", "--fs", str(tmp_path / "b.fs"),
                          "--test", str(tmp_path / "b.test"), "--levels", "1",
                          "--out", str(tmp_path / "b.proc")])
    ratio = f"{Decimal((big - 1) ** 2)}/{Decimal(big ** 2)}"
    assert (code, out, err) == (3, "", f"treebet: level 1 over budget: {ratio} > 1/2\n")
    assert not (tmp_path / "b.proc").exists()


def run_in_tmp(argv, files) -> tuple[int, str]:
    """(exit code, stderr) of ``argv`` with its bare file names, holding their bytes, in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [str(Path(tmp) / a) if a in files or a.startswith(("missing.", "out.")) else a
                for a in argv]
        code, _, err = run(argv)
    return code, err


@settings(max_examples=500, deadline=None)
@given(with_bytes(command_lines()))
def test_every_command_line_ends_in_a_documented_exit_code(case):
    code, err = run_in_tmp(*case)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.startswith("treebet: ")


# seven draws in eight: the usual file or argument, but not always
mostly = st.integers(0, 7).map(lambda k: k < 7)
# numerals up to the 4,300-digit limit, which parse, and whose products pass it
valid_long = st.builds(str.__mul__, st.sampled_from("139"), st.integers(4000, 4300))
# .proc values: one draw in sixteen from ``rationals``, so whole files often parse
proc_values = st.integers(0, 15).flatmap(lambda k: rationals if k == 0 else st.one_of(
    st.sampled_from(["1", "1", "0", "2", "1/2", "3/2"]), st.builds("1/{}".format, valid_long)))


# depths whose 2**(depth + 1) - 1 values no file holds, nor memory
huge_depths = st.sampled_from(["100000000000", "4294967296"])


@st.composite
def proc_texts(draw):
    """A .proc text of depth 0-3: every situation once, constant or not, or a few lines."""
    depth, k = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    constant = draw(proc_values)
    if k == 0:
        lines = draw(st.lists(_line(st.sampled_from(SITUATIONS), proc_values), max_size=8))
    else:
        lines = [f"{format_situation(s)} {constant if k == 1 else draw(proc_values)}"
                 for s in situations_up_to(depth)]
    head = draw(st.one_of(st.just(str(depth)), ints, huge_depths))
    return "\n".join([f"depth: {head}", *lines]) + "\n"


# systems with valid long numerals: [0, 1/N], or [1/N, 1/2] at @ and 0
long_systems = st.builds(
    lambda n, table: Table(interval("1/2"), {"": interval(Fraction(1, n), "1/2"),
                                             "0": interval(Fraction(1, n), "1/2")})
    if table else Stationary(interval(0, Fraction(1, n))),
    valid_long.map(int), st.booleans())


@st.composite
def kelly_proc_texts(draw, fs):
    """The .proc text of a Kelly process of ``fs``, a supermartingale, when it has one."""
    stake, direction = parsed(draw(kelly_specs)[0])
    try:
        return dump_process(kelly_process(fs, stake, direction, draw(st.integers(0, 3))))
    except DomainError:  # a bet against a {0} or {1} forecast
        return draw(proc_texts())


@st.composite
def convert_test_texts(draw):
    """A .test text: well-formed with members to depth 3, or arbitrary lines."""
    if not draw(st.integers(0, 3)):
        return draw(test_texts)
    num_levels = draw(st.integers(1, 3))
    lines = [f"levels: {num_levels}", f"depth: {draw(st.sampled_from(['3', '3', '2', '30']))}"]
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["tail: table 1 2 ; affine 1 0 1",
                                           "tail: table ; affine 2 0 1"])))
    for _ in range(draw(st.integers(0, 4))):
        lines.append(f"level {draw(st.integers(0, num_levels - 1))} "
                     f"{draw(st.sampled_from(SITUATIONS[:5]))}")
    return "\n".join(lines) + "\n"


LEVELS = ["0", "1", "2", "3", "-1", "40"]
rho_args = st.one_of(
    st.sampled_from(["table 1 2 ; affine 1 0 1", "table ; affine 1 0 1", "table ; affine 2 1 1",
                     "table ; affine 0 0 1", "table 3 1 ; affine 1 0 1", "affine 1 0 1",
                     "table ; affine x", ""]),
    st.builds("table ; affine 1 {} 1".format, ints),
)


@st.composite
def convert_lines(draw):
    """(argv naming its files by bare name, {name: text}) for one convert direction."""
    fs = draw(st.integers(0, 5).flatmap(
        lambda k: st.none() if k == 0 else long_systems if k < 3 else systems()))
    files = {"a.fs": draw(fs_texts) if fs is None else dump_forecasting_system(fs)}
    direction = draw(st.sampled_from(["to-test", "to-martingale", "schnorr-from-martingale",
                                      "universal"]))
    argv = ["convert", direction]
    if direction == "universal":  # the inputs come first, as argparse wants them together
        for t in range(draw(st.integers(0, 2))):
            files[f"{t}.test"] = draw(convert_test_texts())
            argv.append(f"{t}.test")
    argv += ["--fs", "a.fs" if draw(mostly) else "missing.fs", "--out", "out.x"]
    if direction in ("to-test", "schnorr-from-martingale") and draw(mostly):
        kelly = fs is not None and draw(st.booleans())
        files["a.proc"] = draw(kelly_proc_texts(fs) if kelly else proc_texts())
        argv += ["--process", "a.proc" if draw(mostly) else "missing.proc"]
    if direction == "to-martingale":
        if draw(mostly):
            files["a.test"] = draw(convert_test_texts())
            argv += ["--test", "a.test"]
        if draw(mostly):
            argv.append(f"--levels={draw(st.sampled_from(LEVELS))}")
    if direction == "schnorr-from-martingale" and draw(mostly):
        argv.append(f"--rho={draw(rho_args)}")
    return argv, files


@settings(max_examples=300, deadline=None)
@given(with_bytes(convert_lines()))
def test_every_convert_line_ends_in_a_documented_exit_code(case):
    code, err = run_in_tmp(*case)
    assert code in (0, 2, 3, 4)
    # exit 3 is a failed check, reported by its own lines on stdout or stderr
    if code in (2, 4):
        assert err.startswith("treebet: ") and err.removeprefix("treebet: ").strip()
