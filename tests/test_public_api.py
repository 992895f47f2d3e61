"""Hostile arguments at the public API: each callable treebet exports answers or raises a TreebetError.

The property is the library's twin of test_stream.py's documented-exit-code properties: bools,
floats, NaNs, Decimals, negatives, None and strings go where numbers, situations and collections are
expected, and nothing but a TreebetError may escape.  A wrong kind of forecasting system, process,
test, forecast, gamble or growth function stays duck-typed: those arguments are always valid here.
"""

import math
import numbers
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import treebet as tb
from treebet import TreebetError
from treebet.sampling import sample_path

from gen import ones_test

FS = tb.Stationary(tb.interval("2/5", "3/5"))
FORECAST = tb.interval("2/5", "3/5")
PROCESS = tb.kelly_process(FS, Fraction(1, 2), "on-one", 3)
TEST = ones_test(3, tail=tb.affine(1))
GROWTH = tb.GrowthFunction((0, 1), 1, 1, 1)
GAMBLE = tb.DepthGamble.constant(2, 1)
LOCAL = tb.gamble(1, -1)

_NUMBERS = [True, False, 1.5, -0.0, math.nan, math.inf, Decimal("NaN"), Decimal("1.5"), Decimal("-Infinity"),
            -1, -7, None, "3", [1], b"1"]
_COLLECTIONS = [True, 1.5, math.nan, Decimal("NaN"), -1, None, "01", ""]

# what a parameter of each kind is sent in place of its valid value; depths stay at 10 or less
HOSTILE = {
    "natural": [*_NUMBERS, *range(-3, 11)],
    "integer": [*_NUMBERS, *range(-3, 11)],
    "rational": [*_NUMBERS, "abc", "1/0", "nan", "1e9", "1e999999999", Decimal("1E-999999999"), Fraction(-1, 2), 7],
    "situation": [*_NUMBERS, "2", "0 1", "@", "", "0101", b"01", ["0"]],
    "bit": [*_NUMBERS, "01", "", "2"],
    "word": [*_NUMBERS, "sideways", ""],
    "cut": [*_COLLECTIONS, [1], [None], [1.5], ["0", "01"], ["2"], [b"0"], {"0": 1}],
    "levels": [*_COLLECTIONS, [None], ["01"], [[1]], [True], [frozenset({"2"})]],
    "tests": _COLLECTIONS,
    "rationals": [*_COLLECTIONS, [True], [math.nan], [None], [1.5, 1, 1, 1], ["1"] * 4],
    "integers": [*_COLLECTIONS, [1.5], [math.nan], [-1], [None], [Decimal("NaN")], [True]],
    "values": [*_COLLECTIONS, [1], {1: 1}, {"": 1, "0": 1, "1": 1, "2": 1}, {"": 1, "0": 1, "1": None},
               {"": 1, "0": 1, "1": math.nan}, {"": 1, "0": 1, "1": "1"}],
    "rows": [*_COLLECTIONS, [1], {1: FORECAST}, {"2": FORECAST}, {None: FORECAST},
             {"": FORECAST, "0": FORECAST, "1": FORECAST, 5: FORECAST}],
}

_ROWS = {"": FORECAST, "0": FORECAST, "1": FORECAST}


def _one(s, n):
    """A schedule reporting 1 everywhere, for rationalize."""
    return Fraction(1)


# label: (callable, ((kind, valid value), ...)); a kind HOSTILE has no entry for is never replaced
CALLS = {
    "DepthGamble": (tb.DepthGamble, (("natural", 1), ("rationals", (Fraction(1), Fraction(2))))),
    "DepthGamble.constant": (tb.DepthGamble.constant, (("natural", 2), ("rational", 1))),
    "DepthGamble.from_function": (tb.DepthGamble.from_function, (("natural", 2), ("fn", len))),
    "DepthGamble.indicator": (tb.DepthGamble.indicator, (("cut", {"01"}), ("natural", 2))),
    "DepthGamble.at": (GAMBLE.at, (("situation", "01"),)),
    "cond_upper": (tb.cond_upper, (("fs", FS), ("gamble", GAMBLE), ("situation", "0"))),
    "cond_lower": (tb.cond_lower, (("fs", FS), ("gamble", GAMBLE), ("situation", "0"))),
    "cut_upper_prob": (tb.cut_upper_prob, (("fs", FS), ("cut", {"01", "1"}), ("situation", "0"))),
    "cut_lower_prob": (tb.cut_lower_prob, (("fs", FS), ("cut", {"01", "1"}), ("situation", "0"))),
    "cut_value_map": (tb.cut_value_map, (("fs", FS), ("cut", {"01", "1"}), ("natural", 2))),
    "cylinder_bounds": (tb.cylinder_bounds, (("fs", FS), ("situation", "01"))),
    "ForecastCursor.push": (tb.ForecastCursor(FS).push, (("bit", "1"),)),
    "ForecastCursor.current": (tb.ForecastCursor(FS).current, ()),
    "IntervalForecast": (tb.IntervalForecast, (("rational", Fraction(1, 3)), ("rational", Fraction(1, 2)))),
    "Markov": (tb.Markov, (("natural", 1), ("rows", _ROWS))),
    "Stationary": (tb.Stationary, (("forecast", FORECAST),)),
    "Table": (tb.Table, (("forecast", FORECAST), ("rows", {"0": FORECAST}))),
    "cumulative_bound": (tb.cumulative_bound, (("fs", FS), ("situation", "011"))),
    "integer_log_bound": (tb.integer_log_bound, (("rational", 5),)),
    "interval": (tb.interval, (("rational", "1/3"), ("rational", "1/2"))),
    "is_non_degenerate": (tb.is_non_degenerate, (("fs", FS),)),
    "is_precise": (tb.is_precise, (("fs", FS),)),
    "GrowthFunction": (tb.GrowthFunction, (("integers", (0, 1)), ("integer", 1), ("integer", 1), ("integer", 1))),
    "GrowthFunction.__call__": (GROWTH, (("natural", 3),)),
    "GrowthFunction.first_at_least": (GROWTH.first_at_least, (("integer", 4),)),
    "GrowthFunction.last_at_most": (GROWTH.last_at_most, (("integer", 4),)),
    "GrowthFunction.precompose_affine": (GROWTH.precompose_affine, (("integer", 4), ("integer", 3))),
    "affine": (tb.affine, (("integer", 2), ("integer", 1), ("integer", 1))),
    "LocalGamble": (tb.LocalGamble, (("rational", Fraction(1)), ("rational", Fraction(-1)))),
    "gamble": (tb.gamble, (("rational", 1), ("rational", "-1/2"))),
    "lower_expectation": (tb.lower_expectation, (("forecast", FORECAST), ("local", LOCAL))),
    "upper_expectation": (tb.upper_expectation, (("forecast", FORECAST), ("local", LOCAL))),
    "precise_expectation": (tb.precise_expectation, (("rational", Fraction(1, 2)), ("local", LOCAL))),
    "Process": (tb.Process, (("natural", 1), ("values", {"": 1, "0": 1, "1": 1}))),
    "Process.from_function": (tb.Process.from_function, (("natural", 2), ("fn", len))),
    "Process.at": (PROCESS.at, (("situation", "01"),)),
    "Process.delta": (PROCESS.delta, (("situation", "01"),)),
    "Process.with_root": (PROCESS.with_root, (("rational", Fraction(1)),)),
    "Process.max_value": (PROCESS.max_value, ()),
    "bound_check": (tb.bound_check, (("fs", FS), ("process", PROCESS))),
    "capital_along": (tb.capital_along, (("process", PROCESS), ("situation", "011"))),
    "check_supermartingale": (tb.check_supermartingale, (("fs", FS), ("process", PROCESS))),
    "check_test_supermartingale": (tb.check_test_supermartingale, (("fs", FS), ("process", PROCESS))),
    "kelly_gamble": (tb.kelly_gamble, (("forecast", FORECAST), ("word", "on-zero"))),
    "kelly_process": (tb.kelly_process, (("fs", FS), ("rational", "1/2"), ("word", "on-one"), ("natural", 3))),
    "rationalize": (tb.rationalize, (("fn", _one), ("fs", FS), ("natural", 2))),
    "ville_threshold": (tb.ville_threshold, (("fs", FS), ("process", PROCESS), ("rational", 2))),
    "RandomnessTest": (tb.RandomnessTest, (("levels", ({"1"}, {"11"})), ("natural", 2), ("growth", None))),
    "RandomnessTest.level": (TEST.level, (("natural", 1),)),
    "RandomnessTest.level_below": (TEST.level_below, (("natural", 1), ("natural", 2))),
    "RandomnessTest.level_at_least": (TEST.level_at_least, (("natural", 1), ("natural", 2))),
    "RandomnessTest.deepest_member": (TEST.deepest_member, ()),
    "approx_level_prob": (tb.approx_level_prob, (("fs", FS), ("test", TEST), ("natural", 1), ("natural", 2))),
    "assemble_schnorr_supermartingale": (tb.assemble_schnorr_supermartingale,
                                         (("fs", FS), ("test", TEST), ("natural", 3))),
    "assemble_test_supermartingale": (tb.assemble_test_supermartingale,
                                      (("fs", FS), ("test", TEST), ("natural", 1), ("natural", 3), ("natural", 3))),
    "clip_to_budget": (tb.clip_to_budget, (("fs", FS), ("test", TEST))),
    "combine_universal": (tb.combine_universal, (("fs", FS), ("tests", [TEST, TEST]))),
    "derive_tail_bound_precise": (tb.derive_tail_bound_precise, (("fs", tb.Stationary(tb.interval("1/2"))),
                                                                 ("test", TEST))),
    "levels_hit": (tb.levels_hit, (("test", TEST), ("situation", "0111"))),
    "martingale_to_test": (tb.martingale_to_test, (("process", PROCESS), ("fs", FS))),
    "schnorr_supermartingale_from_test": (tb.schnorr_supermartingale_from_test,
                                          (("fs", FS), ("test", TEST), ("situation", "1"), ("natural", 1))),
    "schnorr_test_from_martingale": (tb.schnorr_test_from_martingale,
                                     (("process", PROCESS), ("growth", GROWTH), ("fs", FS))),
    "sigma_from_tailbound": (tb.sigma_from_tailbound, (("growth", GROWTH),)),
    "sigma_sharp": (tb.sigma_sharp, (("growth", GROWTH), ("integer", 9))),
    "supermartingale_from_test": (tb.supermartingale_from_test,
                                  (("fs", FS), ("test", TEST), ("natural", 1), ("natural", 3), ("situation", "1"))),
    "validate_ml_test": (tb.validate_ml_test, (("fs", FS), ("test", TEST))),
    "validate_schnorr_tail": (tb.validate_schnorr_tail, (("fs", FS), ("test", TEST), ("natural", 2))),
    "cut_status": (tb.cut_status, (("situation", "0"), ("cut", {"01", "1"}))),
    "minimal_antichain": (tb.minimal_antichain, (("cut", ["0", "01", "1"]),)),
    "relation": (tb.relation, (("situation", "0"), ("situation", "01"))),
    "sample_path": (sample_path, (("fs", FS), ("word", "uniform"), ("natural", 8), ("integer", 5))),
}

# exported callables that take no argument the property could make hostile: the error classes, the
# enums, the report records and the type aliases
NOT_CALLED = {"TreebetError", "ConfigError", "ContractError", "DomainError", "ParseError", "ResourceError",
              "CutStatus", "Relation", "LevelReport", "TailReport", "VilleThreshold", "ApproximationSchedule",
              "ForecastingSystem"}


def test_every_exported_callable_is_in_the_table():
    exported = {name for name, obj in vars(tb).items() if callable(obj) and not name.startswith("_")}
    assert exported - NOT_CALLED == {label.partition(".")[0] for label in CALLS} - {"sample_path"}


def test_every_table_entry_answers_its_valid_arguments():
    for label, (call, params) in CALLS.items():
        call(*(valid for _, valid in params))


@settings(max_examples=3000, deadline=None)
@given(st.sampled_from(sorted(CALLS)), st.data())
def test_hostile_arguments_raise_only_treebet_errors(label, data):
    call, params = CALLS[label]
    fuzzable = [i for i, (kind, _) in enumerate(params) if kind in HOSTILE]
    chosen = data.draw(st.sets(st.sampled_from(fuzzable), min_size=1)) if fuzzable else set()
    args = [data.draw(st.sampled_from(HOSTILE[kind]), label=f"{label} argument {i}") if i in chosen else valid
            for i, (kind, valid) in enumerate(params)]
    try:
        call(*args)
    except TreebetError:
        pass


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tb.interval("abc"), "forecast bound is not rational: 'abc'"),
        (lambda: tb.interval(None), "forecast bound is not rational: None"),
        (lambda: tb.gamble("1/0", 0), "gamble value is not rational: '1/0'"),
        (lambda: tb.kelly_process(FS, "x", "on-one", 2), "stake is not rational: 'x'"),
        (lambda: tb.ville_threshold(FS, PROCESS, "1/0"), "threshold is not rational: '1/0'"),
        (lambda: tb.integer_log_bound([1]), "integer_log_bound's x is not rational: [1]"),
        (lambda: tb.relation(True, "0"), "not a situation: True"),
        (lambda: tb.relation("0", None), "not a situation: None"),
        (lambda: tb.cut_status(1.5, ["0"]), "not a situation: 1.5"),
        (lambda: tb.cut_status("0", [1]), "not a situation: 1"),
        (lambda: tb.levels_hit(TEST, [1]), "not a situation: [1]"),
        (lambda: tb.cut_upper_prob(FS, {"0"}, True), "not a situation: True"),
        (lambda: tb.cut_lower_prob(FS, {"0"}, None), "not a situation: None"),
        (lambda: tb.supermartingale_from_test(FS, TEST, 0, 2, 1.5), "not a situation: 1.5"),
        (lambda: GAMBLE.at(10), "not a situation: 10"),
        (lambda: tb.cut_upper_prob(FS, True), "a cut is a collection of situations, not True"),
        (lambda: tb.minimal_antichain(None), "a cut is a collection of situations, not None"),
        (lambda: tb.RandomnessTest(None, 2), "a test's levels are a collection of cuts, not None"),
        (lambda: tb.RandomnessTest("01", 2), "a test's levels are a collection of cuts, not a string: '01'"),
        (lambda: tb.combine_universal(FS, None), "tests are a collection of randomness tests, not None"),
        (lambda: tb.DepthGamble(1, None), "gamble values are a sequence of rationals, not None"),
        (lambda: tb.Process(1, "01"), "process values are a mapping of situations to rationals, not a string: '01'"),
        (lambda: tb.Table(FORECAST, None), "table overrides are a mapping of situations to forecasts, not None"),
        (lambda: tb.Markov(1, None), "markov rows are a mapping of contexts to forecasts, not None"),
        (lambda: tb.Markov(0, {"": FORECAST, 5: FORECAST}), "not a situation: 5"),
        (lambda: tb.GrowthFunction(None), "a growth prefix is a collection of integers, not None"),
        (lambda: GROWTH(Decimal("NaN")), "n is not an integer: Decimal('NaN')"),
        (lambda: GROWTH(-1), "growth functions are defined on the naturals"),
        (lambda: GROWTH.first_at_least(Decimal("NaN")), "value is not an integer: Decimal('NaN')"),
        (lambda: GROWTH.last_at_most(math.nan), "bound is not an integer: nan"),
        (lambda: GROWTH.precompose_affine(Decimal("NaN"), 0), "m is not an integer: Decimal('NaN')"),
        (lambda: GROWTH.precompose_affine(1, 1.0), "k is not an integer: 1.0"),
        (lambda: GROWTH.precompose_affine(0, 0), "precompose needs m >= 1, k >= 0"),
        (lambda: tb.sigma_sharp(GROWTH, Decimal("NaN")), "cutoff is not an integer: Decimal('NaN')"),
        (lambda: tb.Process.from_function(1.5, len), "process depth is not an integer: 1.5"),
        (lambda: tb.rationalize(_one, FS, 2.0), "process depth is not an integer: 2.0"),
        (lambda: sample_path(FS, "low", 4, 1.5), "seed is not an integer: 1.5"),
        (lambda: sample_path(FS, "low", 4, "1"), "seed is not an integer: '1'"),
    ],
)
def test_each_refusal_names_its_parameter(call, message):
    with pytest.raises(TreebetError) as info:
        call()
    assert str(info.value) == message


def test_a_rational_whose_exponent_passes_the_digit_limit_is_refused_before_fraction_reads_it():
    # Fraction builds 10**|exponent| first: 10**999999999 runs for minutes in C, where no alarm
    # interrupts it, so the calls run in a child the timeout kills
    script = """if True:
        from decimal import Decimal
        import treebet as tb
        assert tb.gamble("1e9", Decimal("1.5")) == tb.gamble(10**9, 1.5)
        for x in ("1e999999999", " 1E+1_000_000 ", "1e" + "9" * 5000, Decimal("1E-999999999")):
            try:
                tb.gamble(x, 0)
            except tb.DomainError as exc:
                print(exc)
        """
    src = os.path.dirname(os.path.dirname(tb.__file__))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stderr == ""
    assert run.stdout.splitlines() == [
        "gamble value has an exponent past 4300: '1e999999999'",
        "gamble value has an exponent past 4300: ' 1E+1_000_000 '",
        f"gamble value has an exponent past 4300: '1e{'9' * 5000}'",
        "gamble value has an exponent past 4300: Decimal('1E-999999999')",
    ]


def test_negative_integers_stay_valid_where_they_are_defined():
    # a seed, a growth target and a bound may be negative; the answers are the non-negative ones'
    assert sample_path(FS, "uniform", 64, -1) == sample_path(FS, "uniform", 64, (1 << 64) - 1)
    assert GROWTH.first_at_least(-5) == 0 and GROWTH.last_at_most(-1) == -1
    assert tb.sigma_sharp(GROWTH, -3) == 0


class _Count:
    """An Integral that is no int, as numpy.int64 is."""

    def __init__(self, n):
        self.n = n

    def __int__(self):
        return self.n

    __index__ = __int__


numbers.Integral.register(_Count)


def test_an_integral_that_is_no_int_answers_as_its_int():
    # GrowthFunction takes any Integral for its table and affine tail, so its arguments do too
    growth = tb.GrowthFunction((_Count(0), 1), 1, _Count(1), 1)
    assert growth(_Count(5)) == GROWTH(5) and growth.first_at_least(_Count(4)) == GROWTH.first_at_least(4)
    assert GROWTH.last_at_most(_Count(7)) == GROWTH.last_at_most(7)
    assert GROWTH.precompose_affine(_Count(2), _Count(1)) == GROWTH.precompose_affine(2, 1)
    assert tb.sigma_sharp(GROWTH, _Count(9)) == tb.sigma_sharp(GROWTH, 9)
    assert sample_path(FS, "uniform", 64, _Count(5)) == sample_path(FS, "uniform", 64, 5)
