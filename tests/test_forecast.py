"""Forecasting systems, the cumulative bound, and growth functions."""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treebet import (
    GrowthFunction,
    Markov,
    Stationary,
    Table,
    affine,
    cumulative_bound,
    integer_log_bound,
    interval,
    is_non_degenerate,
    is_precise,
)
from treebet.errors import ConfigError, DomainError
from treebet.forecast import ForecastCursor, IntervalForecast, local_scale
from treebet.tree import bits, situations_up_to

from gen import FAIR, WIDE, rand_system
from oracles import forecast_by_name, integer_log_bound_by_doubling


def test_interval_validation():
    with pytest.raises(DomainError):
        interval("7/10", "2/5")
    with pytest.raises(DomainError):
        interval("-1/2", "1/2")
    with pytest.raises(DomainError):  # its message is past the int-string limit
        interval(Fraction(10**5000), 2)
    assert interval("1/3").precise


@pytest.mark.parametrize("lo, hi", [(0.5, 0.75), (Fraction(1, 2), 0.75), (True, True), (Decimal("0.5"), 1), ("1/2", 1)])
def test_interval_forecast_refuses_a_bound_that_is_not_rational(lo, hi):
    # a float bound would make cumulative_bound return a float, and the exact folds fail on it
    bad = next(v for v in (lo, hi) if not isinstance(v, (int, Fraction)) or isinstance(v, bool))
    with pytest.raises(DomainError) as info:
        IntervalForecast(lo, hi)
    assert str(info.value) == f"forecast bound is not rational: {bad!r}"
    # interval() converts through Fraction first, so every answer over it stays exact
    made = interval(0.5, 0.75)
    assert made == IntervalForecast(Fraction(1, 2), Fraction(3, 4))
    bound = cumulative_bound(Stationary(made), "11")
    assert type(bound) is Fraction and bound == 4


def test_forecast_lookup_stationary():
    assert FAIR.at("0110") == interval("1/2")


def test_forecast_lookup_table_override():
    fs = Table(interval("1/2"), {"": interval("2/5", "7/10")})
    assert fs.at("") == interval("2/5", "7/10")
    assert fs.at("01") == interval("1/2")


def test_forecast_lookup_markov_context():
    fs = Markov(1, {"": interval("1/2"), "0": interval("1/2"), "1": interval("3/10")})
    assert fs.at("01") == interval("3/10")
    assert fs.at("") == interval("1/2")
    assert fs.at("10") == interval("1/2")


def test_markov_incomplete_rows_rejected():
    with pytest.raises(ConfigError):
        Markov(1, {"": interval("1/2"), "1": interval("1/2")})


def test_non_degeneracy():
    assert is_non_degenerate(FAIR)
    assert not is_non_degenerate(Table(interval("1/2"), {"": interval(0, 0)}))
    assert is_non_degenerate(Stationary(interval(0, 1)))


def test_cursor_tracks_system(seed=5):
    rng = random.Random(seed)
    for _ in range(40):
        fs = rand_system(rng, depth=5)
        cursor = ForecastCursor(fs)
        prefix = ""
        for _ in range(7):
            assert cursor.current() == fs.at(prefix)
            bit = rng.choice("01")
            cursor.push(bit)
            prefix += bit


@pytest.mark.parametrize("bit", ["x", "2", "", "01", " 1", 0, 1])
@pytest.mark.parametrize("fs", [FAIR, Table(interval("1/2"), {"1": interval(0, 1)}),
                                Markov(1, {"": FAIR.interval, "0": interval(0), "1": interval(1)})],
                         ids=["stationary", "table", "markov"])
def test_cursor_refuses_anything_but_a_bit(fs, bit):
    # _follow reads any non-'1' as '0', so the cursor checks; a refused push leaves it where it was
    cursor = ForecastCursor(fs)
    cursor.push("1")
    with pytest.raises(DomainError) as info:
        cursor.push(bit)
    assert str(info.value) == f"not a bit: {bit!r}"
    assert cursor.current() is fs.at("1")


# distinct objects, two of them equal, and {0}, {1}, [0, 1]
POOL = [interval("1/2"), interval("1/2"), interval("2/5", "7/10"), interval(0), interval(1),
        interval(0, 1), interval("1/3", "5/6")]
forecasts = st.sampled_from(POOL)


def situations(max_depth: int):
    return st.integers(0, max_depth).flatmap(
        lambda n: st.builds(bits, st.integers(0, (1 << n) - 1), st.just(n)))


@st.composite
def systems(draw):
    """Any kind: tables with no overrides or some deeper than the walks below,
    Markov orders 0-3, sometimes with an unused row longer than the order."""
    kind = draw(st.sampled_from(["stationary", "table", "markov"]))
    if kind == "stationary":
        return Stationary(draw(forecasts))
    if kind == "table":
        return Table(draw(forecasts), draw(st.dictionaries(situations(12), forecasts, max_size=8)))
    order = draw(st.integers(0, 3))
    rows = {s: draw(forecasts) for s in situations_up_to(order)}
    if draw(st.booleans()):
        rows[draw(situations(order + 2)).rjust(order + 1, "0")] = draw(forecasts)
    return Markov(order, rows)


def listed_by_name(fs):
    if isinstance(fs, Stationary):
        return [fs.interval]
    if isinstance(fs, Table):
        return [fs.default, *fs.overrides.values()]
    return list(fs.rows.values())


@settings(max_examples=150, deadline=None)
@given(systems(), st.randoms(use_true_random=False))
def test_positional_rule_matches_name_lookup(fs, rng):
    assert Counter(map(id, fs.intervals)) == Counter(map(id, listed_by_name(fs)))
    for s in situations_up_to(9):
        assert fs.at(s) is forecast_by_name(fs, s)
    for _ in range(2):
        cursor, path = ForecastCursor(fs), ""
        for _ in range(300):
            assert cursor.current() is forecast_by_name(fs, path)
            bit = rng.choice("01")
            cursor.push(bit)
            path += bit
        # the walk keeps a bounded position, not the path's
        assert cursor._position < 1 << 14


@settings(max_examples=150, deadline=None)
@given(systems(), st.integers(0, 10))
def test_level_rows_match_name_lookup(fs, w):
    # the slot row of level w, as check_supermartingale, bound_check and kelly_process read it
    row = fs._level(w)
    assert len(row) == 1 << w
    assert all(fs.intervals[k] is forecast_by_name(fs, bits(j, w)) for j, k in enumerate(row))


@st.composite
def level_cases(draw):
    """A system of any kind and a level w in 0-12: Markov orders 0-4, and tables whose overrides sit
    on, above and below the level, or all above it."""
    w = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["stationary", "table", "markov"]))
    if kind == "stationary":
        return Stationary(draw(forecasts)), w
    if kind == "table":
        past = draw(st.booleans())  # the level past the deepest override, or overrides anywhere
        depths = st.integers(0, w - 1) if past and w else st.integers(0, 14)
        names = depths.flatmap(lambda n: st.builds(bits, st.integers(0, (1 << n) - 1), st.just(n)))
        overrides = draw(st.dictionaries(names, forecasts, max_size=10))
        if not past:  # and one on the level itself
            overrides[bits(draw(st.integers(0, (1 << w) - 1)), w)] = draw(forecasts)
        return Table(draw(forecasts), overrides), w
    order = draw(st.integers(0, 4))
    return Markov(order, {s: draw(forecasts) for s in situations_up_to(order)}), w


@settings(max_examples=300, deadline=None)
@given(level_cases())
def test_level_row_matches_slot_per_position(case):
    fs, w = case
    assert fs._level(w) == [fs._slot(p) for p in range(1 << w, 2 << w)]


def test_level_row_patches_table_overrides_on_their_level():
    fs = Table(interval("1/2"), {"": interval(0), "10": interval(1), "011": interval("1/3"), "01": interval(0, 1)})
    assert [fs._level(w) for w in range(4)] == [[1], [0, 0], [0, 4, 2, 0], [0, 0, 0, 3, 0, 0, 0, 0]]
    assert fs._level(12) == [0] * (1 << 12)
    markov = Markov(2, {s: interval("1/2") for s in situations_up_to(2)})
    assert [markov._level(w) for w in range(5)] == [[0], [1, 2], [3, 4, 5, 6], [3, 4, 5, 6] * 2, [3, 4, 5, 6] * 4]


def test_cumulative_bound_fair_coin():
    assert cumulative_bound(FAIR, "101") == 8


def test_cumulative_bound_wide():
    # one-step scale is min(3/5, 7/10) = 3/5, squared inverse
    assert cumulative_bound(WIDE, "01") == Fraction(25, 9)


def test_cumulative_bound_root():
    assert cumulative_bound(WIDE, "") == 1


def test_cumulative_bound_recurrence(seed=11):
    rng = random.Random(seed)
    for _ in range(100):
        fs = rand_system(rng, non_degenerate=True)
        s = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        for bit in "01":
            assert cumulative_bound(fs, s + bit) == cumulative_bound(fs, s) / local_scale(fs.at(s))


def test_cumulative_bound_degenerate_rejected():
    fs = Table(interval("1/2"), {"1": interval(1, 1)})
    with pytest.raises(DomainError):
        cumulative_bound(fs, "10")


@pytest.mark.parametrize("x, expected", [(1, 1), (3, 2), (8, 3), (Fraction(9, 8), 1)])
def test_integer_log_bound_cases(x, expected):
    assert integer_log_bound(x) == expected


def test_integer_log_bound_minimal(seed=3):
    rng = random.Random(seed)
    for _ in range(200):
        x = 1 + Fraction(rng.randint(0, 4000), rng.randint(1, 40))
        level = integer_log_bound(x)
        assert (1 << level) >= x
        assert level == 1 or (1 << (level - 1)) < x


def test_integer_log_bound_domain():
    with pytest.raises(DomainError):
        integer_log_bound(Fraction(1, 2))


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"),
                               Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"), Decimal("-Infinity")])
def test_integer_log_bound_refuses_a_non_finite_float(x):
    # Fraction(x) raises ValueError or OverflowError on these, before any domain check
    with pytest.raises(DomainError) as info:
        integer_log_bound(x)
    assert str(info.value) == f"integer_log_bound's x is not finite: {x!r}"


# powers of two and their neighbours (an integer one off, or a fraction just off), and 3,000-bit values
near_powers = st.builds(lambda k, d, den: Fraction((1 << k) * den + d, den),
                        st.integers(0, 3000), st.integers(-1, 1), st.sampled_from([1, 2, 7, 1 << 40]))
wide_values = st.builds(Fraction, st.integers(1, 1 << 3000), st.integers(1, 1 << 3000))


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_powers, wide_values).filter(lambda x: x >= 1))
def test_integer_log_bound_matches_doubling(x):
    assert integer_log_bound(x) == integer_log_bound_by_doubling(x)


@given(st.fractions(max_value=Fraction(1), max_denominator=1 << 20).filter(lambda x: x < 1))
def test_integer_log_bound_refuses_below_one_as_doubling_does(x):
    with pytest.raises(DomainError) as fast:
        integer_log_bound(x)
    with pytest.raises(DomainError) as slow:
        integer_log_bound_by_doubling(x)
    assert str(fast.value) == str(slow.value)


def test_is_precise():
    assert is_precise(FAIR)
    assert not is_precise(WIDE)


def test_growth_function_evaluation():
    g = GrowthFunction((0, 0, 0), 1, 0, 1)
    assert [g(n) for n in range(6)] == [0, 0, 0, 3, 4, 5]
    assert affine(2, 1, 3)(4) == 3


def test_growth_function_validation():
    with pytest.raises(DomainError):
        GrowthFunction((3, 1))
    with pytest.raises(DomainError):
        GrowthFunction((), 0, 0, 1)
    with pytest.raises(DomainError):
        GrowthFunction((9,), 1, 0, 1)  # tail would drop to 1


@pytest.mark.parametrize(
    "args, bad",
    [(((2.7, "3"), 1.5), "2.7"), (((2, "3"),), "'3'"), (((), 1.5), "1.5"),
     (((), 1, Fraction(1, 2)), "Fraction(1, 2)"), (((1,), 1, 0, 1.0), "1.0"),
     (((True, 2),), "True"), (((), 1, False), "False")],
    ids=["prefix-float", "prefix-str", "a", "b", "c", "prefix-bool", "b-bool"],
)
def test_growth_function_refuses_non_integers(args, bad):
    # nothing is truncated to an integer, as Process refuses float values; a bool would be
    # written 'True', which the .test reader refuses
    with pytest.raises(DomainError) as info:
        GrowthFunction(*args)
    assert str(info.value) == f"growth function values must be integers, got {bad}"


def test_growth_first_at_least_and_last_at_most():
    g = GrowthFunction((1, 2, 4, 8), 1, 4, 1)
    assert g.first_at_least(4) == 2
    assert g.first_at_least(9) == 5
    assert g.last_at_most(8) == 4
    assert g.last_at_most(0) == -1
    assert affine(2).last_at_most(5) == 2
    assert GrowthFunction((0,), 1, 0, 10**7).first_at_least(1 << 40) == 10**7 << 40  # no search bound


def test_growth_precompose():
    e = affine(1)
    sigma = e.precompose_affine(4, 3)
    assert [sigma(k) for k in range(4)] == [3, 7, 11, 15]
    tabled = GrowthFunction((0, 1, 1, 2, 3, 5, 8), 2, 0, 1)
    composed = tabled.precompose_affine(3, 1)
    assert [composed(k) for k in range(6)] == [tabled(3 * k + 1) for k in range(6)]
