"""Forecasting systems, the cumulative bound, and growth functions."""

import random
from collections import Counter
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
from treebet.expectation import _endpoints
from treebet.forecast import ForecastCursor, local_scale
from treebet.tree import bits, situations_up_to

from gen import FAIR, WIDE, rand_system
from oracles import forecast_by_name


def test_interval_validation():
    with pytest.raises(DomainError):
        interval("7/10", "2/5")
    with pytest.raises(DomainError):
        interval("-1/2", "1/2")
    with pytest.raises(DomainError):  # its message is past the int-string limit
        interval(Fraction(10**5000), 2)
    assert interval("1/3").precise


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
@given(systems(), situations(6).filter(bool), st.integers(0, 6), st.booleans())
def test_endpoint_rows_match_name_lookup(fs, s, height, lower):
    scale, rows = _endpoints(fs, s, height, lower)
    assert len(rows) == height
    for w, row in enumerate(rows):
        want = []
        for j in range(1 << w):
            i = forecast_by_name(fs, s + bits(j, w))
            want.append((i.lo, i.hi) if lower else (i.hi, i.lo))
        assert [(Fraction(a, scale), Fraction(b, scale)) for a, b in row] == want


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


def test_growth_first_at_least_and_last_at_most():
    g = GrowthFunction((1, 2, 4, 8), 1, 4, 1)
    assert g.first_at_least(4) == 2
    assert g.first_at_least(9) == 5
    assert g.last_at_most(8) == 4
    assert g.last_at_most(0) == -1
    assert affine(2).last_at_most(5) == 2


def test_growth_precompose():
    e = affine(1)
    sigma = e.precompose_affine(4, 3)
    assert [sigma(k) for k in range(4)] == [3, 7, 11, 15]
    tabled = GrowthFunction((0, 1, 1, 2, 3, 5, 8), 2, 0, 1)
    composed = tabled.precompose_affine(3, 1)
    assert [composed(k) for k in range(6)] == [tabled(3 * k + 1) for k in range(6)]
