"""The brute-force oracles themselves: worked examples and guard rails."""

import random
from fractions import Fraction

import pytest

from treebet import DepthGamble, IntervalForecast, Stationary, Table, interval
from treebet.errors import DomainError, ResourceError

from gen import FAIR, WIDE, rand_interval
from oracles import (
    grid_candidates,
    lower_by_endpoint_enumeration,
    precise_expectation_by_paths,
    series_limit_probe,
    upper_by_endpoint_enumeration,
)


def test_path_sum_examples():
    assert precise_expectation_by_paths(FAIR, DepthGamble.indicator({"11"}, 2)) == Fraction(1, 4)
    assert precise_expectation_by_paths(FAIR, DepthGamble.constant(3, Fraction(2, 7))) == Fraction(2, 7)
    certain = Table(interval("1/2"), {"": IntervalForecast(Fraction(1), Fraction(1))})
    assert precise_expectation_by_paths(certain, DepthGamble.indicator({"1"}, 1)) == 1


def test_path_sum_rejects_imprecise():
    with pytest.raises(DomainError):
        precise_expectation_by_paths(WIDE, DepthGamble.constant(1, Fraction(1)))


def test_endpoint_enumeration_examples():
    assert upper_by_endpoint_enumeration(WIDE, DepthGamble.indicator({"10"}, 2)) == Fraction(21, 50)
    vacuous = Stationary(interval(0, 1))
    assert upper_by_endpoint_enumeration(vacuous, DepthGamble.indicator({"11"}, 2)) == 1
    assert lower_by_endpoint_enumeration(vacuous, DepthGamble.indicator({"11"}, 2)) == 0
    g = DepthGamble(2, (Fraction(1), Fraction(-2), Fraction(0), Fraction(5)))
    assert upper_by_endpoint_enumeration(FAIR, g) == precise_expectation_by_paths(FAIR, g)


def test_endpoint_enumeration_depth_cap():
    with pytest.raises(ResourceError):
        upper_by_endpoint_enumeration(FAIR, DepthGamble.constant(5, Fraction(1)))


def test_series_limit_probe():
    assert series_limit_probe(lambda k: Fraction(0), 10) == (0, 0)
    assert series_limit_probe(lambda k: Fraction(1) if k == 0 else Fraction(0), 0) == (1, 1)
    partial, last = series_limit_probe(lambda k: Fraction(1, 1 << k), 20)
    assert partial == 2 - Fraction(1, 1 << 20)
    assert last == Fraction(1, 1 << 20)
    with pytest.raises(DomainError):
        series_limit_probe(lambda k: Fraction(-1), 3)


@pytest.mark.parametrize("steps", [1, 7, 100])
def test_grid_candidates_are_the_grid_points_inside(steps):
    rng = random.Random(31)
    rows = [interval(0), interval(1), interval(0, 1), interval("1/2"), interval("1/3", "2/3")]
    rows += [IntervalForecast(*sorted(Fraction(rng.randint(0, 999), 999) for _ in "lh")) for _ in range(100)]
    for forecast in rows + [rand_interval(rng) for _ in range(300)]:
        points = {Fraction(k, steps) for k in range(steps + 1)}
        expected = {forecast.lo, forecast.hi} | {p for p in points if forecast.lo <= p <= forecast.hi}
        assert grid_candidates(forecast, steps) == expected
