"""One-step expectation functionals."""

from decimal import Decimal
from fractions import Fraction

import pytest

from treebet import LocalGamble, gamble, interval, lower_expectation, precise_expectation, upper_expectation
from treebet.errors import DomainError

from suites import run_coherence_suite


@pytest.mark.parametrize(
    "p, f, expected",
    [
        (Fraction(1, 2), gamble(1, 0), Fraction(1, 2)),
        (Fraction(0), gamble(5, -2), Fraction(-2)),
        (Fraction(1, 3), gamble(3, 0), Fraction(1)),
    ],
)
def test_precise_expectation_cases(p, f, expected):
    assert precise_expectation(p, f) == expected


def test_precise_expectation_domain():
    with pytest.raises(DomainError):
        precise_expectation(Fraction(3, 2), gamble(1, 0))
    with pytest.raises(DomainError):
        precise_expectation(Fraction(-1, 5), gamble(1, 0))
    with pytest.raises(DomainError):  # its message is past the int-string limit
        precise_expectation(Fraction(10**5000), gamble(1, 0))


@pytest.mark.parametrize("values", [(0.5, Fraction(1, 4)), (Fraction(1), 0.25), (True, 0), (0, False),
                                    (Decimal("0.5"), 0), (1, "1/2"), (Fraction(1), None)])
def test_local_gamble_refuses_a_value_that_is_not_rational(values):
    # a float reached precise_expectation's .numerator, and True passed as 1
    bad = next(v for v in values if type(v) not in (int, Fraction))
    with pytest.raises(DomainError) as info:
        LocalGamble(*values)
    assert str(info.value) == f"gamble value is not rational: {bad!r}"
    assert LocalGamble(1, Fraction(1, 2)) == gamble(1, "1/2")


@pytest.mark.parametrize("p", [0.5, True, False, Decimal("0.5"), "1/2", None])
def test_precise_expectation_refuses_a_forecast_that_is_not_rational(p):
    with pytest.raises(DomainError) as info:
        precise_expectation(p, gamble(1, 0))
    assert str(info.value) == f"precise forecast is not rational: {p!r}"
    assert precise_expectation(1, gamble(1, 0)) == 1


@pytest.mark.parametrize(
    "forecast, f, expected",
    [
        (interval("2/5", "7/10"), gamble(1, 0), Fraction(7, 10)),
        (interval("1/3"), gamble(4, 4), Fraction(4)),
        (interval(0, 1), gamble(-1, 2), Fraction(2)),
    ],
)
def test_upper_expectation_cases(forecast, f, expected):
    assert upper_expectation(forecast, f) == expected


@pytest.mark.parametrize(
    "forecast, f, expected",
    [
        (interval("2/5", "7/10"), gamble(1, 0), Fraction(2, 5)),
        (interval(0, 1), gamble(-1, 2), Fraction(-1)),
        (interval("3/7"), gamble(2, -1), precise_expectation(Fraction(3, 7), gamble(2, -1))),
    ],
)
def test_lower_expectation_cases(forecast, f, expected):
    assert lower_expectation(forecast, f) == expected


def test_coherence_properties_hold_exactly():
    assert run_coherence_suite(seed=2024, cases=1000) == 1000
