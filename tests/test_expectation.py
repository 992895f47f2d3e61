"""Global expectations by backward recursion, against brute-force oracles."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treebet import (
    DepthGamble,
    Markov,
    Process,
    Stationary,
    Table,
    cond_lower,
    cond_upper,
    cut_lower_prob,
    cut_upper_prob,
    cut_value_map,
    cylinder_bounds,
    gamble,
    interval,
)
from treebet.errors import DomainError
from treebet.tree import bits

from gen import FAIR, WIDE, rand_gamble, rand_system, rand_table_system
from oracles import (
    cylinder_bounds_by_bits,
    lower_by_endpoint_enumeration,
    precise_expectation_by_paths,
    upper_by_endpoint_enumeration,
)
from suites import run_global_property_suite

VACUOUS = Stationary(interval(0, 1))
IND_11 = DepthGamble.indicator({"11"}, 2)


@pytest.mark.parametrize("values", [(0.5, Fraction(1)), (Fraction(0), True), (1, Decimal("0.5")), (0, "1/2")])
def test_depth_gamble_refuses_a_value_that_is_not_rational(values):
    # cond_upper and the other exact folds fail on a float value
    leaf, bad = next((bits(j, 1), v) for j, v in enumerate(values) if type(v) not in (int, Fraction))
    with pytest.raises(DomainError) as info:
        DepthGamble(1, values)
    assert str(info.value) == f"gamble value at {leaf!r} is not rational: {bad!r}"
    # constant and from_function convert through Fraction first
    assert DepthGamble.constant(1, 0.5).values == (Fraction(1, 2),) * 2
    half = DepthGamble.from_function(1, {"0": 0.5, "1": 1}.__getitem__)
    assert half.values == (Fraction(1, 2), 1) and cond_upper(FAIR, half) == Fraction(3, 4)


NEGATIVE_DEPTH = {
    "DepthGamble": lambda: DepthGamble(-1, ()),
    "DepthGamble.constant": lambda: DepthGamble.constant(-1, 0),
    "DepthGamble.from_function": lambda: DepthGamble.from_function(-1, lambda s: 0),
    "DepthGamble.indicator": lambda: DepthGamble.indicator([], -1),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_DEPTH))
def test_depth_gamble_refuses_a_negative_depth(name):
    # refused before 2**depth is computed, where the shift itself raises ValueError
    with pytest.raises(DomainError) as info:
        NEGATIVE_DEPTH[name]()
    assert str(info.value) == "gamble depth must be non-negative"


NON_FINITE = [float("nan"), float("inf"), float("-inf"),
              Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"), Decimal("-Infinity")]
CONVERTERS = {
    "interval": (lambda x: interval(0, x), "forecast bound"),
    "gamble": (lambda x: gamble(1, x), "gamble value"),
    "DepthGamble.constant": (lambda x: DepthGamble.constant(2, x), "gamble value"),
    "DepthGamble.from_function": (lambda x: DepthGamble.from_function(2, lambda s: x if s == "01" else 0),
                                  "gamble value at '01'"),
    "Process.from_function": (lambda x: Process.from_function(1, lambda s: x if s else 1), "process value at '0'"),
}


@pytest.mark.parametrize("x", NON_FINITE)
@pytest.mark.parametrize("name", sorted(CONVERTERS))
def test_convenience_constructors_refuse_a_non_finite_value(name, x):
    # Fraction(x) raises ValueError or OverflowError on these; each constructor names what it converts
    make, what = CONVERTERS[name]
    with pytest.raises(DomainError) as info:
        make(x)
    assert str(info.value) == f"{what} is not finite: {x!r}"


def test_cond_upper_fair_indicator():
    assert precise_expectation_by_paths(FAIR, IND_11) == Fraction(1, 4)
    assert cond_upper(FAIR, IND_11) == Fraction(1, 4)


def test_cond_upper_vacuous_indicator():
    assert upper_by_endpoint_enumeration(VACUOUS, IND_11) == 1
    assert cond_upper(VACUOUS, IND_11) == 1


def test_cond_constant():
    g = DepthGamble.constant(3, Fraction(5, 7))
    assert cond_upper(WIDE, g, "10") == Fraction(5, 7)
    assert cond_lower(WIDE, g) == Fraction(5, 7)


def test_cond_lower_cases():
    assert cond_lower(FAIR, IND_11) == Fraction(1, 4)
    assert lower_by_endpoint_enumeration(VACUOUS, IND_11) == 0
    assert cond_lower(VACUOUS, IND_11) == 0


def test_cond_depth_domain():
    with pytest.raises(DomainError):
        cond_upper(FAIR, IND_11, "010")


def test_cut_upper_prob_cases():
    assert upper_by_endpoint_enumeration(WIDE, DepthGamble.indicator({"10"}, 2)) == Fraction(21, 50)
    assert cut_upper_prob(WIDE, {"10"}) == Fraction(21, 50)
    assert precise_expectation_by_paths(FAIR, DepthGamble.indicator({"1", "00"}, 2)) == Fraction(3, 4)
    assert cut_upper_prob(FAIR, {"1", "00"}) == Fraction(3, 4)
    assert cut_upper_prob(WIDE, {"0", "1"}) == 1


def test_cut_prob_decisive_cases():
    assert cut_upper_prob(FAIR, {"11"}, "110") == 1
    assert cut_upper_prob(FAIR, {"11"}, "0") == 0
    assert cut_upper_prob(FAIR, set(), "0") == 0


@pytest.mark.parametrize("s", ["", "0", "101"])
@pytest.mark.parametrize(
    "fs",
    [
        WIDE,
        Table(interval("1/2"), {"": interval("1/4", "3/4"), "10": interval(0, 1)}),
        Markov(1, {"": interval("2/5"), "0": interval(1), "1": interval("1/4", "7/10")}),
    ],
    ids=["stationary", "table", "markov"],
)
def test_empty_cut_is_exact_zero(fs, s):
    # callers pass empty cuts without a guard and rely on this answer
    for prob in (cut_upper_prob(fs, frozenset(), s), cut_lower_prob(fs, frozenset(), s)):
        assert type(prob) is Fraction and prob == 0


def test_cut_prob_rejects_non_antichain():
    with pytest.raises(DomainError):
        cut_upper_prob(FAIR, {"1", "11"})


@pytest.mark.parametrize(
    "fs, s, expected",
    [
        (WIDE, "10", (Fraction(21, 50), Fraction(3, 25))),
        (WIDE, "", (Fraction(1), Fraction(1))),
        (FAIR, "101", (Fraction(1, 8), Fraction(1, 8))),
    ],
)
def test_cylinder_bounds_cases(fs, s, expected):
    assert cylinder_bounds(fs, s) == expected


def test_cylinder_bounds_match_singleton_cuts(seed=17):
    rng = random.Random(seed)
    for _ in range(100):
        fs = rand_system(rng)
        s = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
        upper, lower = cylinder_bounds(fs, s)
        assert upper == cut_upper_prob(fs, {s})
        assert lower == cut_lower_prob(fs, {s})


# the degenerate {0} and {1}, the vacuous [0, 1], precise and imprecise mixed denominators
CYLINDER_INTERVALS = [
    interval("0"), interval("1"), interval("0", "1"), interval("1/2"), interval("2/7"),
    interval("2/5", "7/10"), interval("1/4", "3/5"), interval("5/9", "6/7"),
]
cylinder_forecasts = st.sampled_from(CYLINDER_INTERVALS)


@st.composite
def cylinder_cases(draw):
    """A system and a path of up to about 200 bits; table overrides sit on the path and off it."""
    s = draw(st.text("01", max_size=200))
    kind = draw(st.sampled_from(["stationary", "table", "markov"]))
    if kind == "stationary":
        return Stationary(draw(cylinder_forecasts)), s
    if kind == "table":
        on_path = draw(st.lists(st.integers(0, len(s)), max_size=8))
        off_path = draw(st.lists(st.integers(0, 6).flatmap(
            lambda n: st.builds(bits, st.integers(0, (1 << n) - 1), st.just(n))), max_size=4))
        keys = [s[:k] for k in on_path] + off_path
        return Table(draw(cylinder_forecasts), {t: draw(cylinder_forecasts) for t in keys}), s
    order = draw(st.integers(0, 3))
    rows = {bits(j, n): draw(cylinder_forecasts) for n in range(order + 1) for j in range(1 << n)}
    return Markov(order, rows), s


@settings(max_examples=300, deadline=None)
@given(cylinder_cases())
def test_cylinder_bounds_match_per_bit_fraction_products(case):
    fs, s = case
    upper, lower = cylinder_bounds(fs, s)
    assert (upper, lower) == cylinder_bounds_by_bits(fs, s)
    assert type(upper) is type(lower) is Fraction


def test_global_properties_hold_exactly():
    assert run_global_property_suite(seed=404, cases=500) == 500


def test_locality(seed=23):
    # a gamble supported on the children of s reduces to the local expectation
    rng = random.Random(seed)
    for _ in range(60):
        fs = rand_system(rng)
        s = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        on1, on0 = Fraction(rng.randint(-6, 6), 3), Fraction(rng.randint(-6, 6), 3)

        def support(leaf):
            if leaf.startswith(s + "1"):
                return on1
            if leaf.startswith(s + "0"):
                return on0
            return Fraction(0)

        g = DepthGamble.from_function(len(s) + 1, support)
        from treebet import LocalGamble, lower_expectation, upper_expectation

        assert cond_upper(fs, g, s) == upper_expectation(fs.at(s), LocalGamble(on1, on0))
        assert cond_lower(fs, g, s) == lower_expectation(fs.at(s), LocalGamble(on1, on0))


def test_truncation_monotone_in_cutoff(seed=31):
    rng = random.Random(seed)
    cut = frozenset({"1", "001", "0001"})
    previous = Fraction(0)
    for cutoff in range(6):
        below = frozenset(t for t in cut if len(t) < cutoff)
        value = cut_upper_prob(WIDE, below) if below else Fraction(0)
        assert value >= previous
        previous = value


def test_nested_cuts_monotone(seed=37):
    rng = random.Random(seed)
    for _ in range(60):
        fs = rand_system(rng)
        outer = frozenset({"1", "00"})
        # refine some members to strictly smaller cylinder unions
        inner = set()
        for t in outer:
            if rng.random() < 0.5:
                inner.add(t + rng.choice("01"))
            else:
                inner.add(t)
        assert cut_upper_prob(fs, frozenset(inner)) <= cut_upper_prob(fs, outer)


def test_conservativeness(seed=41):
    # widening every interval can only raise upper expectations
    rng = random.Random(seed)
    for _ in range(60):
        base = rand_system(rng, kind="stationary")
        lo, hi = base.interval.lo, base.interval.hi
        wider = Stationary(interval(lo * Fraction(rng.randint(0, 3), 3), hi + (1 - hi) * Fraction(rng.randint(0, 3), 3)))
        g = rand_gamble(rng, 3)
        assert cond_upper(base, g) <= cond_upper(wider, g)
        assert cond_lower(base, g) >= cond_lower(wider, g)


def test_oracle_equivalence_sample(seed=47):
    rng = random.Random(seed)
    for _ in range(25):
        fs = rand_table_system(rng, depth=3)
        g = rand_gamble(rng, 3)
        assert cond_upper(fs, g) == upper_by_endpoint_enumeration(fs, g)
        assert cond_lower(fs, g) == lower_by_endpoint_enumeration(fs, g)


@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("cut", [[], ["0"], [""]])
def test_cut_value_map_refuses_a_negative_depth(cut, lower):
    # one check in _fold_sum, which cut_value_map shares with both assemble_* builders, comes before
    # any member is read: unchecked, the empty cut gives {} and another one blames its member
    with pytest.raises(DomainError) as info:
        cut_value_map(WIDE, cut, -1, lower=lower)
    assert str(info.value) == "process depth must be non-negative"


def test_cut_value_map_matches_pointwise():
    cut = frozenset({"1", "001"})
    values = cut_value_map(WIDE, cut, 3)
    for s, v in values.items():
        assert v == cut_upper_prob(WIDE, cut, s)
    lower_values = cut_value_map(WIDE, cut, 3, lower=True)
    for s, v in lower_values.items():
        assert v == cut_lower_prob(WIDE, cut, s)
