"""Supermartingale verification, Ville cuts, rationalization, strategies."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

import treebet.martingale
from treebet import (
    DepthGamble,
    IntervalForecast,
    LocalGamble,
    Markov,
    Process,
    RandomnessTest,
    Stationary,
    Table,
    bound_check,
    capital_along,
    check_supermartingale,
    check_test_supermartingale,
    cumulative_bound,
    cut_value_map,
    integer_log_bound,
    interval,
    kelly_gamble,
    kelly_process,
    martingale_to_test,
    rationalize,
    schnorr_supermartingale_from_test,
    upper_expectation,
    validate_schnorr_tail,
    ville_threshold,
)
from treebet.errors import ConfigError, ContractError, DomainError
from treebet.formats import dump_process
from treebet.growth import affine
from treebet.sampling import sample_path
from treebet.tree import situations_up_to

from gen import FAIR, WIDE, rand_fraction, rand_supermartingale, rand_system
from oracles import kelly_process_by_nodes, stored_levels

DOUBLER = kelly_process(FAIR, 1, "on-one", 4)


def test_process_totality_enforced():
    with pytest.raises(DomainError):
        Process(1, {"": Fraction(1), "0": Fraction(1)})
    with pytest.raises(DomainError):
        Process(0, {"": Fraction(1), "0": Fraction(1), "1": Fraction(1)})


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=6))
def test_process_values_in_heap_order(seed, depth):
    rng = random.Random(seed)
    heap = list(situations_up_to(depth))
    in_order = Process(depth, {s: rand_fraction(rng) for s in heap})
    items = list(in_order.values.items())
    rng.shuffle(items)
    shuffled = Process(depth, dict(items))
    assert list(shuffled.values) == list(in_order.values) == heap
    assert shuffled.values == in_order.values
    assert dump_process(shuffled) == dump_process(in_order)


@pytest.mark.parametrize(
    "depth, count, need",
    [(2, 1, "7"), (10, 7, "2047"), (64, 1, str(2**65 - 1)), (65, 1, "2**66 - 1"),
     (100000000000, 1, "2**100000000001 - 1")],
)
def test_process_count_message(depth, count, need):
    # the count is written out through depth 64, and as a power past it
    values = dict(zip(situations_up_to(depth), [Fraction(1)] * count))
    with pytest.raises(DomainError) as info:
        Process(depth, values)
    assert str(info.value) == f"depth-{depth} process needs {need} values, got {count}"


def test_process_missing_value_named_in_heap_order():
    with pytest.raises(DomainError, match="process missing value at '0'"):
        Process(1, {"1": Fraction(1), "": Fraction(1), "00": Fraction(1)})


@pytest.mark.parametrize("value", [0.5, Decimal("0.5"), "1/2", None, True])
def test_values_that_are_not_rational_are_refused(value):
    # a float used to be kept, then written as '0.5', which the reader refuses; a bool is an
    # int, but a flag, not a value
    with pytest.raises(DomainError) as info:
        Process(1, {"": Fraction(1), "0": value, "1": Fraction(3, 2)})
    assert str(info.value) == f"process value at '0' is not rational: {value!r}"
    for root in (1.0, value):
        with pytest.raises(DomainError):
            DOUBLER.with_root(root)


def test_from_function_converts_floats_exactly():
    # so the writer and the checks take what it builds
    process = Process.from_function(1, {"": 1, "0": 0.5, "1": 1.5}.__getitem__)
    assert process.values == {"": 1, "0": Fraction(1, 2), "1": Fraction(3, 2)}
    assert dump_process(process) == "depth: 1\n@ 1\n0 1/2\n1 3/2\n"
    assert check_supermartingale(FAIR, process) == []
    assert check_test_supermartingale(FAIR, process)
    assert martingale_to_test(process, FAIR).levels == (frozenset({"1"}),)


def test_values_are_read_only():
    process = kelly_process(FAIR, 1, "on-one", 2)
    with pytest.raises(TypeError):
        process.values[""] = Fraction(2)
    with pytest.raises(AttributeError):
        process.values = {}
    assert process.root == 1 and process.values[""] == 1
    assert process.with_root(2).values == {**process.values, "": 2}
    assert process.values[""] == 1


def test_process_levels_hold_integers_in_heap_order():
    # read off each value's Fraction, so in lowest terms
    process = Process(2, {s: Fraction(int(s or "0", 2) + len(s), 3) for s in situations_up_to(2)})
    nums, dens = stored_levels(process)
    assert nums == [[0], [1, 2], [2, 1, 4, 5]]
    assert dens == [[1], [3, 3], [3, 1, 3, 3]]
    assert stored_levels(-process) == ([[0], [-1, -2], [-2, -1, -4, -5]], dens)
    assert (-process).values == {s: -v for s, v in process.values.items()}


@pytest.mark.parametrize("s", ["2", "0a", "0a0a0"])
def test_delta_refuses_a_non_situation(s):
    with pytest.raises(DomainError) as info:
        DOUBLER.delta(s)
    assert str(info.value) == f"not a situation: {s!r}"


def test_max_value_skips_the_old_root_left_in_the_table():
    # with_root keeps the old root's pair, 5, in the table unused; the second process is negated first
    for process in (Process(1, {"": 5, "0": 1, "1": 1}).with_root(1),
                    (-Process(1, {"": -5, "0": -1, "1": -1})).with_root(1)):
        assert (5, 1) in process.table and process.max_value() == 1


def test_doubler_is_test_supermartingale():
    assert check_supermartingale(FAIR, DOUBLER) == []
    assert check_test_supermartingale(FAIR, DOUBLER)


def test_drift_process_violates_everywhere():
    drift = Process.from_function(3, lambda s: Fraction(len(s)))
    assert check_supermartingale(FAIR, drift) == sorted(
        situations_up_to(2), key=lambda s: (len(s), s)
    )
    assert not check_test_supermartingale(FAIR, drift)


def test_constant_process_cases():
    one = Process.from_function(2, lambda s: Fraction(1))
    two = Process.from_function(2, lambda s: Fraction(2))
    assert check_supermartingale(WIDE, two) == []
    assert check_test_supermartingale(WIDE, one)
    assert not check_test_supermartingale(WIDE, two)
    dipped = Process.from_function(2, lambda s: Fraction(-1) if s == "01" else Fraction(1))
    assert not check_test_supermartingale(FAIR, dipped)


def test_capital_along():
    assert capital_along(DOUBLER, "111") == [1, 2, 4, 8]
    assert capital_along(DOUBLER, "10") == [1, 2, 0]
    ones = Process.from_function(3, lambda s: Fraction(1))
    assert capital_along(ones, "010") == [1, 1, 1, 1]
    with pytest.raises(DomainError):
        capital_along(DOUBLER, "01010")


@pytest.mark.parametrize(
    "threshold, cut, bound, actual",
    [
        (4, {"11"}, Fraction(1, 4), Fraction(1, 4)),
        (3, {"11"}, Fraction(1, 3), Fraction(1, 4)),
        (1, {""}, Fraction(1), Fraction(1)),
    ],
)
def test_ville_threshold_doubler(threshold, cut, bound, actual):
    result = ville_threshold(FAIR, DOUBLER, threshold)
    assert result.cut == frozenset(cut)
    assert result.bound == bound
    assert result.actual == actual


def test_ville_threshold_domain():
    with pytest.raises(DomainError):
        ville_threshold(FAIR, DOUBLER, 0)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"),
                               Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"), Decimal("-Infinity")])
def test_threshold_and_stake_refuse_a_non_finite_float(x):
    # Fraction(x) raises ValueError or OverflowError on these, before any domain check
    with pytest.raises(DomainError) as info:
        ville_threshold(FAIR, DOUBLER, x)
    assert str(info.value) == f"threshold is not finite: {x!r}"
    with pytest.raises(DomainError) as info:
        kelly_process(FAIR, x, "on-one", 2)
    assert str(info.value) == f"stake is not finite: {x!r}"


def test_ville_inequality_random(seed=59):
    rng = random.Random(seed)
    for _ in range(40):
        fs = rand_system(rng, depth=6, non_degenerate=True)
        process = rand_supermartingale(rng, fs, depth=6)
        for threshold in (2, 3, 4, 8):
            result = ville_threshold(fs, process, threshold)
            assert result.actual <= result.bound


def test_bound_check_cases():
    assert bound_check(FAIR, DOUBLER)
    # the doubler is tight against the fair-coin ceiling on the all-ones path
    assert DOUBLER.at("1111") == cumulative_bound(FAIR, "1111")
    ones = Process.from_function(3, lambda s: Fraction(1))
    assert bound_check(WIDE, ones)


def test_bound_check_random(seed=61):
    rng = random.Random(seed)
    for _ in range(40):
        fs = rand_system(rng, depth=6, non_degenerate=True)
        assert bound_check(fs, rand_supermartingale(rng, fs, depth=6))


def test_descending_path_exists(seed=67):
    # from any node some descendant path never climbs above it
    rng = random.Random(seed)
    for _ in range(20):
        fs = rand_system(rng, depth=6, non_degenerate=True)
        process = rand_supermartingale(rng, fs, depth=6)
        for s in situations_up_to(process.depth):
            t = s
            while len(t) < process.depth:
                t += "1" if process.values[t + "1"] <= process.values[t + "0"] else "0"
                assert process.values[t] <= process.values[s]


def test_violations_grow_with_widening(seed=71):
    rng = random.Random(seed)
    from treebet import IntervalForecast, Stationary

    for _ in range(40):
        narrow = rand_system(rng, kind="stationary")
        lo, hi = narrow.interval.lo, narrow.interval.hi
        wide = Stationary(IntervalForecast(lo / 2, hi + (1 - hi) / 2))
        process = Process.from_function(
            4, lambda s: Fraction(rng.randint(0, 24), 8)
        )
        assert set(check_supermartingale(narrow, process)) <= set(
            check_supermartingale(wide, process)
        )


def _schedule_for(target: Process, rng: random.Random):
    cache = {}

    def q(s: str, accuracy: int) -> Fraction:
        key = (s, accuracy)
        if key not in cache:
            if s == "" and accuracy == 0:
                cache[key] = Fraction(1)
            else:
                budget = Fraction(1, 1 << accuracy)
                noise = budget * Fraction(rng.randint(-8, 8), 8)
                cache[key] = target.values[s] + noise
        return cache[key]

    return q


def test_rationalize_constant_target():
    q = lambda s, accuracy: Fraction(1)
    r = rationalize(q, FAIR, 2)
    assert r.root == 1
    assert r.at("1") == Fraction(5, 8)
    assert r.at("01") == Fraction(7, 16)
    assert check_supermartingale(FAIR, r) == []
    for s in situations_up_to(2):
        assert abs(4 * r.values[s] - 1) == 3 * Fraction(1, 1 << len(s))


def test_rationalize_contract():
    with pytest.raises(ContractError):
        rationalize(lambda s, accuracy: Fraction(2), FAIR, 2)


def test_rationalize_random_targets(seed=73):
    rng = random.Random(seed)
    for _ in range(30):
        fs = rand_system(rng, depth=5, non_degenerate=True)
        target = rand_supermartingale(rng, fs, depth=5)
        r = rationalize(_schedule_for(target, rng), fs, 5)
        assert r.root == 1
        assert all(v > 0 for v in r.values.values())
        assert check_supermartingale(fs, r) == []
        for s in situations_up_to(5):
            assert abs(4 * r.values[s] - target.values[s]) <= 4 * Fraction(1, 1 << len(s))


def test_kelly_process_cases():
    assert DOUBLER.at("11") == 4 and DOUBLER.at("10") == 0
    flat = kelly_process(WIDE, 0, "on-zero", 3)
    assert all(v == 1 for v in flat.values.values())
    half = kelly_process(WIDE, Fraction(1, 2), "on-one", 2)
    assert half.at("11") / half.at("1") == Fraction(17, 14)
    assert check_test_supermartingale(WIDE, half)


MARKOV2 = Markov(2, {s: interval(Fraction(1, 3) + Fraction(j, 10)) for j, s in enumerate(situations_up_to(2))})


def test_kelly_process_one_gamble_per_read_slot(monkeypatch):
    calls = []

    def counted(forecast, direction):
        calls.append(forecast)
        return kelly_gamble(forecast, direction)

    monkeypatch.setattr(treebet.martingale, "kelly_gamble", counted)
    process = kelly_process(WIDE, Fraction(1, 2), "on-zero", 4)
    assert calls == [WIDE.interval]
    assert list(process.values) == list(situations_up_to(4))
    # the interior nodes of a depth-4 order-2 process read all 7 context slots, in order; those of a
    # depth-2 process read the table's default and its override at "1", not the one at the leaf "01"
    table = Table(WIDE.interval, {"01": interval(0), "1": FAIR.interval})
    for fs, depth, read in [(MARKOV2, 4, list(MARKOV2.intervals)), (table, 2, [WIDE.interval, FAIR.interval])]:
        calls.clear()
        kelly_process(fs, Fraction(1, 3), "on-one", depth)
        assert calls == read


def kelly_outcome(build, fs, stake, direction, depth):
    try:
        return dump_process(build(fs, stake, direction, depth))
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", ["stationary", "table", "markov"])
def test_kelly_process_matches_per_node_reference(kind, seed=83):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(60):  # int bounds 0 and 1 too, which pin the next bit half the time they are drawn twice
        fs = rand_system(rng, depth=5, kind=kind, pool=[0, Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), 1])
        stake, direction = rng.choice([0, Fraction(1, 2), Fraction(2, 3), 1]), rng.choice(["on-one", "on-zero"])
        depth = rng.randint(0, 10)
        got = kelly_outcome(kelly_process, fs, stake, direction, depth)
        assert got == kelly_outcome(kelly_process_by_nodes, fs, stake, direction, depth)
        outcomes.add(got.startswith("betting"))
    assert outcomes == {True, False}  # both processes and refusals were compared


def test_kelly_process_builds_on_the_codes(monkeypatch):
    # neither the checked constructor nor a situation name: each capital is coded once, as it is made
    table = Table(WIDE.interval, {"01": interval("1/3"), "1": FAIR.interval})
    cases = [(fs, stake, direction) for fs in (FAIR, WIDE, MARKOV2, table) for stake in (0, Fraction(1, 2), 1)
             for direction in ("on-one", "on-zero")]
    expected = [dump_process(kelly_process_by_nodes(*case, 8)) for case in cases]

    def refused(*args):
        raise AssertionError("kelly_process called Process.__init__ or situations_up_to")

    monkeypatch.setattr(Process, "__init__", refused)
    monkeypatch.setattr(treebet.martingale, "situations_up_to", refused)
    for case, dumped in zip(cases, expected):
        process = kelly_process(*case, 8)
        assert dump_process(process) == dumped
        values = [Fraction(*pair) for pair in process.table]
        assert len(set(values)) == len(values) == len(set(chain.from_iterable(process.codes)))
    with pytest.raises(DomainError) as info:
        kelly_process(FAIR, 1, "on-one", -1)
    assert str(info.value) == "process depth must be non-negative"


def test_kelly_process_degenerate_slot_raises_only_when_read():
    # {0} at the depth-2 override: a leaf of the depth-2 process, an interior node of the depth-3 one
    fs = Table(WIDE.interval, {"10": interval(0)})
    unread = kelly_outcome(kelly_process, fs, Fraction(1, 2), "on-one", 2)
    assert unread.startswith("depth: 2\n")
    assert unread == kelly_outcome(kelly_process_by_nodes, fs, Fraction(1, 2), "on-one", 2)
    for build in (kelly_process, kelly_process_by_nodes):
        with pytest.raises(DomainError, match=r"betting on 1 against a \{0\} forecast"):
            build(fs, Fraction(1, 2), "on-one", 3)
    # a Markov row longer than the order is never read
    rows = {"": FAIR.interval, "0": WIDE.interval, "1": FAIR.interval, "11": interval(1)}
    assert kelly_process(Markov(1, rows), 1, "on-zero", 5).at("01111") == 0


def test_kelly_gamble_exact_on_integer_bounds():
    # IntervalForecast may hold int bounds; the gamble stays exact in both directions
    on_one = kelly_gamble(IntervalForecast(Fraction(1, 2), 1), "on-one")
    assert on_one == LocalGamble(on1=0, on0=-1) and type(on_one.on1) is Fraction
    on_zero = kelly_gamble(IntervalForecast(0, Fraction(1, 2)), "on-zero")
    assert on_zero == LocalGamble(on1=-1, on0=0) and type(on_zero.on0) is Fraction
    assert kelly_gamble(IntervalForecast(0, 1), "on-one") == LocalGamble(on1=0, on0=-1)
    up = kelly_process(Stationary(IntervalForecast(Fraction(1, 2), 1)), Fraction(1, 2), "on-one", 2)
    assert [up.at(s) for s in situations_up_to(2)] == [1, Fraction(1, 2), 1, Fraction(1, 4), Fraction(1, 2),
                                                        Fraction(1, 2), 1]
    down = kelly_process(Stationary(IntervalForecast(0, Fraction(1, 2))), Fraction(1, 2), "on-zero", 2)
    assert down.at("00") == 1 and down.at("11") == Fraction(1, 4)
    assert check_test_supermartingale(Stationary(IntervalForecast(0, Fraction(1, 2))), down)


def test_kelly_gamble_zero_upper_expectation(seed=79):
    rng = random.Random(seed)
    for _ in range(60):
        fs = rand_system(rng, non_degenerate=True)
        forecast = fs.at("01")
        for direction in ("on-one", "on-zero"):
            assert upper_expectation(forecast, kelly_gamble(forecast, direction)) == 0


def test_kelly_degenerate_rejected():
    from treebet import Stationary, interval

    with pytest.raises(DomainError):
        kelly_process(Stationary(interval(0, 0)), 1, "on-one", 2)
    with pytest.raises(DomainError):
        kelly_process(FAIR, Fraction(3, 2), "on-one", 2)


def test_kelly_random_pass_check(seed=83):
    rng = random.Random(seed)
    for _ in range(30):
        fs = rand_system(rng, depth=5, non_degenerate=True)
        stake = Fraction(rng.randint(0, 8), 8)
        process = kelly_process(fs, stake, rng.choice(["on-one", "on-zero"]), 5)
        assert check_test_supermartingale(fs, process)


_TAILED = RandomnessTest((frozenset({"0"}),), 1, tail=affine(1))
_MARKOV_ROWS = {"": interval("1/2"), "0": interval("2/5", "3/5"), "1": interval("1/3", "1/2")}


@pytest.mark.parametrize(
    "call, value, error, message",
    [
        (lambda v: Process(v, {"": 1, "0": 1, "1": 1}), True, DomainError, "process depth is not an integer: True"),
        (lambda v: Process(v, {"": 1, "0": 1, "1": 1}), 1.0, DomainError, "process depth is not an integer: 1.0"),
        (lambda v: kelly_process(FAIR, Fraction(1, 2), "on-one", v), True, DomainError,
         "process depth is not an integer: True"),
        (lambda v: kelly_process(FAIR, Fraction(1, 2), "on-one", v), 2.0, DomainError,
         "process depth is not an integer: 2.0"),
        (lambda v: cut_value_map(FAIR, {"0"}, v), 2.0, DomainError, "process depth is not an integer: 2.0"),
        (lambda v: DepthGamble.constant(v, 1), 2.0, DomainError, "gamble depth is not an integer: 2.0"),
        (lambda v: DepthGamble.from_function(v, len), True, DomainError, "gamble depth is not an integer: True"),
        (lambda v: RandomnessTest((), v), 2.5, DomainError, "test depth is not an integer: 2.5"),
        (lambda v: RandomnessTest((), v), True, DomainError, "test depth is not an integer: True"),
        (lambda v: schnorr_supermartingale_from_test(FAIR, _TAILED, "", v), True, DomainError,
         "accuracy is not an integer: True"),
        (lambda v: validate_schnorr_tail(FAIR, _TAILED, v), -1, DomainError, "k_max must be non-negative"),
        (lambda v: sample_path(FAIR, "low", v, 1), -5, DomainError, "path length must be non-negative"),
        (lambda v: Markov(v, _MARKOV_ROWS), True, ConfigError, "markov order is not an integer: True"),
        (lambda v: Markov(v, _MARKOV_ROWS), 2.0, ConfigError, "markov order is not an integer: 2.0"),
        (integer_log_bound, True, DomainError, "integer_log_bound's x is not rational: True"),
        (interval, True, DomainError, "forecast bound is not rational: True"),
    ],
)
def test_natural_number_parameters_refuse_a_bool_a_float_and_a_negative(call, value, error, message):
    # one intake: an int that is no bool and at least 0; a bool is no number to finite_fraction either
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value) == message
