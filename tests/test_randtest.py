"""Randomness tests, budgets, tail bounds, and both conversion directions."""

import numbers
import random
from fractions import Fraction

import pytest

from treebet import (
    GrowthFunction,
    Process,
    RandomnessTest,
    Stationary,
    affine,
    approx_level_prob,
    assemble_schnorr_supermartingale,
    assemble_test_supermartingale,
    check_supermartingale,
    clip_to_budget,
    combine_universal,
    cut_status,
    cut_upper_prob,
    cylinder_bounds,
    derive_tail_bound_precise,
    interval,
    kelly_process,
    martingale_to_test,
    schnorr_test_from_martingale,
    schnorr_supermartingale_from_test,
    sigma_from_tailbound,
    sigma_sharp,
    levels_hit,
    supermartingale_from_test,
    validate_ml_test,
    validate_schnorr_tail,
)
from treebet.errors import ContractError, DomainError
from treebet.tree import CutStatus, minimal_antichain, situations_up_to

from gen import FAIR, decaying_system, ones_test, rand_supermartingale, rand_system, rand_valid_test
from oracles import clip_by_cutoffs

DOUBLER = kelly_process(FAIR, 1, "on-one", 4)


def test_validate_ml_ones_test():
    reports = validate_ml_test(FAIR, ones_test(4))
    assert all(r.passed for r in reports)
    assert [r.actual for r in reports] == [Fraction(1, 1 << (n + 1)) for n in range(4)]


def test_validate_ml_edge_budgets():
    root_test = RandomnessTest((frozenset({""}),), max_depth=0)
    assert validate_ml_test(FAIR, root_test)[0].passed  # actual 1 <= budget 1
    full = RandomnessTest((frozenset(), frozenset({"0", "1"})), max_depth=1)
    reports = validate_ml_test(FAIR, full)
    assert reports[0].passed and not reports[1].passed
    assert reports[1].actual == 1


def test_validate_schnorr_tail_ones():
    reports = validate_schnorr_tail(FAIR, ones_test(5, tail=affine(1)), k_max=5)
    assert all(r.passed for r in reports)


def test_validate_schnorr_tail_failure():
    # a flat threshold schedule cannot cover a fixed shallow cut forever
    stalled = GrowthFunction((0, 0, 0), 1, 0, 1)
    test = RandomnessTest((frozenset({"1"}),), max_depth=1, tail=stalled)
    reports = validate_schnorr_tail(FAIR, test, k_max=2)
    assert reports[1].passed  # 1/2 <= 1/2
    assert not reports[2].passed  # 1/2 > 1/4


def test_validate_schnorr_tail_empty_levels():
    empty = RandomnessTest((frozenset(), frozenset()), max_depth=3, tail=affine(1))
    assert all(r.passed for r in validate_schnorr_tail(FAIR, empty, 4))


def test_tail_missing_raises():
    with pytest.raises(DomainError):
        validate_schnorr_tail(FAIR, ones_test(2), 2)
    with pytest.raises(DomainError):
        approx_level_prob(FAIR, ones_test(2), 0, 1)
    with pytest.raises(DomainError):
        schnorr_supermartingale_from_test(FAIR, ones_test(2))


def test_martingale_to_test_doubler():
    test = martingale_to_test(DOUBLER, FAIR)
    assert [sorted(cut) for cut in test.levels] == [["1"], ["11"], ["111"], ["1111"]]
    assert all(r.passed for r in validate_ml_test(FAIR, test))


def test_martingale_to_test_constant():
    flat = Process.from_function(3, lambda s: Fraction(1))
    assert martingale_to_test(flat, FAIR).num_levels == 0


def test_martingale_to_test_contract():
    with pytest.raises(ContractError):
        martingale_to_test(Process.from_function(2, lambda s: Fraction(2)), FAIR)


def test_martingale_to_test_random(seed=89):
    rng = random.Random(seed)
    for _ in range(30):
        fs = rand_system(rng, depth=6, non_degenerate=True)
        test = martingale_to_test(rand_supermartingale(rng, fs, depth=6), fs)
        assert all(r.passed for r in validate_ml_test(fs, test))


def test_summed_levels_values():
    ones = ones_test(2, max_depth=2)
    assert supermartingale_from_test(FAIR, ones, 1, 5) == (Fraction(3, 8), Fraction(1, 2))
    assert supermartingale_from_test(FAIR, ones, 1, 5, "11") == (Fraction(1), Fraction(2))
    assert supermartingale_from_test(FAIR, ones, 1, 5, "0") == (Fraction(0), Fraction(1))


def test_summed_levels_contract():
    bad = RandomnessTest((frozenset(), frozenset({"0", "1"})), max_depth=1)
    with pytest.raises(ContractError):
        supermartingale_from_test(FAIR, bad, 1, 5)


def test_summed_levels_ignore_budgets_above_n_max():
    over = RandomnessTest((frozenset({"1"}), frozenset({"0", "1"})), max_depth=1)
    assert supermartingale_from_test(FAIR, over, 0, 5) == (Fraction(1, 4), Fraction(1))
    assert assemble_test_supermartingale(FAIR, over, 0).at("1") == Fraction(1, 2)
    with pytest.raises(ContractError, match="level 1 over budget: 1 > 1/2"):
        supermartingale_from_test(FAIR, over, 1, 5)


def test_assembled_supermartingale_ones():
    ones = ones_test(7, max_depth=7)
    process = assemble_test_supermartingale(FAIR, ones, 6)
    assert check_supermartingale(FAIR, process) == []
    assert process.root == 1
    raw = supermartingale_from_test(FAIR, ones, 6, 8)[0]
    assert raw <= 1
    # a path through every level carries at least (N + 1) / 2 at the deepest hit
    assert process.at("1111111") >= Fraction(7, 2)


def test_assembled_supermartingale_random(seed=97):
    rng = random.Random(seed)
    for _ in range(20):
        fs = decaying_system(rng)
        levels = rng.randint(1, 3)
        test, w = rand_valid_test(rng, fs, levels, depth=10)
        process = assemble_test_supermartingale(fs, test, levels - 1)
        assert check_supermartingale(fs, process) == []
        assert process.root == 1
        deepest = max(len(t) for cut in test.levels for t in cut if w.startswith(t))
        assert process.at(w[:deepest]) >= Fraction(levels, 2)


def test_schnorr_from_martingale_doubler():
    test = schnorr_test_from_martingale(DOUBLER, affine(1), FAIR)
    assert [sorted(cut) for cut in test.levels] == [["1"], ["11"], ["1111"]]
    assert test.tail is not None
    assert [test.tail(k) for k in range(4)] == [1, 2, 4, 8]
    assert all(r.passed for r in validate_ml_test(FAIR, test))
    assert all(r.passed for r in validate_schnorr_tail(FAIR, test, 6))


def test_schnorr_from_martingale_flat():
    # a flat process crosses rho(n) = n only at depth 1; the level squeaks
    # in at exactly its budget and no deeper level exists
    flat = Process.from_function(3, lambda s: Fraction(1))
    test = schnorr_test_from_martingale(flat, affine(1), FAIR)
    assert [sorted(cut) for cut in test.levels] == [["0", "1"]]
    reports = validate_ml_test(FAIR, test)
    assert reports[0].actual == 1 and reports[0].passed


def test_schnorr_from_martingale_random(seed=101):
    rng = random.Random(seed)
    for _ in range(15):
        fs = rand_system(rng, depth=6, non_degenerate=True)
        process = rand_supermartingale(rng, fs, depth=6, positive=True)
        test = schnorr_test_from_martingale(process, affine(1), fs)
        assert all(r.passed for r in validate_ml_test(fs, test))
        assert all(r.passed for r in validate_schnorr_tail(fs, test, 5))


@pytest.mark.parametrize(
    "tail, expected",
    [
        (affine(1), [3, 7, 11, 15]),
        (affine(2), [6, 14, 22, 30]),
    ],
)
def test_sigma_from_tailbound(tail, expected):
    sigma = sigma_from_tailbound(tail)
    assert [sigma(k) for k in range(4)] == expected


def test_sigma_guarantee_ones():
    test = ones_test(20, tail=affine(1))
    sigma = sigma_from_tailbound(test.tail)
    for k in range(3):
        total = sum(
            (1 << k) * cut_upper_prob(FAIR, test.level_at_least(n, sigma(k)))
            for n in range(test.num_levels)
            if test.level_at_least(n, sigma(k))
        )
        assert total <= Fraction(1, 1 << k)


@pytest.mark.parametrize(
    "sigma, cutoff, expected",
    [
        (affine(2), 5, 2),
        (GrowthFunction((3,), 1, 3, 1), 2, 0),
        (affine(1), 0, 0),
    ],
)
def test_sigma_sharp(sigma, cutoff, expected):
    assert sigma_sharp(sigma, cutoff) == expected


def test_schnorr_supermartingale_value_converges_to_sevenths():
    test = ones_test(40, tail=affine(1))
    value, remainder = schnorr_supermartingale_from_test(FAIR, test, "", accuracy=8)
    assert abs(value - Fraction(1, 7)) <= Fraction(1, 1 << 8)
    assert remainder == Fraction(1, 1 << 8)


def test_schnorr_supermartingale_empty_test():
    empty = RandomnessTest((frozenset(),), max_depth=1, tail=affine(1))
    assert schnorr_supermartingale_from_test(FAIR, empty, "", 4) == (0, 0)


@pytest.mark.parametrize("levels", [[{"0" * k} for k in range(1, 12)], [{"0000"}]])
def test_schnorr_supermartingale_refuses_a_negative_accuracy(levels):
    # refused before any sum: unchecked, the eleven levels reach 1 << -1 and the one level gets an answer
    test = RandomnessTest(tuple(map(frozenset, levels)), max_depth=len(max(levels[-1])), tail=affine(1))
    with pytest.raises(DomainError) as info:
        schnorr_supermartingale_from_test(FAIR, test, "", accuracy=-1)
    assert str(info.value) == "accuracy must be non-negative"


_TWO_LEVELS = RandomnessTest((frozenset({"0"}), frozenset({"00"})), max_depth=2, tail=affine(1))


@pytest.mark.parametrize("name, call", [
    ("n", lambda v: _TWO_LEVELS.level(v)),
    ("n", lambda v: _TWO_LEVELS.level_below(v, 1)),
    ("cutoff", lambda v: _TWO_LEVELS.level_below(0, v)),
    ("n", lambda v: _TWO_LEVELS.level_at_least(v, 1)),
    ("cutoff", lambda v: _TWO_LEVELS.level_at_least(0, v)),
    ("n_max", lambda v: assemble_test_supermartingale(FAIR, _TWO_LEVELS, v)),
    ("cutoff", lambda v: assemble_test_supermartingale(FAIR, _TWO_LEVELS, 1, cutoff=v)),
    ("n_max", lambda v: supermartingale_from_test(FAIR, _TWO_LEVELS, v, 3)),
    ("cutoff", lambda v: supermartingale_from_test(FAIR, _TWO_LEVELS, 1, v)),
    ("n", lambda v: approx_level_prob(FAIR, _TWO_LEVELS, v, 1)),
    ("accuracy", lambda v: approx_level_prob(FAIR, _TWO_LEVELS, 0, v)),
])
@pytest.mark.parametrize("value", [True, 1.0, -1])
def test_level_indices_and_cutoffs_refuse_a_bool_a_float_and_a_negative(name, call, value):
    # each is an int that is no bool and at least 0: True was read as level 1, 1.0 raised TypeError
    with pytest.raises(DomainError) as info:
        call(value)
    want = f"{name} must be non-negative" if value == -1 else f"{name} is not an integer: {value!r}"
    assert str(info.value) == want


class _BoxedInt:
    """An Integral that is not an int, as numpy's integers are."""

    def __init__(self, value):
        self.value = value

    def __int__(self):
        return self.value

    __index__ = __int__


numbers.Integral.register(_BoxedInt)


@pytest.mark.parametrize("kind", ["boxed", "numpy"])
def test_a_tail_of_integrals_that_are_not_ints_gives_the_int_tails_answers(kind):
    # the cutoffs the library computes from a tail pass the natural-number intake
    wrap = _BoxedInt if kind == "boxed" else pytest.importorskip("numpy").int64
    boxed = GrowthFunction((wrap(0), wrap(1)), wrap(1), wrap(0), wrap(1))
    plain = GrowthFunction((0, 1), 1, 0, 1)
    assert boxed == plain and all(type(boxed(n)) is int for n in range(5))
    tests = [RandomnessTest(_TWO_LEVELS.levels, max_depth=2, tail=tail) for tail in (boxed, plain)]
    answers = [(validate_schnorr_tail(FAIR, t, 3), approx_level_prob(FAIR, t, 1, 2),
                schnorr_supermartingale_from_test(FAIR, t, accuracy=1),
                sigma_sharp(sigma_from_tailbound(t.tail), 9)) for t in tests]
    assert answers[0] == answers[1]


@pytest.mark.parametrize("normalize_root", [False, True])
def test_assembled_process_depth_must_be_non_negative(normalize_root):
    empty = RandomnessTest((frozenset(),), 0, tail=affine(1))
    with pytest.raises(DomainError, match="process depth must be non-negative"):
        assemble_test_supermartingale(FAIR, empty, 0, depth=-1, normalize_root=normalize_root)
    with pytest.raises(DomainError, match="process depth must be non-negative"):
        assemble_schnorr_supermartingale(FAIR, empty, depth=-1, normalize_root=normalize_root)


def test_assembled_schnorr_supermartingale():
    test = ones_test(7, tail=affine(1))
    process = assemble_schnorr_supermartingale(FAIR, test)
    assert check_supermartingale(FAIR, process) == []
    assert process.root == 1
    unnormalized = assemble_schnorr_supermartingale(FAIR, test, normalize_root=False)
    assert unnormalized.root <= 1


def test_derive_tail_bound_ones():
    test = ones_test(3)
    tail = derive_tail_bound_precise(FAIR, test)
    # residual mass of level 0 first drops under 1/2 at depth 2
    assert tail(0) == 2
    carried = RandomnessTest(test.levels, test.max_depth, tail=tail)
    assert all(r.passed for r in validate_schnorr_tail(FAIR, carried, 6))


def test_derive_tail_bound_empty():
    empty = RandomnessTest((frozenset(), frozenset()), max_depth=2)
    tail = derive_tail_bound_precise(FAIR, empty)
    assert tail(0) == 0 and tail(1) == 0
    carried = RandomnessTest(empty.levels, 2, tail=tail)
    assert all(r.passed for r in validate_schnorr_tail(FAIR, carried, 5))


def test_derive_tail_bound_random(seed=103):
    rng = random.Random(seed)
    for _ in range(15):
        fs = decaying_system(rng, precise=True)
        test, _ = rand_valid_test(rng, fs, rng.randint(1, 3), depth=10)
        tail = derive_tail_bound_precise(fs, test)
        carried = RandomnessTest(test.levels, test.max_depth, tail=tail)
        assert all(r.passed for r in validate_schnorr_tail(fs, carried, 6))


def test_derive_tail_bound_imprecise_rejected():
    from gen import WIDE

    with pytest.raises(DomainError):
        derive_tail_bound_precise(WIDE, ones_test(2))


def test_clip_identity_within_budget():
    test = ones_test(4)
    assert clip_to_budget(FAIR, test).levels == test.levels


def test_clip_root_level_emptied():
    test = RandomnessTest((frozenset({""}),), max_depth=0)
    assert clip_to_budget(FAIR, test).levels == (frozenset(),)


def test_clip_empty_candidate():
    empty = RandomnessTest((), max_depth=0)
    assert clip_to_budget(FAIR, empty).levels == ()


def test_clip_idempotent_and_validates(seed=107):
    rng = random.Random(seed)
    crossings, empty = set(), 0
    for _ in range(60):
        fs = rand_system(rng, depth=5, non_degenerate=True)
        levels = []
        for n in range(rng.randint(1, 4)):
            members = set()
            for _ in range(rng.randint(0, 8)):
                d = rng.randint(0, 5)
                members.add("".join(rng.choice("01") for _ in range(d)))
            levels.append(minimal_antichain(members))
        candidate = RandomnessTest(tuple(levels), max_depth=rng.randint(5, 7))
        clipped = clip_to_budget(fs, candidate)
        assert clipped.levels == clip_by_cutoffs(fs, candidate)
        assert all(r.passed for r in validate_ml_test(fs, clipped))
        assert clip_to_budget(fs, clipped).levels == clipped.levels
        empty += sum(not cut for cut in levels)
        for cut, kept in zip(candidate.levels, clipped.levels):
            if kept != cut:  # the depth at which the level's mass crossed 3 * 2**-(n+2)
                crossings.add(min(len(t) for t in cut - kept))
    # the level's mass crosses its threshold at several depths, the root included
    assert {0, 1, 2, 3} <= crossings and empty


def test_combine_universal_pair():
    test = ones_test(4)
    combined = combine_universal(FAIR, [test, test])
    assert [sorted(cut) for cut in combined.levels] == [["11"], ["111"], ["1111"]]
    for n, cut in enumerate(combined.levels):
        assert cut_upper_prob(FAIR, cut) <= Fraction(1, 1 << n)


def test_combine_universal_singleton_and_empty():
    test = ones_test(3)
    single = combine_universal(FAIR, [test])
    assert [sorted(cut) for cut in single.levels] == [["11"], ["111"]]
    assert combine_universal(FAIR, []).levels == ()


def test_combine_universal_covers_members(seed=109):
    rng = random.Random(seed)
    for _ in range(10):
        fs = decaying_system(rng)
        tests = [rand_valid_test(rng, fs, rng.randint(1, 3), depth=10)[0] for _ in range(2)]
        combined = combine_universal(fs, tests)
        clipped = [clip_to_budget(fs, t) for t in tests]
        for n, cut in enumerate(combined.levels):
            assert cut_upper_prob(fs, cut) <= Fraction(1, 1 << n) if cut else True
            for m, t in enumerate(clipped):
                if n + m + 1 < t.num_levels:
                    for member in t.levels[n + m + 1]:
                        assert cut_status(member, cut) in (
                            CutStatus.IN_CUT,
                            CutStatus.FOLLOWS_STRICTLY,
                        )


def test_levels_hit():
    test = ones_test(5)
    assert levels_hit(test, "1111") == {0, 1, 2, 3}
    assert levels_hit(test, "0111") == set()
    assert levels_hit(RandomnessTest((), max_depth=0), "101") == set()


def test_approx_level_prob_cases():
    test = ones_test(4, tail=affine(1))
    assert approx_level_prob(FAIR, test, 0, 3) == (Fraction(1, 2), 0)
    assert approx_level_prob(FAIR, test, 2, 1) == (0, Fraction(1, 2))
    empty = RandomnessTest((frozenset(),), max_depth=1, tail=affine(1))
    assert approx_level_prob(FAIR, empty, 0, 5) == (0, 0)
    with pytest.raises(DomainError):
        approx_level_prob(FAIR, test, 9, 1)


def test_level_probabilities_of_a_member_3000_bits_deep():
    # every unconditional level probability walks the trie level by level, so no member depth
    # reaches the recursion limit, and each answer is exact
    fs = Stationary(interval("2/5"))
    member = "10" * 1500
    mass = cylinder_bounds(fs, member)[0]
    test = RandomnessTest((frozenset({member}),), max_depth=3000, tail=affine(1, 3001))
    assert derive_tail_bound_precise(fs, test) == GrowthFunction((0, 3001), 1, 2999, 1)
    process = assemble_test_supermartingale(fs, test, 0, cutoff=5, depth=3)
    assert process.values == {s: int(s == "") for s in situations_up_to(3)}
    assert approx_level_prob(fs, test, 0, 0) == (mass, 0)
    assert approx_level_prob(fs, RandomnessTest(test.levels, 3000, affine(1)), 0, 5) == (0, Fraction(1, 32))
    # and a deep level over its budget is named with its exact probability
    ones = Stationary(interval(1))
    over = RandomnessTest((frozenset(), frozenset({"1" * 3000})), max_depth=3000)
    with pytest.raises(ContractError, match=r"^level 1 over budget: 1 > 1/2$"):
        assemble_test_supermartingale(ones, over, 1, cutoff=5, depth=3)
