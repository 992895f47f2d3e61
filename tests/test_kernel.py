"""The integer tree kernel against the per-node references in ``oracles``.

Every comparison is exact.  Systems come from ``gen``: stationary, table
and markov kinds, with degenerate {0}/{1} intervals among the endpoints,
gambles and processes with mixed denominators and negative values.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treebet import (
    DepthGamble,
    GrowthFunction,
    IntervalForecast,
    Process,
    Table,
    assemble_schnorr_supermartingale,
    assemble_test_supermartingale,
    check_supermartingale,
    cond_lower,
    cond_upper,
    cut_value_map,
    cylinder_bounds,
    is_non_degenerate,
    martingale_to_test,
    schnorr_test_from_martingale,
)
from treebet.expectation import _cut_trie, _fold_sum, _pairs, _sparse_cut_value
from treebet.local import upper_expectation
from treebet.tree import bits, situations_up_to

from gen import (
    ENDPOINT_POOL,
    WIDE,
    decaying_system,
    rand_fraction,
    rand_gamble,
    rand_supermartingale,
    rand_system,
    rand_valid_test,
)
from oracles import (
    check_supermartingale_by_delta,
    cut_value_map_by_nodes,
    cylinder_bounds_by_products,
    fold_by_levels,
    fold_by_nodes,
    fold_sum_by_leaves,
    stored_levels,
    schnorr_levels_by_scans,
    threshold_levels_by_scans,
)

seeds = st.integers(min_value=0, max_value=2**32)
depths = st.integers(min_value=0, max_value=6)
KINDS = ["stationary", "table", "markov"]
# only {0} and {1} and the vacuous [0, 1]: every choice pins or frees the next bit
DEGENERATE_POOL = [Fraction(0), Fraction(1)]


def system(rng: random.Random, depth: int):
    pool = DEGENERATE_POOL if rng.random() < 0.25 else ENDPOINT_POOL
    return rand_system(rng, depth=depth, kind=rng.choice(KINDS), pool=pool,
                       precise=rng.random() < 0.3)


def rand_cut(rng: random.Random, depth: int) -> frozenset[str]:
    members: set[str] = set()
    for _ in range(rng.randint(0, 4)):
        n = rng.randint(0, depth)
        t = bits(rng.randrange(1 << n), n)
        if not any(t.startswith(m) or m.startswith(t) for m in members):
            members.add(t)
    return frozenset(members)


def rand_process(rng: random.Random, depth: int) -> Process:
    return Process(depth, {s: rand_fraction(rng) for s in situations_up_to(depth)})


@settings(max_examples=150, deadline=None)
@given(seeds, depths)
def test_cond_matches_node_fold(seed, depth):
    rng = random.Random(seed)
    fs = system(rng, depth)
    g = rand_gamble(rng, depth)
    n = rng.randint(0, depth)
    s = bits(rng.randrange(1 << n), n)
    assert cond_upper(fs, g, s) == fold_by_nodes(fs, g, s)
    assert cond_lower(fs, g, s) == fold_by_nodes(fs, g, s, lower=True)


POOLS = {"endpoints": ENDPOINT_POOL, "degenerate": DEGENERATE_POOL}
kinds, pools = st.sampled_from(KINDS), st.sampled_from(sorted(POOLS))


@settings(max_examples=150, deadline=None)
@given(seeds, kinds, pools, st.booleans(), st.integers(0, 10))
def test_cond_matches_the_list_fold_at_every_depth(seed, kind, pool, precise, depth):
    # the trie kernel against the dense list fold, conditioned at one situation of each depth
    rng = random.Random(seed)
    fs = rand_system(rng, depth=depth, kind=kind, pool=POOLS[pool], precise=precise)
    g = rand_gamble(rng, depth)
    for n in range(depth + 1):
        s = bits(rng.randrange(1 << n), n)
        assert cond_upper(fs, g, s) == fold_by_levels(fs, g, s)
        assert cond_lower(fs, g, s) == fold_by_levels(fs, g, s, lower=True)


@settings(max_examples=150, deadline=None)
@given(seeds, kinds, pools, st.booleans(), st.integers(0, 64))
def test_cylinder_bounds_match_the_closed_form(seed, kind, pool, precise, length):
    # the trie kernel on {s} against the closed-form path product, at every prefix of s
    rng = random.Random(seed)
    fs = rand_system(rng, depth=min(length, 8), kind=kind, pool=POOLS[pool], precise=precise)
    s = "".join(rng.choice("01") for _ in range(length))
    for n in range(length + 1):
        assert cylinder_bounds(fs, s[:n]) == cylinder_bounds_by_products(fs, s[:n])


@settings(max_examples=150, deadline=None)
@given(seeds, depths, st.booleans())
def test_cut_value_map_matches_node_sweep(seed, depth, lower):
    rng = random.Random(seed)
    fs = system(rng, depth)
    cut = rand_cut(rng, depth)
    assert cut_value_map(fs, cut, depth, lower) == cut_value_map_by_nodes(fs, cut, depth, lower)


def odd_cut(rng: random.Random, depth: int) -> frozenset[str]:
    """An empty cut, the root alone, or a random antichain at most ``depth`` deep."""
    return rng.choice([frozenset(), frozenset({""}), rand_cut(rng, rng.randint(0, depth))])


@settings(max_examples=200, deadline=None)
@given(seeds, depths, st.booleans(), st.sampled_from([1, 2]))
def test_fold_sum_matches_dense_leaf_fold(seed, depth, lower, divisor):
    # cuts shallower than the sweep, weights 1 and 2**k; the same levels, dens and roots in order
    rng = random.Random(seed)
    fs = system(rng, depth)
    cuts = [(rng.choice([1, 1 << rng.randint(0, 40)]), odd_cut(rng, depth)) for _ in range(rng.randint(0, 5))]
    roots, expected_roots = [], []
    table, codes = _fold_sum(fs, cuts, depth, divisor, lower, on_root=lambda i, v: roots.append((i, v)))
    expected = fold_sum_by_leaves(fs, cuts, depth, divisor, lower, on_root=lambda i, v: expected_roots.append((i, v)))
    got = Process._from_codes(table, codes)
    assert stored_levels(got) == expected
    assert len(set(table)) == len(table) == len({table[c] for level in codes for c in level})
    assert roots == expected_roots


@settings(max_examples=200, deadline=None)
@given(seeds, depths)
def test_checked_cut_upper_prob_matches_the_recursion(seed, depth):
    rng = random.Random(seed)
    fs = system(rng, depth)
    cut = odd_cut(rng, depth)
    recursion = _sparse_cut_value(fs, "", 1, list(cut), upper_expectation)
    assert _cut_trie(_pairs(fs), cut)[0] == recursion == cut_value_map_by_nodes(fs, cut, depth)[""]


@pytest.mark.parametrize("kind", KINDS)
def test_checked_cut_upper_prob_of_a_member_past_1000_bits(kind):
    # the kernel walks the trie level by level, so no depth reaches a recursion limit
    rng = random.Random(kind)
    for pool in (DEGENERATE_POOL, ENDPOINT_POOL):
        fs = rand_system(rng, depth=4, kind=kind, pool=pool)
        member = "".join(rng.choice("01") for _ in range(rng.randint(1001, 3000)))
        assert _cut_trie(_pairs(fs), frozenset({member}))[0] == cylinder_bounds_by_products(fs, member)[0]


@settings(max_examples=150, deadline=None)
@given(seeds, depths)
def test_check_matches_delta_scan(seed, depth):
    rng = random.Random(seed)
    fs = system(rng, depth)
    if rng.random() < 0.5 or not is_non_degenerate(fs):
        process = rand_process(rng, depth)
    else:
        # a supermartingale with a few values bumped: few, scattered violations
        values = dict(rand_supermartingale(rng, fs, depth, root=rand_fraction(rng)).values)
        for _ in range(rng.randint(0, 3)):
            n = rng.randint(0, depth)
            values[bits(rng.randrange(1 << n), n)] += rand_fraction(rng)
        process = Process(depth, values)
    assert check_supermartingale(fs, process) == check_supermartingale_by_delta(fs, process)


def test_check_violation_order_with_mixed_denominators():
    values = {"": Fraction(-1, 3), "0": Fraction(5, 7), "1": Fraction(-2, 9),
              "00": Fraction(0), "01": Fraction(2), "10": Fraction(-7, 4), "11": Fraction(3)}
    process = Process(2, values)
    assert check_supermartingale(WIDE, process) == check_supermartingale_by_delta(WIDE, process)
    assert check_supermartingale(WIDE, process) == ["", "0", "1"]


@pytest.mark.parametrize("depth", [0, 1])
def test_shallow_trees(depth):
    rng = random.Random(depth)
    for kind in KINDS:
        for pool in (DEGENERATE_POOL, ENDPOINT_POOL):
            fs = rand_system(rng, depth=depth, kind=kind, pool=pool)
            g = rand_gamble(rng, depth)
            assert cond_upper(fs, g) == fold_by_nodes(fs, g, "")
            assert cond_lower(fs, g) == fold_by_nodes(fs, g, "", lower=True)
            for cut in ({""}, set(), {bits(0, depth)}):
                for lower in (False, True):
                    assert cut_value_map(fs, cut, depth, lower) == cut_value_map_by_nodes(
                        fs, cut, depth, lower)
            process = rand_process(rng, depth)
            assert check_supermartingale(fs, process) == check_supermartingale_by_delta(fs, process)


def test_depth_gamble_mixed_denominators_deep():
    fs = rand_system(random.Random(7), depth=9, kind="table", pool=ENDPOINT_POOL)
    values = tuple(Fraction((-1) ** j * (j % 17), 1 + j % 13) for j in range(1 << 9))
    g = DepthGamble(9, values)
    for s in ("", "1", "0110"):
        assert cond_upper(fs, g, s) == fold_by_nodes(fs, g, s)
        assert cond_lower(fs, g, s) == fold_by_nodes(fs, g, s, lower=True)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=7))
def test_threshold_levels_match_scans(seed, depth):
    rng = random.Random(seed)
    fs = rand_system(rng, depth=depth, kind=rng.choice(KINDS), pool=ENDPOINT_POOL,
                     non_degenerate=True)
    process = rand_supermartingale(rng, fs, depth)
    test = martingale_to_test(process, fs)
    assert test.levels == threshold_levels_by_scans(process)


def rand_growth(rng: random.Random) -> GrowthFunction:
    prefix = sorted(rng.randint(0, 6) for _ in range(rng.randint(0, 6)))
    slack = max(0, prefix[-1] - len(prefix)) if prefix else rng.randint(0, 2)
    return GrowthFunction(tuple(prefix), 1, slack, 1)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=7))
def test_schnorr_levels_match_scans(seed, depth):
    rng = random.Random(seed)
    fs = rand_system(rng, depth=depth, kind=rng.choice(KINDS), pool=ENDPOINT_POOL,
                     non_degenerate=True)
    process = rand_supermartingale(rng, fs, depth)
    rho = rand_growth(rng)
    test = schnorr_test_from_martingale(process, rho, fs)
    assert test.levels == schnorr_levels_by_scans(process, rho)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_assembled_sums_match_node_sweeps(seed):
    rng = random.Random(seed)
    fs = decaying_system(rng)
    test, _ = rand_valid_test(rng, fs, num_levels=rng.randint(1, 4), depth=6)
    process = assemble_test_supermartingale(fs, test, test.num_levels - 1, normalize_root=False)
    maps = [cut_value_map_by_nodes(fs, cut, 6) for cut in test.levels]
    assert process.values == {s: sum(m[s] for m in maps) / 2 for s in situations_up_to(6)}

    process = rand_supermartingale(rng, fs, 6)
    schnorr = schnorr_test_from_martingale(process, rand_growth(rng), fs)
    assembled = assemble_schnorr_supermartingale(fs, schnorr, normalize_root=False)
    sigma = schnorr.tail.precompose_affine(4, 3)
    expected = {s: Fraction(0) for s in situations_up_to(6)}
    for k in range(sigma.last_at_most(schnorr.deepest_member()) + 1):
        for n in range(schnorr.num_levels):
            deep = schnorr.level_at_least(n, sigma(k))
            if deep:
                for s, v in cut_value_map_by_nodes(fs, deep, 6).items():
                    expected[s] += (1 << k) * v
    assert assembled.values == {s: v / 2 for s, v in expected.items()}


@pytest.mark.parametrize("lower", [False, True])
def test_assembled_sum_with_all_values_distinct(lower):
    # a different interval at every node and a different power-of-two weight
    # on each leaf cut, shuffled so no level is in numerator order: no two
    # situations share a value, so no Fraction is shared either
    depth = 6
    weights = [1 << j for j in range(1 << depth)]
    random.Random(6).shuffle(weights)
    overrides = {
        s: IntervalForecast(Fraction(1, k + 3), Fraction(1, 2) + Fraction(1, k + 4))
        for k, s in enumerate(situations_up_to(depth - 1))
    }
    fs = Table(IntervalForecast(Fraction(1, 2), Fraction(1, 2)), overrides)
    leaf_cuts = [(weight, frozenset({bits(j, depth)})) for j, weight in enumerate(weights)]
    values = Process._from_codes(*_fold_sum(fs, leaf_cuts, depth, divisor=2, lower=lower)).values
    maps = [cut_value_map_by_nodes(fs, cut, depth, lower) for _, cut in leaf_cuts]
    expected = [
        (s, sum(weight * m[s] for (weight, _), m in zip(leaf_cuts, maps)) / 2)
        for s in situations_up_to(depth)
    ]
    assert list(values.items()) == expected
    assert len(set(values.values())) == len(values)
