"""A Process keeps its values as small-int codes into one table of distinct integer pairs.

Every way a process is made (the constructor, ``oracles.process_from_levels``, ``parse_process`` in
the writer's layout and in an edited one, ``with_root``, negation and the ``assemble_*`` builders) must
leave a table that holds each pair once, codes that index it, and stored levels
(``oracles.stored_levels``), a ``values`` view and node reads (``at``, ``delta``, ``max_value``)
equal to the per-node references in ``oracles``.  Kelly capitals with one class moved put one
failing row at many nodes of a level, so the checks that read the codes are compared with the
per-node ones too.
"""

import random
from fractions import Fraction
from itertools import chain
from math import lcm

from hypothesis import given, note, settings, strategies as st

from treebet import (
    LocalGamble,
    Process,
    RandomnessTest,
    affine,
    assemble_schnorr_supermartingale,
    assemble_test_supermartingale,
    check_supermartingale,
    check_test_supermartingale,
    interval,
    schnorr_test_from_martingale,
)
from treebet.formats import dump_process, parse_process
from treebet.numerals import format_rational
from treebet.randtest import _threshold_test
from treebet.tree import situations_up_to

from gen import (
    count_process, decaying_system, rand_fraction, rand_interval, rand_supermartingale, rand_system,
    rand_valid_test,
)
from oracles import (
    check_supermartingale_by_delta, integer_levels, parse_process_by_lines, process_from_levels,
    process_text_by_names, schnorr_levels_by_nodes, stored_levels, threshold_levels_by_nodes,
)

seeds = st.integers(min_value=0, max_value=2**32)


def unused(process: Process) -> int:
    """How many table entries no node takes."""
    return len(process.table) - len({c for level in process.codes for c in level})


def assert_coded(process: Process, reduced: bool, spare: int = 0) -> None:
    """The table holds each pair once, with positive denominators, and all but ``spare`` of its
    entries are some node's; the views agree with the codes and with the references."""
    table, codes = process.table, process.codes
    assert len(set(table)) == len(table) and all(d > 0 for _, d in table)
    assert [len(level) for level in codes] == [1 << w for w in range(process.depth + 1)]
    assert all(0 <= c < len(table) for level in codes for c in level) and unused(process) == spare
    nums, dens = stored_levels(process)
    assert [[table[c] for c in level] for level in codes] == [[*zip(ns, ds)] for ns, ds in zip(nums, dens)]
    assert [*process.values] == [*situations_up_to(process.depth)]
    assert [*process.values.values()] == [Fraction(n, d) for n, d in zip(chain(*nums), chain(*dens))]
    # the node reads index the codes, over the nodes' pairs only
    assert all(process.at(s) == v for s, v in process.values.items())
    assert all(process.delta(s) == LocalGamble(on1=process.values[s + "1"] - v, on0=process.values[s + "0"] - v)
               for s, v in process.values.items() if len(s) < process.depth)
    assert process.max_value() == max(process.values.values())
    if reduced:  # in lowest terms, as a process read from text keeps them
        assert (nums, dens) == integer_levels(process)
    assert parse_process_by_lines(dump_process(process)).values == process.values


def unreduced_levels(rng: random.Random, process: Process) -> tuple[list[list[int]], list[list[int]]]:
    """The process's levels over denominators not in lowest terms: some levels share one
    denominator, as the assembled sums' do, the others scale each value on its own."""
    values, nums, dens = [*process.values.values()], [], []
    for w in range(process.depth + 1):
        row = values[(1 << w) - 1:(2 << w) - 1]
        if rng.random() < 0.5:
            den = lcm(*(v.denominator for v in row)) * rng.randint(1, 3)
            scales = [den // v.denominator for v in row]
        else:
            scales = [rng.randint(1, 3) for _ in row]
        nums.append([v.numerator * k for v, k in zip(row, scales)])
        dens.append([v.denominator * k for v, k in zip(row, scales)])
    return nums, dens


def made_processes(rng: random.Random, fs, depth: int):
    """(how, process, whether it is in lowest terms, its table entries no node takes) for a process
    made each way, its values repeating heavily."""
    base = rng.choice([
        lambda: rand_supermartingale(rng, fs, depth=depth),
        lambda: count_process(rng, rand_interval(rng, non_degenerate=True), max(depth, 1), moved=True),
        lambda: Process.from_function(depth, lambda s: rand_fraction(rng, rng.choice([1, 10**6]))),
    ])()
    yield "constructor", base, True, 0
    yield "from levels", process_from_levels(*unreduced_levels(rng, base)), False, 0
    text = dump_process(base)
    yield "parse dumped", parse_process(text), True, 0
    yield "parse edited", parse_process(f"# edited\n{text}\n"), True, 0  # the comment and blank line
    # the writer's layout with some values written unreduced or signed: texts that differ, pairs that do not
    texts = [rng.choice([format_rational(v), f"{2 * v.numerator}/{2 * v.denominator}", f"+{v}" if v >= 0 else f"{v}"])
             for v in base.values.values()]
    odd = process_text_by_names(base.depth, texts)
    yield "parse odd texts", parse_process(odd), True, 0
    rooted = base.with_root(rng.choice([Fraction(1), base.root, -base.root, rand_fraction(rng)]))
    assert all(a is b for a, b in zip(rooted.codes[1:], base.codes[1:], strict=True))
    # the old root's pair stays in the table, unused when no other node takes it
    taken = {rooted.table[c] for level in rooted.codes for c in level}
    yield "with root", rooted, True, int(base.table[base.codes[0][0]] not in taken)
    negated = -base
    assert negated.codes is base.codes and negated.values == {s: -v for s, v in base.values.items()}
    yield "negated", negated, True, 0
    system = decaying_system(rng)
    test, _ = rand_valid_test(rng, system, rng.randint(1, 4), max(depth, 6))  # deep enough for 4 budgets
    n = rng.randrange(test.num_levels)
    assembled = assemble_test_supermartingale(system, test, n, normalize_root=False)
    yield "assembled", assembled, False, 0
    normalized = assemble_test_supermartingale(system, test, n)
    assert normalized.codes[1:] == assembled.codes[1:] and normalized.root == 1 and unused(normalized) <= 1
    yield "assembled, root 1", normalized, False, unused(normalized)
    tailed = RandomnessTest(test.levels, max_depth=test.max_depth, tail=affine(1))
    yield "assembled schnorr", assemble_schnorr_supermartingale(system, tailed, normalize_root=False), False, 0


@settings(max_examples=120, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=7))
def test_every_way_of_making_a_process_codes_each_pair_once(seed, depth):
    rng = random.Random(seed)
    fs = rand_system(rng, depth=depth, non_degenerate=True)
    for how, process, reduced, spare in made_processes(rng, fs, depth):
        note(how)
        assert_coded(process, reduced, spare)
        # the checks and first passages read the codes: against the per-node references
        assert check_supermartingale(fs, process) == check_supermartingale_by_delta(fs, process)
        assert _threshold_test(process).levels == threshold_levels_by_nodes(process)
        if check_test_supermartingale(fs, process):
            rho = affine(1)
            assert schnorr_test_from_martingale(process, rho, fs).levels == schnorr_levels_by_nodes(process, rho)


def test_a_dumped_kelly_capital_keeps_one_entry_per_distinct_value():
    # values that depend only on the depth and the count of ones: a depth-9 level has 10 of them
    rng = random.Random(9)
    process = count_process(rng, interval("2/5", "3/5"), 9, moved=False)
    read = parse_process(dump_process(process))
    assert len(read.table) == len(set(process.values.values())) <= sum(w + 1 for w in range(10))
    assert read.values == process.values
