"""The integer process passes against the per-node references in ``oracles``.

``check_supermartingale``, ``check_test_supermartingale``, the first-passage
levels of ``martingale_to_test``/``schnorr_test_from_martingale``,
``ville_threshold``'s cut and ``bound_check``'s integer ceilings, the
``convert to-test`` and ``convert to-martingale`` commands, and the
bisections of ``clip_to_budget`` and ``derive_tail_bound_precise``.  Systems
are of all three kinds, with {0}, {1} and [0, 1] rows among them; processes
sit on the edges the passes decide: one-step gains with upper expectation
exactly 0, capitals exactly at 2**n and at rho(n), negative values, roots
other than 1, and violations at the root and at the last interior level.
Kelly capitals, whose values depend only on the count of ones, put one row
(failing or not) at many nodes of a level, since the check evaluates each
distinct row of a level once.
"""

import contextlib
import io
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treebet import (
    GrowthFunction,
    Markov,
    Process,
    RandomnessTest,
    Stationary,
    Table,
    assemble_test_supermartingale,
    bound_check,
    check_supermartingale,
    check_test_supermartingale,
    clip_to_budget,
    combine_universal,
    cut_upper_prob,
    derive_tail_bound_precise,
    interval,
    martingale_to_test,
    schnorr_test_from_martingale,
    validate_ml_test,
    validate_schnorr_tail,
    ville_threshold,
)
from treebet import expectation, randtest
from treebet.cli import main
from treebet.errors import ContractError, DomainError, TreebetError
from treebet.forecast import local_scale
from treebet.formats import dump_forecasting_system, dump_growth, dump_process, dump_test
from treebet.randtest import _threshold_test
from treebet.tree import bits, situations_up_to

from gen import (
    ENDPOINT_POOL, FAIR, NUDGE, count_process, decaying_system, rand_fraction, rand_interval, rand_system,
    rand_valid_test,
)
from oracles import (
    bound_check_by_nodes,
    check_supermartingale_by_delta,
    check_supermartingale_by_nodes,
    clip_by_cutoffs,
    convert_to_martingale_by_process,
    convert_to_test_by_nodes,
    process_from_levels,
    schnorr_levels_by_nodes,
    schnorr_levels_by_scans,
    tail_bound_by_cutoffs,
    threshold_levels_by_nodes,
    threshold_levels_by_scans,
    ville_threshold_by_nodes,
)

seeds = st.integers(min_value=0, max_value=2**32)
KINDS = ["stationary", "table", "markov"]
# {0}, {1} and [0, 1]: every row pins the next bit or leaves it free
DEGENERATE_POOL = [Fraction(0), Fraction(1)]


def system(rng: random.Random, depth: int, precise: bool | None = None):
    pool = DEGENERATE_POOL if rng.random() < 0.4 else ENDPOINT_POOL
    if precise is None:
        precise = rng.random() < 0.3
    return rand_system(rng, depth=depth, kind=rng.choice(KINDS), pool=pool, precise=precise)


def rand_rho(rng: random.Random) -> GrowthFunction:
    prefix = sorted(rng.choice([0, 1, 2, 3, 4, 8, 16]) for _ in range(rng.randint(0, 7)))
    slack = max(0, prefix[-1] - len(prefix)) if prefix else rng.randint(0, 2)
    return GrowthFunction(tuple(prefix), 1, slack, 1)


def _other_child(lo: Fraction, hi: Fraction, v: Fraction, t: Fraction) -> Fraction | None:
    """The 0 child that puts the gain's upper expectation at exactly 0 when the
    1 child is t, under [lo, hi]; None when no value does."""
    p = hi if t >= v else lo  # the endpoint the upper expectation takes
    if p == 1:
        return None
    return (v - p * t) / (1 - p)


def edge_process(rng: random.Random, fs, depth: int, rho: GrowthFunction) -> Process:
    """A test supermartingale built top-down whose values sit on the edges.

    Each step puts one child at a target (2**k, rho(depth) or a small value)
    and the other where the gain's upper expectation is exactly 0; below a
    {0} or {1} row the child that cannot occur takes the target freely.
    Where no non-negative value is tight, both children keep the parent's.
    """
    values = {"": Fraction(1)}
    for s in situations_up_to(depth - 1) if depth else []:
        v, i = values[s], fs.at(s)
        target = Fraction(rng.choice([1, 2, 4, 8, 16, rho(len(s) + 1), 0, Fraction(1, 2)]))
        if i.hi == 0:  # {0}: only the 0 child counts
            pair = (target, min(v, target) if rng.random() < 0.3 else v)
        elif i.lo == 1:  # {1}
            pair = (min(v, target) if rng.random() < 0.3 else v, target)
        elif rng.random() < 0.5:
            pair = (target, _other_child(i.lo, i.hi, v, target))
        else:  # the target on the 0 child: the mirror image
            pair = (_other_child(1 - i.hi, 1 - i.lo, v, target), target)
        if None in pair or min(pair) < 0:
            pair = (v, v)
        values[s + "1"], values[s + "0"] = pair
    return Process(depth, values)


def nudged(rng: random.Random, process: Process) -> Process:
    """The process with a few values moved: by 1/97 either way, negated, or a
    new root; the root and the last interior level are picked often."""
    values = dict(process.values)
    depth = process.depth
    for _ in range(rng.randint(1, 3)):
        n = rng.choice([0, max(depth - 1, 0), depth, rng.randint(0, depth)])
        s = bits(rng.randrange(1 << n), n)
        move = rng.random()
        if move < 0.4:
            values[s] += rng.choice([NUDGE, -NUDGE])
        elif move < 0.6:
            values[s] = -values[s] - NUDGE
        else:
            values[s] = rand_fraction(rng)
    return Process(depth, values)


def ceiling_process(rng: random.Random, fs, depth: int) -> Process:
    """A root times each node's cumulative ceiling, some nodes halved and a few moved over it by
    1/97; below a degenerate forecast, where no ceiling exists, the values go on from another one."""
    over = rng.choice([0, 1 / (2 << depth), 0.05])
    ceilings = {"": Fraction(1)}
    for s in situations_up_to(depth - 1) if depth else []:
        scale = local_scale(fs.at(s))
        ceilings[s + "0"] = ceilings[s + "1"] = ceilings[s] / scale if scale else Fraction(rng.randint(1, 4))
    root = rng.choice([Fraction(1), Fraction(3, 2), rand_fraction(rng)])
    return Process(depth, {s: root * c * (1 + NUDGE if rng.random() < over else rng.choice([1, 1, 1, Fraction(1, 2)]))
                           for s, c in ceilings.items()})


def _outcome(f, *args):
    """f's result, or the type and message of the DomainError it raises."""
    try:
        return f(*args)
    except DomainError as exc:
        return DomainError, str(exc)


def _threshold_levels(process):
    return _threshold_test(process).levels


def _cli(tmp: Path, argv: list[str]):
    """(exit code, stdout, stderr, text of --out or None) of one command, run in ``tmp``."""
    out = tmp / "out.x"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_text() if out.exists() else None


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=6), st.booleans())
def test_integer_check_and_scans_match_per_node_references(seed, depth, nudge):
    rng = random.Random(seed)
    fs = system(rng, depth)
    rho = rand_rho(rng)
    process = edge_process(rng, fs, depth, rho)
    if nudge:
        process = nudged(rng, process)
    elif rng.random() < 0.2:  # a positive multiple: still a supermartingale, root not 1
        scale = rand_fraction(rng, span=2) or Fraction(3)
        process = Process(depth, {s: abs(scale) * v for s, v in process.values.items()})

    violations = check_supermartingale(fs, process)
    assert violations == check_supermartingale_by_delta(fs, process)
    assert violations == check_supermartingale_by_nodes(fs, process)
    if not nudge:
        assert violations == []
    is_test = (process.root == 1 and min(process.values.values()) >= 0 and not violations)
    assert check_test_supermartingale(fs, process) == is_test

    assert _threshold_levels(process) == threshold_levels_by_nodes(process)
    if min(process.values.values()) >= 0:
        assert _threshold_levels(process) == threshold_levels_by_scans(process)
    if is_test:
        assert martingale_to_test(process, fs).levels == threshold_levels_by_nodes(process)
        levels = schnorr_test_from_martingale(process, rho, fs).levels
        assert levels == schnorr_levels_by_nodes(process, rho)
        assert levels == schnorr_levels_by_scans(process, rho)
    else:
        with pytest.raises(ContractError, match="not a test supermartingale"):
            martingale_to_test(process, fs)
        with pytest.raises(ContractError, match="not a test supermartingale"):
            schnorr_test_from_martingale(process, rho, fs)


@settings(max_examples=200, deadline=None)
@given(seeds, st.sampled_from(KINDS), st.integers(min_value=0, max_value=8))
def test_ville_threshold_and_bound_check_match_per_node_references(seed, kind, depth):
    # capitals at and just over the ceilings, below degenerate forecasts too, and thresholds at
    # node values (a cut at >=), between them, past the maximum and not positive
    rng = random.Random(seed)
    pool = DEGENERATE_POOL if rng.random() < 0.4 else ENDPOINT_POOL
    fs = rand_system(rng, depth=depth, kind=kind, pool=pool, precise=rng.random() < 0.3)
    process = rng.choice([
        lambda: ceiling_process(rng, fs, depth),
        lambda: edge_process(rng, fs, depth, rand_rho(rng)),
        lambda: nudged(rng, edge_process(rng, fs, depth, rand_rho(rng))),
    ])()
    process = rng.choice([process, -process, process.with_root(rand_fraction(rng))])
    assert _outcome(bound_check, fs, process) == _outcome(bound_check_by_nodes, fs, process)
    values = [*process.values.values()]
    for threshold in (rng.choice(values), rng.choice(values), 1, 2, Fraction(1 << rng.randint(0, 8)),
                      rand_fraction(rng), max(values) + NUDGE, 0, -1, 0.75):
        assert _outcome(ville_threshold, fs, process, threshold) == _outcome(ville_threshold_by_nodes, fs, process,
                                                                             threshold)


@pytest.mark.parametrize(
    "over, outcome",
    [(None, "1"), ("", "1"), ("1", False), ("01", False), ("10", "1"), ("11", "1"), ("000", "1")],
)
def test_bound_check_takes_the_first_of_a_node_over_its_ceiling_and_a_degenerate_forecast(over, outcome):
    # {0} at '1' leaves its children '10' and '11' without a ceiling: a node over its ceiling before
    # '10' in heap order returns False, one after it meets the DomainError first
    fs = Table(interval("1/2"), {"1": interval(0)})
    values = {s: Fraction(1 << len(s)) for s in situations_up_to(3)}  # the fair ceilings 2**|s|
    if over is not None:
        values[over] += NUDGE
    process = Process(3, values)
    expected = outcome if outcome is False else (DomainError, f"degenerate forecast at {outcome!r}")
    assert _outcome(bound_check, fs, process) == _outcome(bound_check_by_nodes, fs, process) == expected
    assert _outcome(bound_check, Stationary(interval(1)), process) == (DomainError, "degenerate forecast at '@'")


def test_edge_processes_reach_the_edges():
    # the generator does put capitals exactly at 2**n and at rho(n), with
    # first passages past level 0, on every system kind
    rng = random.Random(5)
    crossed, at_rho = set(), 0
    for _ in range(60):
        fs = system(rng, 5)
        rho = rand_rho(rng)
        process = edge_process(rng, fs, 5, rho)
        crossed |= {n for n, cut in enumerate(_threshold_levels(process)) if cut}
        at_rho += sum(v == rho(len(s)) > 1 for s, v in process.values.items())
    assert {0, 1, 2, 3} <= crossed and at_rho


def _failing_row_repeats(fs, process: Process, violations: list[str]) -> bool:
    """Whether two failing nodes of one level share their row."""
    values = process.values
    rows = [(len(s), values[s], values[s + "0"], values[s + "1"], fs.at(s)) for s in violations]
    return len(set(rows)) < len(rows)


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(KINDS), st.integers(min_value=1, max_value=8), st.booleans())
def test_repeated_rows_match_per_node_references(seed, kind, depth, moved):
    # the check evaluates each distinct row of a level once: the violations must still be
    # every failing node, in heap order, and the first passages every crossing node
    rng = random.Random(seed)
    pool = DEGENERATE_POOL + [Fraction(1, 2)] if rng.random() < 0.2 else ENDPOINT_POOL
    forecast = rand_interval(rng, non_degenerate=True, pool=pool)
    fs = rand_system(rng, depth=depth, kind=kind, pool=pool)
    if kind == "stationary" and rng.random() < 0.5:  # the bettor's own system: a test supermartingale
        fs = Stationary(forecast)
    process = count_process(rng, forecast, depth, moved)

    violations = check_supermartingale(fs, process)
    assert violations == check_supermartingale_by_nodes(fs, process)
    assert violations == check_supermartingale_by_delta(fs, process)  # sorted into heap order
    assert _threshold_levels(process) == threshold_levels_by_nodes(process)
    if check_test_supermartingale(fs, process):
        assert martingale_to_test(process, fs).levels == threshold_levels_by_nodes(process)
        rho = rand_rho(rng)
        assert schnorr_test_from_martingale(process, rho, fs).levels == schnorr_levels_by_nodes(process, rho)


def test_count_processes_repeat_failing_rows_and_cross_at_many_nodes():
    # the generator above does put one failing row at several nodes of a level, and
    # one level's first passages at several nodes, on every system kind
    for kind in KINDS:
        rng = random.Random(kind)
        repeated = crowded = 0
        for _ in range(40):
            forecast = rand_interval(rng, non_degenerate=True, pool=ENDPOINT_POOL)
            fs = rand_system(rng, depth=6, kind=kind, pool=ENDPOINT_POOL)
            process = count_process(rng, forecast, 6, moved=True)
            repeated += _failing_row_repeats(fs, process, check_supermartingale(fs, process))
            crowded += any(len(cut) > 1 for cut in _threshold_levels(process))
        assert repeated and crowded, kind


@pytest.mark.parametrize("fs", [FAIR, Stationary(interval("2/5", "7/10")), Markov(1, {
    "": interval("1/2"), "0": interval("1/4", "2/5"), "1": interval("2/5", "7/10")})], ids=["fair", "wide", "markov"])
def test_a_failing_row_repeated_across_a_level_names_every_node_in_heap_order(fs):
    # the value 1 everywhere, raised at the depth-3 nodes with one 1 and the depth-2 node with two:
    # "1" fails for its child "11", "00" for "001", and "01" and "10" for one row, (1, 1 + 1/97, 1)
    process = Process(4, {s: 1 + (NUDGE if (len(s), s.count("1")) in {(3, 1), (2, 2)} else 0)
                          for s in situations_up_to(4)})
    violations = check_supermartingale(fs, process)
    assert violations == ["1", "00", "01", "10"]
    assert violations == check_supermartingale_by_nodes(fs, process)
    assert not check_test_supermartingale(fs, process)
    if isinstance(fs, Stationary):
        assert _failing_row_repeats(fs, process, violations)


@settings(max_examples=120, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=5), st.booleans())
def test_convert_to_test_matches_per_node_reference(tmp_path_factory, seed, depth, nudge):
    rng = random.Random(seed)
    fs = system(rng, depth)
    process = edge_process(rng, fs, depth, rand_rho(rng))
    if nudge:
        process = nudged(rng, process)
    tmp = tmp_path_factory.mktemp("to-test")
    (tmp / "a.fs").write_text(dump_forecasting_system(fs))
    (tmp / "a.proc").write_text(dump_process(process))
    argv = ["convert", "to-test", "--process", str(tmp / "a.proc"), "--fs", str(tmp / "a.fs")]
    assert _cli(tmp, argv) == convert_to_test_by_nodes(fs, process)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=5), st.booleans())
def test_convert_reads_dumped_and_edited_proc_alike(tmp_path_factory, seed, depth, nudge):
    # a comment line and a blank line send the .proc to the line-by-line reader
    rng = random.Random(seed)
    fs = system(rng, depth)
    rho = rand_rho(rng)
    process = edge_process(rng, fs, depth, rho)
    if nudge:
        process = nudged(rng, process)
    tmp = tmp_path_factory.mktemp("layouts")
    (tmp / "a.fs").write_text(dump_forecasting_system(fs))
    (tmp / "dumped.proc").write_text(dump_process(process))
    (tmp / "edited.proc").write_text("# edited\n" + dump_process(process) + "\n")
    for direction, extra in (("to-test", []), ("schnorr-from-martingale", ["--rho", dump_growth(rho)])):
        dumped, edited = (_cli(tmp, ["convert", direction, "--process", str(tmp / f"{name}.proc"),
                                     "--fs", str(tmp / "a.fs")] + extra) for name in ("dumped", "edited"))
        assert dumped == edited


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=6))
def test_built_tests_pass_the_checked_constructor(seed, depth):
    # the tests the library builds skip the antichain and depth checks;
    # the public constructor takes each back unchanged
    rng = random.Random(seed)
    fs = system(rng, depth)
    rho = rand_rho(rng)
    process = edge_process(rng, fs, depth, rho)
    inputs = [rand_test(rng, fs, depth) for _ in range(rng.randint(0, 3))]
    if inputs:  # shifted one level on, the last test's members extended: the union needs minimising
        inputs.append(RandomnessTest((frozenset(),) + tuple(
            frozenset(t + "1" for t in cut if len(t) < depth) for cut in inputs[-1].levels), max_depth=depth))
    built = [clip_to_budget(fs, t) for t in inputs] + [combine_universal(fs, inputs)]
    if check_test_supermartingale(fs, process):
        built += [martingale_to_test(process, fs), schnorr_test_from_martingale(process, rho, fs)]
    for test in built:
        assert RandomnessTest(test.levels, test.max_depth, test.tail) == test
        assert [r.actual for r in validate_ml_test(fs, test)] == [cut_upper_prob(fs, cut) for cut in test.levels]
        if test.tail is not None:
            for r in validate_schnorr_tail(fs, test, k_max=3):
                assert r.worst_actual == max(
                    (cut_upper_prob(fs, test.level_at_least(n, r.cutoff)) for n in range(test.num_levels)),
                    default=0)


def rand_level(rng: random.Random, fs, n: int, depth: int) -> frozenset[str]:
    """Empty, a random antichain, or one member deep enough to fit 2**-n."""
    kind = rng.random()
    if kind < 0.2:
        return frozenset()
    if kind < 0.6:
        members: set[str] = set()
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, depth)
            t = bits(rng.randrange(1 << k), k)
            if not any(t.startswith(m) or m.startswith(t) for m in members):
                members.add(t)
        return frozenset(members)
    w = bits(rng.randrange(1 << depth), depth)
    k = next((k for k in range(depth + 1) if cut_upper_prob(fs, {w[:k]}) <= Fraction(1, 1 << n)),
             depth)
    return frozenset({w[:k]})


def rand_test(rng: random.Random, fs, depth: int) -> RandomnessTest:
    levels = tuple(rand_level(rng, fs, n, depth) for n in range(rng.randint(1, 4)))
    return RandomnessTest(levels, max_depth=depth)


def _library(call):
    try:
        return call().values
    except TreebetError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=6))
def test_to_martingale_matches_assembled_process_path(tmp_path_factory, seed, depth):
    rng = random.Random(seed)
    fs = system(rng, depth)
    test = rand_test(rng, fs, depth)
    tmp = tmp_path_factory.mktemp("to-martingale")
    (tmp / "a.fs").write_text(dump_forecasting_system(fs))
    (tmp / "a.test").write_text(dump_test(test))
    for n_max in sorted({0, rng.randint(-1, test.num_levels), test.num_levels - 1}):
        argv = ["convert", "to-martingale", "--test", str(tmp / "a.test"), "--fs", str(tmp / "a.fs"),
                "--levels", str(n_max)]
        assert _cli(tmp, argv) == convert_to_martingale_by_process(fs, test, n_max)
        # the library's defaults are the untruncated cutoff and the test's depth
        for normalize_root in (False, True):
            assert _library(lambda: assemble_test_supermartingale(
                fs, test, n_max, normalize_root=normalize_root)) == _library(
                lambda: assemble_test_supermartingale(
                    fs, test, n_max, cutoff=depth + 1, depth=depth, normalize_root=normalize_root))


def test_to_martingale_over_budget_and_level_zero(tmp_path):
    fs = Stationary(interval("1/2"))
    (tmp_path / "a.fs").write_text(dump_forecasting_system(fs))
    # level 1 holds mass 3/4 > 1/2; level 2 is empty
    test = RandomnessTest((frozenset({"1"}), frozenset({"0", "11"}), frozenset()), max_depth=2)
    (tmp_path / "a.test").write_text(dump_test(test))
    argv = ["convert", "to-martingale", "--test", str(tmp_path / "a.test"),
            "--fs", str(tmp_path / "a.fs"), "--levels"]
    over = _cli(tmp_path, argv + ["2"])
    assert over == (3, "", "treebet: level 1 over budget: 3/4 > 1/2\n", None)
    assert over == convert_to_martingale_by_process(fs, test, 2)
    zero = _cli(tmp_path, argv + ["0"])
    assert zero[:3] == (0, "root 1/4 normalized 1\nremainder bound 1\nsupermartingale check pass\n", "")
    assert zero == convert_to_martingale_by_process(fs, test, 0)


def test_to_martingale_stops_at_the_first_level_over_budget(tmp_path, monkeypatch):
    # level 1 holds mass 1 > 1/2; the 18 levels after it each hold a depth-18
    # member, and none of them is folded
    fs = Stationary(interval("1/2"))
    (tmp_path / "a.fs").write_text(dump_forecasting_system(fs))
    levels = (frozenset(), frozenset({"0", "1"})) + tuple(frozenset({"1" * 18}) for _ in range(18))
    test = RandomnessTest(levels, max_depth=18)
    (tmp_path / "a.test").write_text(dump_test(test))
    folded = []
    cut_trie = expectation._cut_trie
    monkeypatch.setattr(expectation, "_cut_trie", lambda ends, cut: folded.append(cut) or cut_trie(ends, cut))
    argv = ["convert", "to-martingale", "--test", str(tmp_path / "a.test"),
            "--fs", str(tmp_path / "a.fs"), "--levels", "19"]
    start = time.perf_counter()
    over = _cli(tmp_path, argv)
    assert time.perf_counter() - start < 1
    assert folded == [frozenset({"0", "1"})]
    assert over == (3, "", "treebet: level 1 over budget: 1 > 1/2\n", None)
    assert over == convert_to_martingale_by_process(fs, test, 19)


def test_written_tests_keep_to_the_level_limit(tmp_path):
    # under a {0} row the 1 child cannot occur, so any capital there passes
    # the check: 2**5000 crosses 5000 levels, more than a .test file may declare
    zero = Stationary(interval("0"))
    big = 1 << 5000
    process = Process(1, {"": Fraction(1), "0": Fraction(1), "1": Fraction(big)})
    (tmp_path / "a.fs").write_text(dump_forecasting_system(zero))
    (tmp_path / "a.proc").write_text(dump_process(process))
    argv = ["convert", "to-test", "--process", str(tmp_path / "a.proc"), "--fs", str(tmp_path / "a.fs")]
    refused = _cli(tmp_path, argv)
    assert refused == (4, "", "treebet: test has 5000 levels, over the limit of 4096\n", None)
    assert refused == convert_to_test_by_nodes(zero, process)
    # rho(1) = 2**5000 is reached at 1, so the Schnorr test has 5001 levels
    argv[1] = "schnorr-from-martingale"
    refused = _cli(tmp_path, argv + ["--rho", f"table 1 {big} ; affine {big} 0 1"])
    assert refused == (4, "", "treebet: test has 5001 levels, over the limit of 4096\n", None)


@pytest.mark.parametrize(
    "n_max, cutoff, depth, error, message",
    [
        (2, None, 0, DomainError, "levels 0..2 not all stored"),
        (1, 1, None, ContractError, "level 1 over budget: 1 > 1/2"),
        (1, None, 0, ContractError, "level 1 over budget: 1 > 1/2"),
        (1, None, -1, ContractError, "level 1 over budget: 1 > 1/2"),
        (0, None, 0, DomainError, "cut member deeper than the requested sweep depth"),
        (0, 1, -1, DomainError, "process depth must be non-negative"),
    ],
)
def test_assembly_with_explicit_cutoff_or_depth_keeps_its_errors(n_max, cutoff, depth, error, message):
    # budgets are checked before the depth, on whole levels whatever the cutoff
    test = RandomnessTest((frozenset({"1"}), frozenset({"0", "1"})), max_depth=1)
    with pytest.raises(error) as info:
        assemble_test_supermartingale(FAIR, test, n_max, cutoff=cutoff, depth=depth)
    assert str(info.value) == message


# cylinder upper probabilities fall by at least 5/8 a step, so rand_valid_test can place its levels
DECAYING_POOL = [Fraction(3, 8), Fraction(2, 5), Fraction(1, 2), Fraction(5, 8)]


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(KINDS), st.integers(min_value=6, max_value=8))
def test_assembled_processes_are_test_supermartingales_that_convert_back(seed, kind, depth):
    # the assembled levels are over unreduced shared denominators, the root over 1 once normalised
    rng = random.Random(seed)
    fs = rand_system(rng, depth=depth, kind=kind, pool=DECAYING_POOL, precise=rng.random() < 0.3)
    test, _ = rand_valid_test(rng, fs, rng.randint(1, 4), depth)
    process = assemble_test_supermartingale(fs, test, rng.randrange(test.num_levels))
    assert check_test_supermartingale(fs, process)
    assert martingale_to_test(process, fs).levels == threshold_levels_by_nodes(process)


def test_an_unreduced_root_of_1_is_a_root_of_1():
    # 4/4 at the root, 2/4 and 6/4 below: the fair system's martingale 1, 1/2, 3/2
    process = process_from_levels([[4], [2, 6]], [[4], [4, 4]])
    assert process.root == 1 and process.values == {"": 1, "0": Fraction(1, 2), "1": Fraction(3, 2)}
    assert check_test_supermartingale(FAIR, process)
    assert martingale_to_test(process, FAIR).levels == (frozenset({"1"}),)
    assert not check_test_supermartingale(FAIR, process_from_levels([[4], [2, 6]], [[2], [4, 4]]))


@pytest.mark.parametrize(
    "values, reason",
    [
        ({"": 2, "0": 2, "1": 2}, "root is 2, not 1"),
        ({"": 1, "0": 3, "1": -1}, "check fails at 1"),
        ({"": 1, "0": 2, "1": 2}, "check fails at @"),
    ],
)
def test_conversions_say_why_a_process_is_not_a_test_supermartingale(values, reason):
    process = Process(1, values)
    for convert in (lambda: martingale_to_test(process, FAIR),
                    lambda: schnorr_test_from_martingale(process, GrowthFunction((), 1, 0, 1), FAIR)):
        with pytest.raises(ContractError) as info:
            convert()
        assert str(info.value) == "input is not a test supermartingale for the given system"
        assert info.value.reason == reason


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=6))
def test_clip_bisection_matches_every_cutoff(seed, depth):
    rng = random.Random(seed)
    fs = system(rng, depth)
    test = RandomnessTest(tuple(rand_level(rng, fs, 0, depth) for _ in range(rng.randint(0, 4))),
                          max_depth=depth)
    assert clip_to_budget(fs, test).levels == clip_by_cutoffs(fs, test)


def _tail(fs, test):
    try:
        return derive_tail_bound_precise(fs, test)
    except TreebetError as exc:
        return type(exc), str(exc)


def _tail_reference(fs, test):
    try:
        return tail_bound_by_cutoffs(fs, test)
    except TreebetError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=6))
def test_tail_bound_bisection_matches_every_cutoff(seed, depth):
    # on {0}/{1} rows a non-empty cut can have mass 0, so the residual can
    # reach 0 before the deepest member
    rng = random.Random(seed)
    fs = system(rng, depth, precise=True)
    test = rand_test(rng, fs, depth)
    assert _tail(fs, test) == _tail_reference(fs, test)


def test_tail_bound_evaluates_each_distinct_cut_once(monkeypatch):
    calls = []

    def counted(ends, cut):
        calls.append(frozenset(cut))
        return expectation._cut_trie(ends, cut)

    rng = random.Random(3)
    cases = []
    for _ in range(10):
        fs = decaying_system(rng, precise=True)
        test, _ = rand_valid_test(rng, fs, 8, 16)
        cases.append((fs, test, tail_bound_by_cutoffs(fs, test)))
    monkeypatch.setattr(randtest, "_cut_trie", counted)
    for fs, test, expected in cases:
        calls.clear()
        assert derive_tail_bound_precise(fs, test) == expected
        assert calls and len(calls) == len(set(calls))


def test_tail_bound_with_massless_members():
    ones = Stationary(interval("1"))
    test = RandomnessTest((frozenset({"0", "10"}), frozenset({"110", "1110"})), max_depth=4)
    assert cut_upper_prob(ones, test.level(0)) == 0
    tail = derive_tail_bound_precise(ones, test)
    assert tail == tail_bound_by_cutoffs(ones, test)
    assert tail.prefix == (0, 0, 0)


def test_absurd_level_count_exits_4_quickly(tmp_path):
    (tmp_path / "a.fs").write_text("kind: stationary\ninterval: 1/2 1/2\n")
    (tmp_path / "a.test").write_text("levels: 100000\ndepth: 1\nlevel 0 1\n")
    fs, path = str(tmp_path / "a.fs"), str(tmp_path / "a.test")
    message = "treebet: line 1: test has 100000 levels, over the limit of 4096\n"
    start = time.perf_counter()
    for argv in (["convert", "universal", path, "--fs", fs],
                 ["convert", "to-martingale", "--test", path, "--levels", "0", "--fs", fs]):
        assert _cli(tmp_path, argv) == (4, "", message, None)
    assert time.perf_counter() - start < 1
