"""Golden tests for the command-line interface."""

import time
from collections import Counter
from fractions import Fraction

import pytest

from treebet import (
    RandomnessTest, Table, cli, combine_universal, interval, randtest, schnorr_test_from_martingale,
    validate_ml_test, validate_schnorr_tail,
)
from treebet.cli import main
from treebet.expectation import _cut_trie
from treebet.formats import (
    MAX_BITS, MAX_DEPTH, dump_forecasting_system, dump_process, dump_test, parse_growth, parse_process, parse_test,
)
from treebet.martingale import kelly_process
from treebet.numerals import format_rational

from gen import FAIR
from oracles import _budget_lines

FAIR_FS = "kind: stationary\ninterval: 1/2 1/2\n"
WIDE_FS = "kind: stationary\ninterval: 2/5 7/10\n"
POINT_ONE_FS = "kind: stationary\ninterval: 1 1\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "fair.fs").write_text(FAIR_FS)
    (tmp_path / "wide.fs").write_text(WIDE_FS)
    (tmp_path / "point-one.fs").write_text(POINT_ONE_FS)
    (tmp_path / "doubler.proc").write_text(dump_process(kelly_process(FAIR, 1, "on-one", 3)))
    (tmp_path / "seq.txt").write_text("1111\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_local_golden(capsys):
    assert main(["local", "--interval", "2/5", "7/10", "--gamble", "1", "0"]) == 0
    assert capsys.readouterr().out == "upper 7/10  lower 2/5\n"


def test_local_constant(capsys):
    assert main(["local", "--interval", "1/2", "1/2", "--gamble", "1", "1"]) == 0
    assert capsys.readouterr().out == "upper 1  lower 1\n"


def test_local_malformed_rational(capsys):
    assert main(["local", "--interval", "0.4", "0.7", "--gamble", "1", "0"]) == 2
    assert "not a rational" in capsys.readouterr().err


@pytest.mark.parametrize("lo", ["1/3\n", "\u0661/\u0663"])
def test_local_rational_with_a_newline_or_non_ascii_digits_exits_2(capsys, lo):
    assert main(["local", "--interval", lo, "1/2", "--gamble", "1", "0"]) == 2
    assert capsys.readouterr() == ("", f"treebet: not a rational (want p/q or an integer): {lo!r}\n")


def test_cutprob_fair(workdir, capsys):
    assert main(["cutprob", "--fs", "fair.fs", "--cut", "1,00"]) == 0
    assert capsys.readouterr().out == "3/4\n"


def test_cutprob_wide_lower(workdir, capsys):
    assert main(["cutprob", "--fs", "wide.fs", "--cut", "10", "--lower"]) == 0
    assert capsys.readouterr().out == "3/25\n"


def test_cutprob_rejects_nested_cut(workdir, capsys):
    assert main(["cutprob", "--fs", "fair.fs", "--cut", "1,11"]) == 2
    assert "antichain" in capsys.readouterr().err


@pytest.mark.parametrize("bits", [40, 200])
def test_cutprob_answers_a_deep_member_exactly(workdir, capsys, bits):
    # no depth limit: the answer is linear in the member, and 200 bits stays well under the recursion limit
    assert main(["cutprob", "--fs", "fair.fs", "--cut", "1" * bits]) == 0
    assert capsys.readouterr() == (f"1/{1 << bits}\n", "")


@pytest.mark.parametrize("lower", [[], ["--lower"]])
def test_cutprob_past_the_recursion_limit_names_the_depth(workdir, capsys, lower):
    # the cut probabilities recurse once per member bit: 3,000 bits is past the default limit
    argv = ["cutprob", "--fs", "fair.fs", "--cut", "1" * 3000]
    assert main(argv + lower) == 4
    assert capsys.readouterr() == ("", "treebet: cut member 3000 bits deep is past the recursion limit\n")


def test_convert_to_test_golden(workdir, capsys):
    code = main(["convert", "to-test", "--process", "doubler.proc", "--fs", "fair.fs",
                 "--out", "ones.test"])
    assert code == 0
    assert capsys.readouterr().out == (
        "level 0: actual 1/2 budget 1 pass\n"
        "level 1: actual 1/4 budget 1/2 pass\n"
        "level 2: actual 1/8 budget 1/4 pass\n"
        "all budgets pass\n"
    )
    assert (workdir / "ones.test").read_text() == (
        "levels: 3\ndepth: 3\nlevel 0 1\nlevel 1 11\nlevel 2 111\n"
    )


def test_convert_to_test_rejects_non_supermartingale(workdir, capsys):
    (workdir / "bad.proc").write_text("depth: 1\n@ 1\n0 2\n1 2\n")
    assert main(["convert", "to-test", "--process", "bad.proc", "--fs", "fair.fs",
                 "--out", "bad.test"]) == 3
    assert "check fails at @" in capsys.readouterr().err


@pytest.mark.parametrize("negatives", [{}, {"10": "-1", "01": "-2"}], ids=["valid", "negative"])
def test_convert_to_test_ignores_line_order(workdir, capsys, negatives):
    lines = (workdir / "doubler.proc").read_text().splitlines()
    for k, line in enumerate(lines[1:], start=1):
        s = line.split()[0]
        if s in negatives:
            lines[k] = f"{s} {negatives[s]}"
    (workdir / "canon.proc").write_text("\n".join(lines) + "\n")
    # deepest situations first, and within a level in reverse
    (workdir / "shuffled.proc").write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    runs = []
    for name in ("canon", "shuffled"):
        code = main(["convert", "to-test", "--process", f"{name}.proc", "--fs", "fair.fs",
                     "--out", f"{name}.test"])
        out = workdir / f"{name}.test"
        runs.append((code, *capsys.readouterr(), out.read_text() if out.exists() else None))
    assert runs[0] == runs[1]
    if negatives:
        assert runs[0][:3] == (3, "", "not a test supermartingale: check fails at 01\n")
    else:
        assert runs[0][0] == 0 and runs[0][3] is not None


def test_convert_to_martingale_golden(workdir, capsys):
    main(["convert", "to-test", "--process", "doubler.proc", "--fs", "fair.fs",
          "--out", "ones.test"])
    capsys.readouterr()
    code = main(["convert", "to-martingale", "--test", "ones.test", "--fs", "fair.fs",
                 "--levels", "1", "--out", "w.proc"])
    assert code == 0
    assert capsys.readouterr().out == (
        "root 3/8 normalized 1\n"
        "remainder bound 1/2\n"
        "supermartingale check pass\n"
    )
    process = parse_process((workdir / "w.proc").read_text())
    assert process.root == 1
    assert process.at("11") == 1


def test_convert_universal_golden(workdir, capsys):
    main(["convert", "to-test", "--process", "doubler.proc", "--fs", "fair.fs",
          "--out", "ones.test"])
    capsys.readouterr()
    code = main(["convert", "universal", "ones.test", "ones.test", "--fs", "fair.fs",
                 "--out", "u.test"])
    assert code == 0
    assert capsys.readouterr().out == (
        "level 0: actual 1/4 budget 1 pass\n"
        "level 1: actual 1/8 budget 1/2 pass\n"
        "all budgets pass\n"
    )
    combined = parse_test((workdir / "u.test").read_text())
    assert [sorted(cut) for cut in combined.levels] == [["11"], ["111"]]


def test_convert_universal_with_a_member_3000_bits_deep(workdir, capsys):
    # clipping and validating walk the member's 3,000 prefixes without recursing
    member = frozenset({"1" * 3000})
    (workdir / "deep.test").write_text(dump_test(RandomnessTest((member, member), max_depth=3000)))
    code = main(["convert", "universal", "deep.test", "--fs", "fair.fs", "--out", "u.test"])
    assert code == 0
    assert capsys.readouterr().out == f"level 0: actual 1/{1 << 3000} budget 1 pass\nall budgets pass\n"
    assert parse_test((workdir / "u.test").read_text()).levels == (member,)


@pytest.mark.parametrize("depth", [23, 10**18])
def test_to_martingale_refuses_a_test_deeper_than_the_limit_before_any_fold(workdir, capsys, depth):
    # the fold would build 2**(depth + 1) - 1 situations: the declared depth alone is refused
    (workdir / "deep.test").write_text(f"levels: 1\ndepth: {depth}\nlevel 0 1\n")
    start = time.perf_counter()
    code = main(["convert", "to-martingale", "--test", "deep.test", "--fs", "fair.fs", "--levels", "0",
                 "--out", "w.proc"])
    assert time.perf_counter() - start < 1
    assert code == 4
    assert capsys.readouterr() == ("", f"treebet: test depth {depth} over the limit of {MAX_DEPTH}\n")
    assert not (workdir / "w.proc").exists()


def test_to_martingale_takes_a_test_at_the_depth_limit(workdir, capsys):
    # depth 22 passes the limit; the unstored levels are refused before anything is folded
    assert MAX_DEPTH == 22
    (workdir / "edge.test").write_text("levels: 1\ndepth: 22\nlevel 0 1\n")
    code = main(["convert", "to-martingale", "--test", "edge.test", "--fs", "fair.fs", "--levels", "3",
                 "--out", "w.proc"])
    assert code == 2
    assert capsys.readouterr() == ("", "treebet: levels 0..3 not all stored\n")
    assert not (workdir / "w.proc").exists()


def test_convert_universal_takes_a_declared_depth_past_the_limit(workdir, capsys):
    # the declared depth is only copied into the output
    (workdir / "deep.test").write_text("levels: 2\ndepth: 30\nlevel 0 1\nlevel 1 11\n")
    assert main(["convert", "universal", "deep.test", "--fs", "fair.fs", "--out", "u.test"]) == 0
    assert capsys.readouterr() == ("level 0: actual 1/4 budget 1 pass\nall budgets pass\n", "")
    assert (workdir / "u.test").read_text() == "levels: 1\ndepth: 30\nlevel 0 11\n"


@pytest.mark.parametrize("argv", [
    ["cutprob", "--fs", "fair.fs", "--cut", "1"],
    ["convert", "to-test", "--process", "doubler.proc", "--fs", "fair.fs", "--out", "a.test"],
])
def test_depth_cap_is_not_an_option(workdir, capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--depth-cap", "5"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --depth-cap 5\n")
    assert not (workdir / "a.test").exists()


def test_convert_schnorr_from_martingale(workdir, capsys):
    code = main(["convert", "schnorr-from-martingale", "--process", "doubler.proc",
                 "--fs", "fair.fs", "--rho", "table ; affine 1 0 1", "--out", "s.test"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all budgets pass" in out
    schnorr = parse_test((workdir / "s.test").read_text())
    assert schnorr.tail is not None
    assert [sorted(cut) for cut in schnorr.levels] == [["1"], ["11"]]


def test_convert_schnorr_from_martingale_with_a_far_tail(workdir, capsys):
    # rho first reaches 1 at depth 10**7: no search bound refuses it, and the tail checks pass
    code = main(["convert", "schnorr-from-martingale", "--process", "doubler.proc",
                 "--fs", "fair.fs", "--rho", "table 0 ; affine 1 0 10000000", "--out", "s.test"])
    assert code == 0
    assert capsys.readouterr().out.endswith("all budgets pass\n")
    schnorr = parse_test((workdir / "s.test").read_text())
    assert schnorr.tail(0) == 10**7
    assert all(r.passed for r in validate_schnorr_tail(FAIR, schnorr, k_max=8))


def test_convert_refuses_integer_fields_int_would_read(workdir, capsys):
    # a negative level count, and a growth table with an Arabic-Indic digit and an underscore
    (workdir / "neg.test").write_text("levels: -3\ndepth: 2\n")
    code = main(["convert", "to-martingale", "--test", "neg.test", "--fs", "fair.fs", "--levels", "0",
                 "--out", "w.proc"])
    assert code == 2
    assert capsys.readouterr() == ("", "treebet: line 1: negative level count '-3'\n")
    rho = "table \u0661 2_0 ; affine 1 0 1"
    code = main(["convert", "schnorr-from-martingale", "--process", "doubler.proc",
                 "--fs", "fair.fs", "--rho", rho, "--out", "s.test"])
    assert code == 2
    assert capsys.readouterr() == ("", f"treebet: growth spec values must be integers: {rho!r}\n")
    assert not (workdir / "w.proc").exists() and not (workdir / "s.test").exists()


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["sample", "--fs", "fair.fs", "--n", "\u0664"], "--n", "\u0664"),
        (["sample", "--fs", "fair.fs", "--n", "4", "--seed", "1_0"], "--seed", "1_0"),
        (["convert", "to-martingale", "--test", "a.test", "--fs", "fair.fs", "--levels", " 1", "--out", "w.proc"],
         "--levels", " 1"),
        (["sample", "--fs", "fair.fs", "--n", "4", "--seed", "\u00b2"], "--seed", "\u00b2"),
        (["convert", "to-martingale", "--test", "a.test", "--fs", "fair.fs", "--levels", "9.0", "--out", "w.proc"],
         "--levels", "9.0"),
    ],
    ids=["n-arabic-indic", "seed-underscore", "levels-space", "seed-superscript", "levels-float"],
)
def test_integer_options_take_ascii_digits_only(workdir, capsys, argv, option, text):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: argument {option}: not an integer: {text!r}\n")
    assert not (workdir / "w.proc").exists() and not (workdir / "a.test").exists()


def test_sample_degenerate_mass(workdir, capsys):
    assert main(["sample", "--fs", "point-one.fs", "--selector", "mid", "--n", "4"]) == 0
    assert capsys.readouterr().out == "1111\n"


def test_sample_deterministic(workdir, capsys):
    main(["sample", "--fs", "fair.fs", "--selector", "mid", "--n", "32", "--seed", "9"])
    first = capsys.readouterr().out
    main(["sample", "--fs", "fair.fs", "--selector", "mid", "--n", "32", "--seed", "9"])
    assert capsys.readouterr().out == first
    main(["sample", "--fs", "fair.fs", "--selector", "mid", "--n", "32", "--seed", "10"])
    assert capsys.readouterr().out != first


def test_sample_uniform_snapshot(workdir, capsys):
    assert main(["sample", "--fs", "wide.fs", "--selector", "uniform", "--n", "16",
                 "--seed", "7"]) == 0
    assert capsys.readouterr().out == "1111100110110111\n"


def test_sample_past_the_bit_limit_exits_4_at_once(workdir, capsys):
    # the count alone is refused: no bit is drawn and no list of 10**30 bits is built
    assert main(["sample", "--fs", "fair.fs", "--n", str(10**30)]) == 4
    assert capsys.readouterr() == ("", f"treebet: --n {10**30} over the limit of {MAX_BITS} bits\n")


def test_sample_bit_limit_is_inclusive(workdir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_BITS", 4)
    assert main(["sample", "--fs", "point-one.fs", "--n", "4"]) == 0
    assert capsys.readouterr().out == "1111\n"
    assert main(["sample", "--fs", "point-one.fs", "--n", "5"]) == 4
    assert capsys.readouterr() == ("", "treebet: --n 5 over the limit of 4 bits\n")


def test_memory_error_exits_4_with_a_message(workdir, capsys, monkeypatch):
    # a command that runs out of memory ends in the resource-cap code, not a traceback
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "sample", exhausted)
    assert main(["sample", "--fs", "fair.fs", "--n", "4"]) == 4
    assert capsys.readouterr() == ("", "treebet: out of memory\n")


def test_analyze_golden(workdir, capsys):
    main(["convert", "to-test", "--process", "doubler.proc", "--fs", "fair.fs",
          "--out", "ones.test"])
    capsys.readouterr()
    code = main(["analyze", "--fs", "fair.fs", "--seq", "seq.txt",
                 "--kelly", "1,on-one", "--test", "ones.test"])
    assert code == 0
    assert capsys.readouterr().out == (
        "# n\tbit\tkelly(1,on-one)\tmax_log2_capital\ttest_hits\n"
        "0\t-\t1\t0\t-\n"
        "1\t1\t2\t1\t0\n"
        "2\t1\t4\t2\t0,1\n"
        "3\t1\t8\t3\t0,1,2\n"
        "4\t1\t16\t4\t0,1,2\n"
        "# summary max_log2_capital=4 test_deficiency=3 max_capital=16 ville_bound=1/16\n"
    )


def test_analyze_test_hits_golden(workdir, capsys):
    # an @ member, an off-path member (10), one deeper than the sequence
    # (111111), and levels 1 and 2 both hit at depth 2
    (workdir / "hits.test").write_text(
        "levels: 4\ndepth: 6\nlevel 0 @\nlevel 1 11\nlevel 2 0\nlevel 2 11\n"
        "level 3 10\nlevel 3 111111\n"
    )
    code = main(["analyze", "--fs", "fair.fs", "--seq", "seq.txt",
                 "--kelly", "1/2,on-one", "--test", "hits.test"])
    assert code == 0
    assert capsys.readouterr().out == (
        "# n\tbit\tkelly(1/2,on-one)\tmax_log2_capital\ttest_hits\n"
        "0\t-\t1\t0\t0\n"
        "1\t1\t3/2\t0.584963\t0\n"
        "2\t1\t9/4\t1.16993\t0,1,2\n"
        "3\t1\t27/8\t1.75489\t0,1,2\n"
        "4\t1\t81/16\t2.33985\t0,1,2\n"
        "# summary max_log2_capital=2.33985 test_deficiency=3 max_capital=81/16 "
        "ville_bound=16/81\n"
    )


def test_analyze_zero_stake_is_flat(workdir, capsys):
    assert main(["analyze", "--fs", "wide.fs", "--seq", "seq.txt", "--kelly", "0,on-one"]) == 0
    lines = capsys.readouterr().out.splitlines()
    capitals = [line.split("\t")[2] for line in lines[1:-1]]
    assert capitals == ["1"] * 5


def test_repeated_options_do_not_leak_between_calls(workdir, capsys):
    # the parser is built once per process; appended --kelly/--test values
    # must still start afresh on every call
    (workdir / "hits.test").write_text("levels: 1\ndepth: 1\nlevel 0 1\n")
    base = ["analyze", "--fs", "fair.fs", "--seq", "seq.txt"]
    repeated = ["--kelly", "1,on-one", "--kelly", "1/2,on-zero", "--test", "hits.test",
                "--test", "hits.test"]
    outs = []
    for extra in (repeated, [], repeated, ["--kelly", "0,on-one"]):
        assert main(base + extra) == 0
        outs.append(capsys.readouterr().out)
    headers = [out.split("\n", 1)[0].split("\t")[2:-2] for out in outs]
    assert headers[0] == headers[2] == ["kelly(1,on-one)", "kelly(1/2,on-zero)"]
    assert headers[1] == ["kelly(1,on-one)", "kelly(1,on-zero)", "kelly(1/2,on-one)",
                          "kelly(1/2,on-zero)"]
    assert headers[3] == ["kelly(0,on-one)"]
    assert outs[0] == outs[2]
    assert "test_deficiency=1 " in outs[0]
    assert "test_deficiency=0 " in outs[1] and "test_deficiency=0 " in outs[3]


def test_missing_file_is_input_error(capsys):
    assert main(["cutprob", "--fs", "nope.fs", "--cut", "1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["local", "--interval", "1/0", "1", "--gamble", "1", "0"],
        ["cutprob", "--fs", "zero.fs", "--cut", "1"],
        ["convert", "to-test", "--process", "zero.proc", "--fs", "fair.fs", "--out", "a.test"],
        ["analyze", "--fs", "fair.fs", "--seq", "seq.txt", "--kelly", "1/0,on-one"],
    ],
    ids=["local-interval", "fs-file", "proc-file", "kelly-stake"],
)
def test_zero_denominator_is_input_error(workdir, capsys, argv):
    (workdir / "zero.fs").write_text("kind: stationary\ninterval: 0 1/0\n")
    (workdir / "zero.proc").write_text("depth: 1\n@ 1\n0 1/0\n1 1\n")
    assert main(argv) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["100000000000", "4294967296"])
def test_absurd_process_depth_names_the_depth(workdir, capsys, depth):
    # 2**(depth + 1) is never built: the value count alone rules the depth out
    (workdir / "deep.proc").write_text(f"depth: {depth}\n@ 1\n")
    argv = ["convert", "to-test", "--process", "deep.proc", "--fs", "fair.fs", "--out", "a.test"]
    assert main(argv) == 2
    need = f"2**{int(depth) + 1} - 1"
    assert capsys.readouterr().err == f"treebet: depth-{depth} process needs {need} values, got 1\n"


def test_process_depth_past_the_digit_limit_names_the_depth(workdir, capsys):
    # depth + 1 has 4,301 digits, one past str()'s limit for an int
    depth = "9" * 4300
    (workdir / "deep.proc").write_text(f"depth: {depth}\n@ 1\n")
    argv = ["convert", "to-test", "--process", "deep.proc", "--fs", "fair.fs", "--out", "a.test"]
    assert main(argv) == 2
    need = f"2**1{'0' * 4300} - 1"
    assert capsys.readouterr().err == f"treebet: depth-{depth} process needs {need} values, got 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "universal", "ones.test", "ones.test", "--fs", "fair.fs", "--out", "u.test"],
        ["convert", "universal", "--fs", "fair.fs", "--out", "u.test", "ones.test", "ones.test"],
        ["convert", "universal", "ones.test", "--fs", "fair.fs", "ones.test", "--out", "u.test"],
    ],
    ids=["before", "after", "around"],
)
def test_convert_universal_takes_its_test_files_before_or_after_the_options(workdir, capsys, argv):
    main(["convert", "to-test", "--process", "doubler.proc", "--fs", "fair.fs",
          "--out", "ones.test"])
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "level 0: actual 1/4 budget 1 pass\n"
        "level 1: actual 1/8 budget 1/2 pass\n"
        "all budgets pass\n"
    )
    assert (workdir / "u.test").read_text() == "levels: 2\ndepth: 3\nlevel 0 11\nlevel 1 111\n"


@pytest.mark.parametrize(
    "argv, stray",
    [
        (["convert", "universal", "--fs", "fair.fs", "--bogus", "--out", "u.test", "a.test"], "--bogus"),
        (["convert", "universal", "a.test", "--fs", "fair.fs", "--out", "u.test", "--bogus=1"],
         "--bogus=1"),
        (["convert", "to-test", "--process", "doubler.proc", "--fs", "fair.fs", "--out", "a.test",
          "extra.test"], "extra.test"),
        (["local", "--interval", "0", "1", "--gamble", "1", "0", "extra"], "extra"),
        (["convert", "schnorr-from-martingale", "--process", "doubler.proc", "--fs", "fair.fs",
          "--rho", "table ; affine 1 0 1", "--horizon", "5", "--out", "a.test"], "--horizon 5"),
    ],
    ids=["universal-option", "universal-option-value", "to-test-word", "local-word", "schnorr-horizon"],
)
def test_leftover_arguments_exit_2(workdir, capsys, argv, stray):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f"treebet: error: unrecognized arguments: {stray}\n")
    assert not (workdir / "u.test").exists() and not (workdir / "a.test").exists()


def test_convert_folds_each_cut_once_per_command(workdir, capsys, monkeypatch):
    # a stake-1/2 bettor against a table system: schnorr-from-martingale's tails and universal's
    # combined levels meet cuts its budget report or clipping folds, which each command folds once
    fs = Table(interval("2/5", "3/5"), {"": interval("1/3", "1/2"), "0": interval("1/2", "2/3"),
                                         "01": interval("1/4", "1/2"), "110": interval("3/8", "5/8")})
    (workdir / "t.fs").write_text(dump_forecasting_system(fs))
    (workdir / "t.proc").write_text(dump_process(kelly_process(fs, Fraction(1, 2), "on-one", 9)))
    assert main(["convert", "to-test", "--process", "t.proc", "--fs", "t.fs", "--out", "t.test"]) == 0
    levels = parse_test((workdir / "t.test").read_text()).num_levels
    assert main(["convert", "to-martingale", "--test", "t.test", "--fs", "t.fs", "--levels", str(levels - 1),
                 "--out", "w.proc"]) == 0
    capsys.readouterr()
    rho = "table 0 1 1 2 2 3 ; affine 1 0 1"
    schnorr = schnorr_test_from_martingale(parse_process((workdir / "w.proc").read_text()), parse_growth(rho), fs)
    universal = combine_universal(fs, [parse_test((workdir / "t.test").read_text()), schnorr])
    # each command's output, from the public functions, each of which folds its own cuts
    tails = [f"tail K={r.k}: cutoff {r.cutoff} worst {format_rational(r.worst_actual)} budget "
             f"{format_rational(r.budget)} {'pass' if r.passed else 'FAIL'}"
             for r in validate_schnorr_tail(fs, schnorr, k_max=max(4, schnorr.num_levels))]
    want = {
        "s.test": (_budget_lines(validate_ml_test(fs, schnorr)) + tails, dump_test(schnorr)),
        "u.test": (_budget_lines(validate_ml_test(fs, universal)), dump_test(universal)),
    }
    folded = Counter()

    def counted(ends, members, *rest):
        folded[frozenset(members)] += 1
        return _cut_trie(ends, members, *rest)

    monkeypatch.setattr(randtest, "_cut_trie", counted)
    for out, argv in [("s.test", ["schnorr-from-martingale", "--process", "w.proc", "--rho", rho]),
                      ("u.test", ["universal", "t.test", "s.test"])]:
        folded.clear()
        assert main(["convert", *argv, "--fs", "t.fs", "--out", out]) == 0
        assert max(folded.values()) == 1
        lines, text = want[out]
        assert capsys.readouterr().out == "\n".join(lines + ["all budgets pass"]) + "\n"
        assert (workdir / out).read_text() == text
    # without the shared folds the same work repeats cuts
    folded.clear()
    combine_universal(fs, [parse_test((workdir / "t.test").read_text()), schnorr])
    validate_ml_test(fs, universal)
    assert max(folded.values()) > 1


@pytest.mark.parametrize("name, good, bad", [
    ("bad.fs", b"", b"\xff\xfe"),
    ("bad.proc", b"depth: 0\r\n@ 1\r\n# ", b"\xc3\r\n"),
    # past the text reader's 8 KiB chunks, the offset still counts from the file's start
    ("bad.proc", dump_process(kelly_process(FAIR, 1, "on-one", 9)).encode(), b"\xed\xa0\x80"),
])
def test_a_file_that_is_not_utf8_exits_2_naming_its_first_bad_byte(workdir, capsys, name, good, bad):
    (workdir / name).write_bytes(good + bad)
    fs = "fair.fs" if name.endswith(".proc") else name
    assert main(["convert", "to-test", "--process", name, "--fs", fs, "--out", "o.test"]) == 2
    assert capsys.readouterr() == ("", f"treebet: {name}: not UTF-8 at byte {len(good)}\n")
    assert not (workdir / "o.test").exists()


def test_analyze_reads_crlf_comments_and_blank_lines_like_plain_bits(workdir, capsys):
    (workdir / "crlf.seq").write_bytes(b"# four bits\r\n11\r\n\r\n1 1 # and no more\r\n")
    assert main(["analyze", "--fs", "fair.fs", "--seq", "crlf.seq", "--kelly", "1,on-one"]) == 0
    crlf = capsys.readouterr()
    assert main(["analyze", "--fs", "fair.fs", "--seq", "seq.txt", "--kelly", "1,on-one"]) == 0
    assert capsys.readouterr() == crlf and crlf.out.count("\n") == 4 + 3
