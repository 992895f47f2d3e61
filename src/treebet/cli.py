"""Command-line interface: evaluation, verification, conversion, sampling, analysis.

Exit codes: 0 success, 2 unparseable or invalid inputs, 3 semantic
verification failure, 4 resource cap exceeded or memory exhausted.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    ParseError,
    ResourceError,
)
from .expectation import cut_lower_prob, cut_upper_prob
from .forecast import IntervalForecast
from .formats import (
    MAX_BITS,
    MAX_LEVELS,
    dump_process,
    dump_test,
    load,
    parse_forecasting_system,
    parse_growth,
    parse_process,
    parse_sequence,
    parse_test,
    save,
)
from .local import LocalGamble, lower_expectation, upper_expectation
from .martingale import check_supermartingale, kelly_gamble
from .numerals import EXACT, format_rational, parse_integer, parse_rational, ratio_text
from .randtest import (
    assemble_test_supermartingale,
    combine_universal,
    martingale_to_test,
    schnorr_test_from_martingale,
    validate_ml_test,
    validate_schnorr_tail,
)
from .sampling import SELECTORS, sample_path
from .tree import parse_situation, require_antichain

DEFAULT_DEPTH_CAP = 22
DEFAULT_BATTERY = ("1,on-one", "1,on-zero", "1/2,on-one", "1/2,on-zero")


def _integer(text: str) -> int:
    """An integer option, read as the file formats read integer fields; argparse reports a refusal."""
    try:
        return parse_integer(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(prog="treebet")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("local", help="one-step upper and lower expectation")
    p.add_argument("--interval", nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--gamble", nargs=2, required=True, metavar=("ON1", "ON0"))

    p = sub.add_parser("cutprob", help="upper/lower probability of a partial cut")
    p.add_argument("--fs", required=True)
    p.add_argument("--cut", required=True, help="comma-separated situations")
    p.add_argument("--cond", default="@", help="conditioning situation (default @)")
    p.add_argument("--lower", action="store_true")
    p.add_argument("--depth-cap", type=_integer, default=DEFAULT_DEPTH_CAP)

    p = sub.add_parser("convert", help="conversions between processes and tests")
    p.add_argument("direction", choices=["to-test", "to-martingale", "schnorr-from-martingale", "universal"])
    p.add_argument("inputs", nargs="*", help="test files (universal direction)")
    p.add_argument("--fs", required=True)
    p.add_argument("--process")
    p.add_argument("--test")
    p.add_argument("--levels", type=_integer)
    p.add_argument("--rho", help="growth spec 'table v0 v1 ... ; affine a b c'")
    p.add_argument("--out", required=True)
    p.add_argument("--depth-cap", type=_integer, default=DEFAULT_DEPTH_CAP)

    p = sub.add_parser("sample", help="sample bits from a compatible precise system")
    p.add_argument("--fs", required=True)
    p.add_argument("--selector", choices=list(SELECTORS), default="mid")
    p.add_argument("--n", type=_integer, required=True, help=f"number of bits, at most {MAX_BITS}")
    p.add_argument("--seed", type=_integer, default=0)

    p = sub.add_parser("analyze", help="run a strategy battery along a sequence")
    p.add_argument("--fs", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--kelly", action="append", metavar="STAKE,DIRECTION",
                   help="strategy spec, e.g. 1,on-one (repeatable)")
    p.add_argument("--test", action="append", default=[], help="test file (repeatable)")
    return parser


def cmd_local(args) -> int:
    forecast = IntervalForecast(*map(parse_rational, args.interval))
    f = LocalGamble(parse_rational(args.gamble[0]), parse_rational(args.gamble[1]))
    upper, lower = upper_expectation(forecast, f), lower_expectation(forecast, f)
    print(f"upper {format_rational(upper)}  lower {format_rational(lower)}")
    return 0


def cmd_cutprob(args) -> int:
    fs = load(args.fs, parse_forecasting_system)
    cut = require_antichain(parse_situation(part) for part in args.cut.split(","))
    if cut and max(len(t) for t in cut) > args.depth_cap:
        raise ResourceError(f"cut deeper than --depth-cap {args.depth_cap}")
    cond = parse_situation(args.cond)
    try:  # the public cut probabilities recurse once per member bit
        prob = cut_lower_prob(fs, cut, cond) if args.lower else cut_upper_prob(fs, cut, cond)
    except RecursionError:
        raise ResourceError(f"cut member {max(map(len, cut))} bits deep is past the recursion limit") from None
    print(format_rational(prob))
    return 0


def _report_budgets(fs, test) -> bool:
    """Print validate_ml_test's reports on a test to be written, which the .test reader must take back."""
    if test.num_levels > MAX_LEVELS:
        raise ResourceError(f"test has {test.num_levels} levels, over the limit of {MAX_LEVELS}")
    reports = validate_ml_test(fs, test)
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        actual, budget = format_rational(r.actual), format_rational(r.budget)
        print(f"level {r.level}: actual {actual} budget {budget} {verdict}")
    return all(r.passed for r in reports)


def cmd_convert(args) -> int:
    fs = load(args.fs, parse_forecasting_system)

    if args.direction == "to-martingale":
        if not args.test or args.levels is None:
            raise ParseError("to-martingale needs --test and --levels")
        test = load(args.test, parse_test)
        if test.max_depth > args.depth_cap:
            raise ResourceError(f"test deeper than --depth-cap {args.depth_cap}")
        process = assemble_test_supermartingale(fs, test, args.levels, normalize_root=False)
        print(f"root {format_rational(process.root)} normalized 1")  # below 1 once the budgets pass
        print(f"remainder bound {format_rational(Fraction(1, 1 << args.levels))}")
        process = process.with_root(1)
        violations = check_supermartingale(fs, process)
        if violations:
            print(f"supermartingale check FAIL at {violations[0] or '@'}")
            return 3
        print("supermartingale check pass")
        save(args.out, dump_process(process))
        return 0

    # the other directions write a test
    if args.direction == "to-test":
        if not args.process:
            raise ParseError("to-test needs --process")
        process = load(args.process, parse_process)
        if process.depth > args.depth_cap:
            raise ResourceError(f"process deeper than --depth-cap {args.depth_cap}")
        try:
            test = martingale_to_test(process, fs)
        except ContractError as exc:
            print(f"not a test supermartingale: {exc.reason}", file=sys.stderr)
            return 3
        passed = _report_budgets(fs, test)
    elif args.direction == "schnorr-from-martingale":
        if not args.process or not args.rho:
            raise ParseError("schnorr-from-martingale needs --process and --rho")
        process = load(args.process, parse_process)
        if process.depth > args.depth_cap:
            raise ResourceError(f"process deeper than --depth-cap {args.depth_cap}")
        rho = parse_growth(args.rho)
        test = schnorr_test_from_martingale(process, rho, fs)
        passed = _report_budgets(fs, test)
        tail_reports = validate_schnorr_tail(fs, test, k_max=max(4, test.num_levels))
        for r in tail_reports:
            verdict = "pass" if r.passed else "FAIL"
            worst, budget = format_rational(r.worst_actual), format_rational(r.budget)
            print(f"tail K={r.k}: cutoff {r.cutoff} worst {worst} budget {budget} {verdict}")
        passed = passed and all(r.passed for r in tail_reports)
    else:  # universal
        tests = [load(path, parse_test) for path in args.inputs]
        if any(t.max_depth > args.depth_cap for t in tests):
            raise ResourceError(f"test deeper than --depth-cap {args.depth_cap}")
        test = combine_universal(fs, tests)
        passed = _report_budgets(fs, test)
    if not passed:
        return 3
    print("all budgets pass")
    save(args.out, dump_test(test))
    return 0


def cmd_sample(args) -> int:
    fs = load(args.fs, parse_forecasting_system)
    if args.n < 0:
        raise DomainError("--n must be non-negative")
    if args.n > MAX_BITS:  # refused before a bit is drawn
        raise ResourceError(f"--n {args.n} over the limit of {MAX_BITS} bits")
    print(sample_path(fs, args.selector, args.n, args.seed))
    return 0


def _log2_label(num: int, den: int) -> str:
    if num <= 0:
        return "-inf"
    return f"{math.log2(num) - math.log2(den):.6g}"


def _parse_kelly(spec: str) -> tuple[Fraction, str]:
    parts = spec.split(",")
    if len(parts) != 2 or parts[1] not in ("on-one", "on-zero"):
        raise ParseError(f"bad kelly spec {spec!r} (want STAKE,on-one or STAKE,on-zero)")
    stake = parse_rational(parts[0])
    if not 0 <= stake <= 1:
        raise ParseError(f"kelly stake {format_rational(stake)} outside [0, 1]")
    return stake, parts[1]


_FLUSH_CHARS = 1 << 20


def cmd_analyze(args) -> int:
    fs = load(args.fs, parse_forecasting_system)
    sequence = load(args.seq, parse_sequence)
    strategies = [_parse_kelly(spec) for spec in (args.kelly or DEFAULT_BATTERY)]
    tests = [load(path, parse_test) for path in args.test]

    labels = [f"kelly({format_rational(stake)},{direction})" for stake, direction in strategies]
    out = sys.stdout
    out.write("# n\tbit\t" + "\t".join(labels) + "\tmax_log2_capital\ttest_hits\n")

    # the levels hit at each depth: those with a member that is a prefix of the sequence
    hits_at: dict[int, set[int]] = {}
    for test in tests:
        for level, cut in enumerate(test.levels):
            for member in cut:
                if sequence.startswith(member):
                    hits_at.setdefault(len(member), set()).add(level)
    # the test_hits column, from each depth where it changes
    hit_levels: set[int] = set()
    label_at: dict[int, str] = {}
    for depth in sorted(hits_at):
        hit_levels |= hits_at[depth]
        label_at[depth] = ",".join(str(n) for n in sorted(hit_levels))

    # Each capital is a reduced pair twice over: integers (num, den) for the
    # gcds and comparisons, and Decimal integers for the text, with the
    # text re-rendered only when the capital changes.
    k = len(strategies)
    num, den = [1] * k, [1] * k
    one = EXACT.create_decimal(1)
    dnum, dden = [one] * k, [one] * k
    cols = ["1"] * k
    best = (1, 1, one, one)
    max_log2 = _log2_label(1, 1)
    # the reduced factors 1 + stake * gain, built when first needed, keyed
    # by the slot of the system's positional rule and the bit
    factors: dict[tuple[int, str], list] = {}
    intervals, slot, follow = fs.intervals, fs._slot, fs._follow
    position = 1
    hits = label_at.get(0, "-")
    chunk = ["0\t-\t" + "\t".join(cols) + f"\t{max_log2}\t{hits}"]
    size = 0
    for n, bit in enumerate(sequence, start=1):
        here = slot(position)
        row = factors.get((here, bit))
        if row is None:
            row = factors[(here, bit)] = [None] * k
        for i in range(k):
            a, b = num[i], den[i]
            if a == 0:
                continue
            f = row[i]
            if f is None:
                stake, direction = strategies[i]
                g = kelly_gamble(intervals[here], direction)
                f = 1 + stake * (g.on1 if bit == "1" else g.on0)
                f = row[i] = (f.numerator, f.denominator)
            p, q = f
            if p == q:
                continue
            if p == 0:
                num[i], den[i], cols[i] = 0, 1, "0"
                continue
            # (a/b) * (p/q) stays reduced: divide out gcd(a, q) and gcd(p, b);
            # a division or product by 1 would only copy every digit, so it is skipped
            g1, g2 = math.gcd(a, q), math.gcd(p, b)
            da, db = dnum[i], dden[i]
            if g1 != 1:
                a, q, da = a // g1, q // g1, EXACT.divide_int(da, g1)
            if g2 != 1:
                b, p, db = b // g2, p // g2, EXACT.divide_int(db, g2)
            if p != 1:
                a, da = a * p, EXACT.multiply(da, p)
            if q != 1:
                b, db = b * q, EXACT.multiply(db, q)
            num[i], den[i], dnum[i], dden[i] = a, b, da, db
            cols[i] = ratio_text(da, db)
            if a * best[1] > best[0] * b:
                best = (a, b, da, db)
                max_log2 = _log2_label(a, b)
        position = follow(position, bit)
        hits = label_at.get(n, hits)
        line = f"{n}\t{bit}\t" + "\t".join(cols) + f"\t{max_log2}\t{hits}"
        chunk.append(line)
        size += len(line)
        if size >= _FLUSH_CHARS:
            out.write("\n".join(chunk) + "\n")
            chunk, size = [], 0
    if chunk:
        out.write("\n".join(chunk) + "\n")

    deficiency = max(hit_levels) + 1 if hit_levels else 0
    # max_capital >= 1, so its inverse is its pair swapped
    out.write(
        f"# summary max_log2_capital={max_log2} test_deficiency={deficiency} "
        f"max_capital={ratio_text(best[2], best[3])} ville_bound={ratio_text(best[3], best[2])}\n"
    )
    return 0


_COMMANDS = {
    "local": cmd_local,
    "cutprob": cmd_cutprob,
    "convert": cmd_convert,
    "sample": cmd_sample,
    "analyze": cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    args, extra = _parser().parse_known_args(argv)  # universal's test files may follow options
    if args.command == "convert" and args.direction == "universal":
        args.inputs += [word for word in extra if not word.startswith("-")]
        extra = [word for word in extra if word.startswith("-")]
    if extra:
        _parser().error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ConfigError, DomainError, OSError) as exc:
        print(f"treebet: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"treebet: {exc}", file=sys.stderr)
        return 3
    except (ResourceError, MemoryError) as exc:
        print(f"treebet: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
