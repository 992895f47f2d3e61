"""Brute-force oracles for cross-checking the production recursions.

These deliberately live in the test tree, not the installed package, so no
production code path can call them.  Each one recomputes a quantity by the
dumbest sound method available: explicit path sums, exhaustive endpoint
assignments, or plain partial summation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, cycle, islice, product, repeat
from typing import Callable, Iterator

from treebet import (
    DepthGamble, IntervalForecast, LocalGamble, Markov, Process, Stationary, Table,
    assemble_test_supermartingale, cut_upper_prob, interval, validate_ml_test,
)
from treebet.errors import ContractError, DomainError, ParseError, ResourceError
from treebet.expectation import _cut_leaves, _cut_trie, _pairs
from treebet.forecast import ForecastingSystem, is_precise, local_scale
from treebet.formats import MAX_LEVELS, dump_process, dump_test, parse_growth, parse_rational
from treebet.growth import GrowthFunction
from treebet.local import lower_expectation, precise_expectation, upper_expectation
from treebet.martingale import VilleThreshold, _coded, kelly_gamble
from treebet.numerals import format_rational, parse_integer
from treebet.randtest import RandomnessTest
from treebet.sampling import SELECTORS, _constants
from treebet.tree import (
    ROOT_LABEL,
    CutStatus,
    bits,
    cut_status,
    minimal_antichain,
    parse_situation,
    require_situation,
    situations_up_to,
)


def forecast_by_name(fs: ForecastingSystem, s: str) -> IntervalForecast:
    """The interval at ``s``, looked up by the situation's name: the override
    keyed by ``s``, or the row keyed by its last ``order`` bits."""
    if isinstance(fs, Stationary):
        return fs.interval
    if isinstance(fs, Table):
        return fs.overrides.get(s, fs.default)
    if isinstance(fs, Markov):
        return fs.rows[s[-fs.order:] if fs.order else ""]
    raise TypeError(f"not a forecasting system: {fs!r}")


def integer_log_bound_by_doubling(x) -> int:
    """integer_log_bound by doubling 2**L from L = 1 until it reaches x."""
    x = Fraction(x)
    if x < 1:
        raise DomainError(f"integer_log_bound needs x >= 1, got {format_rational(x)}")
    level = 1
    while (1 << level) < x:
        level += 1
    return level


def path_weight(fs: ForecastingSystem, leaf: str) -> Fraction:
    """Probability of one leaf under a precise system, by explicit product."""
    weight = Fraction(1)
    for k, bit in enumerate(leaf):
        p = forecast_by_name(fs, leaf[:k]).lo
        weight *= p if bit == "1" else 1 - p
    return weight


def cylinder_bounds_by_bits(fs: ForecastingSystem, s: str) -> tuple[Fraction, Fraction]:
    """(upper, lower) probability of the cylinder of ``s``, one Fraction product per bit,
    each interval looked up by the prefix's name."""
    upper = lower = Fraction(1)
    for k, bit in enumerate(s):
        forecast = forecast_by_name(fs, s[:k])
        if bit == "1":
            upper, lower = upper * forecast.hi, lower * forecast.lo
        else:
            upper, lower = upper * (1 - forecast.lo), lower * (1 - forecast.hi)
    return upper, lower


def precise_expectation_by_paths(fs: ForecastingSystem, g: DepthGamble) -> Fraction:
    """Sum-product expectation of a finitely-determined gamble, leaf by leaf."""
    if not is_precise(fs):
        raise DomainError("path-sum oracle needs a precise forecasting system")
    total = Fraction(0)
    for j in range(1 << g.depth):
        leaf = bits(j, g.depth)
        total += g.values[j] * path_weight(fs, leaf)
    return total


def _endpoint_assignments(fs: ForecastingSystem, depth: int):
    nodes = [bits(j, n) for n in range(depth) for j in range(1 << n)]
    choices = [(forecast_by_name(fs, s).lo, forecast_by_name(fs, s).hi) for s in nodes]
    for picks in product(*[(0, 1)] * len(nodes)):
        overrides = {
            s: IntervalForecast(pair[pick], pair[pick])
            for s, pair, pick in zip(nodes, choices, picks)
        }
        yield Table(interval("1/2"), overrides)


def upper_by_endpoint_enumeration(
    fs: ForecastingSystem, g: DepthGamble, depth_cap: int = 4
) -> Fraction:
    """Max over all interior-node endpoint assignments of the path-sum value."""
    if g.depth > depth_cap:
        raise ResourceError(f"endpoint enumeration capped at depth {depth_cap}")
    return max(
        precise_expectation_by_paths(assigned, g)
        for assigned in _endpoint_assignments(fs, g.depth)
    )


def lower_by_endpoint_enumeration(
    fs: ForecastingSystem, g: DepthGamble, depth_cap: int = 4
) -> Fraction:
    if g.depth > depth_cap:
        raise ResourceError(f"endpoint enumeration capped at depth {depth_cap}")
    return min(
        precise_expectation_by_paths(assigned, g)
        for assigned in _endpoint_assignments(fs, g.depth)
    )


def series_limit_probe(
    term: Callable[[int], Fraction], horizon: int
) -> tuple[Fraction, Fraction]:
    """Partial sum of a non-negative series up to ``horizon``, with the last increment."""
    total = Fraction(0)
    last = Fraction(0)
    for index in range(horizon + 1):
        last = Fraction(term(index))
        if last < 0:
            raise DomainError("series terms must be non-negative")
        total += last
    return total, last


def grid_extremes(
    forecast: IntervalForecast, f: LocalGamble, steps: int = 100
) -> tuple[Fraction, Fraction]:
    """(max, min) of the precise expectation over interval endpoints and a grid."""
    values = [precise_expectation(p, f) for p in grid_candidates(forecast, steps)]
    return max(values), min(values)


def grid_candidates(forecast: IntervalForecast, steps: int = 100) -> set[Fraction]:
    """The interval's endpoints and the grid points k/steps inside it."""
    first, last = math.ceil(forecast.lo * steps), math.floor(forecast.hi * steps)
    return {forecast.lo, forecast.hi, *(Fraction(k, steps) for k in range(first, last + 1))}


# Per-node references for the integer tree kernel: one one-step Fraction
# evaluation per interior situation, one scan of the tree per level.

def endpoint_rows(fs: ForecastingSystem, s: str, height: int, lower: bool = False):
    """(L, rows): L the lcm of the system's endpoint denominators, and rows[w][j] the interval at
    s + bits(j, w), w < height, looked up by name, as L times (the endpoint the upper expectation
    takes when f(1) >= f(0), the other one); ``lower`` swaps the pair."""
    scale = math.lcm(*(x.denominator for i in fs.intervals for x in (i.lo, i.hi)))
    rows = []
    for w in range(height):
        forecasts = [forecast_by_name(fs, s + bits(j, w)) for j in range(1 << w)]
        ends = [(int(i.lo * scale), int(i.hi * scale)) for i in forecasts]
        rows.append([(lo, hi) if lower else (hi, lo) for lo, hi in ends])
    return scale, rows


def fold_levels(scale: int, rows: list, leaves: list[int]) -> Iterator[list[int]]:
    """The dense list fold: the numerators of every level, leaves first, level h over
    D * scale**h when the leaves are over D."""
    level = leaves
    yield level
    for row in reversed(rows):
        level = [scale * a + (p if b >= a else q) * (b - a)
                 for a, b, (p, q) in zip(level[::2], level[1::2], row)]
        yield level


def fold_by_levels(fs: ForecastingSystem, g: DepthGamble, s: str, lower: bool = False) -> Fraction:
    """cond_upper (cond_lower) by the dense list fold of the leaves below ``s``, every level a list."""
    m = g.depth - len(s)
    base = (int(s, 2) if s else 0) << m
    leaves = g.values[base:base + (1 << m)]
    den = math.lcm(*(v.denominator for v in leaves))
    scale, rows = endpoint_rows(fs, s, m, lower)
    *_, root = fold_levels(scale, rows, [v.numerator * (den // v.denominator) for v in leaves])
    return Fraction(root[0], den * scale ** m)


def cylinder_bounds_by_products(fs: ForecastingSystem, s: str) -> tuple[Fraction, Fraction]:
    """cylinder_bounds in closed form: with L the lcm of the system's endpoint denominators, the
    integer products along ``s`` of L*hi and L*lo at a 1 and L - L*lo and L - L*hi at a 0, each
    interval looked up by the prefix's name, over L**len(s)."""
    scale = math.lcm(*(x.denominator for i in fs.intervals for x in (i.lo, i.hi)))
    upper = lower = 1
    for k, bit in enumerate(s):
        forecast = forecast_by_name(fs, s[:k])
        hi, lo = int(forecast.hi * scale), int(forecast.lo * scale)
        if bit == "1":
            upper, lower = upper * hi, lower * lo
        else:
            upper, lower = upper * (scale - lo), lower * (scale - hi)
    den = scale ** len(s)
    return Fraction(upper, den), Fraction(lower, den)


def fold_by_nodes(fs: ForecastingSystem, g: DepthGamble, s: str, lower: bool = False) -> Fraction:
    """cond_upper (cond_lower) by a backward fold of one-step expectations."""
    rule = lower_expectation if lower else upper_expectation
    m = g.depth - len(s)
    base = (int(s, 2) if s else 0) << m
    level = list(g.values[base:base + (1 << m)])
    for width in range(m - 1, -1, -1):
        level = [
            rule(forecast_by_name(fs, s + bits(j, width)),
                 LocalGamble(on1=level[2 * j + 1], on0=level[2 * j]))
            for j in range(1 << width)
        ]
    return level[0]


def cut_value_map_by_nodes(
    fs: ForecastingSystem, cut, depth: int, lower: bool = False
) -> dict[str, Fraction]:
    """cut_value_map with one cut_status call per leaf and one-step calls per node."""
    rule = lower_expectation if lower else upper_expectation
    members = frozenset(cut)
    values: dict[str, Fraction] = {}
    for leaf in (bits(j, depth) for j in range(1 << depth)):
        status = cut_status(leaf, members)
        hit = status in (CutStatus.IN_CUT, CutStatus.FOLLOWS_STRICTLY)
        values[leaf] = Fraction(1) if hit else Fraction(0)
    for width in range(depth - 1, -1, -1):
        for j in range(1 << width):
            t = bits(j, width)
            f = LocalGamble(on1=values[t + "1"], on0=values[t + "0"])
            values[t] = rule(forecast_by_name(fs, t), f)
    return values


def fold_sum_by_leaves(fs: ForecastingSystem, weighted_cuts, depth: int, divisor: int = 1,
                       lower: bool = False, on_root=None):
    """expectation._fold_sum with every cut folded over all 2**depth leaves of its indicator,
    0s and 1s included, into one running table of integer numerators."""
    scale, rows = endpoint_rows(fs, "", depth, lower)
    total = [[0] * (1 << (depth - h)) for h in range(depth + 1)]
    for i, (weight, cut) in enumerate(weighted_cuts):
        if any(len(t) > depth for t in cut):
            raise DomainError("cut member deeper than the requested sweep depth")
        level = [0]
        if cut:
            for h, level in enumerate(fold_levels(scale, rows, _cut_leaves(cut, depth))):
                total[h] = [v + weight * u for v, u in zip(total[h], level)]
        if on_root:
            on_root(i, Fraction(level[0], scale ** depth))
    return total[::-1], [[divisor * scale ** h] * (1 << (depth - h)) for h in range(depth, -1, -1)]


def stored_levels(process: Process) -> tuple[list[list[int]], list[list[int]]]:
    """Each level's numerators and denominators as the process stores them, not necessarily in
    lowest terms: level w at index w, each in heap order."""
    return tuple([[process.table[c][k] for c in level] for level in process.codes] for k in (0, 1))


def process_from_levels(nums: list[list[int]], dens: list[list[int]]) -> Process:
    """The process storing these levels, unchecked: one list per level w, 2**w long, positive dens."""
    return Process._from_codes(*_coded(zip(chain.from_iterable(nums), chain.from_iterable(dens)), len(nums) - 1))


def integer_levels(process: Process) -> tuple[list[list[int]], list[list[int]]]:
    """stored_levels as a process read from text keeps them: its values' numerators and
    denominators in lowest terms, level w at index w, each in heap order."""
    values = process.values.values()
    nums, dens = [v.numerator for v in values], [v.denominator for v in values]
    return tuple([heap[(1 << w) - 1:(2 << w) - 1] for w in range(process.depth + 1)] for heap in (nums, dens))


def check_supermartingale_by_delta(fs: ForecastingSystem, process: Process) -> list[str]:
    """Interior situations whose one-step difference has positive upper expectation."""
    if process.depth == 0:
        return []
    violations = [
        s
        for s in situations_up_to(process.depth - 1)
        if upper_expectation(forecast_by_name(fs, s), process.delta(s)) > 0
    ]
    return sorted(violations, key=lambda s: (len(s), s))


def check_supermartingale_by_nodes(fs: ForecastingSystem, process: Process) -> list[str]:
    """check_supermartingale with one cross-multiplied fold step per interior
    situation, reading each value's numerator and denominator off its Fraction."""
    scale, rows = endpoint_rows(fs, "", process.depth)
    heap = list(process.values.values())
    violations = []
    for w, row in enumerate(rows):
        here = heap[(1 << w) - 1:(2 << w) - 1]
        below = heap[(2 << w) - 1:(4 << w) - 1]
        for j, (v, f0, f1, (p, q)) in enumerate(zip(here, below[::2], below[1::2], row)):
            n0, d0, n1, d1 = f0.numerator, f0.denominator, f1.numerator, f1.denominator
            rise = n1 * d0 - n0 * d1
            lhs = (scale * n0 * d1 + (p if rise >= 0 else q) * rise) * v.denominator
            if lhs > scale * v.numerator * d0 * d1:
                violations.append(bits(j, w))
    return violations


def ville_threshold_by_nodes(fs: ForecastingSystem, process: Process, threshold) -> VilleThreshold:
    """ville_threshold comparing each node's Fraction with the threshold: the cut is the
    prefix-minimal nodes at or above it."""
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise DomainError("threshold must be positive")
    cut = minimal_antichain([s for s, v in process.values.items() if v >= threshold])
    return VilleThreshold(cut=cut, bound=process.root / threshold, actual=_cut_trie(_pairs(fs), cut)[0])


def bound_check_by_nodes(fs: ForecastingSystem, process: Process) -> bool:
    """bound_check with one Fraction ceiling per node, in heap order: the first node either below
    a degenerate forecast (a DomainError) or over root times its ceiling (False) decides."""
    root = process.root
    scales = [local_scale(i) for i in fs.intervals]
    ceilings: list[Fraction] = []
    for i, (s, v) in enumerate(process.values.items()):
        ceiling = Fraction(1)
        if i:
            # the i-th situation has position i + 1, its parent (i + 1) >> 1
            scale = scales[fs._slot((i + 1) >> 1)]
            if scale == 0:
                raise DomainError(f"degenerate forecast at {s[:-1] or '@'!r}")
            ceiling = ceilings[(i - 1) >> 1] / scale
        ceilings.append(ceiling)
        if v > root * ceiling:
            return False
    return True


def kelly_process_by_nodes(fs: ForecastingSystem, stake, direction: str, depth: int) -> Process:
    """kelly_process with one kelly_gamble per interior node, each forecast looked up by name, in
    heap order, so the first node under a degenerate forecast raises."""
    capital = {"": Fraction(1)}
    for s in situations_up_to(depth - 1):
        g = kelly_gamble(forecast_by_name(fs, s), direction)
        capital[s + "0"] = capital[s] * (1 + stake * g.on0)
        capital[s + "1"] = capital[s] * (1 + stake * g.on1)
    return Process(depth, capital)


def first_passages_by_nodes(process: Process, crossed) -> tuple[frozenset[str], ...]:
    """Level n: each situation s with crossed(p, q, |s|) > n, p/q its value in
    lowest terms, that has no strict prefix with the same property; one pass
    in heap order carrying down each path the highest level crossed so far."""
    levels: list[list[str]] = []
    reached: list[int] = []
    for i, (s, value) in enumerate(process.values.items()):
        before = reached[(i - 1) >> 1] if i else 0
        here = crossed(value.numerator, value.denominator, len(s))
        if here > before:
            levels.extend([] for _ in range(len(levels), here))
            for n in range(before, here):
                levels[n].append(s)
            before = here
        reached.append(before)
    return tuple(frozenset(level) for level in levels)


def threshold_levels_by_nodes(process: Process) -> tuple[frozenset[str], ...]:
    """martingale_to_test's levels, per node: 2**n < p/q for the bits of max(0, (p - 1) // q)."""
    return first_passages_by_nodes(process, lambda p, q, n: max(0, (p - 1) // q).bit_length())


def schnorr_levels_by_nodes(process: Process, rho: GrowthFunction) -> tuple[frozenset[str], ...]:
    """schnorr_test_from_martingale's levels, per node: rho(|s|) >= 2**n and capital >= rho(|s|)."""
    thresholds = [rho(n) for n in range(process.depth + 1)]
    return first_passages_by_nodes(
        process, lambda p, q, n: thresholds[n].bit_length() if p >= thresholds[n] * q else 0)


def threshold_levels_by_scans(process: Process) -> tuple[frozenset[str], ...]:
    """martingale_to_test's levels: one tree scan per threshold 2**n below the maximum."""
    top = process.max_value()
    levels = []
    n = 0
    while (1 << n) < top:
        hits = [s for s in situations_up_to(process.depth) if process.values[s] > (1 << n)]
        levels.append(minimal_antichain(hits))
        n += 1
    return tuple(levels)


def schnorr_levels_by_scans(process: Process, rho: GrowthFunction) -> tuple[frozenset[str], ...]:
    """schnorr_test_from_martingale's levels: scan for capital >= rho(depth) >= 2**n."""
    levels = []
    n = 0
    while True:
        hits = [
            s
            for s in situations_up_to(process.depth)
            if process.values[s] >= rho(len(s)) >= (1 << n)
        ]
        cut = minimal_antichain(hits)
        if not cut:
            return tuple(levels)
        levels.append(cut)
        n += 1


def is_antichain_by_pairs(members) -> bool:
    """Whether no member is a strict prefix of another, over every ordered pair of members."""
    members = list(members)
    return not any(s != t and t.startswith(s) for s in members for t in members)


def minimal_antichain_by_pairs(members) -> frozenset[str]:
    """The members that no other member is a strict prefix of; every member is checked first."""
    members = [require_situation(s) for s in members]
    return frozenset(s for s in members if not any(t != s and s.startswith(t) for t in members))


def process_text_by_names(depth: int, texts) -> str:
    """The .proc writer by situation names: each name, a space, its value text and a newline,
    joined, after the 'depth: D' line; the root is written '@'."""
    names = [*situations_up_to(depth)]
    names[0] = ROOT_LABEL
    return f"depth: {depth}\n" + "".join(chain.from_iterable(zip(names, repeat(" "), texts, repeat("\n"))))


def dumped_by_tokens(text: str) -> bool:
    """Whether parse_process reads a text as the writer's layout: it starts with 'depth: D' and has 4 << D
    tokens, the tokens joined by a space and a newline in turn spell the text, the names are
    situations_up_to(D)'s with the root written '@', and every value parses."""
    if not (text.startswith("depth: ") and text.count(" ") == text.count("\n")):
        return False
    tokens = text.split()
    depth = len(tokens).bit_length() - 3
    if depth < 0 or len(tokens) != 4 << depth or tokens[1] != str(depth):
        return False
    if "".join(chain.from_iterable(zip(tokens, cycle(" \n")))) != text:
        return False
    if tokens[2::2] != ["@", *islice(situations_up_to(depth), 1, None)]:
        return False
    try:
        for literal in tokens[3::2]:
            parse_rational(literal)
    except ParseError:
        return False
    return True


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """(number, text) of each line that holds more than a comment and blanks."""
    numbered = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            numbered.append((number, line))
    return numbered


def _key_and_value(line: str) -> tuple[str, str]:
    key, colon, value = line.partition(":")
    if not colon:
        raise ParseError(f"expected 'key: value', got {line!r}")
    return key.strip(), value.strip()


def _natural_field(value: str, what: str) -> int:
    try:
        number = parse_integer(value)
    except ParseError:
        raise ParseError(f"bad {what} {value!r}") from None
    if number < 0:
        raise ParseError(f"negative {what} {value!r}")
    return number


def _process_head(line: str) -> int:
    """The depth a .proc's first line declares, refused as that line alone decides."""
    key, value = _key_and_value(line)
    if key != "depth":
        raise ParseError(f"process file must start with 'depth:', got {line!r}")
    return _natural_field(value, "depth")


def parse_process_by_lines(text: str) -> Process:
    """parse_process with one parse_rational call per value line; each line is read on its own,
    and a fault that it alone decides is refused naming its number."""
    lines = _numbered_lines(text)
    if not lines:
        raise ParseError("empty process file")
    depth, values = None, {}
    for number, line in lines:
        try:
            if depth is None:
                depth = _process_head(line)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected '<situation> <rational>', got {line!r}")
            s = parse_situation(parts[0])
            if s in values:
                raise ParseError(f"duplicate situation {parts[0]!r}")
            values[s] = parse_rational(parts[1])
        except (ParseError, DomainError) as exc:
            raise ParseError(str(exc), number) from None
    need = (1 << (depth + 1)) - 1 if depth <= 64 else len(values)
    if len(values) != need:  # the count message, with the count written out
        raise ParseError(f"depth-{depth} process needs {need} values, got {len(values)}")
    try:
        return Process(depth, values)
    except Exception as exc:
        raise ParseError(str(exc)) from None


def parse_test_by_lines(text: str) -> RandomnessTest:
    """parse_test line by line: keys in any order, level lines anywhere, each level index and
    member read on its own line and every level checked again by RandomnessTest; a fault that
    one line decides is refused naming its number."""
    lines = _numbered_lines(text)
    if not lines:
        raise ParseError("empty test file")
    keys, members = {}, {}
    for number, line in lines:
        try:
            if line.startswith("level "):
                parts = line.split()
                if len(parts) != 3:
                    raise ParseError(f"expected 'level <n> <situation>', got {line!r}")
                members.setdefault(_natural_field(parts[1], "level index"), set()).add(parse_situation(parts[2]))
                continue
            key, value = _key_and_value(line)
            if key in keys:
                raise ParseError(f"duplicate key {key!r}")
            if key == "levels":
                keys[key] = _natural_field(value, "level count")
                if keys[key] > MAX_LEVELS:
                    raise ResourceError(f"line {number}: test has {value} levels, over the limit of {MAX_LEVELS}")
            elif key == "depth":
                keys[key] = _natural_field(value, "depth")
            elif key == "tail":
                keys[key] = parse_growth(value)
            else:
                raise ParseError(f"unexpected key {key!r} in test file")
        except (ParseError, DomainError) as exc:
            raise ParseError(str(exc), number) from None
    for key in ("levels", "depth"):
        if key not in keys:
            raise ParseError(f"test file missing '{key}:'")
    count = keys["levels"]
    if members and max(members) >= count:
        raise ParseError(f"level index outside 0..{count - 1}")
    try:
        return RandomnessTest(tuple(frozenset(members.get(n, ())) for n in range(count)),
                              max_depth=keys["depth"], tail=keys.get("tail"))
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def parse_sequence_by_chars(text: str) -> str:
    """parse_sequence one character at a time: each line's comment cut, every '0' and '1' kept,
    whitespace skipped, and any other character refused naming its line."""
    bits = []
    for number, raw in enumerate(text.splitlines(), start=1):
        for ch in raw.split("#", 1)[0]:
            if ch in "01":
                bits.append(ch)
            elif not ch.isspace():
                raise ParseError(f"unexpected character {ch!r} in sequence", number)
    return "".join(bits)


def clip_by_cutoffs(fs: ForecastingSystem, test: RandomnessTest) -> tuple[frozenset[str], ...]:
    """clip_to_budget's levels, with one cut probability per cutoff 1..max_depth+1."""
    clipped = []
    for n, cut in enumerate(test.levels):
        threshold = Fraction(3, 1 << (n + 2))
        best = 0
        for cutoff in range(1, test.max_depth + 2):
            mass = cut_upper_prob(fs, frozenset(t for t in cut if len(t) < cutoff))
            if mass > threshold:
                break
            best = cutoff
        clipped.append(frozenset(t for t in cut if len(t) < best))
    return tuple(clipped)


def tail_bound_by_cutoffs(fs: ForecastingSystem, test: RandomnessTest) -> GrowthFunction:
    """derive_tail_bound_precise with the residual mass taken at every cutoff, upwards."""
    if not is_precise(fs):
        raise DomainError("tail-bound derivation needs a precise forecasting system")
    for r in validate_ml_test(fs, test):
        if not r.passed:
            actual, budget = format_rational(r.actual), format_rational(r.budget)
            raise ContractError(f"level {r.level} over budget: {actual} > {budget}")

    def residual(n: int, cutoff: int) -> Fraction:
        return cut_upper_prob(fs, test.level_at_least(n, cutoff))

    top = test.deepest_member() + 1

    def first_below(n: int, threshold: Fraction) -> int:
        for cutoff in range(top + 1):
            if residual(n, cutoff) < threshold:
                return cutoff
        return top + 1

    prefix = []
    for big_n in range(test.num_levels):
        threshold = Fraction(1, 1 << (big_n + 1))
        prefix.append(max((first_below(n, threshold) for n in range(big_n + 1)), default=0))
    exhausted = max(
        (min(c for c in range(top + 1) if residual(n, c) == 0) for n in range(test.num_levels)),
        default=0,
    )
    prefix.append(max(exhausted, prefix[-1] if prefix else 0))
    slack = max(0, prefix[-1] - len(prefix))
    return GrowthFunction(tuple(prefix), 1, slack, 1)


# Per-node references for two `convert` directions: each returns what the
# command does, as (exit code, stdout, stderr, text of the written file or None).

def _budget_lines(reports) -> list[str]:
    return [f"level {r.level}: actual {format_rational(r.actual)} budget "
            f"{format_rational(r.budget)} {'pass' if r.passed else 'FAIL'}" for r in reports]


def convert_to_test_by_nodes(fs: ForecastingSystem, process: Process):
    """`convert to-test`: a Fraction comparison per value for the negativity
    scan, check_supermartingale_by_nodes and threshold_levels_by_nodes; a test
    of more levels than a .test file may declare is refused before its budgets."""
    if process.root != 1:
        root = format_rational(process.root)
        return 3, "", f"not a test supermartingale: root is {root}, not 1\n", None
    failures = [s for s, v in process.values.items() if v < 0]
    failures = failures or check_supermartingale_by_nodes(fs, process)
    if failures:
        return 3, "", f"not a test supermartingale: check fails at {failures[0] or '@'}\n", None
    test = RandomnessTest(threshold_levels_by_nodes(process), max_depth=process.depth)
    if test.num_levels > MAX_LEVELS:
        return 4, "", f"treebet: test has {test.num_levels} levels, over the limit of {MAX_LEVELS}\n", None
    reports = validate_ml_test(fs, test)
    lines = _budget_lines(reports)
    if not all(r.passed for r in reports):
        return 3, "\n".join(lines) + "\n", "", None
    return 0, "\n".join(lines + ["all budgets pass"]) + "\n", "", dump_test(test)


def convert_to_martingale_by_process(fs: ForecastingSystem, test: RandomnessTest, n_max: int):
    """`convert to-martingale` through assemble_test_supermartingale with an
    explicit cutoff and depth (so the budgets take the sparse cut
    probabilities), check_supermartingale_by_nodes and dump_process."""
    try:
        process = assemble_test_supermartingale(
            fs, test, n_max, cutoff=test.max_depth + 1, depth=test.max_depth, normalize_root=False)
    except DomainError as exc:
        return 2, "", f"treebet: {exc}\n", None
    except ContractError as exc:
        return 3, "", f"treebet: {exc}\n", None
    value = process.root
    process = Process(process.depth, {**process.values, "": Fraction(1)})
    violations = check_supermartingale_by_nodes(fs, process)
    lines = [f"root {format_rational(value)} normalized 1",
             f"remainder bound {format_rational(Fraction(1, 1 << n_max))}"]
    if violations:
        lines.append(f"supermartingale check FAIL at {violations[0] or '@'}")
        return 3, "\n".join(lines) + "\n", "", None
    lines.append("supermartingale check pass")
    return 0, "\n".join(lines) + "\n", "", dump_process(process)


# Per-row references for the streaming commands: Fraction capitals rendered
# with str() on every row, and one Fraction comparison per drawn bit.

def _log2_label_of(value: Fraction) -> str:
    if value <= 0:
        return "-inf"
    return f"{math.log2(value.numerator) - math.log2(value.denominator):.6g}"


def analyze_by_fractions(
    fs: ForecastingSystem,
    sequence: str,
    strategies: list[tuple[Fraction, str]],
    tests: list[RandomnessTest],
) -> str:
    """The whole stdout of ``treebet analyze``: one Fraction capital per bettor,
    a kelly_gamble per bit and live bettor, every capital rendered on every row.

    Raises what the command raises (DomainError for a bet against a {0} or
    {1} forecast while the bettor is alive).
    """
    labels = [f"kelly({stake},{direction})" for stake, direction in strategies]
    lines = ["# n\tbit\t" + "\t".join(labels) + "\tmax_log2_capital\ttest_hits"]
    hits_at: dict[int, set[int]] = {}
    for test in tests:
        for level, cut in enumerate(test.levels):
            for member in cut:
                if sequence.startswith(member):
                    hits_at.setdefault(len(member), set()).add(level)
    hit_levels: set[int] = set()
    label_at: dict[int, str] = {}
    for depth in sorted(hits_at):
        hit_levels |= hits_at[depth]
        label_at[depth] = ",".join(str(n) for n in sorted(hit_levels))

    capitals = [Fraction(1)] * len(strategies)
    max_capital = Fraction(1)
    max_log2 = _log2_label_of(max_capital)
    hits = label_at.get(0, "-")
    lines.append("0\t-\t" + "\t".join(str(c) for c in capitals) + f"\t{max_log2}\t{hits}")
    for n, bit in enumerate(sequence, start=1):
        forecast = forecast_by_name(fs, sequence[:n - 1])
        for i, (stake, direction) in enumerate(strategies):
            if capitals[i] == 0:
                continue
            g = kelly_gamble(forecast, direction)
            gain = g.on1 if bit == "1" else g.on0
            capitals[i] *= 1 + stake * gain
            if capitals[i] > max_capital:
                max_capital = capitals[i]
                max_log2 = _log2_label_of(max_capital)
        hits = label_at.get(n, hits)
        capital_cols = "\t".join(str(c) for c in capitals)
        lines.append(f"{n}\t{bit}\t{capital_cols}\t{max_log2}\t{hits}")
    deficiency = max(hit_levels) + 1 if hit_levels else 0
    lines.append(
        f"# summary max_log2_capital={max_log2} test_deficiency={deficiency} "
        f"max_capital={max_capital} ville_bound={1 / max_capital}"
    )
    return "\n".join(lines) + "\n"


MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(state: int) -> tuple[int, int]:
    """One scalar splitmix64 step; returns (new_state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def sample_path_by_words(fs: ForecastingSystem, selector: str, n: int, seed: int) -> str:
    """sample_path with one scalar splitmix64 step per word and the slot constants per bit."""
    if selector not in SELECTORS:
        raise DomainError(f"unknown selector {selector!r}")
    uniform = selector == "uniform"
    constants: list = [None] * len(fs.intervals)
    state = seed & MASK64
    drawn = []
    p = 1
    for _ in range(n):
        k = fs._slot(p)
        c = constants[k]
        if c is None:
            c = constants[k] = _constants(fs.intervals[k], selector)
        if uniform:
            state, pick = splitmix64(state)
            state, word = splitmix64(state)
            bit = "1" if word * c[0] < c[1] + c[2] * pick else "0"
        else:
            state, word = splitmix64(state)
            bit = "1" if word < c else "0"
        drawn.append(bit)
        p = fs._follow(p, bit)
    return "".join(drawn)


class BitSampler:
    """Draws bits along a path, one situation at a time, with Fraction arithmetic."""

    _SCALE = 1 << 64

    def __init__(self, selector: str, seed: int):
        if selector not in SELECTORS:
            raise DomainError(f"unknown selector {selector!r}")
        self.selector = selector
        self._state = seed & (self._SCALE - 1)

    def _word(self) -> int:
        self._state, word = splitmix64(self._state)
        return word

    def _pick_probability(self, forecast: IntervalForecast) -> Fraction:
        if self.selector == "low":
            return forecast.lo
        if self.selector == "high":
            return forecast.hi
        if self.selector == "mid":
            return (forecast.lo + forecast.hi) / 2
        spread = forecast.hi - forecast.lo
        return forecast.lo + spread * Fraction(self._word(), self._SCALE)

    def draw(self, forecast: IntervalForecast) -> str:
        p = self._pick_probability(forecast)
        return "1" if Fraction(self._word(), self._SCALE) < p else "0"


def sample_path_by_sampler(fs: ForecastingSystem, selector: str, n: int, seed: int) -> str:
    """sample_path with one BitSampler.draw per bit."""
    sampler = BitSampler(selector, seed)
    drawn = ""
    for _ in range(n):
        drawn += sampler.draw(forecast_by_name(fs, drawn))
    return drawn
