"""Seeded random generators shared by the unit and acceptance suites."""

from __future__ import annotations

import random
from fractions import Fraction

from treebet import (
    DepthGamble,
    GrowthFunction,
    IntervalForecast,
    LocalGamble,
    Markov,
    Process,
    RandomnessTest,
    Stationary,
    Table,
    cut_upper_prob,
    cylinder_bounds,
    interval,
    kelly_gamble,
)
from treebet.formats import MAX_LEVELS
from treebet.tree import bits, format_situation, minimal_antichain, situations_up_to

ENDPOINT_POOL = [Fraction(0), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2),
                 Fraction(7, 10), Fraction(1)]

FAIR = Stationary(interval("1/2"))
WIDE = Stationary(interval("2/5", "7/10"))
NUDGE = Fraction(1, 97)


def rand_fraction(rng: random.Random, span: int = 4, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-span * max_den, span * max_den), rng.randint(1, max_den))


def rand_prob(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def rand_interval(
    rng: random.Random,
    precise: bool = False,
    non_degenerate: bool = False,
    pool: list[Fraction] | None = None,
) -> IntervalForecast:
    def draw() -> Fraction:
        return rng.choice(pool) if pool is not None else rand_prob(rng)

    while True:
        lo, hi = draw(), draw()
        if precise:
            hi = lo
        if lo > hi:
            lo, hi = hi, lo
        if non_degenerate and (hi == 0 or lo == 1):
            continue
        return IntervalForecast(lo, hi)


def rand_local_gamble(rng: random.Random, span: int = 4) -> LocalGamble:
    return LocalGamble(rand_fraction(rng, span), rand_fraction(rng, span))


def rand_gamble(rng: random.Random, depth: int, span: int = 4) -> DepthGamble:
    return DepthGamble(depth, tuple(rand_fraction(rng, span) for _ in range(1 << depth)))


def rand_system(
    rng: random.Random,
    depth: int = 4,
    kind: str | None = None,
    **interval_kwargs,
):
    kind = kind or rng.choice(["stationary", "table", "markov"])
    if kind == "stationary":
        return Stationary(rand_interval(rng, **interval_kwargs))
    if kind == "table":
        overrides = {}
        for _ in range(rng.randint(0, 6)):
            n = rng.randint(0, depth)
            overrides[bits(rng.randrange(1 << n), n)] = rand_interval(rng, **interval_kwargs)
        return Table(rand_interval(rng, **interval_kwargs), overrides)
    order = rng.randint(0, 2)
    rows = {
        bits(j, n): rand_interval(rng, **interval_kwargs)
        for n in range(order + 1)
        for j in range(1 << n)
    }
    return Markov(order, rows)


def rand_table_system(rng: random.Random, depth: int, pool=ENDPOINT_POOL) -> Table:
    overrides = {}
    for s in situations_up_to(depth - 1):
        lo, hi = sorted((rng.choice(pool), rng.choice(pool)))
        overrides[s] = IntervalForecast(lo, hi)
    return Table(interval("1/2"), overrides)


_STAKES = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
_BURNS = [Fraction(1), Fraction(1), Fraction(1), Fraction(3, 4), Fraction(1, 2)]


def rand_supermartingale(
    rng: random.Random, fs, depth: int, root: Fraction = Fraction(1), positive: bool = False
) -> Process:
    """A non-negative supermartingale built from stake/burn moves.

    Each step multiplies by burn * (1 + stake * bet) where the bet has
    non-positive local upper expectation, so the property holds by
    construction; ``positive`` keeps the stake below 1 so capital never
    dies.
    """
    values = {"": root}
    for s in situations_up_to(depth - 1) if depth else []:
        stake = rng.choice(_STAKES[:-1] if positive else _STAKES)
        burn = rng.choice(_BURNS)
        direction = rng.choice(["on-one", "on-zero"])
        g = kelly_gamble(fs.at(s), direction)
        here = values[s]
        values[s + "1"] = here * burn * (1 + stake * g.on1)
        values[s + "0"] = here * burn * (1 + stake * g.on0)
    return Process(depth, values)


def count_process(rng: random.Random, forecast, depth: int, moved: bool) -> Process:
    """A Kelly bettor's capital against ``forecast``: its value depends only on a situation's depth
    and count of ones, so each level's rows (a value, its children's and the forecast) repeat
    heavily. With ``moved``, one (depth, ones) class is moved by 1/97 either way, which puts one
    row, failing or not, at every node above the class that shares a forecast."""
    g = kelly_gamble(forecast, rng.choice(["on-one", "on-zero"]))
    stake = rng.choice([Fraction(1, 2), Fraction(3, 4), Fraction(1)])
    win, lose = 1 + stake * g.on1, 1 + stake * g.on0
    n = rng.randint(1, depth)
    cls, nudge = (n, rng.randint(0, n)), (rng.choice([NUDGE, -NUDGE]) if moved else 0)
    return Process(depth, {s: win ** s.count("1") * lose ** s.count("0")
                           + (nudge if (len(s), s.count("1")) == cls else 0) for s in situations_up_to(depth)})


def ones_test(
    num_levels: int, max_depth: int | None = None, tail: GrowthFunction | None = None
) -> RandomnessTest:
    """Level n is the singleton cut {1^(n+1)}."""
    if max_depth is None:
        max_depth = num_levels
    levels = tuple(frozenset({"1" * (n + 1)}) for n in range(num_levels))
    return RandomnessTest(levels, max_depth=max_depth, tail=tail)


def rand_valid_test(
    rng: random.Random, fs, num_levels: int, depth: int
) -> tuple[RandomnessTest, str]:
    """A budget-respecting test whose levels are all hit by one common path.

    Needs a system whose cylinder upper probabilities decay along paths
    (intervals away from {0} and {1}); level n places the path's prefix at
    the first depth safely inside half the 2**-n budget, plus occasionally
    one off-path member if the exact total still fits.
    """
    w = "".join(rng.choice("01") for _ in range(depth))
    levels = []
    for n in range(num_levels):
        budget = Fraction(1, 1 << n)
        d = 0
        while cylinder_bounds(fs, w[:d])[0] > budget / 2:
            d += 1
            if d > depth:
                raise ValueError("system does not decay fast enough for this depth")
        members = {w[:d]}
        if d > 0 and rng.random() < 0.5:
            j = rng.randint(1, d)
            off = w[: j - 1] + ("0" if w[j - 1] == "1" else "1")
            off += "".join(rng.choice("01") for _ in range(rng.randint(0, depth - len(off))))
            candidate = members | {off}
            if cut_upper_prob(fs, candidate) <= budget:
                members = candidate
        levels.append(frozenset(members))
    return RandomnessTest(tuple(levels), max_depth=depth), w


def decaying_system(rng: random.Random, precise: bool = False):
    """A stationary or low-order markov system with factors at most 5/8."""
    pool = [Fraction(3, 8), Fraction(2, 5), Fraction(1, 2), Fraction(5, 8)]

    def one() -> IntervalForecast:
        lo, hi = sorted((rng.choice(pool), rng.choice(pool)))
        if precise:
            hi = lo
        return IntervalForecast(lo, hi)

    if rng.random() < 0.5:
        return Stationary(one())
    order = rng.randint(1, 2)
    rows = {bits(j, n): one() for n in range(order + 1) for j in range(1 << n)}
    return Markov(order, rows)


def _rational_text(rng: random.Random, value: Fraction) -> str:
    """``value`` written canonically, unreduced, with a '+' sign or leading zeros, or as '-0'."""
    form = rng.randrange(5)
    if form == 1:
        k = rng.randint(2, 4)
        return f"{value.numerator * k}/{value.denominator * k}"
    if form == 2 and value >= 0:
        return f"+{value}"
    if form == 3 and value == 0:
        return "-0"
    if form == 4 and value >= 0:
        return f"00{value}"
    return str(value)


# separators other than dump_process's ' ' and '\n'; str.split() and str.splitlines() disagree on some
ODD_SEPARATORS = ["\t", "\r\n", "\r", "\x1c", "\x1f", "\x85", "\u2028", "  "]


def _depth_head(rng: random.Random, depth: int) -> str:
    """A 'depth:' line the line-by-line reader accepts or rejects, never dump_process's."""
    return rng.choice([
        f"depth:{depth}", f"depth: +{depth}", f"depth: 0{depth}", f"depth:  {depth}",
        "depth: " + "".join(chr(0x660 + int(d)) for d in str(depth)),  # Arabic-Indic digits
        "depth: " + "1" * 4301, "depth: 100000000000", "depth: 4294967296", f"depth: {depth} ",
        f"Depth: {depth}", f"width: {depth}",
    ])


def rand_proc_text(rng: random.Random) -> str:
    """A .proc text, canonical or with one kind of damage.

    Values come from a small pool in several spellings, so value texts
    repeat, and equal values are written differently.  The kinds: canonical
    (dump_process's layout), shuffled lines, comments and blank lines, a
    duplicate situation, a bad situation, a bad or zero-denominator rational,
    two faults on one line, a missing line, two pairs on one line, a pair
    split over two lines, the root pair on the 'depth:' line, an odd
    separator, trailing spaces, no final newline, an odd 'depth:' line, and a
    'depth:' past the lines' own depth.
    """
    depth = rng.randint(0, 4)
    pool = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 4),
            Fraction(5, 3), Fraction(7)]
    lines = [
        f"{format_situation(s)} {_rational_text(rng, rng.choice(pool))}"
        for s in situations_up_to(depth)
    ]
    head = f"depth: {depth}"
    kind = rng.choice(["canonical", "shuffled", "comments", "duplicate", "bad situation",
                       "bad rational", "two faults", "missing", "joined", "split",
                       "pair on head", "separator", "trailing spaces", "no final newline",
                       "odd head", "deeper head"])
    at = rng.randrange(len(lines))
    if kind == "shuffled":
        rng.shuffle(lines)
    elif kind == "comments":
        for _ in range(rng.randint(1, 4)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "  ", "# note", "\t# x"]))
        lines[at] += "  # trailing"
    elif kind == "duplicate":
        situation = lines[at].split()[0]
        lines.insert(rng.randint(0, len(lines)), f"{situation} {rng.choice(pool)}")
    elif kind == "bad situation":
        lines[at] = rng.choice(["2", "0a", "@@", "0 1"]) + " " + lines[at].split()[1]
    elif kind == "bad rational":
        lines[at] = lines[at].split()[0] + " " + rng.choice(["1/0", "0.5", "x", "-3/00", "1/2/3"])
    elif kind == "two faults":
        situation = rng.choice(["2", lines[at].split()[0], lines[-1].split()[0]])
        lines.insert(rng.randint(at, len(lines)), f"{situation} {rng.choice(['1/0', 'x'])}")
    elif kind == "missing":
        del lines[at]
    elif kind == "joined" and at + 1 < len(lines):
        lines[at:at + 2] = [f"{lines[at]} {lines[at + 1]}"]
    elif kind == "split":
        lines[at] = lines[at].replace(" ", "\n")
    elif kind == "pair on head":  # "depth: 0 @\n1\n" has the right token count
        name, value = lines[0].split()
        head, lines[0] = f"{head} {name}", value
    elif kind == "separator":
        separator = rng.choice(ODD_SEPARATORS)
        if rng.random() < 0.5:
            lines[at] = lines[at].replace(" ", separator)
        elif at + 1 < len(lines):
            lines[at:at + 2] = [lines[at] + separator + lines[at + 1]]
    elif kind == "trailing spaces":
        lines[at] += rng.choice([" ", "  ", "\t"])
    elif kind == "odd head":
        head = _depth_head(rng, depth)
    elif kind == "deeper head":  # the count message, either side of depth 64
        head = f"depth: {rng.choice([depth + 1, depth + 3, 10, 64, 65])}"
    text = "\n".join([head] + lines)
    return text if kind == "no final newline" else text + "\n"


DUMP_MUTATIONS = ["none", "comment line", "blank line", "trailing space", "tab", "crlf", "swapped lines",
                  "shuffled lines", "root name", "depth mismatch", "no final newline", "long numeral",
                  "percent value"]


def mutated_dump(rng: random.Random, text: str, kind: str) -> str:
    """A dump_process text with one kind of damage from DUMP_MUTATIONS ('none' keeps it)."""
    head, *lines = text.splitlines()
    at = rng.randrange(len(lines))
    if kind == "comment line":
        lines.insert(rng.randint(0, len(lines)), rng.choice(["# note", "#", "@ 1 # trailing"]))
    elif kind == "blank line":
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", " "]))
    elif kind == "trailing space":
        lines[at] += " "
    elif kind == "tab":
        lines[at] = lines[at].replace(" ", "\t")
    elif kind == "crlf":
        return text.replace("\n", "\r\n")
    elif kind == "swapped lines" and len(lines) > 1:
        i, j = rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "shuffled lines":  # every body line moved; half the time with tabs or CRLF line ends
        rng.shuffle(lines)
        spacing = rng.choice(["", "", "\t", "\r\n"])
        if spacing == "\t":
            lines = [line.replace(" ", "\t") for line in lines]
        elif spacing:
            return "\r\n".join([head] + lines) + "\r\n"
    elif kind == "root name":
        lines[0] = rng.choice(["", "0", "@@", "r"]) + lines[0][1:]
    elif kind == "depth mismatch":
        depth = int(head.split()[1])
        head = f"depth: {rng.choice([depth + 1, max(depth - 1, 0) if depth else 2])}"
    elif kind == "long numeral":
        lines[at] = f"{lines[at].split()[0]} {rng.choice(['', '-'])}{'7' * 4301}/{rng.choice(['1', '3'])}"
    elif kind == "percent value":  # %-formatting directives, which a value column must keep as data
        lines[at] = f"{lines[at].split()[0]} {rng.choice(['%s', '%%', '%(x)s', '%d'])}"
    out = "\n".join([head] + lines)
    return out if kind == "no final newline" else out + "\n"


def rand_test(rng: random.Random) -> RandomnessTest:
    """A test of up to 5 levels, each a random antichain no deeper than a depth of up to 6, with
    a random tail or none; no budget is checked."""
    depth = rng.randint(0, 6)

    def width() -> int:  # the root only now and then, since it is a level on its own
        return rng.randint(1, depth) if depth and rng.random() < 0.9 else 0

    levels = tuple(minimal_antichain(bits(rng.getrandbits(w), w) for w in (width() for _ in range(rng.randint(0, 5))))
                   for _ in range(rng.randint(0, 5)))
    tail = None
    if rng.random() < 0.5:
        prefix = sorted(rng.randint(0, 9) for _ in range(rng.randint(0, 3)))
        tail = GrowthFunction(tuple(prefix), rng.randint(1, 3), 9, 1)  # the tail starts at 9 or more
    return RandomnessTest(levels, max_depth=depth, tail=tail)


TEST_MUTATIONS = ["none", "comment line", "blank line", "crlf", "no final newline", "repeated member", "level 007",
                  "index past levels", "non-antichain", "too deep", "over MAX_LEVELS", "bad tail", "key order",
                  "key spacing", "level spacing", "signed index"]


def mutated_test_dump(rng: random.Random, text: str, kind: str) -> str:
    """A dump_test text with one kind of change from TEST_MUTATIONS ('none' keeps it); some
    changes leave a test parse_test reads, some a text it refuses."""
    lines = text.splitlines()
    count, depth = (int(line.split()[1]) for line in lines[:2])
    members = [at for at, line in enumerate(lines) if line.startswith("level ")]
    has_tail = len(lines) > 2 and lines[2].startswith("tail: ")
    n = rng.randrange(count) if count else 0  # a stored level, or the first one past 'levels: 0'
    if kind == "comment line":
        if rng.random() < 0.5:
            lines.insert(rng.randint(0, len(lines)), rng.choice(["# note", "#", "  # indented"]))
        else:
            lines[rng.randrange(len(lines))] += rng.choice(["# note", "  # trailing"])
    elif kind == "blank line":
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", " ", "\t"]))
    elif kind == "crlf":
        return text.replace("\n", "\r\n")
    elif kind == "repeated member" and members:
        lines.insert(rng.randint(2, len(lines)), lines[rng.choice(members)])
    elif kind == "key order":  # 'depth:' or 'tail:' first
        lines.insert(0, lines.pop(rng.randrange(1, 2 + has_tail)))
    elif kind == "key spacing":  # 'levels:2', 'depth:  5'
        at = rng.randrange(2 + has_tail)
        lines[at] = lines[at].replace(": ", rng.choice([":", ":  ", ":\t", " : "]), 1)
    elif kind == "level spacing":
        gap = rng.choice(["  ", "   ", "\t", " \t "])
        if members:
            at = rng.choice(members)
            lines[at] = lines[at].replace(" ", gap)
        else:
            lines.append(f"level{gap}{n}{gap}1")
    elif kind == "signed index":  # 'level +2 01' or 'level 02 01' beside 'level 2 01'
        _, index, name = lines[rng.choice(members)].split() if members else ("level", str(n), "1")
        if rng.random() < 0.5:  # another member, maybe a prefix of one already there
            w = rng.randint(0, depth)
            name = format_situation(bits(rng.getrandbits(w), w))
        sign = rng.choice(["+", "0", "+0"] + (["-"] if index == "0" else []))
        lines.insert(rng.randint(2, len(lines)), f"level {sign}{index} {name}")
    elif kind == "level 007":
        if members:
            at = rng.choice(members)
            _, index, name = lines[at].split()
            lines[at] = f"level {int(index):03d} {name}"
        else:
            lines.append(f"level {n:03d} 1")
    elif kind == "index past levels":
        lines.append(f"level {count + rng.randint(0, 2)} 1")
    elif kind == "non-antichain":  # a member and, on its level, one of its prefixes or its child
        if members:
            _, index, name = lines[rng.choice(members)].split()
            lines.append(f"level {index} {format_situation(name[:rng.randrange(len(name))]) if name != '@' else '0'}")
        else:
            lines += [f"level {n} 0", f"level {n} 01"]
    elif kind == "too deep":
        lines.append(f"level {n} {'1' * (depth + 1)}")
    elif kind == "over MAX_LEVELS":
        lines[0] = f"levels: {rng.choice([MAX_LEVELS + 1, 10**4, 10**6])}"
    elif kind == "bad tail":
        bad = rng.choice(["nonsense", "table 2 1 ; affine 1 0 1", "table ; affine 0 0 1", "table x ; affine 1 0 1",
                          "table 007 ; affine 1 0 1", "table 9 ; affine 1 0 1"])
        if has_tail:
            lines[2] = f"tail: {bad}"
        else:
            lines.insert(2, f"tail: {bad}")
    out = "\n".join(lines)
    return out if kind == "no final newline" else out + "\n"
