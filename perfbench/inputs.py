"""Seeded input generation for the benchmark, independent of the program.

Nothing here imports treebet: the program sees only the files and the
plain descriptions this module produces.  The same seed gives the same
inputs.  What decides an op's cost (system, depth, cut size, sequence
length) is fixed by the op's slot in its workload's cycle; the seed varies
only content that leaves the cost unchanged (mirror images of processes,
cut members, gamble values, bits), so runs with different seeds do the
same work and their timings can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

RHO = "table 0 1 1 2 2 3 ; affine 1 0 1"
BATTERY = (("1", "on-one"), ("1", "on-zero"), ("1/2", "on-one"), ("1/2", "on-zero"))
STAKE_ONE = (("1", "on-one"), ("1", "on-zero"))

# Inputs are generated for at most this many cycles; longer runs reuse them.
GENERATED_CYCLES = 4
TABLE_OVERRIDE_DEPTH = 6


def bits(j: int, n: int) -> str:
    return format(j, f"0{n}b") if n else ""


def label(s: str) -> str:
    return s if s else "@"


def _flip_bits(s: str) -> str:
    return s.translate(str.maketrans("01", "10"))


def _flip_interval(i: tuple) -> tuple:
    return 1 - i[1], 1 - i[0]


def _i(lo, hi) -> tuple:
    return F(lo), F(hi)


@dataclass(frozen=True)
class System:
    """A forecasting system as the benchmark knows it: its interval at every
    situation, computed without the program, and its file text."""

    name: str
    default: tuple | None
    overrides: dict = field(default_factory=dict)
    markov_rows: dict | None = None

    def at(self, s: str) -> tuple:
        if self.markov_rows is not None:
            return self.markov_rows[s[-2:]]
        return self.overrides.get(s, self.default)

    def mirror(self) -> "System":
        """The same system with 0 and 1 swapped: every problem posed on the
        mirror has the same cost as its mirror image on the original."""
        rows = (None if self.markov_rows is None else
                {_flip_bits(c): _flip_interval(i) for c, i in self.markov_rows.items()})
        return System(self.name, self.default and _flip_interval(self.default),
                      {_flip_bits(s): _flip_interval(i) for s, i in self.overrides.items()}, rows)

    @property
    def text(self) -> str:
        def order(items):
            return sorted(items, key=lambda kv: (len(kv[0]), kv[0]))
        if self.markov_rows is not None:
            return "\n".join(["kind: markov", "order: 2"] + [
                f"row {label(c)} {i[0]} {i[1]}" for c, i in order(self.markov_rows.items())]) + "\n"
        if self.overrides:
            return "\n".join(["kind: table", f"default: {self.default[0]} {self.default[1]}"] + [
                f"node {label(s)} {i[0]} {i[1]}" for s, i in order(self.overrides.items())]) + "\n"
        return f"kind: stationary\ninterval: {self.default[0]} {self.default[1]}\n"


FAIR = System("fair", _i("1/2", "1/2"))
WIDE = System("wide", _i("2/5", "7/10"))
TABLE = System("table", _i("2/5", "3/5"), {
    "": _i("1/3", "1/2"), "0": _i("1/2", "2/3"), "1": _i("2/5", "3/5"), "01": _i("1/4", "1/2"),
    "10": _i("1/2", "3/4"), "001": _i("1/3", "1/2"), "110": _i("3/8", "5/8"),
    "0110": _i("1/2", "2/3"), "1011": _i("1/4", "1/2"), "00000": _i("2/5", "3/5"),
    "010101": _i("3/8", "5/8"), "111111": _i("1/2", "3/4"),
})
MARKOV = System("markov", None, markov_rows={
    "": _i("1/2", "1/2"), "0": _i("2/5", "3/5"), "1": _i("1/3", "1/2"), "00": _i("1/4", "1/2"),
    "01": _i("1/2", "2/3"), "10": _i("3/8", "5/8"), "11": _i("1/3", "3/5"),
})
SYSTEMS = (FAIR, WIDE, TABLE, MARKOV)


def kelly_factors(interval, stake: F, direction: str) -> tuple[F, F]:
    """Capital multipliers (after a 1, after a 0) of a Kelly bettor."""
    lo, hi = interval
    if direction == "on-one":
        return 1 + stake * (1 - hi) / hi, 1 - stake
    return 1 - stake, 1 + stake * lo / (1 - lo)


def kelly_levels(system: System, stake: F, direction: str, depth: int) -> list[list[tuple]]:
    """Capital of a Kelly bettor at every situation, level by level, as
    reduced (numerator, denominator) pairs."""
    factors: dict = {}
    levels = [[(1, 1)]]
    for n in range(depth):
        nxt = []
        for j, (num, den) in enumerate(levels[-1]):
            interval = system.at(bits(j, n))
            if interval not in factors:
                up, down = kelly_factors(interval, stake, direction)
                factors[interval] = ((down.numerator, down.denominator),
                                     (up.numerator, up.denominator))
            for fn, fd in factors[interval]:
                a, b = num * fn, den * fd
                g = math.gcd(a, b)
                nxt.append((a // g, b // g))
        levels.append(nxt)
    return levels


def average(x: tuple, y: tuple) -> tuple:
    a, b = x[0] * y[1] + y[0] * x[1], 2 * x[1] * y[1]
    g = math.gcd(a, b)
    return a // g, b // g


def rational_text(v: tuple) -> str:
    return f"{v[0]}/{v[1]}" if v[1] != 1 else str(v[0])


def process_text(levels: list[list[tuple]]) -> str:
    lines = [f"depth: {len(levels) - 1}"]
    for n, level in enumerate(levels):
        lines += [f"{label(bits(j, n))} {rational_text(v)}" for j, v in enumerate(level)]
    return "\n".join(lines) + "\n"


def flip(direction: str) -> str:
    return "on-zero" if direction == "on-one" else "on-one"


# ---------------------------------------------------------------- convert

# One chain per slot: (depth, system, process kind).  Kelly processes bet
# stake 1/2 on one side; averages mix that bettor with a stake-1/3 bettor on
# the other side.  Shallow chains are more numerous so that the latency
# percentiles rest on many samples; the deep ones dominate the op time.
CONVERT_SLOTS = (
    (9, FAIR, "average"),
    (9, WIDE, "kelly"),
    (9, TABLE, "kelly"),
    (9, MARKOV, "average"),
    (10, FAIR, "kelly"),
    (10, TABLE, "average"),
    (11, MARKOV, "kelly"),
    (12, FAIR, "average"),
    (13, WIDE, "kelly"),
)


@dataclass
class Chain:
    """One convert chain: a process file and the system it is tested against."""

    system: System
    depth: int
    kind: str
    mirrored: bool
    proc_text: str


def convert_inputs(rng: random.Random) -> list[Chain]:
    """One cycle of chains; the seed mirrors each chain's system and process."""
    chains = []
    for depth, system, kind in CONVERT_SLOTS:
        mirrored = rng.random() < 0.5
        if mirrored:
            system = system.mirror()
        d = "on-zero" if mirrored else "on-one"
        levels = kelly_levels(system, F(1, 2), d, depth)
        if kind == "average":
            other = kelly_levels(system, F(1, 3), flip(d), depth)
            levels = [[average(x, y) for x, y in zip(la, lb)] for la, lb in zip(levels, other)]
        chains.append(Chain(system, depth, kind, mirrored, process_text(levels)))
    return chains


# ------------------------------------------------------------------ query

POOL_SIZE = 64
ZIPF_S = 1.0

# (kind, size, member depths, conditioned, lower); the cycle runs one op of
# each class in this order.  Sizes and depths are fixed per class so that
# pool entries of a class cost about the same.  Six cheaper and five dearer
# classes flank fourteen 16-member cuts, so the median latency falls near
# the middle of that one class: short ops' latencies follow the machine's
# fast and slow states in two clusters, and a median near either edge of
# the class would jump between them from run to run.
SPARSE16 = (("sparse", 16, (10, 10), False, False), ("sparse", 16, (10, 10), False, True))
QUERY_CLASSES = (
    ("sparse", 8, (8, 8), True, False),
    *SPARSE16 * 7,
    ("sparse", 32, (16, 16), True, False),
    ("sparse", 64, (24, 24), False, True),
    ("sparse", 64, (24, 24), True, False),
    ("cylinder", 16, None, False, False),
    ("cylinder", 64, None, False, False),
    ("dense", 6, None, False, False),
    ("dense", 8, None, False, True),
    ("dense", 10, None, True, False),
    ("onestep", 1, None, False, False),
    ("onestep", 1, None, False, True),
)
CHECKED_CUT_DEPTH = 12


@dataclass
class Query:
    kind: str
    system: int
    lower: bool
    cut: tuple = ()
    cond: str = ""
    situation: str = ""
    values: tuple = ()
    depth: int = 0
    gamble: tuple = ()


def _random_bits(rng: random.Random, n: int) -> str:
    return bits(rng.getrandbits(n), n) if n else ""


def random_antichain(rng: random.Random, size: int, lo: int, hi: int,
                     members: tuple[str, ...] = ()) -> tuple[str, ...]:
    """``members`` extended with random situations of depth lo..hi until
    ``size`` members, none a prefix of another."""
    members = list(members)
    while len(members) < size:
        s = _random_bits(rng, rng.randint(lo, hi))
        if not any(s.startswith(t) or t.startswith(s) for t in members):
            members.append(s)
    return tuple(members)


def small_rational(rng: random.Random) -> F:
    return F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 8)))


def _make_query(rng: random.Random, cls, system: int) -> Query:
    kind, size, span, conditioned, lower = cls
    if kind == "sparse":
        cut = random_antichain(rng, size, *span)
        cond = ""
        if conditioned:
            cond = rng.choice(cut)[:1]
        return Query(kind, system, lower, cut=cut, cond=cond)
    if kind == "cylinder":
        return Query(kind, system, lower, situation=_random_bits(rng, size))
    if kind == "dense":
        values = tuple(small_rational(rng) for _ in range(1 << size))
        cond = _random_bits(rng, rng.randint(1, 2)) if conditioned else ""
        return Query(kind, system, lower, values=values, depth=size, cond=cond)
    situation = _random_bits(rng, rng.randint(0, 8))
    return Query(kind, system, lower, situation=situation,
                 gamble=(small_rational(rng), small_rational(rng)))


def query_inputs(rng: random.Random, n_cycles: int):
    """A pool per distinct class (repeated classes share theirs), which pool
    each cycle slot reads, and for each of n_cycles cycles the entry drawn
    for each slot under a Zipf(ZIPF_S) popularity over the pool."""
    classes = list(dict.fromkeys(QUERY_CLASSES))
    pools = [[_make_query(rng, cls, (r + p) % len(SYSTEMS)) for r in range(POOL_SIZE)]
             for p, cls in enumerate(classes)]
    slot_pool = [classes.index(cls) for cls in QUERY_CLASSES]
    weights = [1 / (r + 1) ** ZIPF_S for r in range(POOL_SIZE)]
    draws = [rng.choices(range(POOL_SIZE), weights=weights, k=len(QUERY_CLASSES))
             for _ in range(n_cycles)]
    return pools, slot_pool, draws


# ----------------------------------------------------------------- stream

SAMPLE_BITS = 100_000
ANALYZE_BITS = 1_000_000
# The fair coin's capitals pass Python's 4300-digit int-to-str limit near
# 14,300 bits, the wide system's near 6,000: these ops crash the CLI today.
LONG_BATTERY = ((1, 8_000), (0, 16_000))
TEST_LEVELS = 6
TEST_MEMBERS = 4
TEST_DEPTH = (4, 16)


@dataclass
class StreamOp:
    """A `sample` or `analyze` call: argv templates are filled in at run time."""

    command: str
    system: int
    n: int
    selector: str = ""
    seed: int = 0
    strategies: tuple = ()
    seq_text: str = ""
    tests: tuple = ()   # each a tuple of levels, each a tuple of members


def random_sequence(rng: random.Random, n: int) -> str:
    return bits(rng.getrandbits(n), n)


def random_test(rng: random.Random, seq: str) -> tuple[tuple[str, ...], ...]:
    """Random levels; the first few hold a prefix of ``seq``, so the analysed
    path hits them and the reported deficiency is not trivially 0."""
    hit = rng.randint(1, TEST_LEVELS - 1)
    return tuple(random_antichain(rng, TEST_MEMBERS, *TEST_DEPTH,
                                  members=(seq[:TEST_DEPTH[0] + 2 * n],) if n < hit else ())
                 for n in range(TEST_LEVELS))


def test_text(levels) -> str:
    depth = max(len(s) for level in levels for s in level)
    lines = [f"levels: {len(levels)}", f"depth: {depth}"]
    for n, level in enumerate(levels):
        lines += [f"level {n} {label(s)}" for s in sorted(level)]
    return "\n".join(lines) + "\n"


def stream_inputs(rng: random.Random) -> list[StreamOp]:
    """One cycle: sample mid and sample uniform, a stake-1 analyze with two
    test files over a million bits, the default battery over 2k bits on
    every system, over 4k bits on the fair coin six times (the median
    latency rests on this class), and over 8k bits (wide) and 16k bits
    (fair)."""
    fair, wide, table, markov = range(len(SYSTEMS))
    seq = random_sequence(rng, ANALYZE_BITS)
    ops = [
        StreamOp("sample", wide, SAMPLE_BITS, selector="mid", seed=rng.getrandbits(63)),
        StreamOp("sample", markov, SAMPLE_BITS, selector="uniform", seed=rng.getrandbits(63)),
        StreamOp("analyze", table, ANALYZE_BITS, strategies=STAKE_ONE, seq_text=seq,
                 tests=(random_test(rng, seq), random_test(rng, seq))),
    ]
    battery = [(k, 2_000) for k in range(len(SYSTEMS))] + [(fair, 4_000)] * 6 + list(LONG_BATTERY)
    for k, n in battery:
        ops.append(StreamOp("analyze", k, n, strategies=BATTERY, seq_text=random_sequence(rng, n)))
    return ops
