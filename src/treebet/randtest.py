"""Randomness tests as leveled families of partial cuts, with conversions.

A test stores finitely many levels, each a partial cut of bounded depth;
level n carries the upper-probability budget 2**-n.  A Schnorr-style test
additionally carries a tail bound: a growth function e such that the mass
of level members at depth e(K) or beyond never exceeds 2**-K.

The conversions in this module go both ways between tests and test
supermartingales, and every series construction reports an explicit
truncation remainder instead of pretending to take a limit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import count
from typing import Sequence

from .errors import ContractError, DomainError
from .expectation import _cut_trie, _fold_sum, _pairs, cut_upper_prob
from .forecast import ForecastingSystem, cumulative_bound, integer_log_bound, is_precise
from .growth import GrowthFunction
from .martingale import Process, _first_passages, _test_failures
from .numerals import collection, format_rational, integer, natural
from .tree import ROOT, minimal_antichain, require_antichain, require_situation


@dataclass(frozen=True)
class RandomnessTest:
    levels: tuple[frozenset[str], ...]
    max_depth: int
    tail: GrowthFunction | None = None

    def __post_init__(self):
        natural(self.max_depth, "test depth")
        checked = []
        for cut in collection(self.levels, "a test's levels are a collection of cuts"):
            members = require_antichain(cut)
            if any(len(t) > self.max_depth for t in members):
                raise DomainError("level member deeper than the declared test depth")
            checked.append(members)
        object.__setattr__(self, "levels", tuple(checked))

    @classmethod
    def _from_antichains(cls, levels: tuple[frozenset[str], ...], max_depth: int, tail=None) -> "RandomnessTest":
        """A test whose levels are antichains no deeper than max_depth, unchecked."""
        test = cls.__new__(cls)
        vars(test).update(levels=levels, max_depth=max_depth, tail=tail)
        return test

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> frozenset[str]:
        if natural(n, "n") >= self.num_levels:
            raise DomainError(f"level {n} not stored (test has {self.num_levels} levels)")
        return self.levels[n]

    def level_below(self, n: int, cutoff: int) -> frozenset[str]:
        """The members of level ``n`` of depth strictly less than ``cutoff``."""
        natural(cutoff, "cutoff")
        return frozenset(t for t in self.level(n) if len(t) < cutoff)

    def level_at_least(self, n: int, cutoff: int) -> frozenset[str]:
        natural(cutoff, "cutoff")
        return frozenset(t for t in self.level(n) if len(t) >= cutoff)

    def deepest_member(self) -> int:
        """Depth of the deepest stored member (-1 when all levels are empty)."""
        depths = [len(t) for cut in self.levels for t in cut]
        return max(depths, default=-1)


@dataclass(frozen=True)
class LevelReport:
    level: int
    budget: Fraction
    actual: Fraction
    passed: bool


@dataclass(frozen=True)
class TailReport:
    k: int
    cutoff: int
    budget: Fraction
    worst_actual: Fraction
    passed: bool


def _upper_mass(fs: ForecastingSystem):
    """A stored or built cut's upper probability, each distinct cut folded once per function made."""
    ends = _pairs(fs)
    return cache(lambda cut: _cut_trie(ends, cut)[0])


def validate_ml_test(fs: ForecastingSystem, test: RandomnessTest) -> list[LevelReport]:
    """Check every stored level against its 2**-n upper-probability budget."""
    return _level_reports(_upper_mass(fs), test)


def _level_reports(mass, test: RandomnessTest) -> list[LevelReport]:
    return [LevelReport(n, budget, actual, actual <= budget)
            for n, actual in enumerate(map(mass, test.levels)) for budget in [Fraction(1, 1 << n)]]


def validate_schnorr_tail(fs: ForecastingSystem, test: RandomnessTest, k_max: int) -> list[TailReport]:
    """Check the tail bound: mass at depth e(K) or beyond stays within 2**-K."""
    return _tail_reports(_upper_mass(fs), test, natural(k_max, "k_max"))


def _tail_reports(mass, test: RandomnessTest, k_max: int) -> list[TailReport]:
    if test.tail is None:
        raise DomainError("test carries no tail bound")
    reports = []
    for k in range(k_max + 1):
        cutoff, budget = test.tail(k), Fraction(1, 1 << k)
        worst = max((mass(test.level_at_least(n, cutoff)) for n in range(test.num_levels)), default=Fraction(0))
        reports.append(TailReport(k, cutoff, budget, worst, worst <= budget))
    return reports


def _require_budget(n: int, actual: Fraction) -> None:
    if actual > (budget := Fraction(1, 1 << n)):
        raise ContractError(f"level {n} over budget: {format_rational(actual)} > {format_rational(budget)}")


def _require_budgets(fs, test, up_to: int) -> None:
    for n, actual in enumerate(map(_upper_mass(fs), test.levels[: up_to + 1])):
        _require_budget(n, actual)


def _require_stored(test: RandomnessTest, n_max: int) -> None:
    if natural(n_max, "n_max") >= test.num_levels:
        raise DomainError(f"levels 0..{n_max} not all stored")


def _threshold_test(process: Process) -> RandomnessTest:
    """martingale_to_test's test, without its test-supermartingale check."""
    # 2**n < p/q iff 2**n <= (p - 1) // q: the levels crossed are that quotient's bits, once per table entry
    counts = [((p - 1) // q).bit_length() if p > q else 0 for p, q in process.table]
    levels = _first_passages(process, lambda w, codes: counts)
    return RandomnessTest._from_antichains(levels, max_depth=process.depth)


def _require_test_supermartingale(fs: ForecastingSystem, process: Process) -> None:
    """A ContractError unless the process is a test supermartingale, its reason naming the root
    unless that is 1, else the first negative value, else the first violation."""
    if failures := _test_failures(fs, process):
        root = process.root
        reason = f"check fails at {failures[0] or '@'}" if root == 1 else f"root is {format_rational(root)}, not 1"
        raise ContractError("input is not a test supermartingale for the given system", reason)


def martingale_to_test(process: Process, fs: ForecastingSystem) -> RandomnessTest:
    """Threshold cuts of a test supermartingale: level n collects first passages above 2**n.

    The budgets hold automatically: reaching 2**n from capital 1 has upper
    probability at most 2**-n.
    """
    _require_test_supermartingale(fs, process)
    return _threshold_test(process)


def supermartingale_from_test(
    fs: ForecastingSystem, test: RandomnessTest, n_max: int, cutoff: int, s: str = ROOT
) -> tuple[Fraction, Fraction]:
    """Half the summed conditional level probabilities, with a truncation remainder.

    Sums levels 0..n_max, each truncated to members shallower than
    ``cutoff``; the remainder bound cumulative_bound(s) * 2**-n_max covers
    the discarded tail of the untruncated series.
    """
    require_situation(s)
    _require_stored(test, n_max)
    _require_budgets(fs, test, n_max)
    value = Fraction(0)
    for n in range(n_max + 1):
        value += cut_upper_prob(fs, test.level_below(n, cutoff), s)
    remainder = cumulative_bound(fs, s) * Fraction(1, 1 << n_max)
    return value / 2, remainder


def _summed_process(fs, weighted_cuts, depth: int, normalize_root: bool, on_root=None) -> Process:
    """Half the weighted sum of the cuts' upper-probability maps, as a Process."""
    process = Process._from_codes(*_fold_sum(fs, weighted_cuts, depth, divisor=2, on_root=on_root))
    if normalize_root:
        if process.root > 1:
            raise ContractError("assembled root exceeds 1; refusing to normalise")
        process = process.with_root(1)
    return process


def assemble_test_supermartingale(
    fs: ForecastingSystem,
    test: RandomnessTest,
    n_max: int,
    cutoff: int | None = None,
    depth: int | None = None,
    normalize_root: bool = True,
) -> Process:
    """The summed-level process on the whole truncated tree, as a Process.

    With the default cutoff (beyond every member) the truncation is exact.
    Replacing the root by 1 keeps the supermartingale property because the
    assembled root never exceeds 1 when the budgets hold.
    """
    _require_stored(test, n_max)
    if cutoff is None and depth is None:  # whole levels: each budget is checked on its own fold's root
        return _summed_process(fs, ((1, cut) for cut in test.levels[: n_max + 1]), test.max_depth,
                               normalize_root, on_root=_require_budget)
    _require_budgets(fs, test, n_max)  # on the whole levels, before the cutoff and depth are used
    cutoff = test.max_depth + 1 if cutoff is None else cutoff
    depth = test.max_depth if depth is None else depth
    cuts = ((1, test.level_below(n, cutoff)) for n in range(n_max + 1))
    return _summed_process(fs, cuts, depth, normalize_root)


def _tail_from_prefix(prefix: list[int]) -> GrowthFunction:
    """The growth function with table ``prefix`` and tail n + slack: the least slack >= 0 not below the table."""
    return GrowthFunction(tuple(prefix), 1, max(0, prefix[-1] - len(prefix)), 1)


def schnorr_test_from_martingale(
    process: Process,
    rho: GrowthFunction,
    fs: ForecastingSystem,
) -> RandomnessTest:
    """Level n collects situations where capital has reached rho(depth) >= 2**n.

    The tail bound maps K to the first depth where ``rho`` reaches 2**K;
    past the stored members it continues affinely above the test depth,
    where it holds vacuously.
    """
    _require_test_supermartingale(fs, process)
    thresholds = [rho(n) for n in range(process.depth + 1)]
    # rho(w) >= 2**n for the first rho(w).bit_length() levels n, once per distinct value of level w
    levels = _first_passages(process, lambda w, codes: {c: t.bit_length() if p >= t * q else 0
                                                        for t in [thresholds[w]] for c in set(codes)
                                                        for p, q in [process.table[c]]})
    deepest = max((len(t) for cut in levels for t in cut), default=-1)
    prefix = []
    for k in count():
        prefix.append(rho.first_at_least(1 << k))
        if prefix[-1] > deepest:
            break
    return RandomnessTest._from_antichains(levels, max_depth=process.depth, tail=_tail_from_prefix(prefix))


def sigma_from_tailbound(tail: GrowthFunction) -> GrowthFunction:
    """The window-collapsed threshold schedule k -> e(4k + 3).

    Guarantees sum over levels n of 2**k * (mass at depth sigma(k) or
    beyond) <= 2**-k for any test whose tail bound ``e`` validates.
    """
    return tail.precompose_affine(4, 3)


def sigma_sharp(sigma: GrowthFunction, cutoff: int) -> int:
    """The largest k with sigma(k) <= cutoff; 0 when there is none."""
    return max(0, sigma.last_at_most(integer(cutoff, "cutoff")))


def schnorr_supermartingale_from_test(
    fs: ForecastingSystem, test: RandomnessTest, s: str = ROOT, accuracy: int = 0
) -> tuple[Fraction, Fraction]:
    """Value at ``s`` of the doubly-indexed tail-mass supermartingale.

    Sums the terms 2**k * P(level n at depth sigma(k) or beyond | s) over
    the schedule k <= accuracy + L, n <= accuracy + 2(accuracy + L) + L with
    L = integer_log_bound(cumulative_bound(s)), then halves.  The remainder
    bound is 2**-accuracy, or 0 when every omitted term vanishes on this
    finitely stored test.
    """
    if test.tail is None:
        raise DomainError("test carries no tail bound")
    natural(accuracy, "accuracy")
    sigma = sigma_from_tailbound(test.tail)
    level_bound = integer_log_bound(cumulative_bound(fs, s))
    k_cap = accuracy + level_bound
    n_cap = accuracy + 2 * k_cap + level_bound
    value = Fraction(0)
    for k in range(k_cap + 1):
        cutoff = sigma(k)
        for n in range(min(n_cap + 1, test.num_levels)):
            deep = test.level_at_least(n, cutoff)
            if deep:
                value += (1 << k) * cut_upper_prob(fs, deep, s)
    omitted_vanish = n_cap >= test.num_levels - 1 and all(
        not test.level_at_least(n, sigma(k_cap + 1)) for n in range(test.num_levels)
    )
    remainder = Fraction(0) if omitted_vanish else Fraction(1, 1 << accuracy)
    return value / 2, remainder


def assemble_schnorr_supermartingale(
    fs: ForecastingSystem,
    test: RandomnessTest,
    depth: int | None = None,
    normalize_root: bool = True,
) -> Process:
    """The full finite tail-mass sum as a Process on the truncated tree.

    Every term that is non-zero on the stored test is included, so this is
    the exact limit of the scheduled truncations for this finite object.
    """
    if test.tail is None:
        raise DomainError("test carries no tail bound")
    if depth is None:
        depth = test.max_depth
    sigma = sigma_from_tailbound(test.tail)
    k_cap = sigma.last_at_most(test.deepest_member())
    cuts = (
        (1 << k, test.level_at_least(n, sigma(k)))
        for k in range(k_cap + 1)
        for n in range(test.num_levels)
    )
    return _summed_process(fs, cuts, depth, normalize_root)


def derive_tail_bound_precise(fs: ForecastingSystem, test: RandomnessTest) -> GrowthFunction:
    """Scan a precise system's exact level probabilities for a valid tail bound.

    For each accuracy N the bound is the largest, over levels n <= N, first
    depth whose residual mass drops below 2**-(N+1); one final entry past
    all stored mass lets the affine tail continue vacuously.
    """
    if not is_precise(fs):
        raise DomainError("tail-bound derivation needs a precise forecasting system")
    mass = _upper_mass(fs)  # distinct cutoffs and levels often cut the same members
    for n, cut in enumerate(test.levels):
        _require_budget(n, mass(cut))

    top = test.deepest_member() + 1

    # the first cutoff where done(level n's residual mass past it) holds, else top + 1, by
    # bisection: the residual never rises with the cutoff, so done holds on from there
    def first(n: int, done) -> int:
        return bisect_left(range(top + 1), True, key=lambda cutoff: done(mass(test.level_at_least(n, cutoff))))

    prefix = []
    for big_n in range(test.num_levels):
        threshold = Fraction(1, 1 << (big_n + 1))
        prefix.append(max((first(n, lambda mass: mass < threshold) for n in range(big_n + 1)), default=0))
    exhausted = max((first(n, lambda mass: mass == 0) for n in range(test.num_levels)), default=0)
    prefix.append(max(exhausted, prefix[-1] if prefix else 0))
    return _tail_from_prefix(prefix)


def clip_to_budget(fs: ForecastingSystem, test: RandomnessTest) -> RandomnessTest:
    """Depth-truncate each level at the last stage still safely inside budget.

    Level n keeps its members below the largest cutoff whose running upper
    probability stays within 3 * 2**-(n+2); the result always validates,
    and inputs already meeting their budgets at every stage are unchanged.
    """
    return _clip(_upper_mass(fs), test)


def _clip(mass, test: RandomnessTest) -> RandomnessTest:
    clipped = []
    for n, cut in enumerate(test.levels):
        threshold = Fraction(3, 1 << (n + 2))
        # the running mass changes only where a member length is passed, and
        # never falls as the length grows: bisect for the first length over
        if mass(cut) > threshold:
            lengths = sorted({len(t) for t in cut})
            over = bisect_left(lengths, True, hi=len(lengths) - 1, key=lambda length: mass(
                frozenset(t for t in cut if len(t) <= length)) > threshold)
            cut = frozenset(t for t in cut if len(t) < lengths[over])
        clipped.append(cut)
    return RandomnessTest._from_antichains(tuple(clipped), max_depth=test.max_depth)


def combine_universal(fs: ForecastingSystem, tests: Sequence[RandomnessTest]) -> RandomnessTest:
    """Index-shifted union of budget-clipped tests: level n merges member levels n+m+1.

    The shift makes the budgets sum geometrically, so every combined level
    stays within 2**-n while covering each member's shifted level.
    """
    return _combine(_upper_mass(fs), collection(tests, "tests are a collection of randomness tests"))


def _combine(mass, tests: Sequence[RandomnessTest]) -> RandomnessTest:
    clipped = [_clip(mass, t) for t in tests]
    out_levels = max((t.num_levels - m - 1 for m, t in enumerate(clipped)), default=0)
    levels = []
    for n in range(max(out_levels, 0)):
        union: set[str] = set()
        for m, t in enumerate(clipped):
            if n + m + 1 < t.num_levels:
                union |= t.levels[n + m + 1]
        levels.append(minimal_antichain(union))
    max_depth = max((t.max_depth for t in tests), default=0)
    return RandomnessTest._from_antichains(tuple(levels), max_depth=max_depth)


def levels_hit(test: RandomnessTest, w: str) -> set[int]:
    """The levels having some member that is a prefix of ``w``."""
    require_situation(w)
    return {
        n for n, cut in enumerate(test.levels) if any(w.startswith(t) for t in cut)
    }


def approx_level_prob(
    fs: ForecastingSystem, test: RandomnessTest, n: int, accuracy: int
) -> tuple[Fraction, Fraction]:
    """Level probability via the tail bound's own truncation schedule.

    Truncates level ``n`` below depth e(accuracy) and reports the 2**-accuracy
    error budget, or an exact 0 when nothing was cut away.
    """
    if test.tail is None:
        raise DomainError("test carries no tail bound")
    cutoff = test.tail(natural(accuracy, "accuracy"))
    value = _cut_trie(_pairs(fs), test.level_below(n, cutoff))[0]
    exact = not test.level_at_least(n, cutoff)
    error = Fraction(0) if exact else Fraction(1, 1 << accuracy)
    return value, error
