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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import ContractError, DomainError
from .expectation import _cut_value_sum, cut_upper_prob
from .forecast import ForecastingSystem, cumulative_bound, integer_log_bound, is_precise
from .growth import GrowthFunction
from .martingale import Process, check_test_supermartingale
from .numerals import format_rational
from .tree import ROOT, minimal_antichain, require_antichain

DEFAULT_HORIZON = 1 << 20


@dataclass(frozen=True)
class RandomnessTest:
    levels: tuple[frozenset[str], ...]
    max_depth: int
    tail: GrowthFunction | None = None

    def __post_init__(self):
        if self.max_depth < 0:
            raise DomainError("test depth must be non-negative")
        checked = []
        for cut in self.levels:
            members = require_antichain(cut)
            if any(len(t) > self.max_depth for t in members):
                raise DomainError("level member deeper than the declared test depth")
            checked.append(members)
        object.__setattr__(self, "levels", tuple(checked))

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> frozenset[str]:
        if not 0 <= n < self.num_levels:
            raise DomainError(f"level {n} not stored (test has {self.num_levels} levels)")
        return self.levels[n]

    def level_below(self, n: int, cutoff: int) -> frozenset[str]:
        """The members of level ``n`` of depth strictly less than ``cutoff``."""
        return frozenset(t for t in self.level(n) if len(t) < cutoff)

    def level_at_least(self, n: int, cutoff: int) -> frozenset[str]:
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


def _level_reports(fs, levels) -> Iterator[LevelReport]:
    for n, cut in enumerate(levels):
        budget = Fraction(1, 1 << n)
        actual = cut_upper_prob(fs, cut)
        yield LevelReport(n, budget, actual, actual <= budget)


def validate_ml_test(fs: ForecastingSystem, test: RandomnessTest) -> list[LevelReport]:
    """Check every stored level against its 2**-n upper-probability budget."""
    return list(_level_reports(fs, test.levels))


def validate_schnorr_tail(
    fs: ForecastingSystem, test: RandomnessTest, k_max: int
) -> list[TailReport]:
    """Check the tail bound: mass at depth e(K) or beyond stays within 2**-K."""
    if test.tail is None:
        raise DomainError("test carries no tail bound")
    reports = []
    for k in range(k_max + 1):
        cutoff = test.tail(k)
        budget = Fraction(1, 1 << k)
        worst = Fraction(0)
        for n in range(test.num_levels):
            worst = max(worst, cut_upper_prob(fs, test.level_at_least(n, cutoff)))
        reports.append(TailReport(k, cutoff, budget, worst, worst <= budget))
    return reports


def _require_budgets(fs, test, up_to: int) -> None:
    for report in _level_reports(fs, test.levels[: up_to + 1]):
        if not report.passed:
            actual, budget = format_rational(report.actual), format_rational(report.budget)
            raise ContractError(f"level {report.level} over budget: {actual} > {budget}")


def _first_passages(process: Process, crossed) -> tuple[frozenset[str], ...]:
    """Level n: each situation s with crossed(p, q, |s|) > n, p/q its value in
    lowest terms, that has no strict prefix with the same property.

    One pass in heap order carries down each path the highest level crossed
    so far; a situation joins every level between that and its own.
    """
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


def _threshold_test(process: Process) -> RandomnessTest:
    """martingale_to_test without its test-supermartingale check."""
    # 2**n < p/q iff 2**n <= (p - 1) // q: the levels crossed are that quotient's bits
    levels = _first_passages(process, lambda p, q, n: max(0, (p - 1) // q).bit_length())
    return RandomnessTest(levels, max_depth=process.depth)


def martingale_to_test(process: Process, fs: ForecastingSystem) -> RandomnessTest:
    """Threshold cuts of a test supermartingale: level n collects first passages above 2**n.

    The budgets hold automatically: reaching 2**n from capital 1 has upper
    probability at most 2**-n.
    """
    if not check_test_supermartingale(fs, process):
        raise ContractError("input is not a test supermartingale for the given system")
    return _threshold_test(process)


def supermartingale_from_test(
    fs: ForecastingSystem, test: RandomnessTest, n_max: int, cutoff: int, s: str = ROOT
) -> tuple[Fraction, Fraction]:
    """Half the summed conditional level probabilities, with a truncation remainder.

    Sums levels 0..n_max, each truncated to members shallower than
    ``cutoff``; the remainder bound cumulative_bound(s) * 2**-n_max covers
    the discarded tail of the untruncated series.
    """
    if not 0 <= n_max < test.num_levels:
        raise DomainError(f"levels 0..{n_max} not all stored")
    _require_budgets(fs, test, n_max)
    value = Fraction(0)
    for n in range(n_max + 1):
        value += cut_upper_prob(fs, test.level_below(n, cutoff), s)
    remainder = cumulative_bound(fs, s) * Fraction(1, 1 << n_max)
    return value / 2, remainder


def _summed_process(fs, weighted_cuts, depth: int, normalize_root: bool) -> Process:
    """Half the weighted sum of the cuts' upper-probability maps, as a Process."""
    values = _cut_value_sum(fs, weighted_cuts, depth, divisor=2)
    if normalize_root:
        if values[ROOT] > 1:
            raise ContractError("assembled root exceeds 1; refusing to normalise")
        values[ROOT] = Fraction(1)
    return Process(depth, values)


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
    if not 0 <= n_max < test.num_levels:
        raise DomainError(f"levels 0..{n_max} not all stored")
    _require_budgets(fs, test, n_max)
    if cutoff is None:
        cutoff = test.max_depth + 1
    if depth is None:
        depth = test.max_depth
    cuts = ((1, test.level_below(n, cutoff)) for n in range(n_max + 1))
    return _summed_process(fs, cuts, depth, normalize_root)


def schnorr_test_from_martingale(
    process: Process,
    rho: GrowthFunction,
    fs: ForecastingSystem,
    horizon: int = DEFAULT_HORIZON,
) -> RandomnessTest:
    """Level n collects situations where capital has reached rho(depth) >= 2**n.

    The tail bound maps K to the first depth where ``rho`` reaches 2**K;
    past the stored members it continues affinely above the test depth,
    where it holds vacuously.
    """
    if not check_test_supermartingale(fs, process):
        raise ContractError("input is not a test supermartingale for the given system")
    thresholds = [rho(n) for n in range(process.depth + 1)]
    # rho(|s|) >= 2**n for the first rho(|s|).bit_length() levels n
    levels = _first_passages(
        process, lambda p, q, n: thresholds[n].bit_length() if p >= thresholds[n] * q else 0
    )
    deepest = max((len(t) for cut in levels for t in cut), default=-1)
    prefix = []
    k = 0
    while True:
        value = rho.first_at_least(1 << k, horizon)
        prefix.append(value)
        if value > deepest:
            break
        k += 1
    slack = max(0, prefix[-1] - len(prefix))
    tail = GrowthFunction(tuple(prefix), 1, slack, 1)
    return RandomnessTest(levels, max_depth=process.depth, tail=tail)


def sigma_from_tailbound(tail: GrowthFunction) -> GrowthFunction:
    """The window-collapsed threshold schedule k -> e(4k + 3).

    Guarantees sum over levels n of 2**k * (mass at depth sigma(k) or
    beyond) <= 2**-k for any test whose tail bound ``e`` validates.
    """
    return tail.precompose_affine(4, 3)


def sigma_sharp(sigma: GrowthFunction, cutoff: int) -> int:
    """The largest k with sigma(k) <= cutoff; 0 when there is none."""
    return max(0, sigma.last_at_most(cutoff))


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
    _require_budgets(fs, test, test.num_levels - 1)

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
        (
            min(cutoff for cutoff in range(top + 1) if residual(n, cutoff) == 0)
            for n in range(test.num_levels)
        ),
        default=0,
    )
    prefix.append(max(exhausted, prefix[-1] if prefix else 0))
    slack = max(0, prefix[-1] - len(prefix))
    return GrowthFunction(tuple(prefix), 1, slack, 1)


def clip_to_budget(fs: ForecastingSystem, test: RandomnessTest) -> RandomnessTest:
    """Depth-truncate each level at the last stage still safely inside budget.

    Level n keeps its members below the largest cutoff whose running upper
    probability stays within 3 * 2**-(n+2); the result always validates,
    and inputs already meeting their budgets at every stage are unchanged.
    """
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
    return RandomnessTest(tuple(clipped), max_depth=test.max_depth)


def combine_universal(
    fs: ForecastingSystem, tests: Sequence[RandomnessTest]
) -> RandomnessTest:
    """Index-shifted union of budget-clipped tests: level n merges member levels n+m+1.

    The shift makes the budgets sum geometrically, so every combined level
    stays within 2**-n while covering each member's shifted level.
    """
    clipped = [clip_to_budget(fs, t) for t in tests]
    out_levels = max((t.num_levels - m - 1 for m, t in enumerate(clipped)), default=0)
    levels = []
    for n in range(max(out_levels, 0)):
        union: set[str] = set()
        for m, t in enumerate(clipped):
            if n + m + 1 < t.num_levels:
                union |= t.levels[n + m + 1]
        levels.append(minimal_antichain(union))
    max_depth = max((t.max_depth for t in tests), default=0)
    return RandomnessTest(tuple(levels), max_depth=max_depth)


def levels_hit(test: RandomnessTest, w: str) -> set[int]:
    """The levels having some member that is a prefix of ``w``."""
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
    cutoff = test.tail(accuracy)
    value = cut_upper_prob(fs, test.level_below(n, cutoff))
    exact = not test.level_at_least(n, cutoff)
    error = Fraction(0) if exact else Fraction(1, 1 << accuracy)
    return value, error
