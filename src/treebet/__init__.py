"""Exact game-theoretic probability on binary event trees.

Interval forecasts turn the event tree into an imprecise probability tree;
this package computes its upper and lower expectations exactly (rational
arithmetic throughout), verifies supermartingales, and converts between
test supermartingales and leveled randomness tests with explicit
truncation certificates.
"""

from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    ParseError,
    ResourceError,
    TreebetError,
)
from .expectation import (
    DepthGamble,
    cond_lower,
    cond_upper,
    cut_lower_prob,
    cut_upper_prob,
    cut_value_map,
    cylinder_bounds,
)
from .forecast import (
    ForecastCursor,
    ForecastingSystem,
    IntervalForecast,
    Markov,
    Stationary,
    Table,
    cumulative_bound,
    integer_log_bound,
    interval,
    is_non_degenerate,
    is_precise,
)
from .growth import GrowthFunction, affine
from .local import LocalGamble, gamble, lower_expectation, precise_expectation, upper_expectation
from .martingale import (
    ApproximationSchedule,
    Process,
    VilleThreshold,
    bound_check,
    capital_along,
    check_supermartingale,
    check_test_supermartingale,
    kelly_gamble,
    kelly_process,
    rationalize,
    ville_threshold,
)
from .randtest import (
    LevelReport,
    RandomnessTest,
    TailReport,
    approx_level_prob,
    assemble_schnorr_supermartingale,
    assemble_test_supermartingale,
    clip_to_budget,
    combine_universal,
    derive_tail_bound_precise,
    levels_hit,
    martingale_to_test,
    schnorr_supermartingale_from_test,
    schnorr_test_from_martingale,
    sigma_from_tailbound,
    sigma_sharp,
    supermartingale_from_test,
    validate_ml_test,
    validate_schnorr_tail,
)
from .tree import (
    ROOT,
    CutStatus,
    Relation,
    cut_status,
    minimal_antichain,
    relation,
)

__version__ = "0.1.0"
