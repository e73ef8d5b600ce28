"""Sequential-trade market simulator with competitive quotes and Bayesian
public beliefs, plus checkers for when such a market learns the asset value.

The package models a security of unknown value traded one share at a time:
market makers post zero-profit bid/ask quotes, informed traders act on
private signals (or the signals are public, for comparison), and the public
belief evolves by Bayes rule on whatever is observable.  The conditions
module analyzes signal structures directly: pairwise informativeness,
likelihood-ratio monotonicity, cascade beliefs where learning stalls, and a
numerical audit of the expectation-movement condition.
"""

from .conditions import (
    AzcAuditReport,
    CascadeBeliefSet,
    ConditionReport,
    azc_audit,
    find_cascade_beliefs,
    find_crossing_signals,
    is_cascade_belief,
    is_mlrp,
    is_pairwise_informative,
    scan_cascades,
    simplex_grid,
)
from .engine import (
    MarketState,
    Quotes,
    initial_market_state,
    solve_quotes,
)
from .errors import (
    ConfigInvalid,
    DegenerateBelief,
    DimensionMismatch,
    EmptySignalSet,
    InvalidBelief,
    MarketLearnError,
    MissingResults,
    NoConsistentPartition,
    NonPositiveDensity,
    NotPairwiseInformative,
    OutOfHull,
    PreconditionFailed,
    RowSumInvalid,
    UnknownSignal,
)
from .model import (
    ACTIONS,
    BUY,
    NO_TRADE,
    SELL,
    Belief,
    SignalPartition,
    SignalSpace,
    SignalStructure,
    StateSpace,
    action_likelihood_vector,
    bayes_posterior,
    bayes_posterior_set,
    expectation,
    posterior_values,
    update_public_belief_on_action,
    validate_structure,
)
from .plots import emit_plots, svg_line_chart
from .presets import binary_symmetric, four_state_cascade, three_state_informative
from .scenario import (
    load_scenario,
    load_structure,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    structure_from_dict,
    structure_to_dict,
)
from .simulate import (
    EpisodeResult,
    ModeComparison,
    MonteCarloSummary,
    ScenarioConfig,
    StateBreakdown,
    compare_modes,
    run_episodes,
    run_monte_carlo,
    run_private_episode,
    run_public_episode,
    summarize_episodes,
)
from .verify import (
    DeviationReport,
    check_belief_martingale,
    check_likelihood_ratio_martingale,
    check_limit_support_3state,
    check_price_directions,
    check_price_martingale,
    random_belief,
    random_market_state,
    random_mlrp_structure,
    random_structure,
    run_martingale_suite,
)

__version__ = "0.1.0"
