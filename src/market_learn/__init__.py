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

from .engine import solve_quotes
from .errors import MarketLearnError
from .model import Belief
from .presets import binary_symmetric, four_state_cascade
from .scenario import load_scenario, scenario_from_dict
from .simulate import ScenarioConfig, run_monte_carlo, run_private_episode, run_public_episode

__version__ = "0.1.0"
